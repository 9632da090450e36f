"""Seeded synthetic data shaped like the KEEL sets the paper uses.

Each shape has the row, attribute and minority counts of one KEEL file
named by ``scripts/fetch_keel.py``; nothing is downloaded. The
generator needs only numpy, so the benchmark can build its inputs before
the library under test is imported.

The majority class is a tight core plus a displaced share: for 35% of
the majority rows one attribute is pushed away from the core by a
uniform amount. Because the fuzzy similarity takes the minimum over
attributes, one far attribute is enough to lower a row's positive-region
score, so the displaced rows spread the density scores from about 0.1
to 0.9 at gamma = 1. Each grid tau above 0 then removes its own share of
the majority (about 4% at tau 0.2 and 15% at tau 0.4), instead of the
0-2% a plain Gaussian blob gives. At gamma = 0.5 no tau up to 0.5 can
remove anything: on features scaled to [0, 1] every per-attribute
similarity max(0, 1 - 0.5 |a - b|) is at least 0.5, so every score is.

The minority is a Gaussian cluster away from the majority core. A few
rows of each class (5% of the minority count in the training rows, a
drawn count in a prediction batch) sit inside the other class, so no
classifier is perfect: held-out G-means are about 0.9 to 0.95.

Columns get arbitrary units (an offset and a scale per column), which
min-max scaling removes, so the CSV looks like measured data.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

POSITIVE = "positive"
NEGATIVE = "negative"


class Shape(NamedTuple):
    rows: int
    attributes: int
    minority: int

    @property
    def majority(self) -> int:
        return self.rows - self.minority

    @property
    def imbalance_ratio(self) -> float:
        return self.majority / self.minority


# name -> shape, as listed for the KEEL files in scripts/fetch_keel.py
SHAPES = {
    "haberman": Shape(306, 3, 81),
    "pima": Shape(768, 8, 268),
    "wisconsin": Shape(683, 9, 239),
    "yeast3": Shape(1484, 8, 163),
    "vehicle0": Shape(846, 18, 199),
    "yeast4": Shape(1484, 8, 51),
    "abalone19": Shape(4174, 8, 32),
}

MAJORITY_CENTRE = 0.20
MAJORITY_SPREAD = 0.04
DISPLACED_SHARE = 0.35
DISPLACEMENT = (0.2, 0.9)
MINORITY_CENTRE = 0.55
MINORITY_SPREAD = 0.05
OVERLAP_SHARE = 0.05

TRAIN_STREAM = 0
BATCH_STREAM = 1


def _rng(name: str, seed: int, stream: int) -> np.random.Generator:
    key = zlib.crc32(name.encode("ascii"))
    return np.random.default_rng(np.random.SeedSequence([seed, key, stream]))


def _column_units(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Fixed per shape, not per seed: the units are part of the "file".
    rng = _rng(name, 0, 99)
    offsets = rng.uniform(-5.0, 5.0, n)
    scales = 10.0 ** rng.uniform(0.0, 2.0, n)
    return offsets, scales


def _majority(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    x = MAJORITY_CENTRE + MAJORITY_SPREAD * rng.standard_normal((m, n))
    k = int(round(DISPLACED_SHARE * m))
    rows = rng.permutation(m)[:k]
    cols = rng.integers(0, n, k)
    lo, hi = DISPLACEMENT
    x[rows, cols] += lo + (hi - lo) * rng.random(k)
    return x


def _minority(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return MINORITY_CENTRE + MINORITY_SPREAD * rng.standard_normal((m, n))


def _sample(name: str, rng: np.random.Generator, m_min: int, m_maj: int,
            overlap: int) -> tuple[np.ndarray, np.ndarray]:
    n = SHAPES[name].attributes
    x_min = _minority(rng, m_min, n)
    x_maj = _majority(rng, m_maj, n)
    # `overlap` rows of each class sit inside the other class, so no
    # classifier is perfect and the G-mean stays below 1.
    x_min[:overlap] = _majority(rng, overlap, n)
    x_maj[:overlap] = _minority(rng, overlap, n)
    x = np.vstack([x_min, x_maj])
    y = np.concatenate([np.ones(m_min, dtype=np.int64),
                        -np.ones(m_maj, dtype=np.int64)])
    order = rng.permutation(x.shape[0])
    offsets, scales = _column_units(name, n)
    return offsets + scales * x[order], y[order]


def make_dataset(name: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training rows of one shape: (features, labels), labels +1 for the
    minority and -1 for the majority, rows shuffled."""
    shape = SHAPES[name]
    # The overlap is a share of the minority, so the majority does not
    # swamp the minority region at high imbalance.
    return _sample(name, _rng(name, seed, TRAIN_STREAM), shape.minority,
                   shape.majority, round(OVERLAP_SHARE * shape.minority))


def make_batch(name: str, seed: int,
               rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A labelled batch from the same distribution, half minority, for
    prediction throughput and a held-out G-mean. Independent of the
    training rows of the same seed."""
    half = rows // 2
    rng = _rng(name, seed, BATCH_STREAM)
    # A drawn overlap count, so the held-out G-mean differs by seed.
    return _sample(name, rng, half, rows - half,
                   int(rng.binomial(half, OVERLAP_SHARE)))


def csv_text(features: np.ndarray, labels: np.ndarray) -> str:
    """Headered CSV, label last. Floats use repr, so loading the text
    reproduces the array bit for bit."""
    n = features.shape[1]
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["class"])]
    for row, label in zip(features, labels):
        cells = [repr(float(v)) for v in row]
        cells.append(POSITIVE if label == 1 else NEGATIVE)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(features, labels))
