"""Tests of the benchmark's seeded data generator.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import datagen  # noqa: E402
from datagen import SHAPES, csv_text, make_batch, make_dataset  # noqa: E402
from workloads import FIT_GAMMA, GAMMA_GRID, TAU_GRID, WORKLOADS  # noqa: E402

WORKLOAD_SHAPES = sorted({wl.shape for wl in WORKLOADS.values()})


def density_scores(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Majority positive-region density scores, written independently of
    the library: min-max scale, min t-norm over attributes, mean
    similarity to the other majority rows. Row blocks bound memory."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    xs = (x - lo) / np.where(hi > lo, hi - lo, 1.0)
    maj = xs[y == -1]
    p = maj.shape[0]
    scores = np.empty(p)
    for start in range(0, p, 256):
        block = maj[start:start + 256]
        d = np.abs(block[:, None, :] - maj[None, :, :]).max(axis=2)
        sim = np.maximum(0.0, 1.0 - gamma * d)
        scores[start:start + 256] = (sim.sum(axis=1) - 1.0) / (p - 1)
    return scores


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_class_counts_and_imbalance(name):
    shape = SHAPES[name]
    x, y = make_dataset(name, 3)
    assert x.shape == (shape.rows, shape.attributes)
    assert x.dtype == np.float64 and np.all(np.isfinite(x))
    assert int(np.sum(y == 1)) == shape.minority
    assert int(np.sum(y == -1)) == shape.majority
    assert np.sum(y == -1) / np.sum(y == 1) == shape.imbalance_ratio


def test_abalone19_imbalance_ratio_is_about_129():
    assert SHAPES["abalone19"].imbalance_ratio == pytest.approx(129.4, abs=0.1)


@pytest.mark.parametrize("name", WORKLOAD_SHAPES)
def test_same_seed_gives_same_bytes(name):
    a = csv_text(*make_dataset(name, 7))
    assert a == csv_text(*make_dataset(name, 7))
    assert a != csv_text(*make_dataset(name, 8))
    xb1, yb1 = make_batch(name, 7, 500)
    xb2, yb2 = make_batch(name, 7, 500)
    assert xb1.tobytes() == xb2.tobytes() and yb1.tobytes() == yb2.tobytes()


def test_batch_is_half_minority_and_independent_of_training_rows():
    xb, yb = make_batch("pima", 1, 1001)
    assert xb.shape == (1001, 8)
    assert int(np.sum(yb == 1)) == 500
    x, _ = make_dataset("pima", 1)
    assert not np.any(np.isin(xb[:, 0], x[:, 0]))


def test_csv_round_trips_through_the_library_bit_for_bit(tmp_path):
    from frlstsvm.dataset import load_csv
    x, y = make_dataset("pima", 2)
    path = tmp_path / "pima.csv"
    datagen.write_csv(path, x, y)
    ds = load_csv(path, positive_label=datagen.POSITIVE, has_header=True)
    assert ds.features.tobytes() == x.tobytes()
    assert np.array_equal(ds.labels, y)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", WORKLOAD_SHAPES)
def test_each_tau_above_zero_drops_its_own_share_at_gamma_1(name, seed):
    x, y = make_dataset(name, seed)
    scores = density_scores(x, y, FIT_GAMMA)
    kept = {tau: float(np.mean(scores >= tau)) for tau in TAU_GRID}
    assert kept[0.0] == 1.0
    # every tau above 0 drops a non-zero share, and a distinct one
    assert 0.005 <= 1.0 - kept[0.2] <= 0.10
    assert 0.05 <= kept[0.2] - kept[0.4]
    assert kept[0.4] >= 0.75


@pytest.mark.parametrize("name", WORKLOAD_SHAPES)
def test_gamma_half_scores_never_fall_below_one_half(name):
    # Structural, not a generator choice: scaled to [0, 1], every
    # per-attribute similarity at gamma 0.5 is >= 0.5, so no grid tau
    # (<= 0.4) can drop a row at that gamma.
    assert 0.5 in GAMMA_GRID
    x, y = make_dataset(name, 1)
    assert density_scores(x, y, 0.5).min() >= 0.5


def test_library_scores_agree_with_the_independent_ones():
    from frlstsvm.dataset import minmax_apply, minmax_fit
    from frlstsvm.fuzzy_rough import FuzzyParams, positive_region_scores
    x, y = make_dataset("pima", 1)
    xs = minmax_apply(minmax_fit(x), x)
    lib = positive_region_scores(xs, y, FuzzyParams(gamma=1.0), -1).scores
    np.testing.assert_allclose(lib, density_scores(x, y, 1.0), atol=1e-12)
