#!/usr/bin/env python3
"""Write the result files that a performance change must keep byte for
byte.

    python3 scripts/cv_fingerprint.py OUTDIR

On the seeded data of perfbench/datagen.py (seed 1), pima-shaped but
where CONFIG_SHAPES names another shape, it writes, for each config in
CONFIGS, the nested-CV result files cv_csv_text and cv_jsonl_text
(`<name>.csv`, `<name>.jsonl`). For
each single fit in FITS (fit_frlstsvm: a linear and a gaussian fit,
and linear fits under the product and lukasiewicz t-norms and in
lower_approx score mode, all pima-shaped, and a linear fit on the
abalone19 shape, whose majority's row sums run on worker threads) it
also writes the saved model file and predict(...,
return_distances=True), by the model that load_model reads back from
it, on 500 held-out rows of the fit's shape, so the predictions pin the
reader's bits as well as the fit's. The configs are the criterion-5 linear
grid (10 outer x 9 inner folds), the same grid with c2 ranging apart
from c1, a small gaussian grid, a gaussian grid whose gammas and taus
share kept sets and whose c values share plane terms, a gaussian grid
on the yeast3 shape whose validation rows span two kernel row blocks,
so its grid scoring runs on worker threads, the linear grid without
subsampling and weights and in lower_approx score mode, and grids
without tau 0 for each t-norm and score mode. One more CV run
goes through the command line, `frlstsvm cv` with CLI_FLAGS on the same
data written as a CSV file, and writes `cli.csv`, so the chain from
flag text through parse_config to the result file is pinned too.

The library comes from the src/ beside this script. To compare two
commits, run the script in a checkout of each (copy it into a checkout
that predates it) and compare the two directories byte for byte:

    diff -r OUT_PARENT OUT_CHANGE && echo identical

It uses one process and, run as a script, one BLAS thread: it sets
the thread variables of perfbench/child.py to 1 before numpy is
imported, since a different BLAS thread count can change the last bits
of a solve.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name: str):
    """perfbench/<name>.py, imported by path: perfbench is not a
    package."""
    path = REPO_ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    # child.py imports only the standard library, so numpy is not yet
    # loaded here
    os.environ.update(dict.fromkeys(_perfbench("child").THREAD_VARS, "1"))

sys.path.insert(0, str(REPO_ROOT / "src"))

from frlstsvm import cli  # noqa: E402
from frlstsvm.classifier import (  # noqa: E402
    TrainConfig,
    fit_frlstsvm,
    load_model,
    predict,
    save_model,
)
from frlstsvm.dataset import LabeledDataset  # noqa: E402
from frlstsvm.experiment import (  # noqa: E402
    ExperimentConfig,
    cv_csv_text,
    cv_jsonl_text,
    run_nested_cv,
)
from frlstsvm.fuzzy_rough import FuzzyParams  # noqa: E402

SHAPE = "pima"
SEED = 1
PROBE_ROWS = 500

_LINEAR_GRID = dict(tau_grid=(0.0, 0.2, 0.4), gamma_grid=(0.5, 1.0),
                    c1_grid=(0.25, 1.0, 4.0), folds=10, inner_folds=9)

# Inner selection picks tau 0 on every outer fold of the linear grid,
# so its records never show a subsample; the grids without tau 0 put
# the subsample and each score mode and t-norm into the records.
_SUBSAMPLED = dict(_LINEAR_GRID, tau_grid=(0.2, 0.4), gamma_grid=(1.0,))

# name -> ExperimentConfig fields; every config runs one repeat, seed 1,
# in one process
CONFIGS = {
    "linear": _LINEAR_GRID,
    # c1 and c2 crossed: nine (c1, c2) per group from three values of
    # each, so each plane solved serves three of them
    "untied": dict(_LINEAR_GRID, c2_grid=(0.25, 1.0, 4.0)),
    "gaussian": dict(kernel="gaussian", tau_grid=(0.0, 0.2),
                     gamma_grid=(1.0,), c1_grid=(1.0,),
                     sigma_grid=(1.0, 2.0), folds=5),
    # at gamma 0.5 every density score is >= 0.5, so tau 0.2 keeps what
    # tau 0 keeps: one set of blocks, fit once per (c, sigma), with one
    # set of c-free terms per sigma
    "gaussian_shared": dict(kernel="gaussian", tau_grid=(0.0, 0.2),
                            gamma_grid=(0.5, 1.0), c1_grid=(0.25, 1.0),
                            sigma_grid=(1.0, 2.0), folds=5),
    # on the yeast3 shape (CONFIG_SHAPES) an inner fold validates about
    # 371 rows against about 371 reference rows, 320 rows a kernel
    # block: two blocks, scored on worker threads where there are CPUs
    "gaussian_yeast3": dict(kernel="gaussian", tau_grid=(0.0, 0.2),
                            gamma_grid=(1.0,), c1_grid=(1.0,),
                            sigma_grid=(1.0,), folds=2, inner_folds=2),
    # tau 0 keeps every majority row: no subsampling
    "nosubsample_noweights": dict(_LINEAR_GRID, tau_grid=(0.0,),
                                  weights_enabled=False),
    "lower_approx": dict(_LINEAR_GRID, score_mode="lower_approx"),
    "subsampled": _SUBSAMPLED,
    "subsampled_lower_approx": dict(_SUBSAMPLED, score_mode="lower_approx"),
    "subsampled_product": dict(_SUBSAMPLED, tnorm="product"),
    "subsampled_lukasiewicz": dict(_SUBSAMPLED, tnorm="lukasiewicz"),
}

# name -> the datagen shape of each config in CONFIGS not on SHAPE
CONFIG_SHAPES = {"gaussian_yeast3": "yeast3"}

# the flags of the `cv` run beside --data and --out: a subsampled grid
# under the product t-norm with lower_approx scores, the label column
# named in the header, and the paper's literal metrics. Each is a flag
# that older checkouts' cv command takes too, so that the script runs
# in the checkout it is compared with
CLI_FLAGS = ("--header", "true", "--label-column", "class",
             "--positive-label", "positive", "--tau", "0.2,0.4",
             "--gamma", "1", "--c1", "0.25,1,4", "--tnorm", "product",
             "--score-mode", "lower-approx",
             "--metric-convention", "paper_literal", "--folds", "10",
             "--inner-folds", "9", "--repeats", "1", "--seed", "1",
             "--workers", "1")

# name -> the TrainConfig fields of a single fit beside c1 = c2 = 1 and
# tau 0.2. Each keeps a strict subset of the majority, so its scores
# and its kept rows' weights come from both of a lone fit's row-sum
# passes
FITS = {
    "fit_linear": dict(fuzzy=FuzzyParams(gamma=1.0)),
    "fit_gaussian": dict(fuzzy=FuzzyParams(gamma=1.0), kernel="gaussian",
                         sigma=1.0),
    "fit_product": dict(fuzzy=FuzzyParams(gamma=1.0, tnorm="product")),
    "fit_lukasiewicz": dict(fuzzy=FuzzyParams(gamma=1.0,
                                              tnorm="lukasiewicz")),
    # the largest majority distance is 1, so at gamma 2 the clip of the
    # similarity at 0 acts, where at gamma 1 it is skipped
    "fit_lower_approx": dict(fuzzy=FuzzyParams(gamma=2.0,
                                               score_mode="lower_approx")),
    "fit_abalone19": dict(fuzzy=FuzzyParams(gamma=1.0)),
}

# name -> the datagen shape of each fit in FITS not on SHAPE. The
# abalone19 majority (4142 rows) is large enough that both of its lone
# fit's row-sum passes run on worker threads (pima's run on the calling
# thread)
FIT_SHAPES = {"fit_abalone19": "abalone19"}


def write_fingerprint(outdir, configs=None,
                      cli_flags=CLI_FLAGS) -> list[Path]:
    """Write every fingerprint file into outdir (created if absent) and
    return their paths. configs maps a name to ExperimentConfig fields;
    None means CONFIGS. cli_flags are the `cv` run's flags."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    datagen = _perfbench("datagen")
    ds = LabeledDataset(*datagen.make_dataset(SHAPE, SEED))
    written = []

    def write(name: str, text: str) -> None:
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for name, fields in (CONFIGS if configs is None else configs).items():
        config = ExperimentConfig(repeats=1, seed=SEED, workers=1, **fields)
        shape = CONFIG_SHAPES.get(name, SHAPE)
        result = run_nested_cv(config, ds if shape == SHAPE else
                               LabeledDataset(*datagen.make_dataset(shape,
                                                                    SEED)))
        write(f"{name}.csv", cv_csv_text(result))
        write(f"{name}.jsonl", cv_jsonl_text(result))
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / f"{SHAPE}.csv"
        datagen.write_csv(data, ds.features, ds.labels)
        path = outdir / "cli.csv"
        # the summary table carries a wall time: not part of the output
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["cv", "--data", str(data), "--out", str(path),
                             *cli_flags])
        if code != 0:
            raise RuntimeError(f"frlstsvm cv exited {code}")
        written.append(path)
    for name, fields in FITS.items():
        shape = FIT_SHAPES.get(name, SHAPE)
        fit_ds = LabeledDataset(*datagen.make_dataset(shape, SEED))
        probe, _ = datagen.make_batch(shape, SEED, PROBE_ROWS)
        model = fit_frlstsvm(fit_ds, TrainConfig(c1=1.0, c2=1.0, tau=0.2,
                                                 **fields))
        path = outdir / f"{name}.model"
        save_model(model, path)
        written.append(path)
        labels, d1, d2 = predict(load_model(path), probe,
                                 return_distances=True)
        write(f"{name}.predict", "".join(
            f"{label} {a!r} {b!r}\n"
            for label, a, b in zip(labels.tolist(), d1.tolist(),
                                   d2.tolist())))
    return written


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 scripts/cv_fingerprint.py OUTDIR",
              file=sys.stderr)
        return 2
    for path in write_fingerprint(argv[0]):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
