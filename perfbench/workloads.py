"""The benchmark's workloads: what each one runs and why it exists."""

from __future__ import annotations

from typing import NamedTuple

# The criterion-5 grid of the paper's protocol.
TAU_GRID = (0.0, 0.2, 0.4)
GAMMA_GRID = (0.5, 1.0)
C_GRID = (0.25, 1.0, 4.0)
OUTER_FOLDS = 10
INNER_FOLDS = 9

# The single fit that the fit workloads time and that every workload
# saves, loads and serves.
FIT_TAU = 0.2
FIT_GAMMA = 1.0
FIT_C = 1.0
KERNEL_SIGMA = 1.0

PREDICT_ROWS = 10_000

# Quality floors. The seeded shapes give a nested-CV mean G-mean of
# about 0.97 and held-out G-means above 0.9; a result under a floor
# fails its check.
CV_GMEAN_FLOOR = 0.90
HOLDOUT_GMEAN_FLOOR = 0.80


class Workload(NamedTuple):
    shape: str
    kind: str  # "cv" or "fit"
    workers: int = 1
    kernel: str = "linear"
    traced_jobs: int = 1
    # Worker count of one extra repeat whose cv_csv_text must equal the
    # workload's byte for byte (criterion 8); 0 for none.
    check_workers: int = 0
    why: str = ""


WORKLOADS = {
    "cv-pima": Workload(
        "pima", "cv", workers=1, check_workers=2,
        why="the paper's nested-CV protocol (criterion-5 grid, 10 outer x "
            "9 inner folds) in one process, the plain single-threaded "
            "baseline; criterion 8 checked against a 2-worker repeat"),
    "cv-pima-w2": Workload(
        "pima", "cv", workers=2,
        why="the same CV through the process pool with 2 workers: "
            "pickling, fold imbalance and idle workers"),
    "fit-abalone19": Workload(
        "abalone19", "fit", traced_jobs=2,
        why="one linear fit at imbalance ratio 129, where the m2-squared "
            "similarity and the m2-order solve dominate"),
    "kernel-yeast3": Workload(
        "yeast3", "fit", kernel="gaussian", traced_jobs=3,
        why="the gaussian path: kernel fit, model-file reader that "
            "rebuilds the gram, and 10k-row batch prediction"),
}
