"""Experiment configuration and the nested repeated cross-validation
harness.

The harness runs `repeats` rounds of stratified k-fold evaluation. The
outer plan for repeat r is seeded with seed + r. Inside each outer
training part, a stratified (k-1)-fold grid search picks the
hyperparameters with the best mean G-mean (ties resolved by grid
order: tau, gamma, c1, c2, sigma ascending), the winner is refit on
the whole outer training part and scored on the held-out fold. This
module builds the grid points' TrainConfigs and the inner fold plan,
and averages what classifier.score_grid sums over the inner folds:
that function fits and scores the points, sharing each fit among the
points that keep the same majority rows with the same weights at the
same sigma. Every fold task is a pure function of (dataset, config,
repeat, fold), so results do not depend on the worker count.

parse_config builds an ExperimentConfig from a `key = value` file, read
through dataset.read_lines, and raw-text overrides. CONFIG_KEYS, one
table, names every key, its ExperimentConfig field and the parser of
its text; the cv command generates its flags from the same table.
ExperimentConfig checks each grid value with the check a fit applies to
it (check_tau, FuzzyParams, TrainConfig, _check_sigma), so a value is
refused with the same message before a run as during one.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classifier import (
    TrainConfig,
    _check_sigma,
    fit_frlstsvm,
    predict,
    score_grid,
)
from .dataset import (
    LabeledDataset,
    atomic_write,
    fold_rows,
    load_csv,
    load_keel,
    read_lines,
    stratified_kfold,
    subset,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
    ExperimentError,
    SingularSystemError,
)
from .fuzzy_rough import FuzzyParams, check_tau
from .metrics import CONVENTIONS, confusion, report

# Unused here since the grid search fits through classifier.score_grid,
# but the benchmark's tracer (perfbench/tracer.py, SITES) wraps these
# names on this module before a traced run, so they must stay until
# SITES drops them.
from .classifier import fit_kernel, fit_linear  # noqa: F401
from .dataset import minmax_apply, minmax_fit  # noqa: F401
from .fuzzy_rough import (  # noqa: F401
    class_weights,
    positive_region_scores,
    subsample_majority,
)

DEFAULT_TAU_GRID = tuple(round(0.05 * i, 2) for i in range(21))
DEFAULT_GAMMA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))
DEFAULT_C_GRID = tuple(float(2.0 ** e) for e in range(-8, 9, 2))
DEFAULT_SIGMA_GRID = tuple(float(2.0 ** e) for e in range(-4, 5))

METRIC_KEYS = ("accuracy", "sensitivity", "specificity", "gmean")

FORMATS = ("csv", "keel")


@dataclass(frozen=True)
class ExperimentConfig:
    data: str | None = None
    fmt: str = "csv"
    positive_label: str | None = None
    label_column: int | str = -1
    has_header: bool = False
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    c1_grid: tuple[float, ...] = DEFAULT_C_GRID
    c2_grid: tuple[float, ...] | None = None
    sigma_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    delta: float = 1e-6
    kernel: str = "linear"
    tnorm: str = "minimum"
    score_mode: str = "density"
    weights_enabled: bool = True
    folds: int = 10
    inner_folds: int | None = None
    repeats: int = 10
    seed: int = 0
    convention: str = "standard"
    workers: int = 1

    def __post_init__(self):
        for name in ("tau", "gamma", "c1", "c2", "sigma"):
            grid = getattr(self, f"{name}_grid")
            if not ((isinstance(grid, tuple) and grid)
                    or (name == "c2" and grid is None)):
                raise ConfigurationError(
                    f"{name} grid must be a non-empty tuple")
        for name, value, allowed in (
                ("format", self.fmt, FORMATS),
                ("convention", self.convention, CONVENTIONS)):
            if value not in allowed:
                raise ConfigurationError(
                    f"{name} must be one of {allowed}, got {value!r}")
        for name, least in (("folds", 2), ("inner_folds", 2), ("repeats", 1),
                            ("workers", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigurationError(
                    f"{name} must be >= {least}, got {value}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigurationError("seed must fit in 64 unsigned bits")
        # every grid value gets the check a fit applies to it
        for tau in self.tau_grid:
            check_tau(tau)
        for gamma in self.gamma_grid:
            fuzzy = FuzzyParams(gamma, self.tnorm, self.score_mode)
        for sigma in self.sigma_grid:
            _check_sigma(sigma)
        sigma = self.sigma_grid[0] if self.kernel == "gaussian" else None
        # each c1 value as a c1 and each c2 value as a c2, the shorter
        # grid padded with 1; these also check delta and the kernel
        for c1, c2 in itertools.zip_longest(
                self.c1_grid, self.c2_grid or (), fillvalue=1.0):
            TrainConfig(c1=c1, c2=c2, tau=0.0, fuzzy=fuzzy,
                        delta=self.delta, kernel=self.kernel, sigma=sigma)


class GridPoint(NamedTuple):
    tau: float
    gamma: float
    c1: float
    c2: float
    sigma: float | None


def grid_points(config: ExperimentConfig) -> list[GridPoint]:
    """All hyperparameter combinations in deterministic order
    (tau, gamma, c1, c2, sigma, each ascending).

    c2 equals c1 unless a c2 grid is given, which unties the two. A tau
    of 0 keeps every majority row, so a tau grid of (0,) runs without
    subsampling. For the linear kernel the sigma slot is None.
    """
    c1s = sorted(set(config.c1_grid))
    penalties = ([(c, c) for c in c1s] if config.c2_grid is None
                 else itertools.product(c1s, sorted(set(config.c2_grid))))
    sigmas = (sorted(set(config.sigma_grid))
              if config.kernel == "gaussian" else [None])
    return [GridPoint(t, g, c1, c2, s) for t, g, (c1, c2), s in
            itertools.product(sorted(set(config.tau_grid)),
                              sorted(set(config.gamma_grid)), penalties,
                              sigmas)]


def _train_config(config: ExperimentConfig, pt: GridPoint) -> TrainConfig:
    fuzzy = FuzzyParams(gamma=pt.gamma, tnorm=config.tnorm,
                        score_mode=config.score_mode)
    return TrainConfig(
        c1=pt.c1, c2=pt.c2, tau=pt.tau, fuzzy=fuzzy, delta=config.delta,
        kernel=config.kernel, sigma=pt.sigma,
        weights_enabled=config.weights_enabled,
    )


@dataclass(frozen=True)
class FoldRecord:
    repeat: int
    fold: int
    tau: float
    gamma: float
    c1: float
    c2: float
    sigma: float | None
    accuracy: float
    sensitivity: float
    specificity: float
    gmean: float
    kept_majority: int
    majority_total: int
    degenerate: bool


@dataclass(eq=False)
class CvResult:
    records: list[FoldRecord]
    aggregates: dict[str, tuple[float, float]]
    folds: int
    repeats: int
    convention: str
    wall_time: float  # seconds; printed but never written to files


def load_dataset(config: ExperimentConfig) -> LabeledDataset:
    if config.data is None:
        raise ConfigurationError("no dataset path configured")
    if config.fmt == "keel":
        return load_keel(config.data, config.positive_label)
    return load_csv(config.data, config.label_column,
                    config.positive_label, config.has_header)


def derive_fold_seed(seed: int, repeat: int, fold: int) -> int:
    """Stable per-(repeat, fold) seed for the inner fold plan."""
    ss = np.random.SeedSequence([int(seed), int(repeat), int(fold)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _grid_search(train_ds: LabeledDataset, config: ExperimentConfig,
                 points: list[GridPoint], inner_k: int,
                 inner_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean inner-fold G-mean per grid point, plus a validity mask: a
    point that fails on any inner fold (tau empties the majority,
    singular system, degenerate model) is invalid. classifier.score_grid
    fits and scores every point on each of the inner_k folds of the
    stratified plan seeded with inner_seed."""
    plan = stratified_kfold(train_ds, inner_k, inner_seed)
    sums, alive = score_grid(
        train_ds, (fold_rows(plan, f) for f in range(inner_k)),
        [_train_config(config, pt) for pt in points], config.convention)
    return sums / inner_k, alive


def _fold_task(features: np.ndarray, labels: np.ndarray,
               config: ExperimentConfig, repeat: int,
               fold: int) -> FoldRecord:
    """Run one outer fold end to end. Pure function of its arguments."""
    ds = LabeledDataset(features, labels)
    plan = stratified_kfold(ds, config.folds, config.seed + repeat)
    train_rows, test_rows = fold_rows(plan, fold)
    train_ds = subset(ds, train_rows)
    inner_k = (config.inner_folds if config.inner_folds is not None
               else config.folds - 1)

    points = grid_points(config)
    means, alive = _grid_search(train_ds, config, points, inner_k,
                                derive_fold_seed(config.seed, repeat, fold))
    if not alive.any():
        raise ExperimentError(
            f"repeat {repeat} fold {fold}: every grid point failed"
        )
    # argmax takes the first of tied means, the earliest in grid order
    winner = points[int(np.argmax(np.where(alive, means, -np.inf)))]
    try:
        model = fit_frlstsvm(train_ds, _train_config(config, winner))
        pred = predict(model, ds.features[test_rows])
    except (ConfigurationError, SingularSystemError,
            DegenerateModelError) as exc:
        raise ExperimentError(
            f"repeat {repeat} fold {fold}: refitting the winner {winner} "
            f"on the outer training part failed: {exc}"
        ) from None
    rep = report(confusion(ds.labels[test_rows], pred), config.convention)
    return FoldRecord(
        repeat=repeat, fold=fold,
        tau=winner.tau, gamma=winner.gamma, c1=winner.c1, c2=winner.c2,
        sigma=winner.sigma,
        accuracy=rep.accuracy, sensitivity=rep.sensitivity,
        specificity=rep.specificity, gmean=rep.gmean,
        kept_majority=model.summary.m2_kept,
        majority_total=model.summary.m2_total,
        degenerate=rep.degenerate,
    )


def _aggregate(records: list[FoldRecord]) -> dict[str, tuple[float, float]]:
    out = {}
    for key in METRIC_KEYS:
        arr = np.asarray([getattr(r, key) for r in records])
        # population standard deviation: sqrt(mean((x - mean)^2))
        out[key] = (float(arr.mean()), float(arr.std()))
    return out


def run_nested_cv(config: ExperimentConfig,
                  dataset: LabeledDataset | None = None) -> CvResult:
    """Full nested repeated CV. Raises ExperimentError carrying the
    fold records before the first fold, in (repeat, fold) order, that
    has no workable grid point; the same records for any worker
    count."""
    t0 = time.perf_counter()
    if config.inner_folds is None and config.folds < 3:
        raise ConfigurationError(
            f"folds={config.folds} leaves inner_folds at its default, "
            f"folds - 1 = {config.folds - 1}; set inner_folds >= 2"
        )
    ds = dataset if dataset is not None else load_dataset(config)
    smallest = min(ds.class_counts())
    if smallest < config.folds:
        raise DataError(
            f"smallest class has {smallest} rows, fewer than "
            f"folds={config.folds}"
        )
    # an outer test fold takes at most ceil(smallest / folds) of its rows
    part = smallest - -(-smallest // config.folds)
    if config.inner_folds is not None and part < config.inner_folds:
        raise DataError(
            f"smallest class has {smallest} rows, {part} in the smallest "
            f"outer training part, fewer than "
            f"inner_folds={config.inner_folds}"
        )
    repeats, folds = zip(*itertools.product(range(config.repeats),
                                            range(config.folds)))
    records: list[FoldRecord] = []
    # both maps yield in task order; the pool's cancels the pending
    # tasks when one raises
    with (ProcessPoolExecutor(max_workers=config.workers)
          if config.workers > 1 else contextlib.nullcontext()) as pool:
        tasks = (map if pool is None else pool.map)(
            _fold_task, itertools.repeat(ds.features),
            itertools.repeat(ds.labels), itertools.repeat(config),
            repeats, folds)
        try:
            for record in tasks:
                records.append(record)
        except ExperimentError as exc:
            raise ExperimentError(str(exc), partial_records=records) from None
    return CvResult(
        records=records,
        aggregates=_aggregate(records),
        folds=config.folds,
        repeats=config.repeats,
        convention=config.convention,
        wall_time=time.perf_counter() - t0,
    )


# -- config file parsing ----------------------------------------------


def _numbers(text: str) -> tuple[float, ...]:
    grid = tuple(float(part) for part in text.split(",") if part.strip())
    if not grid:
        raise ValueError
    return grid


def _boolean(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError


def _column(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text  # a header name


def _score_mode(text: str) -> str:
    return text.replace("-", "_")


# Every key a config file can set, in ExperimentConfig's field order:
# key -> (its ExperimentConfig field, the parser of its stripped text).
# The cv command has one flag per key, --key with - for _ (convention's
# is --metric-convention), taking the same text through the same parser.
CONFIG_KEYS = {
    "data": ("data", str),
    "format": ("fmt", str),
    "positive_label": ("positive_label", str),
    "label_column": ("label_column", _column),
    "header": ("has_header", _boolean),
    "tau": ("tau_grid", _numbers),
    "gamma": ("gamma_grid", _numbers),
    "c1": ("c1_grid", _numbers),
    "c2": ("c2_grid", _numbers),
    "sigma": ("sigma_grid", _numbers),
    "delta": ("delta", float),
    "kernel": ("kernel", str),
    "tnorm": ("tnorm", str),
    "score_mode": ("score_mode", _score_mode),
    "weights": ("weights_enabled", _boolean),
    "folds": ("folds", int),
    "inner_folds": ("inner_folds", int),
    "repeats": ("repeats", int),
    "seed": ("seed", int),
    "convention": ("convention", str),
    "workers": ("workers", int),
}

# what each parser that can refuse its text expected
_EXPECTED = {int: "an integer", float: "a number", _boolean: "a boolean",
             _numbers: "comma-separated numbers"}


def parse_config(path=None, overrides: dict[str, str] | None = None
                 ) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat `key = value` file.

    `#` starts a comment, lists are comma-separated, unknown keys are
    rejected by name, and entries in `overrides` (raw strings, e.g.
    from command-line flags) replace file values. Each value is parsed
    by its key's CONFIG_KEYS parser; text a parser refuses is a
    ConfigurationError that names the key.
    """
    values: dict[str, object] = {}

    def absorb(key: str, text: str) -> None:
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise ConfigurationError(
                f"unknown configuration key {key!r} (known keys: "
                f"{', '.join(sorted(CONFIG_KEYS))})"
            )
        field_name, parse = CONFIG_KEYS[key]
        text = text.strip()
        try:
            values[field_name] = parse(text)
        except ValueError:
            raise ConfigurationError(
                f"{key}: expected {_EXPECTED[parse]}, got {text!r}"
            ) from None

    if path is not None:
        try:
            lines = read_lines(path)
        except DataError as exc:
            raise ConfigurationError(
                str(exc).replace("cannot read", "cannot read config", 1)
            ) from None
        for line_no, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigurationError(
                    f"{path}: line {line_no} is not `key = value`: "
                    f"{line.strip()!r}"
                )
            key, value = text.split("=", 1)
            absorb(key, value)

    for key, value in (overrides or {}).items():
        absorb(key, str(value))

    return ExperimentConfig(**values)


# -- result emission --------------------------------------------------

CSV_COLUMNS = (
    "repeat", "fold", "tau", "gamma", "c1", "c2", "sigma",
    "accuracy", "sensitivity", "specificity", "gmean",
    "kept_majority", "majority_total", "degenerate",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def cv_csv_text(result: CvResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in result.records:
        lines.append(",".join(
            _cell(getattr(rec, col)) for col in CSV_COLUMNS
        ))
    for stat, pos in (("mean", 0), ("std", 1)):
        cells = [stat, "", "", "", "", "", ""]
        cells += [_cell(result.aggregates[k][pos]) for k in METRIC_KEYS]
        cells += ["", "", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cv_jsonl_text(result: CvResult) -> str:
    lines = []
    for rec in result.records:
        obj = {col: getattr(rec, col) for col in CSV_COLUMNS}
        lines.append(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")))
    summary = {
        "aggregates": {
            k: {"mean": result.aggregates[k][0],
                "std": result.aggregates[k][1]}
            for k in METRIC_KEYS
        },
        "convention": result.convention,
        "folds": result.folds,
        "repeats": result.repeats,
    }
    lines.append(json.dumps(summary, sort_keys=True,
                            separators=(",", ":")))
    return "\n".join(lines) + "\n"


def write_cv_result(result: CvResult, path) -> None:
    """CSV by default; JSON lines when the path ends in .json/.jsonl."""
    text = (cv_jsonl_text(result)
            if str(path).endswith((".json", ".jsonl"))
            else cv_csv_text(result))
    atomic_write(path, text)


def format_cv_table(result: CvResult) -> str:
    header = (
        f"{'rep':>3} {'fold':>4} {'tau':>5} {'gamma':>5} {'c1':>9} "
        f"{'c2':>9} {'sigma':>7} {'acc':>7} {'sen':>7} {'spe':>7} "
        f"{'gmean':>7} {'kept':>9}"
    )
    lines = [header]
    for r in result.records:
        sigma = f"{r.sigma:g}" if r.sigma is not None else "-"
        lines.append(
            f"{r.repeat:>3} {r.fold:>4} {r.tau:>5.2f} {r.gamma:>5.2f} "
            f"{r.c1:>9.4g} {r.c2:>9.4g} {sigma:>7} {r.accuracy:>7.4f} "
            f"{r.sensitivity:>7.4f} {r.specificity:>7.4f} "
            f"{r.gmean:>7.4f} {r.kept_majority:>4}/{r.majority_total:<4}"
        )
    mean = result.aggregates
    lines.append("")
    lines.append(
        f"{result.repeats} repeats x {result.folds} folds, "
        f"convention={result.convention}"
    )
    for key in METRIC_KEYS:
        m, s = mean[key]
        lines.append(f"  {key:<12} {m:.4f} +- {s:.4f}")
    lines.append(f"  wall time    {result.wall_time:.2f} s")
    return "\n".join(lines)
