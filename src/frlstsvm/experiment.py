"""Experiment configuration and the nested repeated cross-validation
harness.

The harness runs `repeats` rounds of stratified k-fold evaluation. The
outer plan for repeat r is seeded with seed + r. Inside each outer
training part, a stratified (k-1)-fold grid search picks the
hyperparameters with the best mean G-mean (ties resolved by grid
order: tau, gamma, c1, c2, sigma ascending), the winner is refit on
the whole outer training part and scored on the held-out fold. Every
fold task is a pure function of (dataset, config, repeat, fold), so
results do not depend on the worker count.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classifier import (
    PreparedFold,
    TrainConfig,
    fit_frlstsvm,
    predict,
)
from .dataset import (
    LabeledDataset,
    fold_rows,
    load_csv,
    load_keel,
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
from .fuzzy_rough import FuzzyParams
from .metrics import CONVENTIONS, confusion, report

# Unused here since the grid search fits through PreparedFold, but the
# benchmark's tracer (perfbench/tracer.py, SITES) wraps these names on
# this module before a traced run, so they must stay until SITES drops
# them.
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
    untie_c: bool = False
    delta: float = 1e-6
    kernel: str = "linear"
    tnorm: str = "minimum"
    implicator: str = "lukasiewicz"
    score_mode: str = "density"
    subsample_enabled: bool = True
    weights_enabled: bool = True
    folds: int = 10
    inner_folds: int | None = None
    repeats: int = 10
    seed: int = 0
    convention: str = "standard"
    workers: int = 1

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise ConfigurationError(
                f"format must be one of {FORMATS}, got {self.fmt!r}"
            )
        if self.kernel not in ("linear", "gaussian"):
            raise ConfigurationError(
                f"kernel must be linear or gaussian, got {self.kernel!r}"
            )
        # reuse the fuzzy validation for the three enumerations
        FuzzyParams(gamma=1.0, tnorm=self.tnorm, implicator=self.implicator,
                    score_mode=self.score_mode)
        if self.convention not in CONVENTIONS:
            raise ConfigurationError(
                f"convention must be one of {CONVENTIONS}, "
                f"got {self.convention!r}"
            )
        _check_grid("tau", self.tau_grid, 0.0, 1.0)
        _check_grid("gamma", self.gamma_grid, np.nextafter(0, 1), np.inf)
        _check_grid("c1", self.c1_grid, np.nextafter(0, 1), np.inf)
        if self.c2_grid is not None:
            if not self.untie_c:
                raise ConfigurationError(
                    "a separate c2 grid requires untie_c"
                )
            _check_grid("c2", self.c2_grid, np.nextafter(0, 1), np.inf)
        _check_grid("sigma", self.sigma_grid, np.nextafter(0, 1), np.inf)
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ConfigurationError(f"delta must be >= 0, got {self.delta}")
        if self.folds < 2:
            raise ConfigurationError(f"folds must be >= 2, got {self.folds}")
        if self.inner_folds is not None and self.inner_folds < 2:
            raise ConfigurationError(
                f"inner_folds must be >= 2, got {self.inner_folds}"
            )
        if self.repeats < 1:
            raise ConfigurationError(
                f"repeats must be >= 1, got {self.repeats}"
            )
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigurationError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )


def _check_grid(name: str, grid, lo: float, hi: float) -> None:
    if not isinstance(grid, tuple) or len(grid) == 0:
        raise ConfigurationError(f"{name} grid must be a non-empty tuple")
    for v in grid:
        if not (np.isfinite(v) and lo <= v <= hi):
            raise ConfigurationError(
                f"{name} grid value {v} out of range"
            )


class GridPoint(NamedTuple):
    tau: float
    gamma: float
    c1: float
    c2: float
    sigma: float | None


def grid_points(config: ExperimentConfig) -> list[GridPoint]:
    """All hyperparameter combinations in deterministic order
    (tau, gamma, c1, c2, sigma, each ascending).

    With subsampling disabled tau has no effect, so the tau axis
    collapses to the single value 0. For the linear kernel the sigma
    slot is None.
    """
    taus = sorted(set(config.tau_grid)) if config.subsample_enabled else [0.0]
    gammas = sorted(set(config.gamma_grid))
    c1s = sorted(set(config.c1_grid))
    sigmas = (sorted(set(config.sigma_grid))
              if config.kernel == "gaussian" else [None])
    points = []
    if config.untie_c:
        c2s = sorted(set(config.c2_grid or config.c1_grid))
        for t in taus:
            for g in gammas:
                for a in c1s:
                    for b in c2s:
                        for s in sigmas:
                            points.append(GridPoint(t, g, a, b, s))
    else:
        for t in taus:
            for g in gammas:
                for c in c1s:
                    for s in sigmas:
                        points.append(GridPoint(t, g, c, c, s))
    return points


def _train_config(config: ExperimentConfig, pt: GridPoint) -> TrainConfig:
    fuzzy = FuzzyParams(gamma=pt.gamma, tnorm=config.tnorm,
                        implicator=config.implicator,
                        score_mode=config.score_mode)
    return TrainConfig(
        c1=pt.c1, c2=pt.c2, tau=pt.tau, fuzzy=fuzzy, delta=config.delta,
        kernel=config.kernel, sigma=pt.sigma,
        subsample_enabled=config.subsample_enabled,
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
    """Mean inner-fold G-mean per grid point, plus a validity mask.

    A point that fails on any inner fold (tau empties the majority,
    singular system, degenerate model) is marked invalid and not fit
    again. Each inner fold fits every point through one PreparedFold,
    so its fuzzy-rough steps are shared across the grid.
    """
    plan = stratified_kfold(train_ds, inner_k, inner_seed)
    configs = [_train_config(config, pt) for pt in points]
    sums = np.zeros(len(points))
    alive = np.ones(len(points), dtype=bool)
    for f in range(inner_k):
        tr, va = fold_rows(plan, f)
        prep = PreparedFold(train_ds.features[tr], train_ds.labels[tr])
        x_va = train_ds.features[va]
        y_va = train_ds.labels[va]
        for i, cfg in enumerate(configs):
            if not alive[i]:
                continue
            try:
                pred = predict(prep.fit(cfg), x_va)
                rep = report(confusion(y_va, pred), config.convention)
            except (ConfigurationError, SingularSystemError,
                    DegenerateModelError):
                alive[i] = False
                continue
            sums[i] += rep.gmean
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
    best = None
    best_mean = -np.inf
    for i in range(len(points)):
        if alive[i] and means[i] > best_mean:
            best = i
            best_mean = float(means[i])
    if best is None:
        raise ExperimentError(
            f"repeat {repeat} fold {fold}: every grid point failed"
        )

    winner = points[best]
    model = fit_frlstsvm(train_ds, _train_config(config, winner))
    pred = predict(model, ds.features[test_rows])
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
    completed fold records when any fold has no workable grid point."""
    t0 = time.perf_counter()
    ds = dataset if dataset is not None else load_dataset(config)
    pos, neg = ds.class_counts()
    if min(pos, neg) < config.folds:
        raise DataError(
            f"smallest class has {min(pos, neg)} rows, fewer than "
            f"folds={config.folds}"
        )
    tasks = [(r, f) for r in range(config.repeats)
             for f in range(config.folds)]
    records: list[FoldRecord] = []

    if config.workers <= 1:
        try:
            for r, f in tasks:
                records.append(
                    _fold_task(ds.features, ds.labels, config, r, f)
                )
        except ExperimentError as exc:
            records.sort(key=lambda rec: (rec.repeat, rec.fold))
            raise ExperimentError(str(exc), partial_records=records) from None
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as ex:
            futures = [
                ex.submit(_fold_task, ds.features, ds.labels, config, r, f)
                for r, f in tasks
            ]
            wait(futures, return_when=FIRST_EXCEPTION)
            failure = None
            for fut in futures:
                if fut.cancelled():
                    continue
                if fut.exception() is not None:
                    exc = fut.exception()
                    if isinstance(exc, ExperimentError) and failure is None:
                        failure = exc
                        for other in futures:
                            other.cancel()
                    elif not isinstance(exc, ExperimentError):
                        raise exc
                elif fut.done():
                    records.append(fut.result())
            if failure is not None:
                records.sort(key=lambda rec: (rec.repeat, rec.fold))
                raise ExperimentError(
                    str(failure), partial_records=records
                ) from None

    records.sort(key=lambda rec: (rec.repeat, rec.fold))
    return CvResult(
        records=records,
        aggregates=_aggregate(records),
        folds=config.folds,
        repeats=config.repeats,
        convention=config.convention,
        wall_time=time.perf_counter() - t0,
    )


# -- config file parsing ----------------------------------------------

_LIST_KEYS = {
    "tau": "tau_grid",
    "gamma": "gamma_grid",
    "c1": "c1_grid",
    "c2": "c2_grid",
    "sigma": "sigma_grid",
}
_SCALAR_KEYS = {
    "data": ("data", str),
    "format": ("fmt", str),
    "positive_label": ("positive_label", str),
    "label_column": ("label_column", None),
    "header": ("has_header", bool),
    "delta": ("delta", float),
    "kernel": ("kernel", str),
    "tnorm": ("tnorm", str),
    "implicator": ("implicator", str),
    "score_mode": ("score_mode", str),
    "subsample": ("subsample_enabled", bool),
    "weights": ("weights_enabled", bool),
    "untie_c": ("untie_c", bool),
    "folds": ("folds", int),
    "inner_folds": ("inner_folds", int),
    "repeats": ("repeats", int),
    "seed": ("seed", int),
    "convention": ("convention", str),
    "workers": ("workers", int),
}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigurationError(f"{key}: expected a boolean, got {text!r}")


def _parse_scalar(key: str, text: str):
    field_name, kind = _SCALAR_KEYS[key]
    text = text.strip()
    if kind is bool:
        return field_name, _parse_bool(key, text)
    if kind is int:
        try:
            return field_name, int(text)
        except ValueError:
            raise ConfigurationError(
                f"{key}: expected an integer, got {text!r}"
            ) from None
    if kind is float:
        try:
            return field_name, float(text)
        except ValueError:
            raise ConfigurationError(
                f"{key}: expected a number, got {text!r}"
            ) from None
    if key == "label_column":
        try:
            return field_name, int(text)
        except ValueError:
            return field_name, text
    if key == "score_mode":
        text = text.replace("-", "_")
    return field_name, text


def _parse_list(key: str, text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(f"{key}: empty list")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"{key}: expected comma-separated numbers, got {text!r}"
        ) from None


def parse_config(path=None, overrides: dict[str, str] | None = None
                 ) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat `key = value` file.

    `#` starts a comment, lists are comma-separated, unknown keys are
    rejected by name, and entries in `overrides` (raw strings, e.g.
    from command-line flags) replace file values.
    """
    values: dict[str, object] = {}

    def absorb(key: str, text: str) -> None:
        key = key.strip().lower()
        if key in _LIST_KEYS:
            values[_LIST_KEYS[key]] = _parse_list(key, text)
        elif key in _SCALAR_KEYS:
            field_name, parsed = _parse_scalar(key, text)
            values[field_name] = parsed
        else:
            known = sorted(set(_LIST_KEYS) | set(_SCALAR_KEYS))
            raise ConfigurationError(
                f"unknown configuration key {key!r} (known keys: "
                f"{', '.join(known)})"
            )

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config {path}: {exc}"
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


def atomic_write(path, text: str) -> None:
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".out-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
