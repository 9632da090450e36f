"""Twin-hyperplane least-squares solvers, linear and Gaussian-kernel,
plus the training pipeline that every fit goes through.

The classifier fits two non-parallel hyperplanes, one close to each
class, and labels a point by the nearer plane. With H = [X1 | 1] built
from minority rows and G = [X2hat | 1] from the (possibly subsampled)
majority rows, the weighted fits solve

    u1 = -(H'H + dI)^-1 G' a,   a = (D2^-1/c1 + G (H'H + dI)^-1 G')^-1 e
    u2 =  (G'G + dI)^-1 H' b,   b = (D1^-1/c2 + H (G'G + dI)^-1 H')^-1 e

where D1, D2 are diagonal instance-weight matrices, d is a small ridge
and e is the all-ones vector. u_j stacks the plane normal over its
offset. The unweighted baseline solves the primal forms directly:

    u1 = -(G'G + (1/c1) H'H + dI)^-1 G' e
    u2 =  (H'H + (1/c2) G'G + dI)^-1 H' e

The kernel variant applies the same algebra to P = [K(X1, Xref) | 1]
and Q = [K(X2hat, Xref) | 1] with Xref the minority rows stacked over
the kept majority rows.

The pipeline (scale, split by class, subsample the majority, weight,
solve) lives in PreparedFold, which memoises its fuzzy-rough steps so
that nested CV fits a whole grid from one object per training set;
fit_frlstsvm is one fit of a fresh PreparedFold.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import linalg
from .dataset import ScalingParams, LabeledDataset, minmax_apply, minmax_fit
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
)
from .fuzzy_rough import (
    FuzzyParams,
    class_weights,
    positive_region_scores,
    subsample_majority,
)
from .linalg import SpdSolveReport, add_scaled_identity, gram, spd_solve

KERNELS = ("linear", "gaussian")

FORMAT_TAG = "FRLSTSVM/1"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


@dataclass(frozen=True)
class TrainConfig:
    """Snapshot of every knob a single fit depends on."""

    c1: float
    c2: float
    tau: float
    fuzzy: FuzzyParams
    delta: float = 1e-6
    kernel: str = "linear"
    sigma: float | None = None
    subsample_enabled: bool = True
    weights_enabled: bool = True

    def __post_init__(self):
        for name, v in (("c1", self.c1), ("c2", self.c2)):
            if not (np.isfinite(v) and v > 0):
                raise ConfigurationError(f"{name} must be > 0, got {v}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ConfigurationError(
                f"delta must be >= 0, got {self.delta}"
            )
        if not (np.isfinite(self.tau) and 0.0 <= self.tau <= 1.0):
            raise ConfigurationError(
                f"tau must be in [0, 1], got {self.tau}"
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.kernel == "gaussian":
            if self.sigma is None or not (
                np.isfinite(self.sigma) and self.sigma > 0
            ):
                raise ConfigurationError(
                    f"gaussian kernel requires sigma > 0, got {self.sigma}"
                )
        elif self.sigma is not None:
            raise ConfigurationError(
                "sigma only applies to the gaussian kernel"
            )


@dataclass(eq=False)
class Hyperplane:
    w: np.ndarray
    b: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64).reshape(-1)
        self.b = float(self.b)
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise ValueError("hyperplane coefficients must be finite")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.w))

    @property
    def degenerate(self) -> bool:
        return self.norm == 0.0


@dataclass(eq=False)
class TrainingSummary:
    m1: int
    m2_kept: int
    m2_total: int
    solver_reports: dict[str, SpdSolveReport] | None = None
    kept_majority_rows: np.ndarray | None = None


@dataclass(eq=False)
class LinearModel:
    plane1: Hyperplane
    plane2: Hyperplane
    scaling: ScalingParams | None
    config: TrainConfig
    summary: TrainingSummary | None = None

    @property
    def n_features(self) -> int:
        return self.plane1.w.shape[0]


@dataclass(eq=False)
class KernelModel:
    x_ref: np.ndarray
    w1: np.ndarray
    b1: float
    w2: np.ndarray
    b2: float
    gram_ref: np.ndarray
    scaling: ScalingParams | None
    config: TrainConfig
    summary: TrainingSummary | None = None

    @property
    def n_features(self) -> int:
        return self.x_ref.shape[1]


def gaussian_kernel(x, y, sigma: float) -> float:
    """exp(-||x - y||^2 / (2 sigma^2)) for two points."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return math.exp(-d2 / (2.0 * sigma * sigma))


def gaussian_gram(xa, xb, sigma: float) -> np.ndarray:
    """Rectangular Gaussian kernel matrix between two row sets."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    xa = linalg.as_matrix(xa, "left rows")
    xb = linalg.as_matrix(xb, "right rows")
    d2 = cdist(xa, xb, metric="sqeuclidean")
    return np.exp(-d2 / (2.0 * sigma * sigma))


def _gaussian_gram_sym(x, sigma: float) -> np.ndarray:
    """Self Gram matrix, mirrored from the upper triangle so it is
    exactly symmetric with an exact unit diagonal."""
    full = gaussian_gram(x, x, sigma)
    upper = np.triu(full, k=1)
    out = upper + upper.T
    np.fill_diagonal(out, 1.0)
    return out


def _augment(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _weights_array(w, size: int, name: str) -> np.ndarray:
    if w is None:
        return np.ones(size)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != size:
        raise ValueError(
            f"{name} has {w.shape[0]} weights for {size} instances"
        )
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError(f"{name} weights must be finite and > 0")
    return w


def _checked_blocks(x1, x2, d1=None, d2=None):
    """The two class matrices as finite 2-D arrays of equal width, and
    their instance weights as arrays (unit weights for None)."""
    x1 = linalg.as_matrix(x1, "x1")
    x2 = linalg.as_matrix(x2, "x2")
    if x1.shape[1] != x2.shape[1]:
        raise ValueError(
            f"feature counts disagree: {x1.shape[1]} vs {x2.shape[1]}"
        )
    return (x1, x2, _weights_array(d1, x1.shape[0], "minority"),
            _weights_array(d2, x2.shape[0], "majority"))


def _solve_plane(a_aug: np.ndarray, b_aug: np.ndarray, d_b: np.ndarray,
                 c: float, delta: float) -> tuple[
                     np.ndarray, SpdSolveReport, SpdSolveReport]:
    """Shared core of both weighted plane fits.

    Returns t = (A'A + delta I)^-1 B' s with
    s = (D^-1/c + B (A'A + delta I)^-1 B')^-1 e; the caller applies the
    sign. Also returns the outer and inner solver reports.
    """
    outer = add_scaled_identity(gram(a_aug), delta)
    mbt, outer_report = spd_solve(outer, b_aug.T)
    inner = b_aug @ mbt
    # symmetric by definition; enforce exactly before factoring
    inner = (inner + inner.T) * 0.5
    inner[np.diag_indices_from(inner)] += 1.0 / (c * d_b)
    coeff, inner_report = spd_solve(inner, np.ones(b_aug.shape[0]))
    return mbt @ coeff, outer_report, inner_report


def _fit_planes(h: np.ndarray, g: np.ndarray, d1: np.ndarray,
                d2: np.ndarray, c1: float, c2: float,
                delta: float) -> tuple[np.ndarray, np.ndarray,
                                       TrainingSummary]:
    """Both weighted planes from the feature-mapped class blocks,
    H = [phi(X1) | 1] and G = [phi(X2hat) | 1], with phi the identity
    (linear) or K(., Xref) (kernel). Returns u1, u2 and the summary."""
    t1, outer1, inner1 = _solve_plane(h, g, d2, c1, delta)
    t2, outer2, inner2 = _solve_plane(g, h, d1, c2, delta)
    summary = TrainingSummary(
        m1=h.shape[0], m2_kept=g.shape[0], m2_total=g.shape[0],
        solver_reports={
            "plane1_outer": outer1, "plane1_inner": inner1,
            "plane2_outer": outer2, "plane2_inner": inner2,
        },
    )
    return -t1, t2, summary


def _unpack(u: np.ndarray) -> Hyperplane:
    return Hyperplane(w=u[:-1], b=u[-1])


def _default_config(c1: float, c2: float, delta: float,
                    weighted: bool) -> TrainConfig:
    return TrainConfig(
        c1=c1, c2=c2, tau=0.0, fuzzy=FuzzyParams(gamma=1.0),
        delta=delta, kernel="linear", sigma=None,
        subsample_enabled=False, weights_enabled=weighted,
    )


def fit_linear(x1, x2hat, d1, d2, c1: float, c2: float,
               delta: float = 1e-6, scaling: ScalingParams | None = None,
               config: TrainConfig | None = None) -> LinearModel:
    """Fit both weighted hyperplanes from pre-scaled class matrices.

    Parameters
    ----------
    x1 : (m1, n) minority rows, already scaled.
    x2hat : (m2k, n) kept majority rows, already scaled.
    d1, d2 : instance weights for x1 and x2hat (array, or None for unit
        weights).
    c1, c2 : penalty factors, > 0.
    delta : ridge added to each Gram matrix.
    scaling : attached to the model so prediction can scale raw inputs;
        None means inputs to predict are taken as already scaled.
    config : full config snapshot to carry on the model; a minimal one
        is synthesized when omitted.
    """
    x1, x2hat, d1, d2 = _checked_blocks(x1, x2hat, d1, d2)
    if config is None:
        config = _default_config(c1, c2, delta, weighted=True)
    u1, u2, summary = _fit_planes(_augment(x1), _augment(x2hat), d1, d2,
                                  c1, c2, delta)
    return LinearModel(
        plane1=_unpack(u1), plane2=_unpack(u2),
        scaling=scaling, config=config, summary=summary,
    )


def fit_lstsvm_baseline(x1, x2, c1: float, c2: float,
                        delta: float = 1e-6,
                        scaling: ScalingParams | None = None) -> LinearModel:
    """Plain LSTSVM, no subsampling and no weights, via the primal
    closed forms."""
    x1, x2, _, _ = _checked_blocks(x1, x2)
    if c1 <= 0 or c2 <= 0:
        raise ConfigurationError("c1 and c2 must be > 0")
    h = _augment(x1)
    g = _augment(x2)
    hh = gram(h)
    gg = gram(g)
    a1 = add_scaled_identity(gg + hh / c1, delta)
    u1, report1 = spd_solve(a1, g.sum(axis=0))
    a2 = add_scaled_identity(hh + gg / c2, delta)
    u2, report2 = spd_solve(a2, h.sum(axis=0))
    summary = TrainingSummary(
        m1=x1.shape[0], m2_kept=x2.shape[0], m2_total=x2.shape[0],
        solver_reports={"plane1": report1, "plane2": report2},
    )
    return LinearModel(
        plane1=_unpack(-u1), plane2=_unpack(u2),
        scaling=scaling,
        config=_default_config(c1, c2, delta, weighted=False),
        summary=summary,
    )


def _prepare_features(model, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = x.reshape(1, -1) if single else x
    if x2.ndim != 2:
        raise DataError(f"features must be 1-D or 2-D, got shape {x.shape}")
    if x2.shape[1] != model.n_features:
        raise DataError(
            f"model expects {model.n_features} features, got {x2.shape[1]}"
        )
    if not np.all(np.isfinite(x2)):
        raise DataError("features contain non-finite values")
    if model.scaling is not None:
        x2 = minmax_apply(model.scaling, x2)
    return x2, single


def _plane_distances(plane: Hyperplane, xs: np.ndarray) -> np.ndarray:
    if plane.degenerate:
        return np.full(xs.shape[0], np.inf)
    return np.abs(xs @ plane.w + plane.b) / plane.norm


def predict_linear(model: LinearModel, x, return_distances: bool = False):
    """Label each row by its nearer hyperplane; ties go to +1.

    A 1-D input is treated as a single point and scalar results are
    returned. With return_distances, per-plane distances come back too.
    """
    xs, single = _prepare_features(model, x)
    if model.plane1.degenerate and model.plane2.degenerate:
        raise DegenerateModelError("both hyperplanes are degenerate")
    d1 = _plane_distances(model.plane1, xs)
    d2 = _plane_distances(model.plane2, xs)
    labels = np.where(d1 <= d2, 1, -1).astype(np.int64)
    if single:
        if return_distances:
            return int(labels[0]), float(d1[0]), float(d2[0])
        return int(labels[0])
    if return_distances:
        return labels, d1, d2
    return labels


def fit_kernel(x1, x2hat, d1, d2, config: TrainConfig,
               scaling: ScalingParams | None = None) -> KernelModel:
    """Fit the Gaussian-kernel variant from pre-scaled class matrices.

    The reference set stacks the minority rows over the kept majority
    rows; the plane algebra of fit_linear is applied to the augmented
    kernel blocks P and Q against that reference set.
    """
    if config.kernel != "gaussian":
        raise ConfigurationError(
            f"fit_kernel requires a gaussian config, got {config.kernel!r}"
        )
    x1, x2hat, d1, d2 = _checked_blocks(x1, x2hat, d1, d2)
    m1 = x1.shape[0]
    x_ref = np.vstack([x1, x2hat])
    k_ref = _gaussian_gram_sym(x_ref, config.sigma)
    u1, u2, summary = _fit_planes(_augment(k_ref[:m1]), _augment(k_ref[m1:]),
                                  d1, d2, config.c1, config.c2, config.delta)
    return KernelModel(
        x_ref=x_ref, w1=u1[:-1], b1=float(u1[-1]),
        w2=u2[:-1], b2=float(u2[-1]),
        gram_ref=k_ref, scaling=scaling, config=config, summary=summary,
    )


def _surface_distances(kx: np.ndarray, w: np.ndarray, b: float,
                       gram_ref: np.ndarray) -> np.ndarray:
    denom_sq = float(w @ gram_ref @ w)
    denom = math.sqrt(max(denom_sq, 0.0))
    if denom == 0.0 or not math.isfinite(denom):
        return np.full(kx.shape[0], np.inf)
    return np.abs(kx @ w + b) / denom


def predict_kernel(model: KernelModel, x, return_distances: bool = False):
    """Kernel-surface nearest-distance rule; ties go to +1.

    The distance to surface j is |k_x' w_j + b_j| divided by the norm
    of w_j in the reproducing space, sqrt(w_j' K(Xref, Xref) w_j).
    """
    xs, single = _prepare_features(model, x)
    kx = gaussian_gram(xs, model.x_ref, model.config.sigma)
    d1 = _surface_distances(kx, model.w1, model.b1, model.gram_ref)
    d2 = _surface_distances(kx, model.w2, model.b2, model.gram_ref)
    if np.all(np.isinf(d1)) and np.all(np.isinf(d2)):
        raise DegenerateModelError("both kernel surfaces are degenerate")
    labels = np.where(d1 <= d2, 1, -1).astype(np.int64)
    if single:
        if return_distances:
            return int(labels[0]), float(d1[0]), float(d2[0])
        return int(labels[0])
    if return_distances:
        return labels, d1, d2
    return labels


def predict(model, x, return_distances: bool = False):
    if isinstance(model, KernelModel):
        return predict_kernel(model, x, return_distances)
    return predict_linear(model, x, return_distances)


class PreparedFold:
    """One training set made ready for any number of fits.

    Min-max scaling is fit on these rows only and the scaled rows are
    split by class. The fuzzy-rough steps of the pipeline are memoised
    for the life of the object: the majority's positive-region scores
    per FuzzyParams, the subsample per (FuzzyParams, tau), the minority
    weights per FuzzyParams and the kept-majority weights per
    (FuzzyParams, tau). A tau that empties the majority raises the same
    ConfigurationError on every fit that asks for it.
    """

    def __init__(self, features, labels):
        features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels)
        self.scaling = minmax_fit(features)
        self.xs = minmax_apply(self.scaling, features)
        min_rows = np.flatnonzero(self.labels == 1)
        self.maj_rows = np.flatnonzero(self.labels == -1)
        if min_rows.size == 0 or self.maj_rows.size == 0:
            raise DataError("training data must contain both classes")
        self.x1 = self.xs[min_rows]
        self.x2 = self.xs[self.maj_rows]
        self._memo: dict = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except ConfigurationError as exc:
                self._memo[key] = exc
        hit = self._memo[key]
        if isinstance(hit, ConfigurationError):
            raise hit.with_traceback(None)
        return hit

    def _kept(self, config: TrainConfig) -> np.ndarray:
        """Indices into x2 of the majority rows the fit keeps."""
        if not config.subsample_enabled:
            return np.arange(self.x2.shape[0])
        fuzzy = config.fuzzy
        scores = self._cached(("scores", fuzzy), lambda: (
            positive_region_scores(self.xs, self.labels, fuzzy,
                                   target_class=-1)))
        return self._cached(("kept", fuzzy, config.tau), lambda: (
            subsample_majority(scores, config.tau).kept_indices))

    def fit(self, config: TrainConfig):
        """Subsample the majority at tau, weight both classes, and run
        the linear or kernel solver. Returns a LinearModel or
        KernelModel carrying this set's scaling, whose summary records
        how many majority rows survived."""
        kept = self._kept(config)
        x2hat = self.x2[kept]
        d1 = d2 = None
        if config.weights_enabled:
            fuzzy = config.fuzzy
            tau = config.tau if config.subsample_enabled else None
            d1 = self._cached(("d1", fuzzy),
                              lambda: class_weights(self.x1, fuzzy))
            d2 = self._cached(("d2", fuzzy, tau),
                              lambda: class_weights(x2hat, fuzzy))
        if config.kernel == "gaussian":
            model = fit_kernel(self.x1, x2hat, d1, d2, config,
                               scaling=self.scaling)
        else:
            model = fit_linear(self.x1, x2hat, d1, d2, config.c1, config.c2,
                               config.delta, scaling=self.scaling,
                               config=config)
        model.summary.m2_total = self.x2.shape[0]
        model.summary.kept_majority_rows = self.maj_rows[kept]
        return model


def fit_frlstsvm(ds: LabeledDataset, config: TrainConfig):
    """Full training pipeline on one training set: one fit of a fresh
    PreparedFold."""
    return PreparedFold(ds.features, ds.labels).fit(config)


def _config_lines(cfg: TrainConfig) -> list[str]:
    sigma = _fmt(cfg.sigma) if cfg.sigma is not None else "none"
    return [
        "config 12",
        f"c1 {_fmt(cfg.c1)}",
        f"c2 {_fmt(cfg.c2)}",
        f"delta {_fmt(cfg.delta)}",
        f"tau {_fmt(cfg.tau)}",
        f"gamma {_fmt(cfg.fuzzy.gamma)}",
        f"tnorm {cfg.fuzzy.tnorm}",
        f"implicator {cfg.fuzzy.implicator}",
        f"score_mode {cfg.fuzzy.score_mode}",
        f"kernel {cfg.kernel}",
        f"sigma {sigma}",
        f"subsample {int(cfg.subsample_enabled)}",
        f"weights {int(cfg.weights_enabled)}",
    ]


def _vector_line(tag: str, v: np.ndarray) -> str:
    return tag + " " + " ".join(_fmt(x) for x in np.asarray(v).reshape(-1))


def save_model(model, path) -> None:
    """Write the versioned text format; the write is atomic."""
    if isinstance(model, KernelModel):
        kind = "gaussian"
    elif isinstance(model, LinearModel):
        kind = "linear"
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [f"{FORMAT_TAG} {kind}"]
    if model.scaling is None:
        lines += ["scaling 1", "none"]
    else:
        lines += [
            "scaling 2",
            _vector_line("min", model.scaling.mins),
            _vector_line("range", model.scaling.ranges),
        ]
    lines += _config_lines(model.config)
    if kind == "linear":
        lines += [
            "planes 4",
            _vector_line("w1", model.plane1.w),
            f"b1 {_fmt(model.plane1.b)}",
            _vector_line("w2", model.plane2.w),
            f"b2 {_fmt(model.plane2.b)}",
        ]
    else:
        m_ref = model.x_ref.shape[0]
        lines.append(f"xref {m_ref}")
        for row in model.x_ref:
            lines.append(" ".join(_fmt(v) for v in row))
        lines += [
            "coefficients 4",
            _vector_line("w1", model.w1),
            f"b1 {_fmt(model.b1)}",
            _vector_line("w2", model.w2),
            f"b2 {_fmt(model.b2)}",
        ]
    text = "\n".join(lines) + "\n"
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".model-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, lines: list[str], path: str):
        self.lines = lines
        self.path = path
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def section(self, name: str) -> int:
        line = self.next()
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise DataError(
                f"{self.path}: expected section header {name!r} at line "
                f"{self.pos}, got {line!r}"
            )
        try:
            return int(parts[1])
        except ValueError:
            raise DataError(
                f"{self.path}: bad section length in {line!r}"
            ) from None

    def tagged(self, tag: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != tag:
            raise DataError(
                f"{self.path}: expected {tag!r} at line {self.pos}, "
                f"got {line!r}"
            )
        return parts[1:]

    def tagged_floats(self, tag: str) -> np.ndarray:
        parts = self.tagged(tag)
        try:
            return np.asarray([float(p) for p in parts])
        except ValueError:
            raise DataError(
                f"{self.path}: non-numeric value under {tag!r} at line "
                f"{self.pos}"
            ) from None


def load_model(path):
    """Read a model file written by save_model."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rd = _Reader(lines, path)

    head = rd.next().split()
    if len(head) != 2 or head[0] != FORMAT_TAG:
        raise DataError(
            f"{path}: not a {FORMAT_TAG} model file (first line "
            f"{lines[0][:40]!r})" if lines else f"{path}: empty file"
        )
    kind = head[1]
    if kind not in KERNELS:
        raise DataError(f"{path}: unknown model kind {kind!r}")

    n_scaling = rd.section("scaling")
    if n_scaling == 1:
        if rd.next().strip() != "none":
            raise DataError(f"{path}: malformed scaling section")
        scaling = None
    elif n_scaling == 2:
        mins = rd.tagged_floats("min")
        ranges = rd.tagged_floats("range")
        scaling = ScalingParams(mins=mins, ranges=ranges)
    else:
        raise DataError(f"{path}: malformed scaling section")

    n_cfg = rd.section("config")
    if n_cfg != 12:
        raise DataError(f"{path}: config section must have 12 lines")
    raw: dict[str, str] = {}
    for _ in range(12):
        parts = rd.next().split(None, 1)
        if len(parts) != 2:
            raise DataError(f"{path}: malformed config line {rd.pos}")
        raw[parts[0]] = parts[1].strip()
    try:
        fuzzy = FuzzyParams(
            gamma=float(raw["gamma"]), tnorm=raw["tnorm"],
            implicator=raw["implicator"], score_mode=raw["score_mode"],
        )
        sigma = None if raw["sigma"] == "none" else float(raw["sigma"])
        config = TrainConfig(
            c1=float(raw["c1"]), c2=float(raw["c2"]), tau=float(raw["tau"]),
            fuzzy=fuzzy, delta=float(raw["delta"]), kernel=raw["kernel"],
            sigma=sigma,
            subsample_enabled=raw["subsample"] == "1",
            weights_enabled=raw["weights"] == "1",
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: bad config section ({exc})") from None
    if config.kernel != kind:
        raise DataError(
            f"{path}: header kind {kind!r} disagrees with config kernel "
            f"{config.kernel!r}"
        )

    if kind == "linear":
        if rd.section("planes") != 4:
            raise DataError(f"{path}: planes section must have 4 lines")
        w1 = rd.tagged_floats("w1")
        b1 = rd.tagged_floats("b1")
        w2 = rd.tagged_floats("w2")
        b2 = rd.tagged_floats("b2")
        if b1.size != 1 or b2.size != 1 or w1.size != w2.size:
            raise DataError(f"{path}: malformed planes section")
        return LinearModel(
            plane1=Hyperplane(w=w1, b=float(b1[0])),
            plane2=Hyperplane(w=w2, b=float(b2[0])),
            scaling=scaling, config=config,
        )

    m_ref = rd.section("xref")
    rows = []
    for _ in range(m_ref):
        try:
            rows.append([float(p) for p in rd.next().split()])
        except ValueError:
            raise DataError(
                f"{path}: non-numeric reference row at line {rd.pos}"
            ) from None
    if len({len(row) for row in rows}) != 1:
        raise DataError(f"{path}: ragged or empty reference rows")
    x_ref = np.asarray(rows)
    if rd.section("coefficients") != 4:
        raise DataError(f"{path}: coefficients section must have 4 lines")
    w1 = rd.tagged_floats("w1")
    b1 = rd.tagged_floats("b1")
    w2 = rd.tagged_floats("w2")
    b2 = rd.tagged_floats("b2")
    if (w1.size != m_ref or w2.size != m_ref
            or b1.size != 1 or b2.size != 1):
        raise DataError(f"{path}: coefficient lengths disagree with xref")
    return KernelModel(
        x_ref=x_ref, w1=w1, b1=float(b1[0]), w2=w2, b2=float(b2[0]),
        gram_ref=_gaussian_gram_sym(x_ref, config.sigma),
        scaling=scaling, config=config,
    )
