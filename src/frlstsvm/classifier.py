"""Twin-hyperplane least-squares solvers, linear and Gaussian-kernel,
plus the training pipeline that every fit goes through.

The classifier fits two non-parallel hyperplanes, one close to each
class, and labels a point by the nearer plane. With H = [X1 | 1] built
from minority rows and G = [X2hat | 1] from the (possibly subsampled)
majority rows, the weighted fits solve the primal normal equations

    u1 = -(H'H + c1 G'D2G + dI)^-1 c1 G'D2 e
    u2 =  (G'G + c2 H'D1H + dI)^-1 c2 H'D1 e

where D1, D2 are diagonal instance-weight matrices, d is a small ridge
and e is the all-ones vector. u_j stacks the plane normal over its
offset, so each plane is one symmetric system of order n + 1. The
unweighted baseline solves the unit-weight planes divided through by
c, so its ridge d acts as c*d above:

    u1 = -(G'G + (1/c1) H'H + dI)^-1 G' e
    u2 =  (H'H + (1/c2) G'G + dI)^-1 H' e

The kernel variant applies the same algebra to P = [K(X1, Xref) | 1]
and Q = [K(X2hat, Xref) | 1] with Xref the minority rows stacked over
the kept majority rows, so its systems have order m_ref + 1.

Both kernels give one model type, TwinPlaneModel, and one predict. A
row's features f are the scaled row itself (linear) or its kernel
values K(row, Xref) (gaussian), and its distance to plane j is
|f'w_j + b_j| / ||w_j||. The norm is Euclidean for a linear plane and
sqrt(w_j' K(Xref, Xref) w_j), the length in the reproducing space, for
a gaussian one; each plane computes it once, when it is solved, and a
gaussian model file stores it, so loading one builds no gram.

One path solves every weighted plane and one measures every distance.
_class_blocks gives H and G (and a gaussian fit's reference rows and
their gram); a gaussian fit builds one [K | 1] array, H and G its row
blocks and the gram K, which only the norms read, its column view.
_solve_plane solves one plane at any number of penalties c: it builds
the plane's c-free terms once with _plane_terms, (A'A, B'D_B B, B'd_B):
(H, G, d2) for plane 1 and (G, H, d1) for plane 2; _plane_system forms
c B'D_B B + A'A + delta I for each c, every c but the last in one
spare buffer and the last in B'D_B B itself, so A'A and the spare are
freed before its solve; spd_solve solves it, and a singular c is
reported for that c alone. A model's fit (fit_linear, fit_kernel, and
fit_blocks through them) is the one-c case of each plane, so a lone
gaussian fit holds three (m_ref + 1)^2 arrays at its peak: [K | 1] and
one plane's two terms, or [K | 1], the system and the solve's factor
(and a fourth while spd_solve factors a ridged copy).
_plane_distances measures rows against (w, b, norm) planes, for
predict and for the grid alike: linear rows directly, gaussian rows
mapped to kernel values in row blocks of about 2^17 kernel values, so
the batch x m_ref kernel matrix is never held. The rows per block are a
multiple of 64, because the BLAS's gemv bits depend on the rows per
call and such blocks give the bits of one whole-batch pass. The blocks
run on one worker thread per CPU in the process's affinity mask
(taskset restricts them), each kept on its CPU, threads that live for
one call; each block writes its own rows of the distances, so the bits
do not depend on the thread count.

The pipeline (scale, split by class, subsample the majority, weight)
lives in PreparedFold, which memoises its fuzzy-rough steps so that a
grid is fit from one object per training set; fit_frlstsvm is one fit
of a fresh PreparedFold. A PreparedFold hands out one FitBlocks per
distinct (weights, kept set). One that serves a grid holds one m2 x m2
majority array, under the minimum t-norm the Chebyshev distance that
every gamma's similarity is read from. One that serves a lone fit holds
none: it builds the majority similarity's row sums from the scaled rows
a row block of about 2^15 entries at a time, so it needs O(m2) memory
where the held array needs O(m2^2). Either way a pass over at least
1024 rows runs its blocks on the worker threads of a gaussian predict,
with the bits of one thread.

The grid search's inner folds run in score_grid: one holding
PreparedFold per fold, and one score_fits call per (blocks, sigma)
group, which gives each distinct (c1, c2)'s validation G-mean with the
bits of predict and report on the model, but builds no model: plane 1
is solved once per distinct c1 and plane 2 once per distinct c2, and
every solved plane's distances come from one _plane_distances pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import fuzzy_rough, linalg
from .dataset import (
    LabeledDataset,
    ScalingParams,
    atomic_write,
    minmax_apply,
    minmax_fit,
    read_lines,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
    SingularSystemError,
)
from .fuzzy_rough import (
    WEIGHT_FLOOR,
    FuzzyParams,
    PositiveRegionScores,
    check_tau,
    class_weights,
    positive_region_scores,
    row_means,
    row_sums,
    subsample_majority,
)
from .linalg import SpdSolveReport, add_scaled_identity, gram, spd_solve
from .metrics import gmean

KERNELS = ("linear", "gaussian")

FORMAT_TAG = "FRLSTSVM/2"

# every tag load_model reads, with the format version it names
_FORMAT_VERSIONS = {"FRLSTSVM/1": 1, FORMAT_TAG: 2}


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


@dataclass(frozen=True)
class TrainConfig:
    """Snapshot of every knob a single fit depends on. The fit keeps
    the majority rows whose positive-region score is at least tau; every
    score is >= 0, so tau 0 keeps every row (no subsampling)."""

    c1: float
    c2: float
    tau: float
    fuzzy: FuzzyParams
    delta: float = 1e-6
    kernel: str = "linear"
    sigma: float | None = None
    weights_enabled: bool = True

    def __post_init__(self):
        for name, v in (("c1", self.c1), ("c2", self.c2)):
            if not (np.isfinite(v) and v > 0):
                raise ConfigurationError(f"{name} must be > 0, got {v}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ConfigurationError(
                f"delta must be >= 0, got {self.delta}"
            )
        check_tau(self.tau)
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.kernel == "gaussian":
            if self.sigma is None:
                raise ConfigurationError(
                    "gaussian kernel requires sigma, got None")
            _check_sigma(self.sigma)
        elif self.sigma is not None:
            raise ConfigurationError(
                "sigma only applies to the gaussian kernel"
            )


@dataclass(eq=False)
class Hyperplane:
    """The plane w'f + b = 0 over a row's features f. Distances to it
    divide by `norm`, the length of w: the norm given, as sqrt(w'Kw)
    over the gram K(Xref, Xref) of a gaussian model (see _norm), or the
    Euclidean length for None. A plane of norm 0 is degenerate."""

    w: np.ndarray
    b: float
    norm: float | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64).reshape(-1)
        self.b = float(self.b)
        if not (np.isfinite(self.w).all() and math.isfinite(self.b)):
            raise ValueError("hyperplane coefficients must be finite")
        if self.norm is None:
            self.norm = _norm(self.w, None)
        else:
            self.norm = float(self.norm)
            if not (math.isfinite(self.norm) and self.norm >= 0):
                raise ValueError("hyperplane norm must be finite and >= 0")


def _norm(w: np.ndarray, gram: np.ndarray | None) -> float:
    """The Euclidean length of w (gram None), or sqrt(w'Kw) over the
    gram K of a gaussian model's reference rows."""
    if gram is None:
        # np.linalg.norm's arithmetic for a real vector, so its bits,
        # without its call overhead
        return math.sqrt(float(w.dot(w)))
    return math.sqrt(max(float(w @ gram @ w), 0.0))


@dataclass(eq=False)
class TrainingSummary:
    m1: int
    m2_kept: int
    m2_total: int
    solver_reports: dict[str, SpdSolveReport] | None = None
    kept_majority_rows: np.ndarray | None = None


@dataclass(eq=False)
class TwinPlaneModel:
    """Two planes, one close to each class. A gaussian model keeps its
    reference rows x_ref and maps rows to K(row, x_ref) before measuring
    distances; a linear model has x_ref None."""

    plane1: Hyperplane
    plane2: Hyperplane
    scaling: ScalingParams | None
    config: TrainConfig
    summary: TrainingSummary | None = None
    x_ref: np.ndarray | None = None

    def __post_init__(self):
        if (self.x_ref is None) != (self.config.kernel == "linear"):
            raise ValueError(
                "a gaussian model needs reference rows, a linear one none"
            )

    @property
    def n_features(self) -> int:
        if self.x_ref is None:
            return self.plane1.w.shape[0]
        return self.x_ref.shape[1]


def _check_sigma(sigma: float) -> None:
    """A gaussian width must be > 0 with the kernel's denominator
    2 sigma^2 a finite positive float64: below about 1.1e-162 it rounds
    to 0 and the self gram's diagonal is 0/0, and above about 9.5e153 it
    is infinite and every kernel value 1."""
    two_var = 2.0 * sigma * sigma
    if not (sigma > 0 and 0.0 < two_var < math.inf):
        raise ConfigurationError(
            f"sigma must be > 0 with 2 sigma^2 finite and > 0, got {sigma}")


def gaussian_gram(xa, xb, sigma: float) -> np.ndarray:
    """Rectangular Gaussian kernel matrix between two row sets. The self
    matrix gaussian_gram(x, x, sigma) is exactly symmetric with an exact
    unit diagonal, since cdist sums (a - b)^2 = (b - a)^2 per pair."""
    _check_sigma(sigma)
    return _kernel(linalg.as_matrix(xa, "left rows"),
                   linalg.as_matrix(xb, "right rows"), sigma)


def _kernel(xa: np.ndarray, xb: np.ndarray, sigma: float) -> np.ndarray:
    """gaussian_gram on rows and a sigma already checked."""
    # in place, one buffer, and the bits of np.exp(-d / (2 sigma^2)):
    # IEEE division is sign-symmetric, so d / -(2 sigma^2) == -d / (2 sigma^2).
    # A subnormal 2 sigma^2 sends a nonzero d to -inf, whose exp, 0, is
    # the right kernel value
    d = cdist(xa, xb, metric="sqeuclidean")
    with np.errstate(over="ignore"):
        np.divide(d, -(2.0 * sigma * sigma), out=d)
    np.exp(d, out=d)
    return d


def _augment(x: np.ndarray) -> np.ndarray:
    """[x | 1], with the bits of np.hstack without its call overhead."""
    out = np.ones((x.shape[0], x.shape[1] + 1))
    out[:, :-1] = x
    return out


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


def _class_blocks(x1: np.ndarray, x2hat: np.ndarray, sigma: float | None):
    """(H, G, Xref, K(Xref, Xref)) for a fit on checked class blocks:
    H = [X1 | 1] and G = [X2hat | 1] when sigma is None, with Xref and K
    None; else the augmented gaussian kernel blocks H = [K(X1, Xref) | 1]
    and G = [K(X2hat, Xref) | 1] of width sigma, with Xref the minority
    rows stacked over the kept majority rows. A gaussian fit builds
    [K | 1] once: H and G are its row blocks, each one C-contiguous
    buffer as gram needs, and K its column view [:, :-1], which the
    planes' norms read with the bits of K itself."""
    if sigma is None:
        return _augment(x1), _augment(x2hat), None, None
    x_ref = np.vstack([x1, x2hat])
    k_aug = _augment(gaussian_gram(x_ref, x_ref, sigma))
    m1 = x1.shape[0]
    return k_aug[:m1], k_aug[m1:], x_ref, k_aug[:, :-1]


def _plane_terms(a: np.ndarray, b: np.ndarray,
                 d_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A'A, B'D_B B, B'd_B): the parts of one plane's system that do
    not depend on its c (see _plane_system). B'D_B B is built first, so
    the scaled copy of B is freed before A'A exists."""
    bdb = gram(b * np.sqrt(d_b)[:, None], checked=True)
    return gram(a, checked=True), bdb, b.T @ d_b


def _plane_system(aa: np.ndarray, bdb: np.ndarray, bd: np.ndarray,
                  c: float, delta: float,
                  out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The system (A'A + c B'DB + delta I) t = c B'D e of one plane, its
    matrix built in `out`: a buffer of bdb's shape, or bdb itself when
    its c-free value is no longer needed."""
    # c B'DB + A'A in one buffer has the bits of A'A + c B'DB, and the
    # strided diagonal those of lhs[np.diag_indices_from(lhs)]
    lhs = np.multiply(bdb, c, out=out)
    lhs += aa
    lhs.flat[::lhs.shape[0] + 1] += delta
    return lhs, c * bd


def _solve_plane(a: np.ndarray, b: np.ndarray, d_b: np.ndarray, plane: int,
                 cs, delta: float, k_ref: np.ndarray | None) -> list:
    """Plane 1 or 2 of a fit on the blocks of _class_blocks at each
    distinct penalty c in cs: ((w, b, norm), spd_solve's report), or the
    SingularSystemError of a c whose system spd_solve cannot solve. The
    plane solves t = (A'A + c B'DB + delta I)^-1 c B'D e, the ridge
    least-squares fit of At = 0 and Bt = e with weights cD on the rows
    of B; u1 = -t1 and u2 = t2, and norm is that of w over k_ref (see
    _norm). The c-free terms are built once. Every c but the last is
    built in one spare buffer; the last in the plane's own B'D_B B, so
    A'A and the spare are freed before its solve."""
    # looked up on the module, where tests count and the benchmark's
    # tracer wraps them
    terms = _plane_terms(a, b, d_b)
    spare = np.empty_like(terms[1]) if len(cs) > 1 else None
    out, last = [], len(cs) - 1
    for i, c in enumerate(cs):
        system = _plane_system(*terms, c, delta,
                               spare if i < last else terms[1])
        if i == last:
            del terms, spare
        try:
            t, report = spd_solve(*system)
        except SingularSystemError as exc:
            out.append(exc)
            continue
        u = -t if plane == 1 else t
        w = u[:-1]
        out.append(((w, float(u[-1]), _norm(w, k_ref)), report))
    return out


def _fit_model(x1, x2hat, d1, d2, config: TrainConfig,
               scaling: ScalingParams | None) -> TwinPlaneModel:
    """The model of both weighted planes at config on pre-scaled class
    matrices and their weights (None: unit weights): each plane is the
    one-c case of _solve_plane. A singular plane 1 raises before plane
    2's terms are built."""
    x1, x2hat, d1, d2 = _checked_blocks(x1, x2hat, d1, d2)
    h, g, x_ref, k_ref = _class_blocks(x1, x2hat, config.sigma)
    planes, reports = [], {}
    for plane, a, b, d_b, c in ((1, h, g, d2, config.c1),
                                (2, g, h, d1, config.c2)):
        (solved,) = _solve_plane(a, b, d_b, plane, (c,), config.delta, k_ref)
        if isinstance(solved, SingularSystemError):
            raise solved
        (w, offset, norm), reports[f"plane{plane}"] = solved
        planes.append(Hyperplane(w=w, b=offset, norm=norm))
    summary = TrainingSummary(x1.shape[0], x2hat.shape[0], x2hat.shape[0],
                              solver_reports=reports)
    return TwinPlaneModel(*planes, scaling, config, summary, x_ref=x_ref)


def _default_config(c1: float, c2: float, delta: float,
                    weighted: bool) -> TrainConfig:
    return TrainConfig(
        c1=c1, c2=c2, tau=0.0, fuzzy=FuzzyParams(gamma=1.0),
        delta=delta, kernel="linear", sigma=None, weights_enabled=weighted,
    )


def fit_linear(x1, x2hat, d1, d2, c1: float, c2: float,
               delta: float = 1e-6, scaling: ScalingParams | None = None,
               config: TrainConfig | None = None) -> TwinPlaneModel:
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
        is synthesized when omitted. A config whose c1, c2, delta or
        kernel disagrees with this fit is a ConfigurationError.
    """
    if config is None:
        config = _default_config(c1, c2, delta, weighted=True)
    elif ((config.c1, config.c2, config.delta, config.kernel)
          != (c1, c2, delta, "linear")):
        raise ConfigurationError(
            f"config (c1={config.c1}, c2={config.c2}, delta={config.delta}, "
            f"kernel {config.kernel}) disagrees with the linear fit at "
            f"c1={c1}, c2={c2}, delta={delta}"
        )
    return _fit_model(x1, x2hat, d1, d2, config, scaling)


def fit_lstsvm_baseline(x1, x2, c1: float, c2: float,
                        delta: float = 1e-6,
                        scaling: ScalingParams | None = None
                        ) -> TwinPlaneModel:
    """Plain LSTSVM, no subsampling and no weights, via the primal
    closed forms."""
    config = _default_config(c1, c2, delta, weighted=False)
    x1, x2, _, _ = _checked_blocks(x1, x2)
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
    return TwinPlaneModel(
        plane1=Hyperplane(w=-u1[:-1], b=-u1[-1]),
        plane2=Hyperplane(w=u2[:-1], b=u2[-1]),
        scaling=scaling, config=config, summary=summary,
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


# Rows per block of a gaussian predict: about 2^17 kernel entries
# (1 MiB), so each block's passes run in cache and no batch x m_ref
# array is built. Not a knob: the rows are a multiple of 64 because
# OpenBLAS's gemv takes rows in groups and sums a short group in
# another order, so its bits depend on the rows per call. Blocks of 4,
# 8, 64, 96 or 128 rows give the bits of one whole-batch call; blocks
# of 1, 2, 3, 5, 45 or 90 rows do not (OpenBLAS 0.3.31, Haswell kernels).
_PREDICT_BLOCK_ENTRIES = 1 << 17


def _block_rows(m_ref: int) -> int:
    """Rows per gaussian predict block against m_ref reference rows."""
    return max(64, _PREDICT_BLOCK_ENTRIES // m_ref // 64 * 64)


def _distances(f: np.ndarray, w: np.ndarray, b: float,
               norm: float) -> np.ndarray:
    """|f'w + b| / norm for each row of features f; a degenerate plane
    (norm 0) is infinitely far from every row."""
    if norm == 0.0:
        return np.full(f.shape[0], np.inf)
    # in place, with the bits of np.abs(f @ w + b) / norm
    d = f @ w
    d += b
    np.abs(d, out=d)
    d /= norm
    return d


def _block_bounds(n: int, m_ref: int) -> list[tuple[int, int]]:
    """(start, stop) of each row block of a gaussian predict of n rows
    against m_ref reference rows (see _block_rows)."""
    step = _block_rows(m_ref)
    # numpy takes a one-row product to dot, not gemv, and dot sums in
    # another order: a lone last row joins the block before it
    stops = [*range(step, n - 1, step), n]
    return list(zip([0, *stops], stops))


def _plane_distances(xs: np.ndarray, planes: list,
                     x_ref: np.ndarray | None,
                     sigma: float | None) -> list[np.ndarray]:
    """Each row's distance to each (w, b, norm) plane, one array per
    plane. The features f of a row are the scaled row itself when x_ref
    is None, else its kernel values K(row, x_ref) of width sigma, which
    are mapped one row block at a time (see _block_rows) on
    linalg._run_blocks' worker threads: no thread holds more than one
    block's kernel values, and each block writes its own rows of every
    plane's distances, so the bits are those of one whole-batch pass on
    one thread."""
    if x_ref is None:
        return [_distances(xs, *p) for p in planes]
    out = [np.empty(xs.shape[0]) for _ in planes]

    def block(start: int, stop: int, _) -> None:
        # calls no function the benchmark's tracer wraps: its span stack
        # is per process, not per thread
        kx = _kernel(xs[start:stop], x_ref, sigma)
        for d, plane in zip(out, planes):
            d[start:stop] = _distances(kx, *plane)

    linalg._run_blocks(_block_bounds(xs.shape[0], x_ref.shape[0]), block)
    return out


def predict(model: TwinPlaneModel, x, return_distances: bool = False):
    """Label each row by its nearer plane; ties go to +1.

    The distance to plane j is |f'w_j + b_j| / norm_j, with f the scaled
    row, or its kernel values K(row, x_ref) for a gaussian model. A
    degenerate plane (norm 0) is infinitely far from every row; both
    degenerate is an error. A 1-D input is treated as a single point
    and scalar results are returned. With return_distances, per-plane
    distances come back too.

    Both distances come from _plane_distances, which also measures the
    grid search's (see score_fits): a gaussian model's rows are mapped
    to kernel values in row blocks of a multiple of 64 rows, on one
    worker thread per CPU in the process's affinity mask, never more
    than blocks (linalg._run_blocks, which runs fuzzy_rough.row_sums'
    large passes too), with the bits of one whole-batch pass. The rows
    are scaled, and the reference rows and sigma checked, once per
    batch on the calling thread.
    """
    xs, single = _prepare_features(model, x)
    p1, p2 = model.plane1, model.plane2
    if p1.norm == 0.0 and p2.norm == 0.0:
        raise DegenerateModelError("both planes are degenerate")
    x_ref, sigma = model.x_ref, model.config.sigma
    if x_ref is not None:
        _check_sigma(sigma)
        x_ref = linalg.as_matrix(x_ref, "reference rows")
    d1, d2 = _plane_distances(xs, [(p.w, p.b, p.norm) for p in (p1, p2)],
                              x_ref, sigma)
    labels = np.where(d1 <= d2, 1, -1).astype(np.int64)
    if single:
        labels, d1, d2 = int(labels[0]), float(d1[0]), float(d2[0])
    return (labels, d1, d2) if return_distances else labels


def fit_kernel(x1, x2hat, d1, d2, config: TrainConfig,
               scaling: ScalingParams | None = None) -> TwinPlaneModel:
    """Fit the Gaussian-kernel variant from pre-scaled class matrices.

    The reference set stacks the minority rows over the kept majority
    rows; the plane algebra of fit_linear is applied to the augmented
    kernel blocks P and Q against that reference set.
    """
    if config.kernel != "gaussian":
        raise ConfigurationError(
            f"fit_kernel requires a gaussian config, got {config.kernel!r}"
        )
    return _fit_model(x1, x2hat, d1, d2, config, scaling)


@dataclass(frozen=True, eq=False)
class FitBlocks:
    """What one fit solves from: the scaled minority rows, the kept
    majority rows, their instance weights, the kept rows' indices into
    the training set and the majority size.
    Compared and hashed by identity: a PreparedFold hands out one
    object per distinct (weights, kept set)."""

    x1: np.ndarray
    x2hat: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    kept_rows: np.ndarray
    m2_total: int


class PreparedFold:
    """One training set made ready for any number of fits.

    Min-max scaling is fit on these rows only and the scaled rows are
    split by class. The fuzzy-rough steps of the pipeline are memoised
    per FuzzyParams: the majority's positive-region scores, its
    similarity row sums and the minority weights. The subsample is not:
    a grid asks for each (FuzzyParams, tau) once per fold, so each ask
    takes it from the memoised scores. Density scores and kept-majority
    weights are row means of the majority's m2 x m2 similarity (see
    _majority_pairs), summed one row block at a time.

    A fold that serves many fits (hold=True, the grid search) holds one
    m2 x m2 array and reads every block off it. Under the minimum
    t-norm, in either score mode, that array is the majority's Chebyshev
    distance, computed once and mapped to each gamma's similarity. Under
    the product and lukasiewicz t-norms it is the similarity of one
    FuzzyParams: asking for other FuzzyParams drops it before building
    the new one, so a grid asked gamma by gamma builds each once and
    never holds two. A fold for one fit (hold=False) holds no m2 x m2
    array: each block is built from the scaled majority rows, once for
    the full rows' sums (the density scores) and once more for the kept
    rows' sums when tau removes rows, with the same bits. Held or
    streamed, a pass over at least 1024 rows (2^20 entries) sums its
    row blocks on one pinned worker thread per usable CPU, with the bits
    of one thread (see fuzzy_rough.row_sums). Tau 0 keeps
    every majority row and scores none of them. A tau that empties the
    majority raises the same ConfigurationError on every fit that asks
    for it.

    The blocks, with their kept-majority weights, are memoised per
    (the weights' FuzzyParams, or None without weights; the kept set),
    so taus and gammas that keep the same rows with the same weights
    get one FitBlocks object. Without weights both classes' weights are
    ones.
    """

    def __init__(self, features, labels, *, hold: bool = True):
        features = np.asarray(features, dtype=np.float64)
        self.hold = hold
        self.labels = np.asarray(labels)
        self.scaling = minmax_fit(features)
        self.xs = minmax_apply(self.scaling, features)
        min_rows = np.flatnonzero(self.labels == 1)
        self.maj_rows = np.flatnonzero(self.labels == -1)
        if min_rows.size == 0 or self.maj_rows.size == 0:
            raise DataError("training data must contain both classes")
        self.x1 = self.xs[min_rows]
        self.x2 = self.xs[self.maj_rows]
        # the largest majority distance: that of the two rows spanning
        # the widest column, since rounding a difference is monotone
        self._span = (float(np.ptp(self.x2, axis=0).max())
                      if self.x2.shape[1] else 0.0)
        self._memo: dict = {}
        self._pairs: tuple[FuzzyParams | None, np.ndarray] | None = None

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _majority_pairs(self, fuzzy: FuzzyParams) -> tuple[np.ndarray, dict]:
        """What fuzzy's majority similarity is read from, and the
        keywords of fuzzy_rough.row_sums that read it. A holding fold
        gives its m2 x m2 array: the Chebyshev distances with fuzzy's
        gamma under the minimum t-norm, where they serve every gamma and
        both score modes; else the similarity itself. A streaming fold
        gives the scaled majority rows as row_sums' points, which build
        each row block of the same array. lower_approx scores come from
        the cross-class similarity, so in that mode this serves the
        weights alone."""
        by_distance = fuzzy.tnorm == "minimum"
        # rounding is monotone, so when gamma times the largest distance
        # rounds to at most 1 no 1 - gamma d is negative
        how = (dict(gamma=fuzzy.gamma, clip=fuzzy.gamma * self._span > 1.0)
               if by_distance else {})
        if not self.hold:
            return self.x2, dict(how, points=fuzzy)
        key = None if by_distance else fuzzy
        if self._pairs is None or self._pairs[0] != key:
            self._pairs = None  # so two are never live
            # looked up on the module, where the benchmark's tracer wraps
            # the similarity
            self._pairs = (key, fuzzy_rough.chebyshev_distances(self.x2)
                           if by_distance else
                           fuzzy_rough.indiscernibility_matrix(self.x2, fuzzy))
        return self._pairs[1], how

    def _row_sums(self, fuzzy: FuzzyParams) -> np.ndarray:
        """Every majority row's similarity sum; the density scores and
        the weights of every tau that keeps every row share it."""
        def compute():
            pairs, how = self._majority_pairs(fuzzy)
            return row_sums(pairs, **how)
        return self._cached(("sums", fuzzy), compute)

    def scores(self, fuzzy: FuzzyParams) -> PositiveRegionScores:
        """The majority's positive_region_scores; in density mode, the
        row means of the majority similarity."""
        def compute():
            if fuzzy.score_mode != "density":
                return positive_region_scores(self.xs, self.labels, fuzzy,
                                              target_class=-1)
            return PositiveRegionScores(
                scores=row_means(self._row_sums(fuzzy)),
                params=fuzzy, row_indices=self.maj_rows,
            )
        return self._cached(("scores", fuzzy), compute)

    def _kept(self, config: TrainConfig) -> np.ndarray:
        """Indices into x2 of the majority rows the fit keeps. Every
        score is >= 0, so tau 0 keeps every row without scoring."""
        if config.tau == 0:
            return np.arange(self.x2.shape[0])
        return subsample_majority(self.scores(config.fuzzy),
                                  config.tau).kept_indices

    def blocks(self, config: TrainConfig) -> FitBlocks:
        """Subsample the majority at tau and weight both classes."""
        kept = self._kept(config)
        fuzzy = config.fuzzy if config.weights_enabled else None

        def compute():
            d1, d2 = np.ones(self.x1.shape[0]), np.ones(kept.size)
            if fuzzy is not None:
                d1 = self._cached(("d1", fuzzy),
                                  lambda: class_weights(self.x1, fuzzy))
                if kept.size == self.x2.shape[0]:
                    sums = self._row_sums(fuzzy)
                else:
                    pairs, how = self._majority_pairs(fuzzy)
                    sums = row_sums(pairs, kept, **how)
                d2 = row_means(sums, WEIGHT_FLOOR)
            return FitBlocks(self.x1, self.x2[kept], d1, d2,
                             self.maj_rows[kept], self.x2.shape[0])
        return self._cached(("blocks", fuzzy, kept.tobytes()), compute)


def fit_blocks(blocks: FitBlocks, config: TrainConfig,
               scaling: ScalingParams | None = None):
    """Run the linear or kernel solver on prepared blocks. Returns a
    TwinPlaneModel carrying `scaling` (None: predict takes scaled rows),
    whose summary records how many majority rows survived."""
    if config.kernel == "gaussian":
        model = fit_kernel(blocks.x1, blocks.x2hat, blocks.d1, blocks.d2,
                           config, scaling=scaling)
    else:
        model = fit_linear(blocks.x1, blocks.x2hat, blocks.d1, blocks.d2,
                           config.c1, config.c2, config.delta,
                           scaling=scaling, config=config)
    model.summary.m2_total = blocks.m2_total
    model.summary.kept_majority_rows = blocks.kept_rows
    return model


def score_fits(blocks: FitBlocks, configs: list[TrainConfig],
               x_va: np.ndarray, y_va: np.ndarray,
               convention: str) -> list[float | None]:
    """The G-mean on scaled validation rows of the fit of `blocks` at
    each config, which differ only in c1 and c2; None where either
    plane's system is singular or both planes are degenerate. Each value
    has the bits of report(confusion(y_va, predict(fit_blocks(blocks,
    config), x_va)), convention).gmean, but no model is built: plane 1
    is solved once per distinct c1 and plane 2 once per distinct c2 by
    _solve_plane, one plane's terms at a time; every solved plane's
    distances come from one _plane_distances pass over the rows; and
    each distinct (c1, c2) labels and counts them with predict's and
    confusion's arithmetic."""
    sigma, delta = configs[0].sigma, configs[0].delta
    h, g, x_ref, k_ref = _class_blocks(blocks.x1, blocks.x2hat, sigma)
    # (c1, c2) -> its G-mean, None until measured
    gmeans = dict.fromkeys((cfg.c1, cfg.c2) for cfg in configs)
    # (plane, c) -> (w, b, norm), for every c whose system is solvable
    planes = {}
    for plane, a, b, d_b in ((1, h, g, blocks.d2), (2, g, h, blocks.d1)):
        cs = dict.fromkeys(pair[plane - 1] for pair in gmeans)
        for c, solved in zip(cs, _solve_plane(a, b, d_b, plane, cs, delta,
                                              k_ref)):
            if not isinstance(solved, SingularSystemError):
                planes[plane, c] = solved[0]
    dists = dict(zip(planes, _plane_distances(x_va, list(planes.values()),
                                              x_ref, sigma)))
    true_pos = y_va == 1
    for c1, c2 in gmeans:
        p1, p2 = planes.get((1, c1)), planes.get((2, c2))
        # both planes solvable, and not both degenerate (norm 0)
        if p1 and p2 and (p1[2] or p2[2]):
            gmeans[c1, c2] = gmean(true_pos, dists[1, c1] <= dists[2, c2],
                                   convention)
    return [gmeans[cfg.c1, cfg.c2] for cfg in configs]


def score_grid(ds: LabeledDataset, folds, configs: list[TrainConfig],
               convention: str) -> tuple[np.ndarray, np.ndarray]:
    """Each config's G-mean summed over the (training rows, validation
    rows) pairs of `folds`, and whether it is alive: a config that fails
    on a fold (tau empties the majority, a singular system, both planes
    degenerate) is dead and not fit again. The configs differ only in
    tau, gamma, c1, c2 and sigma, as one grid search's do.

    The configs are grouped once by (tau, gamma), gamma by gamma. Each
    fold builds one holding PreparedFold, scales its validation rows,
    and builds the blocks of every group with a live config, so a fold
    that holds a similarity per gamma builds each once, and a group
    whose tau empties the majority dies whole; then it drops the
    PreparedFold. Configs whose blocks are one object (the same weights
    and kept set) and that share sigma differ only in c1 and c2: each
    such (blocks, sigma) group is scored by one score_fits call, and
    each distinct (c1, c2)'s G-mean, or its failure, goes to every
    config that shares it. Results are stored by config index, so no
    sum or flag depends on the walk."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in sorted(enumerate(configs), key=lambda p: p[1].fuzzy.gamma):
        groups.setdefault((cfg.tau, cfg.fuzzy), []).append(i)
    sums = np.zeros(len(configs))
    alive = np.ones(len(configs), dtype=bool)
    for tr, va in folds:
        # one held majority array serves every (gamma, kept set)
        prep = PreparedFold(ds.features[tr], ds.labels[tr], hold=True)
        x_va = minmax_apply(prep.scaling, ds.features[va])
        y_va = ds.labels[va]
        # (blocks, sigma) -> its live configs, in the order built
        fits: dict[tuple, list[int]] = {}
        for group in groups.values():
            live = [i for i in group if alive[i]]
            if not live:
                continue
            try:
                blocks = prep.blocks(configs[live[0]])
            except ConfigurationError:
                alive[live] = False
                continue
            for i in live:
                fits.setdefault((blocks, configs[i].sigma), []).append(i)
        del prep
        for (blocks, _), members in fits.items():
            # looked up on the module, where tests wrap it
            gmeans = score_fits(blocks, [configs[i] for i in members], x_va,
                                y_va, convention)
            for i, g in zip(members, gmeans):
                if g is None:
                    alive[i] = False
                else:
                    sums[i] += g
    return sums, alive


def fit_frlstsvm(ds: LabeledDataset, config: TrainConfig):
    """Full training pipeline on one training set: one fit of a fresh
    streaming PreparedFold, which holds no m2 x m2 majority array. The
    PreparedFold is released before the solve starts."""
    prep = PreparedFold(ds.features, ds.labels, hold=False)
    blocks, scaling = prep.blocks(config), prep.scaling
    del prep
    return fit_blocks(blocks, config, scaling)


def _config_lines(cfg: TrainConfig) -> list[str]:
    sigma = _fmt(cfg.sigma) if cfg.sigma is not None else "none"
    return [
        "config 10",
        f"c1 {_fmt(cfg.c1)}",
        f"c2 {_fmt(cfg.c2)}",
        f"delta {_fmt(cfg.delta)}",
        f"tau {_fmt(cfg.tau)}",
        f"gamma {_fmt(cfg.fuzzy.gamma)}",
        f"tnorm {cfg.fuzzy.tnorm}",
        f"score_mode {cfg.fuzzy.score_mode}",
        f"kernel {cfg.kernel}",
        f"sigma {sigma}",
        f"weights {int(cfg.weights_enabled)}",
    ]


def _vector_line(tag: str, v: np.ndarray) -> str:
    return tag + " " + " ".join(_fmt(x) for x in np.asarray(v).reshape(-1))


def save_model(model: TwinPlaneModel, path) -> None:
    """Write the FRLSTSVM/2 text format; the write is atomic.

    A header line names the format and kernel, and length-prefixed
    sections follow: scaling (`none`, or `min` and `range` rows), the 10
    config lines, then `planes 4` (w1, b1, w2, b2) for a linear model.
    A gaussian model writes its reference rows (`xref` and one row a
    line) and `coefficients 6`: w1, b1, n1, w2, b2, n2, with n_j plane
    j's norm, so that loading needs no gram. Numbers are written at 17
    significant digits, which read back to the same bits."""
    if not isinstance(model, TwinPlaneModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [f"{FORMAT_TAG} {model.config.kernel}"]
    if model.scaling is None:
        lines += ["scaling 1", "none"]
    else:
        lines += [
            "scaling 2",
            _vector_line("min", model.scaling.mins),
            _vector_line("range", model.scaling.ranges),
        ]
    lines += _config_lines(model.config)
    if model.x_ref is None:
        lines.append("planes 4")
    else:
        lines.append(f"xref {model.x_ref.shape[0]}")
        lines += [" ".join(_fmt(v) for v in row) for row in model.x_ref]
        lines.append("coefficients 6")
    for j, plane in (("1", model.plane1), ("2", model.plane2)):
        lines += [_vector_line(f"w{j}", plane.w), f"b{j} {_fmt(plane.b)}"]
        if model.x_ref is not None:
            lines.append(f"n{j} {_fmt(plane.norm)}")
    atomic_write(path, "\n".join(lines) + "\n")


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

    def floats(self, parts: list[str], tag: str | None = None) -> list[float]:
        """The parts as finite floats, or a DataError naming the line and
        its tag (None: a reference row)."""
        try:
            values = [float(p) for p in parts]
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            kind = "non-numeric" if values is None else "non-finite"
            where = "in reference row" if tag is None else f"under {tag!r}"
            raise DataError(
                f"{self.path}: {kind} value {where} at line {self.pos}"
            )
        return values

    def tagged_floats(self, tag: str) -> np.ndarray:
        return np.asarray(self.floats(self.tagged(tag), tag))

    def norm(self, tag: str) -> float:
        """A stored plane norm: one finite value, at least 0."""
        values = self.tagged_floats(tag)
        if values.size != 1 or values[0] < 0:
            raise DataError(f"{self.path}: {tag!r} at line {self.pos} must "
                            "be one value >= 0")
        return values[0]

    def end(self) -> None:
        """Refuse a non-blank line after the last section, such as the
        start of a second model."""
        for line_no, line in enumerate(self.lines[self.pos:],
                                       start=self.pos + 1):
            if line.strip():
                raise DataError(f"{self.path}: unexpected line {line_no} "
                                f"after the last section: {line[:40]!r}")

    def reference_rows(self) -> np.ndarray:
        """The xref section's rows, parsed in one pass by np.loadtxt,
        whose values are float()'s, though it refuses some strings that
        float() reads (digit separators, non-ASCII digits). A block that
        fails that pass, or gives other than n rows (loadtxt skips blank
        lines) or a value that is not finite, is read again line by line:
        that accepts what float() does, and an error names its line."""
        n = self.section("xref")
        block = self.lines[self.pos:self.pos + n]
        rows = None
        # loadtxt warns on a block without data; one that starts with a
        # blank line is read line by line anyway
        if block and block[0].strip():
            try:
                rows = np.loadtxt(block, dtype=np.float64, ndmin=2,
                                  comments=None)
            except ValueError:
                pass
        if (rows is not None and rows.shape[0] == n
                and np.isfinite(rows).all()):
            self.pos += n
            return rows
        rows = [self.floats(self.next().split()) for _ in range(n)]
        if len({len(row) for row in rows}) != 1:
            raise DataError(f"{self.path}: ragged or empty reference rows")
        return np.asarray(rows)


def _check_width(path: str, section: str, width: int,
                 scaling: ScalingParams | None) -> None:
    """A model's feature count must match its scaling section, or every
    predict on it fails."""
    if scaling is not None and width != scaling.mins.size:
        raise DataError(
            f"{path}: {section} section has {width} features, the "
            f"scaling section {scaling.mins.size}"
        )


def load_model(path):
    """Read a model file written by save_model, in the FRLSTSVM/2 format
    or the FRLSTSVM/1 format before it.

    A gaussian /2 file stores both planes' norms. A /1 file has two
    more config lines, `implicator` (either name gives the same model)
    and `subsample` (0 reads as tau 0), and no norms: they come from
    the gram of its reference rows, the one case in which a load builds
    that gram. Nothing but blank lines may follow the last plane's
    line."""
    path = str(path)
    lines = read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty file")
    rd = _Reader(lines, path)

    head = rd.next().split()
    version = _FORMAT_VERSIONS.get(head[0]) if len(head) == 2 else None
    if version is None:
        raise DataError(
            f"{path}: not a {' or '.join(_FORMAT_VERSIONS)} model file "
            f"(first line {lines[0][:40]!r})"
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
        try:
            scaling = ScalingParams(mins=mins, ranges=ranges)
        except DataError as exc:
            raise DataError(f"{path}: bad scaling section at lines "
                            f"{rd.pos - 1}-{rd.pos} ({exc})") from None
    else:
        raise DataError(f"{path}: malformed scaling section")

    n_cfg = 12 if version == 1 else 10
    if rd.section("config") != n_cfg:
        raise DataError(f"{path}: config section must have {n_cfg} lines")
    raw: dict[str, str] = {}
    for _ in range(n_cfg):
        parts = rd.next().split(None, 1)
        if len(parts) != 2:
            raise DataError(f"{path}: malformed config line {rd.pos}")
        raw[parts[0]] = parts[1].strip()

    def choice(key: str, allowed: tuple[str, ...]) -> str:
        if raw[key] not in allowed:
            raise ValueError(f"config line {key!r} must be one of "
                             f"{', '.join(allowed)}, got {raw[key]!r}")
        return raw[key]

    try:
        tau = float(raw["tau"])
        check_tau(tau)
        if version == 1:
            # either implicator gives the same lower_approx scores (see
            # fuzzy_rough), and a fit with subsample 0 kept every
            # majority row, as tau 0 does
            choice("implicator", ("lukasiewicz", "kleene_dienes"))
            if choice("subsample", ("0", "1")) == "0":
                tau = 0.0
        fuzzy = FuzzyParams(
            gamma=float(raw["gamma"]), tnorm=raw["tnorm"],
            score_mode=raw["score_mode"],
        )
        sigma = None if raw["sigma"] == "none" else float(raw["sigma"])
        config = TrainConfig(
            c1=float(raw["c1"]), c2=float(raw["c2"]), tau=tau, fuzzy=fuzzy,
            delta=float(raw["delta"]), kernel=raw["kernel"], sigma=sigma,
            weights_enabled=choice("weights", ("0", "1")) == "1",
        )
    except (KeyError, ValueError, ConfigurationError) as exc:
        raise DataError(f"{path}: bad config section ({exc})") from None
    if config.kernel != kind:
        raise DataError(
            f"{path}: header kind {kind!r} disagrees with config kernel "
            f"{config.kernel!r}"
        )

    x_ref = None
    section, n_lines = "planes", 4
    if kind == "gaussian":
        x_ref = rd.reference_rows()
        _check_width(path, "xref", x_ref.shape[1], scaling)
        section, n_lines = "coefficients", (4 if version == 1 else 6)
    if rd.section(section) != n_lines:
        raise DataError(
            f"{path}: {section} section must have {n_lines} lines")
    w1, b1 = rd.tagged_floats("w1"), rd.tagged_floats("b1")
    n1 = rd.norm("n1") if n_lines == 6 else None
    w2, b2 = rd.tagged_floats("w2"), rd.tagged_floats("b2")
    n2 = rd.norm("n2") if n_lines == 6 else None
    rd.end()
    width = w1.size if x_ref is None else x_ref.shape[0]
    if (b1.size != 1 or b2.size != 1
            or w1.size != width or w2.size != width):
        raise DataError(f"{path}: malformed {section} section")
    if x_ref is None:
        _check_width(path, section, width, scaling)
    if x_ref is not None and version == 1:
        # a /1 gaussian file's norms come from the gram, which is not kept
        gram = gaussian_gram(x_ref, x_ref, config.sigma)
        n1, n2 = _norm(w1, gram), _norm(w2, gram)
    return TwinPlaneModel(
        plane1=Hyperplane(w=w1, b=b1[0], norm=n1),
        plane2=Hyperplane(w=w2, b=b2[0], norm=n2),
        scaling=scaling, config=config, x_ref=x_ref,
    )
