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
a gaussian one; each plane computes it once, when it is built.

The pipeline (scale, split by class, subsample the majority, weight,
solve) lives in PreparedFold, which memoises its fuzzy-rough steps so
that nested CV fits a whole grid from one object per training set;
fit_frlstsvm is one fit of a fresh PreparedFold. It holds one majority
similarity at a time, for the FuzzyParams last asked, and hands out one
FitBlocks per distinct (weights, kept set), and FitBlocks.terms gives
the parts of both systems that do not depend on c1 or c2 (PlaneTerms:
H'H, G'D2G, G'd2, G'G, H'D1H, H'd1), which fits that differ only in c
share; each fit still solves its own two systems through spd_solve.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from . import fuzzy_rough, linalg
from .dataset import (
    LabeledDataset,
    ScalingParams,
    atomic_write,
    minmax_apply,
    minmax_fit,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
)
from .fuzzy_rough import (
    WEIGHT_FLOOR,
    FuzzyParams,
    PositiveRegionScores,
    check_tau,
    class_weights,
    mean_similarity,
    positive_region_scores,
    subsample_majority,
)
from .linalg import SpdSolveReport, add_scaled_identity, gram, spd_solve

KERNELS = ("linear", "gaussian")

FORMAT_TAG = "FRLSTSVM/1"

# entries in one row block of the kept x kept similarity (256 KiB). At
# this size two takes gather a block faster than np.ix_ on the pima,
# yeast3 and abalone19 shapes; at 1 MiB they were 2x slower than np.ix_
# on abalone19's 4142-row majority
_KEPT_BLOCK_ENTRIES = 1 << 15


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
    """The plane w'f + b = 0 over a row's features f. Distances to it
    divide by `norm`, the length of w: Euclidean, or sqrt(w'Kw) when
    built with the gram K(Xref, Xref) of a gaussian model, which is not
    kept. A plane of norm 0 is degenerate."""

    w: np.ndarray
    b: float
    gram: InitVar[np.ndarray | None] = None
    norm: float = field(init=False)

    def __post_init__(self, gram):
        self.w = np.asarray(self.w, dtype=np.float64).reshape(-1)
        self.b = float(self.b)
        if not (np.isfinite(self.w).all() and math.isfinite(self.b)):
            raise ValueError("hyperplane coefficients must be finite")
        if gram is None:
            # np.linalg.norm's arithmetic for a real vector, so its bits,
            # without its call overhead
            self.norm = math.sqrt(float(self.w.dot(self.w)))
        else:
            self.norm = math.sqrt(max(float(self.w @ gram @ self.w), 0.0))


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


def gaussian_gram(xa, xb, sigma: float) -> np.ndarray:
    """Rectangular Gaussian kernel matrix between two row sets. The self
    matrix gaussian_gram(x, x, sigma) is exactly symmetric with an exact
    unit diagonal, since cdist sums (a - b)^2 = (b - a)^2 per pair."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    xa = linalg.as_matrix(xa, "left rows")
    xb = linalg.as_matrix(xb, "right rows")
    # in place, one buffer: the same operations as
    # np.exp(-d / (2 sigma^2)), so the same bits
    d = cdist(xa, xb, metric="sqeuclidean")
    np.negative(d, out=d)
    np.divide(d, 2.0 * sigma * sigma, out=d)
    np.exp(d, out=d)
    return d


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


class PlaneTerms(NamedTuple):
    """The parts of both planes' normal equations that do not depend on
    c1 or c2. With H and G the augmented class blocks and D1, D2 their
    weights, plane 1 solves (H'H + c1 G'D2G + dI) t = c1 G'd2 and plane 2
    (G'G + c2 H'D1H + dI) t = c2 H'd1; `planes` holds (H'H, G'D2G, G'd2)
    and then (G'G, H'D1H, H'd1). A gaussian fit also keeps its reference
    rows and their gram K(Xref, Xref), for the planes' norms.

    FitBlocks.terms gives `planes` as a tuple, which fits that differ
    only in c1 and c2 share. A fit given no terms reads them from a
    one-pass iterator that builds each plane's only when it is solved,
    so a lone gaussian fit holds two of the (m_ref + 1)^2 grams at a
    time, not four through both solves."""

    m1: int
    m2: int
    planes: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
    x_ref: np.ndarray | None
    k_ref: np.ndarray | None


def _weighted_gram(b: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    return gram(b * np.sqrt(d_b)[:, None])


def _plane_terms(x1, x2hat, d1, d2, sigma: float | None) -> PlaneTerms:
    """The c-free terms of a fit on pre-scaled class matrices and their
    weights (None: unit weights), with `planes` built as it is read: on
    H = [X1 | 1] and G = [X2hat | 1] when sigma is None, else on the
    augmented gaussian kernel blocks H = [K(X1, Xref) | 1] and
    G = [K(X2hat, Xref) | 1] of width sigma, with Xref the minority
    rows stacked over the kept majority rows."""
    x1, x2hat, d1, d2 = _checked_blocks(x1, x2hat, d1, d2)
    m1 = x1.shape[0]
    x_ref = k_ref = None
    if sigma is None:
        h, g = _augment(x1), _augment(x2hat)
    else:
        x_ref = np.vstack([x1, x2hat])
        k_ref = gaussian_gram(x_ref, x_ref, sigma)
        h, g = _augment(k_ref[:m1]), _augment(k_ref[m1:])

    def planes():
        yield gram(h), _weighted_gram(g, d2), g.T @ d2
        yield gram(g), _weighted_gram(h, d1), h.T @ d1

    return PlaneTerms(m1=m1, m2=x2hat.shape[0], planes=planes(),
                      x_ref=x_ref, k_ref=k_ref)


def _fit_planes(terms: PlaneTerms, c1: float, c2: float,
                delta: float) -> tuple[np.ndarray, np.ndarray,
                                       TrainingSummary]:
    """Both weighted planes from their c-free terms. Plane j solves
    t = (A'A + c B'DB + delta I)^-1 c B'D e, the ridge least-squares fit
    of At = 0 and Bt = e with weights cD on the rows of B, from
    (A'A, B'DB, B'D e). Returns u1 = -t1, u2 = t2 and the summary."""
    solved = []
    planes = iter(terms.planes)
    for c in (c1, c2):
        aa, bdb, bd = next(planes)
        # c B'DB + A'A in one buffer has the bits of A'A + c B'DB
        lhs = c * bdb
        lhs += aa
        lhs[np.diag_indices_from(lhs)] += delta
        rhs = c * bd
        # unshared terms are freed before the solve, and the system
        # before the next plane's terms are built
        del aa, bdb, bd
        solved.append(spd_solve(lhs, rhs))
        del lhs
    (t1, report1), (t2, report2) = solved
    summary = TrainingSummary(
        m1=terms.m1, m2_kept=terms.m2, m2_total=terms.m2,
        solver_reports={"plane1": report1, "plane2": report2},
    )
    return -t1, t2, summary


def _unpack(u: np.ndarray, gram: np.ndarray | None = None) -> Hyperplane:
    return Hyperplane(w=u[:-1], b=u[-1], gram=gram)


def _default_config(c1: float, c2: float, delta: float,
                    weighted: bool) -> TrainConfig:
    return TrainConfig(
        c1=c1, c2=c2, tau=0.0, fuzzy=FuzzyParams(gamma=1.0),
        delta=delta, kernel="linear", sigma=None, weights_enabled=weighted,
    )


def fit_linear(x1, x2hat, d1, d2, c1: float, c2: float,
               delta: float = 1e-6, scaling: ScalingParams | None = None,
               config: TrainConfig | None = None,
               terms: PlaneTerms | None = None) -> TwinPlaneModel:
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
    terms : the c-free terms of these blocks, as FitBlocks.terms gives
        them to fits that differ only in c1 and c2; None computes them
        for this fit alone.
    """
    if config is None:
        config = _default_config(c1, c2, delta, weighted=True)
    if terms is None:
        terms = _plane_terms(x1, x2hat, d1, d2, None)
    u1, u2, summary = _fit_planes(terms, c1, c2, delta)
    return TwinPlaneModel(
        plane1=_unpack(u1), plane2=_unpack(u2),
        scaling=scaling, config=config, summary=summary,
    )


def fit_lstsvm_baseline(x1, x2, c1: float, c2: float,
                        delta: float = 1e-6,
                        scaling: ScalingParams | None = None
                        ) -> TwinPlaneModel:
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
    return TwinPlaneModel(
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


def predict(model: TwinPlaneModel, x, return_distances: bool = False):
    """Label each row by its nearer plane; ties go to +1.

    The distance to plane j is |f'w_j + b_j| / norm_j, with f the scaled
    row, or its kernel values K(row, x_ref) for a gaussian model. A
    degenerate plane (norm 0) is infinitely far from every row; both
    degenerate is an error. A 1-D input is treated as a single point
    and scalar results are returned. With return_distances, per-plane
    distances come back too.
    """
    xs, single = _prepare_features(model, x)
    planes = (model.plane1, model.plane2)
    if planes[0].norm == 0.0 and planes[1].norm == 0.0:
        raise DegenerateModelError("both planes are degenerate")
    if model.x_ref is not None:
        xs = gaussian_gram(xs, model.x_ref, model.config.sigma)
    d1, d2 = (np.full(xs.shape[0], np.inf) if p.norm == 0.0
              else np.abs(xs @ p.w + p.b) / p.norm for p in planes)
    labels = np.where(d1 <= d2, 1, -1).astype(np.int64)
    if single:
        labels, d1, d2 = int(labels[0]), float(d1[0]), float(d2[0])
    return (labels, d1, d2) if return_distances else labels


def fit_kernel(x1, x2hat, d1, d2, config: TrainConfig,
               scaling: ScalingParams | None = None,
               terms: PlaneTerms | None = None) -> TwinPlaneModel:
    """Fit the Gaussian-kernel variant from pre-scaled class matrices.

    The reference set stacks the minority rows over the kept majority
    rows; the plane algebra of fit_linear is applied to the augmented
    kernel blocks P and Q against that reference set. `terms` is as in
    fit_linear, at config.sigma.
    """
    if config.kernel != "gaussian":
        raise ConfigurationError(
            f"fit_kernel requires a gaussian config, got {config.kernel!r}"
        )
    if terms is None:
        terms = _plane_terms(x1, x2hat, d1, d2, config.sigma)
    u1, u2, summary = _fit_planes(terms, config.c1, config.c2, config.delta)
    return TwinPlaneModel(
        plane1=_unpack(u1, terms.k_ref), plane2=_unpack(u2, terms.k_ref),
        scaling=scaling, config=config, summary=summary, x_ref=terms.x_ref,
    )


@dataclass(frozen=True, eq=False)
class FitBlocks:
    """What one fit solves from: the scaled minority rows, the kept
    majority rows, their instance weights (None for unit weights), the
    kept rows' indices into the training set and the majority size.
    Compared and hashed by identity: a PreparedFold hands out one
    object per distinct (weights, kept set)."""

    x1: np.ndarray
    x2hat: np.ndarray
    d1: np.ndarray | None
    d2: np.ndarray | None
    kept_rows: np.ndarray
    m2_total: int

    def terms(self, sigma: float | None = None) -> PlaneTerms:
        """The c-free terms of a fit on these blocks, to share across
        fits that differ only in c1 and c2; sigma None for the linear
        kernel."""
        terms = _plane_terms(self.x1, self.x2hat, self.d1, self.d2, sigma)
        return terms._replace(planes=tuple(terms.planes))


class PreparedFold:
    """One training set made ready for any number of fits.

    Min-max scaling is fit on these rows only and the scaled rows are
    split by class. The fuzzy-rough steps of the pipeline are memoised
    per FuzzyParams: the majority's positive-region scores and the
    minority weights; per (FuzzyParams, tau): the subsample. Density
    scores and kept-majority weights are row means of the majority's
    m2 x m2 similarity, the object's only m2 x m2 array. It has one
    slot: asking for other FuzzyParams drops the held similarity before
    building the new one, so a grid asked gamma by gamma computes each
    once and never holds two. Tau 0 keeps every majority row and scores
    none of them. A tau that empties the majority raises the same
    ConfigurationError on every fit that asks for it.

    The blocks, with their kept-majority weights, are memoised per
    (the weights' FuzzyParams, or None without weights; the kept set),
    so taus and gammas that keep the same rows with the same weights
    get one FitBlocks object.
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
        self._sim: tuple[FuzzyParams, np.ndarray] | None = None

    def _cached(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except ConfigurationError as exc:
                self._memo[key] = exc.with_traceback(None)
        hit = self._memo[key]
        if isinstance(hit, ConfigurationError):
            # a fresh error each time: a memoised one would keep the
            # frames it is raised through, and this object, alive until
            # the garbage collector breaks the cycle
            raise ConfigurationError(*hit.args)
        return hit

    def _similarity(self, fuzzy: FuzzyParams) -> np.ndarray:
        if self._sim is None or self._sim[0] != fuzzy:
            self._sim = None  # so two are never live
            # looked up on the module, where the benchmark's tracer wraps it
            self._sim = (fuzzy,
                         fuzzy_rough.indiscernibility_matrix(self.x2, fuzzy))
        return self._sim[1]

    def scores(self, fuzzy: FuzzyParams) -> PositiveRegionScores:
        """The majority's positive_region_scores; in density mode, the
        row means of the majority similarity."""
        def compute():
            if fuzzy.score_mode != "density":
                return positive_region_scores(self.xs, self.labels, fuzzy,
                                              target_class=-1)
            return PositiveRegionScores(
                scores=mean_similarity(self._similarity(fuzzy).sum(axis=1)),
                params=fuzzy, row_indices=self.maj_rows,
            )
        return self._cached(("scores", fuzzy), compute)

    def _kept(self, config: TrainConfig) -> np.ndarray:
        """Indices into x2 of the majority rows the fit keeps. Every
        score is >= 0, so tau 0 keeps every row without scoring."""
        if config.tau == 0:
            return np.arange(self.x2.shape[0])
        return self._cached(("kept", config.fuzzy, config.tau), lambda: (
            subsample_majority(self.scores(config.fuzzy),
                               config.tau).kept_indices))

    def _kept_weights(self, fuzzy: FuzzyParams,
                      kept: np.ndarray) -> np.ndarray:
        """class_weights of the kept majority rows, read off the whole
        majority's similarity without copying its kept x kept block:
        each row block of that block holds the same contiguous rows, so
        its row sums, and the weights, have the same bits."""
        sim = self._similarity(fuzzy)
        if kept.size == sim.shape[0]:
            return mean_similarity(sim.sum(axis=1), WEIGHT_FLOOR)
        step = max(1, _KEPT_BLOCK_ENTRIES // kept.size)
        sums = np.concatenate([
            sim.take(kept[i:i + step], axis=0).take(kept, axis=1).sum(axis=1)
            for i in range(0, kept.size, step)
        ])
        return mean_similarity(sums, WEIGHT_FLOOR)

    def blocks(self, config: TrainConfig) -> FitBlocks:
        """Subsample the majority at tau and weight both classes."""
        kept = self._kept(config)
        fuzzy = config.fuzzy if config.weights_enabled else None

        def compute():
            d1 = d2 = None
            if fuzzy is not None:
                d1 = self._cached(("d1", fuzzy),
                                  lambda: class_weights(self.x1, fuzzy))
                d2 = self._kept_weights(fuzzy, kept)
            return FitBlocks(self.x1, self.x2[kept], d1, d2,
                             self.maj_rows[kept], self.x2.shape[0])
        return self._cached(("blocks", fuzzy, kept.tobytes()), compute)


def fit_blocks(blocks: FitBlocks, config: TrainConfig,
               scaling: ScalingParams | None = None,
               terms: PlaneTerms | None = None):
    """Run the linear or kernel solver on prepared blocks. Returns a
    TwinPlaneModel carrying `scaling` (None: predict takes scaled rows),
    whose summary records how many majority rows survived. `terms` is
    blocks.terms(config.sigma), shared by fits that differ only in c1
    and c2, or None to compute it for this fit alone."""
    if config.kernel == "gaussian":
        model = fit_kernel(blocks.x1, blocks.x2hat, blocks.d1, blocks.d2,
                           config, scaling=scaling, terms=terms)
    else:
        model = fit_linear(blocks.x1, blocks.x2hat, blocks.d1, blocks.d2,
                           config.c1, config.c2, config.delta,
                           scaling=scaling, config=config, terms=terms)
    model.summary.m2_total = blocks.m2_total
    model.summary.kept_majority_rows = blocks.kept_rows
    return model


def fit_frlstsvm(ds: LabeledDataset, config: TrainConfig):
    """Full training pipeline on one training set: one fit of a fresh
    PreparedFold. The PreparedFold, and with it the majority similarity,
    is released before the solve starts."""
    prep = PreparedFold(ds.features, ds.labels)
    blocks, scaling = prep.blocks(config), prep.scaling
    del prep
    return fit_blocks(blocks, config, scaling)


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
        # kept so that the format is unchanged: every implicator gives
        # the same lower_approx scores (see fuzzy_rough), and tau 0 is
        # the fit without subsampling
        "implicator lukasiewicz",
        f"score_mode {cfg.fuzzy.score_mode}",
        f"kernel {cfg.kernel}",
        f"sigma {sigma}",
        "subsample 1",
        f"weights {int(cfg.weights_enabled)}",
    ]


def _vector_line(tag: str, v: np.ndarray) -> str:
    return tag + " " + " ".join(_fmt(x) for x in np.asarray(v).reshape(-1))


def save_model(model: TwinPlaneModel, path) -> None:
    """Write the versioned text format; the write is atomic."""
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
        lines.append("coefficients 4")
    for j, plane in (("1", model.plane1), ("2", model.plane2)):
        lines += [_vector_line(f"w{j}", plane.w), f"b{j} {_fmt(plane.b)}"]
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
    """Read a model file written by save_model."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    rd = _Reader(lines, path)

    head = rd.next().split()
    if len(head) != 2 or head[0] != FORMAT_TAG:
        raise DataError(
            f"{path}: not a {FORMAT_TAG} model file (first line "
            f"{lines[0][:40]!r})"
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

    def choice(key: str, allowed: tuple[str, ...]) -> str:
        if raw[key] not in allowed:
            raise ValueError(f"config line {key!r} must be one of "
                             f"{', '.join(allowed)}, got {raw[key]!r}")
        return raw[key]

    try:
        # files may name either implicator; both give the same model.
        # A file with subsample 0 kept every majority row, as tau 0 does
        choice("implicator", ("lukasiewicz", "kleene_dienes"))
        tau = float(raw["tau"])
        check_tau(tau)
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
    section = "planes"
    if kind == "gaussian":
        rows = [rd.floats(rd.next().split())
                for _ in range(rd.section("xref"))]
        if len({len(row) for row in rows}) != 1:
            raise DataError(f"{path}: ragged or empty reference rows")
        x_ref = np.asarray(rows)
        _check_width(path, "xref", x_ref.shape[1], scaling)
        section = "coefficients"
    if rd.section(section) != 4:
        raise DataError(f"{path}: {section} section must have 4 lines")
    w1 = rd.tagged_floats("w1")
    b1 = rd.tagged_floats("b1")
    w2 = rd.tagged_floats("w2")
    b2 = rd.tagged_floats("b2")
    width = w1.size if x_ref is None else x_ref.shape[0]
    if (b1.size != 1 or b2.size != 1
            or w1.size != width or w2.size != width):
        raise DataError(f"{path}: malformed {section} section")
    if x_ref is None:
        _check_width(path, section, width, scaling)
    # the gram only gives the two norms; it is not kept
    gram = (None if x_ref is None
            else gaussian_gram(x_ref, x_ref, config.sigma))
    return TwinPlaneModel(
        plane1=Hyperplane(w=w1, b=b1[0], gram=gram),
        plane2=Hyperplane(w=w2, b=b2[0], gram=gram),
        scaling=scaling, config=config, x_ref=x_ref,
    )
