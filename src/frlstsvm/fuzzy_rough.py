"""Fuzzy similarity, positive-region scoring, under-sampling and
instance weights.

All routines expect features already scaled to [0, 1], so every
attribute range l(a) is 1 and the similarity of two instances under one
attribute is max(0, 1 - gamma * |ax - ay|).

Under the minimum t-norm the similarity of two rows is the smallest of
those attribute terms, and it is computed as one Chebyshev (L-infinity)
distance: max(0, 1 - gamma * max_a |ax - ay|). The bits are exact, not
approximate. Each rounded step, d -> gamma*d -> 1 - gamma*d -> max(0, .),
is monotone in d, so the smallest term is the term of the largest
|ax - ay|; cdist takes that maximum over the same IEEE differences the
per-attribute form takes; and d*(-gamma) + 1, the in-place form, equals
1 - gamma*d in IEEE arithmetic. So one distance matrix serves every
gamma: chebyshev_distances computes it, and row_sums maps it to one
gamma's similarity a row block at a time as it sums. Given the rows
instead, row_sums builds each block's distances itself, so no m x m
array is held. The product and lukasiewicz t-norms fold the attribute
terms one at a time.

The clip at 0 is idle for a gamma when gamma times the largest
distance between the rows is at most 1, as it is for every gamma <= 1
on rows scaled to [0, 1]. Each similarity is then exactly 1 - gamma d,
and a row's similarity sum over a set S is |S| - gamma sum_{j in S} d.
So one gamma-free pass, the Chebyshev row sums R, serves every such
gamma: distance_means gives the density scores 1 - gamma R / (p - 1),
which rank the rows by ascending R for every gamma, so every tau keeps
a cut of that one order. A kept set's sums over its own rows are R
minus the sums over the removed rows (row_sums with cols). The result
is the similarity's row means up to rounding, not bit for bit: the
sums are taken over distances, then scaled, where the similarity sums
the mapped terms. classifier.PreparedFold, the training pipeline, takes
this route; positive_region_scores, class_weights and mean_similarity
sum the similarity itself.

The lower_approx score of a row x is its membership in the fuzzy-rough
lower approximation of its own crisp class X, inf_y I(R(x,y), [y in X]).
A crisp concept takes only the values 1 and 0, and every implicator I
this applies to (Lukasiewicz min(1, 1 - a + b), Kleene-Dienes
max(1 - a, b), and any other with I(a, 1) = 1 and I(a, 0) = 1 - a)
gives 1 on same-class rows and 1 - R(x,y) on the rest. So the score is
min over other-class rows y of 1 - R(x,y), or 1 when there are none.
That minimum is computed as 1 - max_y R(x,y), with the same bits:
a -> fl(1 - a) is monotone, so the smallest 1 - a is the one of the
largest a. Only the target-by-other-class similarity is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import linalg
from .errors import ConfigurationError

WEIGHT_FLOOR = 1e-6

# entries in one row block that row_sums gathers, maps or builds
# (256 KiB). At this size two takes gather a block of a restricted
# similarity faster than np.ix_ on the pima, yeast3 and abalone19
# shapes; at 1 MiB they were 2x slower than np.ix_ on abalone19's
# 4142-row majority
_KEPT_BLOCK_ENTRIES = 1 << 15

# entries of the restricted matrix from which row_sums runs its row
# blocks on linalg._run_blocks' worker threads. Smaller passes run on
# the calling thread: threading every pass made an in-process cv-pima
# job slower, since the thread starts outweigh a pass over a majority of
# a few hundred rows
_THREADED_ENTRIES = 1 << 20

T_NORMS = ("minimum", "product", "lukasiewicz")
SCORE_MODES = ("density", "lower_approx")


@dataclass(frozen=True)
class FuzzyParams:
    """Granularity and connective choices for all fuzzy-rough scoring."""

    gamma: float
    tnorm: str = "minimum"
    score_mode: str = "density"

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigurationError(f"gamma must be > 0, got {self.gamma}")
        if self.tnorm not in T_NORMS:
            raise ConfigurationError(
                f"tnorm must be one of {T_NORMS}, got {self.tnorm!r}"
            )
        if self.score_mode not in SCORE_MODES:
            raise ConfigurationError(
                f"score_mode must be one of {SCORE_MODES}, "
                f"got {self.score_mode!r}"
            )


@dataclass(eq=False)
class PositiveRegionScores:
    scores: np.ndarray
    params: FuzzyParams
    row_indices: np.ndarray | None = None


@dataclass(eq=False)
class SubsampleResult:
    kept_indices: np.ndarray
    removed_indices: np.ndarray


def _attribute_terms(d: np.ndarray, gamma: float) -> np.ndarray:
    """max(0, 1 - gamma * d) in place over an array of distances d."""
    d *= -gamma
    d += 1.0
    return np.maximum(d, 0.0, out=d)


def _cross_similarity(xa: np.ndarray, xb: np.ndarray,
                      params: FuzzyParams) -> np.ndarray:
    """Pairwise similarity between the rows of two scaled matrices,
    t-normed over attributes in ascending column order."""
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise ValueError("matrices must be 2-D with equal column counts")
    shape = (xa.shape[0], xb.shape[0])
    if xa.shape[1] == 0:
        # zero attributes: every pair is vacuously identical
        return np.ones(shape)
    if params.tnorm == "minimum":
        return _attribute_terms(cdist(xa, xb, "chebyshev"), params.gamma)

    def term(a: int, buf: np.ndarray) -> np.ndarray:
        np.subtract(xa[:, a:a + 1], xb[None, :, a], out=buf)
        np.abs(buf, out=buf)
        return _attribute_terms(buf, params.gamma)

    # two m x m buffers: the running t-norm and the next attribute term
    out = term(0, np.empty(shape))
    s = np.empty(shape)
    for a in range(1, xa.shape[1]):
        term(a, s)
        if params.tnorm == "product":
            out *= s
        else:  # lukasiewicz: max(0, out + s - 1)
            out += s
            out -= 1.0
            np.maximum(out, 0.0, out=out)
    return out


def indiscernibility_matrix(x, params: FuzzyParams) -> np.ndarray:
    """Full pairwise similarity of one instance set.

    The matrix is exactly symmetric, with an exact unit diagonal: every
    attribute term depends on |ax - ay|, which IEEE arithmetic computes
    identically in both orders and as 0 for a row against itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a non-empty 2-D matrix")
    return _cross_similarity(x, x, params)


def chebyshev_distances(x) -> np.ndarray:
    """max_a |ax - ay| for every pair of rows of one scaled instance
    set: the one distance d that each gamma's minimum-t-norm similarity
    max(0, 1 - gamma d) is a function of (see the module docstring), so
    row_sums can read every gamma's similarity off one such matrix. It
    is 0 everywhere for rows without attributes."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] == 0:
        return np.zeros((x.shape[0], x.shape[0]))
    return cdist(x, x, "chebyshev")


def row_sums(pairs: np.ndarray, rows: np.ndarray | None = None,
             gamma: float | None = None,
             points: FuzzyParams | None = None,
             cols: np.ndarray | None = None) -> np.ndarray:
    """Row sums of the pairwise array `pairs` restricted to the rows
    `rows` and the columns `cols` (ascending distinct indices into
    pairs; rows None: every row; cols None: the rows themselves, so the
    sums of a p x p self-similarity). `pairs` is the similarity itself,
    or the Chebyshev distances d it is under the minimum t-norm: summed
    as they are without gamma, and with gamma each mapped to
    max(0, 1 - gamma d) in the in-place arithmetic of the similarity.

    With points, `pairs` is the scaled rows themselves, and no pairwise
    array is held: each row block is built from the (restricted) rows
    as the array that points names, their Chebyshev distances under the
    minimum t-norm (which gamma maps as above) and their similarity
    under points' other t-norms. Distances and similarities are
    computed pair by pair, so a built block has the bits of the same
    rows of the whole array.

    Distances, a strict subset of the rows or columns, and points are
    summed one row block of about 2^15 entries of the restricted array
    at a time, the distances mapped in one reused buffer, so neither a
    restricted copy nor a second pairwise array is made. Each block
    holds the same contiguous rows as the whole restricted array, so its
    row sums have the whole's bits.

    A pass over at least 2^20 entries of the restricted array (p >=
    1024 rows of a self-similarity) runs its blocks on
    linalg._run_blocks' worker threads: one per CPU in the process's
    affinity mask (taskset restricts them), never more than blocks, each
    with its own map buffer, allocated on the calling thread. Each block
    writes only its own rows of the sums, and a row's sum does not
    depend on the rows that share its block, so the bits do not depend
    on the thread count. A smaller pass runs on the calling thread. Each
    process makes its own threads, so under cv --workers N every pool
    worker's large passes start theirs."""
    if points is not None:
        xr = pairs if rows is None else pairs[rows]
        xc = xr if cols is None else pairs[cols]
        p, q = xr.shape[0], xc.shape[0]
        # Chebyshev blocks are built into the worker's buffer
        buffered = points.tnorm == "minimum"
    else:
        if cols is None:
            if rows is not None and rows.size == pairs.shape[0]:
                rows = None
            if rows is None and gamma is None:
                return pairs.sum(axis=1)
            cols = rows
        p = pairs.shape[0] if rows is None else rows.size
        q = pairs.shape[1] if cols is None else cols.size
        # whole rows are mapped into the worker's buffer; a restriction
        # is gathered into a fresh block and mapped there
        buffered = rows is None and cols is None
    # a gathered block takes its rows whole before its columns, so its
    # rows are counted at the held array's width. An empty row set has
    # no blocks and empty sums
    width = q if points is not None or rows is None else pairs.shape[1]
    step = max(1, _KEPT_BLOCK_ENTRIES // max(width, 1))
    sums = np.empty(p)

    def sum_block(i: int, stop: int, buf: np.ndarray | None) -> None:
        # calls no function the benchmark's tracer wraps: its span stack
        # is per process, not per thread
        if points is None and buffered:
            block = np.multiply(pairs[i:stop], -gamma, out=buf[:stop - i])
        elif points is None:
            block = (pairs[i:stop] if rows is None
                     else pairs.take(rows[i:stop], axis=0))
            block = block.take(cols, axis=1)
            if gamma is not None:
                block *= -gamma
        elif buffered:
            block = cdist(xr[i:stop], xc, "chebyshev", out=buf[:stop - i])
            if gamma is not None:
                block *= -gamma
        else:
            block = _cross_similarity(xr[i:stop], xc, points)
        if gamma is not None:
            block += 1.0
            np.maximum(block, 0.0, out=block)
        block.sum(axis=1, out=sums[i:stop])

    bounds = [(i, min(i + step, p)) for i in range(0, p, step)]

    def scratch():
        return np.empty((min(step, p), q)) if buffered else None

    if p * q >= _THREADED_ENTRIES:
        linalg._run_blocks(bounds, sum_block, scratch)
    else:
        buf = scratch()
        for i, stop in bounds:
            sum_block(i, stop, buf)
    return sums


def row_means(sums: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Each row's mean similarity to the other rows of a p x p
    self-similarity with a unit diagonal, from its row sums:
    (sum - 1) / (p - 1), clipped to [floor, 1]; a single row gets 1."""
    p = sums.shape[0]
    if p == 1:
        return np.ones(1)
    return np.clip((sums - 1.0) / (p - 1), floor, 1.0)


def distance_means(dsums: np.ndarray, gamma: float,
                   floor: float = 0.0) -> np.ndarray:
    """row_means of the minimum-t-norm similarity of p rows whose
    Chebyshev distances to each other have the row sums dsums, for a
    gamma whose clip is idle (gamma times the largest distance at most
    1): each similarity is then 1 - gamma d, so a row's mean over the
    other p - 1 rows is 1 - gamma dsum / (p - 1), clipped to [floor, 1];
    a single row gets 1. Every rounded step is monotone in dsum, so the
    means rank the rows by ascending dsum for every such gamma."""
    p = dsums.shape[0]
    if p == 1:
        return np.ones(1)
    return np.clip(1.0 - gamma * dsums / (p - 1), floor, 1.0)


def mean_similarity(sim: np.ndarray, rows: np.ndarray | None = None,
                    floor: float = 0.0) -> np.ndarray:
    """row_means of the self-similarity `sim` restricted to `rows`
    (see row_sums)."""
    return row_means(row_sums(sim, rows), floor)


def positive_region_scores(x_all, labels, params: FuzzyParams,
                           target_class: int = -1) -> PositiveRegionScores:
    """Positive-region membership of every target-class instance.

    density mode scores each instance by its mean similarity to the
    other members of its own class (singleton class scores 1), so
    points in dense regions score high and outliers low. lower_approx
    mode scores each instance 1 - its largest similarity to a row of
    another class (1 when there is none): its membership in the
    lower approximation of its own crisp class (see the module
    docstring).
    """
    x_all = np.asarray(x_all, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != x_all.shape[:1]:
        raise ValueError(
            f"{labels.size} labels for a matrix of shape {x_all.shape}"
        )
    target_rows = np.flatnonzero(labels == target_class)
    if target_rows.size == 0:
        raise ConfigurationError(
            f"target class {target_class} has no instances"
        )
    if params.score_mode == "density":
        scores = mean_similarity(
            indiscernibility_matrix(x_all[target_rows], params))
    else:
        other = x_all[labels != target_class]
        if other.shape[0] == 0:
            scores = np.ones(target_rows.size)
        else:
            scores = 1.0 - _cross_similarity(
                x_all[target_rows], other, params).max(axis=1)
    return PositiveRegionScores(
        scores=scores, params=params, row_indices=target_rows,
    )


def check_tau(tau: float) -> None:
    """Reject a subsampling threshold outside [0, 1], or NaN."""
    if not (np.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise ConfigurationError(f"tau must be in [0, 1], got {tau}")


def subsample_majority(scores: PositiveRegionScores,
                       tau: float) -> SubsampleResult:
    """Keep exactly the instances whose score is >= tau, in original
    order. A score equal to tau is kept."""
    check_tau(tau)
    mask = scores.scores >= tau
    kept = np.flatnonzero(mask)
    removed = np.flatnonzero(~mask)
    if kept.size == 0:
        raise ConfigurationError(
            f"tau={tau:g} removes every majority instance "
            f"(max score {scores.scores.max():.6g}); lower tau"
        )
    return SubsampleResult(kept_indices=kept, removed_indices=removed)


def class_weights(x_class, params: FuzzyParams) -> np.ndarray:
    """Per-instance weight: mean similarity to the other members of the
    same class, clamped to [1e-6, 1]. A singleton class gets weight 1.

    D1 is this on the full minority class and D2 on the kept majority
    rows. The training pipeline computes D1 here only where the clip
    acts or the t-norm is not the minimum, and D2 never: it reads them
    off the whole majority's pairwise array, or off distance sums for a
    gamma whose clip is idle (see classifier.PreparedFold).
    """
    return mean_similarity(indiscernibility_matrix(x_class, params),
                           floor=WEIGHT_FLOOR)
