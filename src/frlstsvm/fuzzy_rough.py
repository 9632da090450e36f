"""Fuzzy similarity, positive-region scoring, under-sampling and
instance weights.

All routines expect features already scaled to [0, 1], so every
attribute range l(a) is 1 and the similarity of two instances under one
attribute is max(0, 1 - gamma * |ax - ay|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

WEIGHT_FLOOR = 1e-6

T_NORMS = ("minimum", "product", "lukasiewicz")
IMPLICATORS = ("lukasiewicz", "kleene_dienes")
SCORE_MODES = ("density", "lower_approx")


def _tnorm_pair(name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if name == "minimum":
        return np.minimum(a, b)
    if name == "product":
        return a * b
    if name == "lukasiewicz":
        return np.maximum(0.0, a + b - 1.0)
    raise ConfigurationError(f"unknown t-norm {name!r}")


def _implicator_pair(name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if name == "lukasiewicz":
        return np.minimum(1.0, 1.0 - a + b)
    if name == "kleene_dienes":
        return np.maximum(1.0 - a, b)
    raise ConfigurationError(f"unknown implicator {name!r}")


@dataclass(frozen=True)
class FuzzyParams:
    """Granularity and connective choices for all fuzzy-rough scoring."""

    gamma: float
    tnorm: str = "minimum"
    implicator: str = "lukasiewicz"
    score_mode: str = "density"

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigurationError(f"gamma must be > 0, got {self.gamma}")
        if self.tnorm not in T_NORMS:
            raise ConfigurationError(
                f"tnorm must be one of {T_NORMS}, got {self.tnorm!r}"
            )
        if self.implicator not in IMPLICATORS:
            raise ConfigurationError(
                f"implicator must be one of {IMPLICATORS}, "
                f"got {self.implicator!r}"
            )
        if self.score_mode not in SCORE_MODES:
            raise ConfigurationError(
                f"score_mode must be one of {SCORE_MODES}, "
                f"got {self.score_mode!r}"
            )


@dataclass(eq=False)
class PositiveRegionScores:
    scores: np.ndarray
    mode: str
    params: FuzzyParams
    row_indices: np.ndarray | None = None


@dataclass(eq=False)
class SubsampleResult:
    kept_indices: np.ndarray
    removed_indices: np.ndarray
    scores: PositiveRegionScores
    tau: float


def _cross_similarity(xa: np.ndarray, xb: np.ndarray,
                      params: FuzzyParams) -> np.ndarray:
    """Pairwise similarity between the rows of two scaled matrices,
    t-normed over attributes in ascending column order."""
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise ValueError("matrices must be 2-D with equal column counts")
    out = None
    for a in range(xa.shape[1]):
        s = np.maximum(
            0.0, 1.0 - params.gamma * np.abs(xa[:, a:a + 1] - xb[None, :, a])
        )
        out = s if out is None else _tnorm_pair(params.tnorm, out, s)
    if out is None:
        # zero attributes: every pair is vacuously identical
        out = np.ones((xa.shape[0], xb.shape[0]))
    return out


def indiscernibility_matrix(x, params: FuzzyParams) -> np.ndarray:
    """Full pairwise similarity of one instance set.

    Each unordered pair is evaluated once and mirrored, so the matrix
    is exactly symmetric, with an exact unit diagonal.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a non-empty 2-D matrix")
    full = _cross_similarity(x, x, params)
    upper = np.triu(full, k=1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return values


def positive_region_scores(x_all, labels, params: FuzzyParams,
                           target_class: int = -1) -> PositiveRegionScores:
    """Positive-region membership of every target-class instance.

    density mode scores each instance by its mean similarity to the
    other members of its own class (singleton class scores 1), so
    points in dense regions score high and outliers low. lower_approx
    mode takes the infimum over all instances of the implication from
    similarity to the crisp same-class relation.
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
        block = indiscernibility_matrix(x_all[target_rows], params)
        p = target_rows.size
        if p == 1:
            scores = np.ones(1)
        else:
            scores = (block.sum(axis=1) - 1.0) / (p - 1)
        scores = np.clip(scores, 0.0, 1.0)
    else:
        cross = _cross_similarity(x_all[target_rows], x_all, params)
        concept = (labels == target_class).astype(np.float64)
        memberships = _implicator_pair(
            params.implicator, cross, concept[None, :]
        )
        scores = np.clip(memberships.min(axis=1), 0.0, 1.0)
    return PositiveRegionScores(
        scores=scores,
        mode=params.score_mode,
        params=params,
        row_indices=target_rows,
    )


def subsample_majority(scores: PositiveRegionScores,
                       tau: float) -> SubsampleResult:
    """Keep exactly the instances whose score is >= tau, in original
    order. A score equal to tau is kept."""
    if not (np.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise ConfigurationError(f"tau must be in [0, 1], got {tau}")
    mask = scores.scores >= tau
    kept = np.flatnonzero(mask)
    removed = np.flatnonzero(~mask)
    if kept.size == 0:
        raise ConfigurationError(
            f"tau={tau:g} removes every majority instance "
            f"(max score {scores.scores.max():.6g}); lower tau"
        )
    return SubsampleResult(
        kept_indices=kept,
        removed_indices=removed,
        scores=scores,
        tau=float(tau),
    )


def class_weights(x_class, params: FuzzyParams) -> np.ndarray:
    """Per-instance weight: mean similarity to the other members of the
    same class, clamped to [1e-6, 1]. A singleton class gets weight 1.

    Called on the kept majority rows for D2 and on the full minority
    class for D1.
    """
    x_class = np.asarray(x_class, dtype=np.float64)
    if x_class.ndim != 2 or x_class.shape[0] == 0:
        raise ValueError("need a non-empty 2-D matrix")
    p = x_class.shape[0]
    if p == 1:
        weights = np.ones(1)
    else:
        sim = indiscernibility_matrix(x_class, params)
        weights = (sim.sum(axis=1) - 1.0) / (p - 1)
    return np.clip(weights, WEIGHT_FLOOR, 1.0)
