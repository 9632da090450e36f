"""Shared test helpers: independent oracles and data generators.

The oracles here deliberately avoid the library's vectorized code
paths: similarity and score oracles are plain double loops or, for
bit-exact checks, the per-attribute similarity loop, the
quadratic-objective oracles are a matrix-free conjugate-gradient
descent and the Sherman-Morrison-Woodbury dual of the planes, the
gaussian kernel oracle is a scalar sum, and the metric oracle works in
exact rational arithmetic.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "keel"


def keel_file(name: str) -> Path:
    return DATA_DIR / f"{name}.dat"


# -- brute-force fuzzy-rough oracles -----------------------------------

def brute_attr_sim(ax: float, ay: float, gamma: float) -> float:
    return max(0.0, 1.0 - gamma * abs(ax - ay))


def brute_pair_sim(x: np.ndarray, y: np.ndarray, gamma: float,
                   tnorm: str) -> float:
    acc = None
    for a in range(len(x)):
        s = brute_attr_sim(float(x[a]), float(y[a]), gamma)
        if acc is None:
            acc = s
        elif tnorm == "minimum":
            acc = min(acc, s)
        elif tnorm == "product":
            acc = acc * s
        elif tnorm == "lukasiewicz":
            acc = max(0.0, acc + s - 1.0)
        else:
            raise ValueError(tnorm)
    return 1.0 if acc is None else acc


def brute_density_scores(x: np.ndarray, gamma: float,
                         tnorm: str = "minimum") -> list[float]:
    p = x.shape[0]
    if p == 1:
        return [1.0]
    out = []
    for i in range(p):
        total = 0.0
        for j in range(p):
            if j != i:
                total += brute_pair_sim(x[i], x[j], gamma, tnorm)
        out.append(total / (p - 1))
    return out


def brute_lower_approx_scores(x_all: np.ndarray, labels: np.ndarray,
                              target: int, gamma: float, tnorm: str,
                              implicator: str) -> list[float]:
    out = []
    for i in np.flatnonzero(labels == target):
        best = math.inf
        for j in range(x_all.shape[0]):
            r = brute_pair_sim(x_all[i], x_all[j], gamma, tnorm)
            a = 1.0 if labels[j] == target else 0.0
            if implicator == "lukasiewicz":
                v = min(1.0, 1.0 - r + a)
            elif implicator == "kleene_dienes":
                v = max(1.0 - r, a)
            else:
                raise ValueError(implicator)
            best = min(best, v)
        out.append(best)
    return out


def distance_mean_bound(p: int, k: int, c: float = 4.0) -> float:
    """The largest |difference| a clip-idle density mean read off
    Chebyshev distance sums (fuzzy_rough.distance_means) may show
    against the row mean of the similarity itself (mean_similarity,
    class_weights), for the k kept rows of p: c eps (p / (k - 1) + 1)
    log2 p. Both are in [0, 1]. The oracle sums k terms in [0, 1]
    pairwise, off by at most about eps log2 k times their sum (at most
    k), and divides by k - 1: about eps log2 p. The distance form sums
    p distances (R) and p - k of them (the removed rows), each at most
    the largest distance d_max, so each sum is off by about eps log2 p
    times p d_max; their difference is scaled by gamma / (k - 1), and
    gamma d_max <= 1 where the clip is idle: about eps p log2 p /
    (k - 1). c = 4 covers the maps' and the division's roundings. A
    kept set of at most half the rows is summed over itself, inside the
    same bound."""
    eps = float(np.finfo(np.float64).eps)
    return c * eps * (p / max(k - 1, 1) + 1) * math.log2(max(p, 2))


def assert_near_distance_means(got: np.ndarray, want: np.ndarray,
                               p: int) -> None:
    """got within distance_mean_bound(p, got.size) of the oracle's
    want, entry by entry."""
    assert got.shape == want.shape
    gap = float(np.abs(got - want).max(initial=0.0))
    assert gap <= distance_mean_bound(p, got.size), gap


# -- per-attribute similarity oracle ------------------------------------
# The library's similarity before the minimum t-norm became one
# Chebyshev distance: one m x m term per attribute, t-normed in
# ascending column order. Its arithmetic is the reference the library
# must match bit for bit.

def loop_tnorm_pair(name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if name == "minimum":
        return np.minimum(a, b)
    if name == "product":
        return a * b
    if name == "lukasiewicz":
        return np.maximum(0.0, a + b - 1.0)
    raise ValueError(f"unknown t-norm {name!r}")


def loop_similarity(xa: np.ndarray, xb: np.ndarray, gamma: float,
                    tnorm: str) -> np.ndarray:
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    out = None
    for a in range(xa.shape[1]):
        s = np.maximum(
            0.0, 1.0 - gamma * np.abs(xa[:, a:a + 1] - xb[None, :, a])
        )
        out = s if out is None else loop_tnorm_pair(tnorm, out, s)
    if out is None:
        # zero attributes: every pair is vacuously identical
        out = np.ones((xa.shape[0], xb.shape[0]))
    return out


def loop_lower_approx_scores(x_all: np.ndarray, labels: np.ndarray,
                             target: int, gamma: float, tnorm: str,
                             implicator: str) -> np.ndarray:
    """lower_approx scores of the target class over loop_similarity:
    the infimum over all rows of the implication from similarity to
    the crisp class, in vectorised arithmetic, as the library computed
    them before it reduced them to 1 - the largest similarity to the
    other class."""
    rows = np.flatnonzero(labels == target)
    cross = loop_similarity(x_all[rows], x_all, gamma, tnorm)
    concept = (labels == target).astype(np.float64)[None, :]
    if implicator == "lukasiewicz":
        memberships = np.minimum(1.0, 1.0 - cross + concept)
    elif implicator == "kleene_dienes":
        memberships = np.maximum(1.0 - cross, concept)
    else:
        raise ValueError(implicator)
    return np.clip(memberships.min(axis=1), 0.0, 1.0)


# -- matrix-free descent oracle for the weighted quadratics ------------

def conjugate_gradient(matvec, rhs: np.ndarray,
                       tol: float = 1e-12) -> np.ndarray:
    x = np.zeros_like(rhs)
    r = rhs - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    threshold = tol * max(1.0, float(np.linalg.norm(rhs)))
    for _ in range(200 * rhs.size):
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= threshold:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _augment(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def descent_u1(x1, x2hat, d2, c1: float, delta: float) -> np.ndarray:
    """Minimize 0.5||Hu||^2 + delta/2 ||u||^2
    + (c1/2)(Gu + e)' D2 (Gu + e) without any factorization."""
    h = _augment(np.asarray(x1, dtype=float))
    g = _augment(np.asarray(x2hat, dtype=float))
    d2 = np.asarray(d2, dtype=float)

    def matvec(u):
        return h.T @ (h @ u) + delta * u + c1 * (g.T @ (d2 * (g @ u)))

    rhs = -c1 * (g.T @ d2)
    return conjugate_gradient(matvec, rhs)


def descent_u2(x1, x2hat, d1, c2: float, delta: float) -> np.ndarray:
    """Minimize 0.5||Gu||^2 + delta/2 ||u||^2
    + (c2/2)(Hu - e)' D1 (Hu - e) without any factorization."""
    h = _augment(np.asarray(x1, dtype=float))
    g = _augment(np.asarray(x2hat, dtype=float))
    d1 = np.asarray(d1, dtype=float)

    def matvec(u):
        return g.T @ (g @ u) + delta * u + c2 * (h.T @ (d1 * (h @ u)))

    rhs = c2 * (h.T @ d1)
    return conjugate_gradient(matvec, rhs)


def grad_f1(u, x1, x2hat, d2, c1: float, delta: float) -> np.ndarray:
    h = _augment(np.asarray(x1, dtype=float))
    g = _augment(np.asarray(x2hat, dtype=float))
    d2 = np.asarray(d2, dtype=float)
    return h.T @ (h @ u) + delta * u + c1 * (g.T @ (d2 * (g @ u + 1.0)))


def grad_f2(u, x1, x2hat, d1, c2: float, delta: float) -> np.ndarray:
    h = _augment(np.asarray(x1, dtype=float))
    g = _augment(np.asarray(x2hat, dtype=float))
    d1 = np.asarray(d1, dtype=float)
    return g.T @ (g @ u) + delta * u + c2 * (h.T @ (d1 * (h @ u - 1.0)))


# -- Sherman-Morrison-Woodbury dual of the weighted planes ------------

def smw_dual_planes(x1, x2hat, d1, d2, c1: float, c2: float,
                    delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Both weighted planes through the dual of order m2 (plane 1) and
    m1 (plane 2), with H = [x1 | 1] and G = [x2hat | 1]:

        u1 = -(H'H + dI)^-1 G' a,   a = (D2^-1/c1 + G (H'H + dI)^-1 G')^-1 e
        u2 =  (G'G + dI)^-1 H' b,   b = (D1^-1/c2 + H (G'G + dI)^-1 H')^-1 e

    By Woodbury this equals the primal normal equations the library
    solves, but it goes through different matrices and numpy's LU
    solver, so it checks the library's algebra independently. Pass
    kernel blocks K(X, Xref) as x1 and x2hat for the kernel planes.
    """
    h = _augment(np.asarray(x1, dtype=float))
    g = _augment(np.asarray(x2hat, dtype=float))

    def dual(a, b, d_b, c):
        outer = a.T @ a + delta * np.eye(a.shape[1])
        mbt = np.linalg.solve(outer, b.T)
        inner = b @ mbt + np.diag(1.0 / (c * np.asarray(d_b, dtype=float)))
        return mbt @ np.linalg.solve(inner, np.ones(b.shape[0]))

    return -dual(h, g, d2, c1), dual(g, h, d1, c2)


# -- scalar gaussian kernel oracle -------------------------------------

def gaussian_kernel(x, y, sigma: float) -> float:
    """exp(-||x - y||^2 / (2 sigma^2)) for two points, one coordinate at
    a time: the scalar oracle for the library's gaussian_gram."""
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y, strict=True))
    return math.exp(-d2 / (2.0 * sigma * sigma))


# -- rational-arithmetic metric oracle ---------------------------------

def fraction_metrics(tp: int, fn: int, fp: int, tn: int,
                     convention: str) -> tuple[float, float, float, float]:
    def ratio(num, den):
        return Fraction(num, den) if den else Fraction(0)

    if convention == "standard":
        sen = ratio(tp, tp + fn)
        spe = ratio(tn, tn + fp)
    elif convention == "paper_literal":
        sen = ratio(tp, tp + fp)
        spe = ratio(tn, tn + fn)
    else:
        raise ValueError(convention)
    acc = Fraction(tp + tn, tp + fn + fp + tn)
    gmean = math.sqrt(float(sen) * float(spe))
    return float(sen), float(spe), float(acc), gmean


# -- synthetic data generators -----------------------------------------

def make_blobs(seed: int, m1: int = 30, m2: int = 90,
               center1=(2.0, 2.0), center2=(-2.0, -2.0),
               spread: float = 0.6) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.vstack([
        rng.normal(center1, spread, size=(m1, 2)),
        rng.normal(center2, spread, size=(m2, 2)),
    ])
    y = np.asarray([1] * m1 + [-1] * m2)
    return x, y


def make_circles(seed: int, m1: int = 50, m2: int = 100,
                 r_inner: float = 1.0, r_outer: float = 3.0,
                 noise: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Minority ring inside a majority ring; not linearly separable."""
    rng = np.random.default_rng(seed)
    rows = []
    for count, radius in ((m1, r_inner), (m2, r_outer)):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
        r = radius + rng.normal(0.0, noise, size=count)
        rows.append(np.column_stack([r * np.cos(theta),
                                     r * np.sin(theta)]))
    x = np.vstack(rows)
    y = np.asarray([1] * m1 + [-1] * m2)
    return x, y


def dyadic_matrix(rng: np.random.Generator, m: int, n: int,
                  denom: int = 1024) -> np.ndarray:
    """Values on the dyadic grid k/denom, exactly representable."""
    return rng.integers(0, denom + 1, size=(m, n)).astype(float) / denom


# -- threads ----------------------------------------------------------

def count_threads(monkeypatch) -> tuple[list, list]:
    """Lists that record each thread started and the CPU set each
    thread pins itself to, in place of pinning it."""
    started, pinned = [], []
    real_thread = threading.Thread

    class CountedThread(real_thread):
        def start(self):
            started.append(self)
            super().start()

    def pin(pid, cpus):
        assert pid == 0
        pinned.append(set(cpus))

    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
    return started, pinned
