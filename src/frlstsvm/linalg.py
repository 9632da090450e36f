"""Dense linear algebra kernels used by the twin-hyperplane solvers.

Everything here operates on float64 numpy arrays. The one nontrivial
routine is :func:`spd_solve`, a Cholesky solve with automatic ridge
escalation for exactly symmetric matrices that are positive definite
only up to rounding. :func:`gram` returns A^T A exactly symmetric, so a
scaled sum of its results plus a diagonal, which is every system the
plane solvers build, is exactly symmetric too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import SingularSystemError

# Residual acceptance threshold, relative to max(1, ||B||_F).
RESIDUAL_RTOL = 1e-8

# Ridge multipliers tried after the bare factorization, scaled by
# trace(A)/dim (or 1.0 when the trace is not positive).
RIDGE_STEPS = (1e-12, 1e-10, 1e-8, 1e-6)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def gram(a) -> np.ndarray:
    """Return A^T A, exactly its own transpose. On one C-contiguous
    buffer numpy takes A^T A to the BLAS's syrk, which computes one
    triangle, and copies it into the other; a strided A can go to gemm,
    whose two triangles need not agree in the last bit, so A is made
    contiguous first."""
    a = np.ascontiguousarray(as_matrix(a))
    return a.T @ a


def add_scaled_identity(a, delta: float) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    out = a.copy()
    out[np.diag_indices_from(out)] += delta
    return out


@dataclass(frozen=True)
class SpdSolveReport:
    """What spd_solve had to do to produce an acceptable solution."""

    ridge_added: float
    residual_norm: float
    factorization_attempts: int


def spd_solve(a, b) -> tuple[np.ndarray, SpdSolveReport]:
    """Solve A X = B for symmetric positive (semi)definite A.

    Tries a Cholesky factorization with no ridge first, then with
    ridges of 1e-12, 1e-10, 1e-8 and 1e-6 times trace(A)/dim added to
    the diagonal. A candidate solution is accepted once the residual
    ||(A + rI) X - B||_F falls below 1e-8 * max(1, ||B||_F). The factor
    and solve are LAPACK's dpotrf and dpotrs on the lower triangle, the
    routines scipy.linalg.cho_factor and cho_solve call, so the bits
    are theirs.

    Parameters
    ----------
    a : (n, n) array_like
        Finite and exactly symmetric, as gram() and scaled sums of its
        results plus a diagonal are; A != A^T in any bit is rejected.
    b : (n,) or (n, k) array_like
        Right-hand side. The solution has the same shape.

    Returns
    -------
    x : ndarray
        Solution of the (possibly ridged) system.
    report : SpdSolveReport
        Ridge actually added, final residual norm and number of
        factorization attempts.

    Raises
    ------
    SingularSystemError
        If no attempt meets the residual threshold.
    """
    a = as_matrix(a, "A")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("A is not symmetric: A != A^T in some entry")

    b_arr = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b_arr)):
        raise ValueError("B contains non-finite entries")
    vector_rhs = b_arr.ndim == 1
    if b_arr.ndim not in (1, 2) or b_arr.shape[0] != n:
        raise ValueError(
            f"B has shape {b_arr.shape}, incompatible with A of order {n}"
        )
    b2 = b_arr.reshape(n, -1) if vector_rhs else b_arr

    trace = float(np.trace(a))
    ridge_unit = trace / n if n > 0 and trace > 0 else 1.0
    threshold = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(b2)))

    attempts = 0
    last_residual = np.inf
    for step in (0.0,) + RIDGE_STEPS:
        ridge = step * ridge_unit
        attempts += 1
        a_try = a if ridge == 0.0 else add_scaled_identity(a, ridge)
        factor, info = dpotrf(a_try, lower=1, clean=0)
        if info != 0:
            continue
        x, _ = dpotrs(factor, b2, lower=1)
        if not np.all(np.isfinite(x)):
            continue
        residual = float(np.linalg.norm(a_try @ x - b2))
        last_residual = residual
        if residual <= threshold:
            report = SpdSolveReport(
                ridge_added=ridge,
                residual_norm=residual,
                factorization_attempts=attempts,
            )
            return (x.reshape(-1) if vector_rhs else x), report
        # Keep escalating; an ill-conditioned solve can factor fine yet
        # still miss the residual target.

    raise SingularSystemError(
        f"system of order {n} unsolvable within residual tolerance "
        f"(best residual {last_residual:.3e} after {attempts} attempts)",
        report=SpdSolveReport(
            ridge_added=RIDGE_STEPS[-1] * ridge_unit,
            residual_norm=last_residual,
            factorization_attempts=attempts,
        ),
    )
