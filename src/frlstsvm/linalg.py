"""Dense linear algebra kernels used by the twin-hyperplane solvers.

Everything here operates on float64 numpy arrays. The one nontrivial
routine is :func:`spd_solve`, a Cholesky solve with automatic ridge
escalation for exactly symmetric matrices that are positive definite
only up to rounding; :func:`spd_solve_stack` runs its unridged attempt
on a stack of small systems, and leaves the ones it misses to it. :func:`gram` returns A^T A exactly symmetric, so a
scaled sum of its results plus a diagonal, which is every system the
plane solvers build, is exactly symmetric too.

:func:`_run_blocks` runs the row blocks of a gaussian predict and of a
large fuzzy-rough row-sum pass on one pinned worker thread per usable
CPU, each block writing only its own rows of the result.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import SingularSystemError

# Residual acceptance threshold, relative to max(1, ||B||_F).
RESIDUAL_RTOL = 1e-8

# Ridge multipliers tried after the bare factorization, scaled by
# trace(A)/dim (or 1.0 when the trace is not positive).
RIDGE_STEPS = (1e-12, 1e-10, 1e-8, 1e-6)


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, in order: its affinity mask
    (which taskset restricts) where the OS has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _run_blocks(bounds: list[tuple[int, int]], work,
                scratch=lambda: None) -> None:
    """work(start, stop, buf) for every block, buf being the scratch of
    the worker that runs it. With one block or one usable CPU it runs on
    the calling thread. Else one worker thread per usable CPU, never
    more than blocks, each kept on its own CPU, takes the next block not
    yet taken until none is left or one has raised, while the calling
    thread waits. The first exception is raised again once every thread
    has joined, so no thread outlives the call. scratch() is called once
    per worker, on the calling thread before any worker starts: buffers
    that the workers allocated themselves came from their own threads'
    malloc arenas, and five abalone19-shaped lone fits on two workers
    then raised the process's peak resident size by 2.5-2.8 MB, against
    1.9-2.1 MB (and 1.6-1.9 MB on the calling thread alone).

    The workers are pinned because an idle CPU is not always used
    otherwise: on a 2-vCPU VM the OS kept both threads of an unpinned
    predict on one vCPU for minutes at a time (10k rows against 1455
    reference rows: 82 ms, against 42 ms on two pinned workers)."""
    pending = iter(bounds)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def worker(buf, cpu: int | None = None):
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            try:
                os.sched_setaffinity(0, (cpu,))
            except OSError:
                pass  # the CPU has left the mask: run where the OS puts it
        while True:
            with lock:
                span = None if errors else next(pending, None)
            if span is None:
                return
            try:
                work(*span, buf)
            except BaseException as exc:
                with lock:
                    errors.append(exc)

    cpus = _usable_cpus()[:len(bounds)]
    if len(cpus) == 1:
        worker(scratch())
    else:
        threads = [threading.Thread(target=worker, args=(scratch(), cpu))
                   for cpu in cpus]
        try:
            for t in threads:
                t.start()
        finally:
            for t in threads:
                if t.ident is not None:
                    t.join()
    if errors:
        raise errors[0]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def gram(a, *, checked: bool = False) -> np.ndarray:
    """Return A^T A, exactly its own transpose. On one C-contiguous
    buffer numpy takes A^T A to the BLAS's syrk, which computes one
    triangle, and copies it into the other; a strided A can go to gemm,
    whose two triangles need not agree in the last bit, so A is made
    contiguous first. `checked` says that A is already a finite 2-D
    float64 array, so it is not coerced and checked again."""
    a = np.ascontiguousarray(a if checked else as_matrix(a))
    return a.T @ a


def add_scaled_identity(a, delta: float) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    out = a.copy()
    # the strided diagonal: the bits of out[np.diag_indices_from(out)],
    # in a fraction of its time on small orders
    out.flat[::out.shape[0] + 1] += delta
    return out


@dataclass(frozen=True)
class SpdSolveReport:
    """What spd_solve had to do to produce an acceptable solution."""

    ridge_added: float
    residual_norm: float
    factorization_attempts: int


def _frobenius(v: np.ndarray) -> float:
    """np.linalg.norm(v), the Frobenius norm, by its own arithmetic (the
    square root of the dot of v flattened in memory order with itself)
    and so with its bits, without its call overhead."""
    v = v.ravel(order="K")
    return math.sqrt(float(v.dot(v)))


def _attempt(a: np.ndarray, b2: np.ndarray, ridge: float
             ) -> tuple[np.ndarray | None, float]:
    """One Cholesky factor and solve of (A + ridge I) X = b2 (b2 2-D): X
    and its residual ||(A + ridge I) X - b2||_F, or None and inf when
    the matrix does not factor or X is not finite. A is exactly
    symmetric, so A' is the same matrix in Fortran order: unridged,
    dpotrf copies A' as it lies, where a C-ordered A would be copied
    and transposed, and leaves A itself untouched; ridged, it factors a
    ridged copy in place. The factor is freed before the residual
    builds A + ridge I again, so no more than one n x n array beside A
    is live at a time."""
    if ridge == 0.0:
        factor, info = dpotrf(a.T, lower=1, clean=0)
    else:
        factor, info = dpotrf(add_scaled_identity(a, ridge).T, lower=1,
                              clean=0, overwrite_a=1)
    if info != 0:
        return None, np.inf
    x, _ = dpotrs(factor, b2, lower=1)
    del factor
    if not np.isfinite(x).all():
        return None, np.inf
    a_try = a if ridge == 0.0 else add_scaled_identity(a, ridge)
    return x, _frobenius(a_try @ x - b2)


def _ridges(a: np.ndarray):
    """The ridge of each of spd_solve's attempts: none, then RIDGE_STEPS
    times trace(A)/n, or times 1.0 when the trace is not positive. The
    trace is taken only once the bare attempt has missed."""
    yield 0.0
    n = a.shape[0]
    trace = float(np.trace(a))
    unit = trace / n if n > 0 and trace > 0 else 1.0
    for step in RIDGE_STEPS:
        yield step * unit


def spd_solve(a, b) -> tuple[np.ndarray, SpdSolveReport]:
    """Solve A X = B for symmetric positive (semi)definite A.

    Tries a Cholesky factorization with no ridge first, then with
    ridges of 1e-12, 1e-10, 1e-8 and 1e-6 times trace(A)/dim added to
    the diagonal. A candidate solution is accepted once the residual
    ||(A + rI) X - B||_F falls below 1e-8 * max(1, ||B||_F). The factor
    and solve are LAPACK's dpotrf and dpotrs on the lower triangle, the
    routines scipy.linalg.cho_factor and cho_solve call, so the bits
    are theirs. dpotrf factors A' (see _attempt), which the symmetry
    check makes A itself, so its input copy is a plain one, with no
    transpose. Neither A nor B is written: a ridged attempt factors a
    ridged copy of A in place, and the residual and the ridge ladder
    read A again.

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
    a, b_arr = _checked_system(a, b)
    n = a.shape[0]
    vector_rhs = b_arr.ndim == 1
    b2 = b_arr.reshape(n, -1) if vector_rhs else b_arr
    threshold = RESIDUAL_RTOL * max(1.0, _frobenius(b2))

    attempts = 0
    last_residual = np.inf
    for ridge in _ridges(a):
        attempts += 1
        x, residual = _attempt(a, b2, ridge)
        if x is None:
            continue
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
            ridge_added=ridge,
            residual_norm=last_residual,
            factorization_attempts=attempts,
        ),
    )


def _checked_system(a, b, b_axes: tuple[int, ...] = (1, 2)
                    ) -> tuple[np.ndarray, np.ndarray]:
    """A and B as float64 arrays, or spd_solve's refusal of them: A is
    one square matrix, finite and exactly symmetric, and B is finite,
    with A's rows and b_axes axes in all; or, for b_axes (2,), A is a
    stack of such matrices and B one such vector per matrix."""
    axes = b_axes[0] + 1
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != axes or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("A contains non-finite entries")
    # finite, so == is array_equal's test, without its call overhead
    if not (a == a.swapaxes(-1, -2)).all():
        raise ValueError("A is not symmetric: A != A^T in some entry")
    if not np.isfinite(b).all():
        raise ValueError("B contains non-finite entries")
    if b.ndim not in b_axes or b.shape[:axes - 1] != a.shape[:-1]:
        raise ValueError(f"B has shape {b.shape}, incompatible with A of "
                         f"shape {a.shape}")
    return a, b


def spd_solve_stack(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve A_k x_k = b_k for a stack of systems by spd_solve's
    unridged attempt each: x, one system's solution a row, and whether
    each system was solved.

    The stack is checked once, as spd_solve checks one system and with
    its messages. Each system is then factored by dpotrf(A_k', lower=1,
    clean=0) and solved by dpotrs, one call of each per system as
    _attempt makes them, so a solved x_k has the bits of spd_solve's.
    The residuals and the norms of b are taken in stacked matmuls, for
    which numpy runs the gemv and the dot of each system that _attempt
    and _frobenius run, and each residual is gated at RESIDUAL_RTOL *
    max(1, ||b_k||). A system whose factor fails, whose x_k is not
    finite or whose residual misses comes back unsolved, with x_k 0:
    spd_solve(a[k], b[k]) then takes it up its ridge ladder, as it
    would have alone.

    Parameters
    ----------
    a : (s, n, n) array_like
    b : (s, n) array_like

    Returns
    -------
    x : (s, n) ndarray
    solved : (s,) bool ndarray
    """
    a, b = _checked_system(a, b, b_axes=(2,))
    b3 = b[:, :, None]
    x = np.zeros_like(b3)
    solved = np.zeros(a.shape[0], dtype=bool)
    for k in range(a.shape[0]):
        factor, info = dpotrf(a[k].T, lower=1, clean=0)
        if info == 0:
            x[k], _ = dpotrs(factor, b3[k], lower=1)
            solved[k] = True
    solved &= np.isfinite(x).all(axis=(1, 2))
    x[~solved] = 0.0
    residual = _frobenius_each(np.matmul(a, x) - b3)
    solved &= residual <= RESIDUAL_RTOL * np.maximum(1.0, _frobenius_each(b3))
    x[~solved] = 0.0
    return x[:, :, 0], solved


def _frobenius_each(v: np.ndarray) -> np.ndarray:
    """_frobenius of each (n, 1) column of an (s, n, 1) stack, by one
    dot each."""
    return np.sqrt(np.matmul(v.swapaxes(1, 2), v)[:, 0, 0])
