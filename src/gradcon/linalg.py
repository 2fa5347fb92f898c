"""The SPD solve used by Newton steps: a direct factorization, or PCG on a kept one.

The direct path is a sparse LU factorization (SuperLU), deterministic for
fixed input.  The matrices it sees are symmetric positive definite, so it
runs SuperLU in symmetric mode: the columns are ordered by minimum degree
on the pattern of A + A^T, the same permutation is applied to the rows, and
the diagonal is taken as the pivot (no partial pivoting).  On the Schur
matrices of the flux system this keeps the factor less than half as full as
the default unsymmetric (COLAMD, partial pivoting) factorization.

It also runs SuperLU without column panels or relaxed supernodes
(``panel_size=1``, ``relax=1``).  Panels and relaxation pay off on wide
supernodes; the Schur matrices of a 2-D mesh have narrow ones, on which
scipy's defaults (``relax=10`` and a panel of several columns) cost more
than they save: a factorization takes about a third less time, and the
factor is slightly less full (350,218 against 352,738 entries for
``ex1_f1_a1`` at n = 64).  Both values are passed together, and
``relax <= panel_size`` must hold: with ``relax > panel_size`` scipy's
bundled SuperLU is not memory safe (``relax=32, panel_size=4`` crashed the
interpreter in 1 of 3 processes of 420 factorizations each).  Since
scipy's default ``relax`` is 10, ``panel_size`` is never passed on its own.

Every solve with a factor runs SuperLU's transposed sweeps,
``lu.solve(b, "T")``, which solve A^T x = b.  That is the system asked for,
since :func:`solve_spd` takes SPD matrices, and the Schur matrices of the
flux system are symmetric to the bit (see ``DiscreteProblem.schur``), so
the answers differ from the plain sweeps' only by rounding.  On the factor
of the converged ``ex1_f1_a1`` Schur matrix a transposed solve took 31 /
109 / 506 / 2,885 us against 43 / 150 / 662 / 3,580 us for the plain one
at n = 16 / 32 / 64 / 128 (2 vCPUs; ``scripts/solve_kernel.py``).
With the transposed sweeps, ``relax=1, panel_size=1`` was measured again
and is still the fastest configuration overall.

A :class:`FactorCache` keeps the last accepted factor for a run of
solves whose matrices change little, such as the Newton steps of one
continuation.  That factor preconditions conjugate gradients, and A is
factored again only when PCG fails to serve.  :func:`solve_spd` states
when a solution is accepted, and :func:`_pcg` when PCG stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TIKHONOV_EPS = 1e-12
PCG_MAX_ITER = 10              # PCG iterations on a kept factor before factoring again


class LinearSolveError(RuntimeError):
    """Factorization breakdown or a solution that fails the acceptance rule."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(f"{message} (achieved residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class LinearSolveReport:
    residual_norm: float
    factor_nnz: int            # of the factor that solved or preconditioned
    regularized: bool
    cg_iterations: int         # PCG iterations on a kept factor, a failed attempt's included
    refactored: bool           # the direct path ran: A was factored


@dataclass
class FactorCache:
    """The last accepted factor ``lu`` of one run of solves and the run's counts.

    SuperLU copies the values it factors, so ``lu`` does not change when the
    matrix it was made from is refilled in place.
    """

    lu: object = None
    factorizations: int = 0    # splu calls, shifted retries included
    cg_iterations: int = 0
    factor_nnz: int = 0        # of the largest factor kept


def _try_factor(A: sp.csc_matrix):
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         relax=1, panel_size=1, options=dict(SymmetricMode=True))
    except RuntimeError:
        return None


def _pcg(A, b: np.ndarray, lu, target: float):
    """PCG from x = 0 preconditioned by ``lu.solve(r, "T")``; returns (x, iterations).

    Stops once the recurred residual is at most ``target``; when ||b|| is,
    x = 0 after no iteration.  x is None when a curvature d.A d or r.z is
    not positive (NaN included), or when from the second iteration on the
    mean contraction so far, rho = (|r_k|/|r_0|)^(1/k), predicts
    |r_k| rho^(PCG_MAX_ITER - k) > target: the budget of ``PCG_MAX_ITER``
    iterations cannot be met at that pace, so a factor too stale to serve
    costs two or three iterations, not ten.  At k = PCG_MAX_ITER the
    prediction is |r_k| itself.
    """
    x, r = np.zeros_like(b), b.copy()
    r0 = math.sqrt(b @ b)
    if r0 <= target:
        return x, 0
    d, rz = None, 1.0
    for k in range(1, PCG_MAX_ITER + 1):
        z = lu.solve(r, "T")
        rz, rz_prev = float(r @ z), rz
        d = z if d is None else z + (rz / rz_prev) * d
        q = A @ d
        dq = float(d @ q)
        if not (rz > 0.0 and dq > 0.0):
            return None, k
        x += (rz / dq) * d
        r -= (rz / dq) * q
        rk = math.sqrt(r @ r)
        if rk <= target:
            return x, k
        if k >= 2 and rk * (rk / r0) ** ((PCG_MAX_ITER - k) / k) > target:
            return None, k
    return None, PCG_MAX_ITER


def solve_spd(A, b: np.ndarray, tol: float = 1e-10, *, cache: FactorCache | None = None,
              rtol: float | None = None):
    """Solve A x = b for symmetric positive definite A; returns ``(x, LinearSolveReport)``.

    Without ``cache`` the solve gets an empty :class:`FactorCache`, dropped
    on return.  While the cache holds a factor of a matrix of A's shape,
    that factor preconditions PCG (:func:`_pcg`), and x is accepted once
    ||b - A x||_2 <= max(rtol, tol) ||b||_2; x = 0 is accepted before any
    iteration when ||b|| meets that, so b = 0 keeps the factor.

    When PCG misses, or the cache holds no such factor (``rtol`` is then
    unused), the direct path runs.  The stale factor is dropped first, so
    two factors never coexist, and A is factored.  Both paths solve with the
    factor through its transposed sweeps, for A^T = A; the acceptance tests
    below check x against A itself.  x is accepted when its relative
    residual is small, ||A x - b||_2 <= tol ||b||_2, or, failing that, when
    it is backward stable: its normwise backward error
    ||A x - b|| / (||A|| ||x|| + ||b||) in the infinity norm is at most
    tol, i.e. x solves a nearby system exactly.  The second test matters
    when ||A|| ||x|| >> ||b||, where rounding alone can violate the first.
    Only when the factorization breaks down or x passes neither test is A
    factored again with a tiny diagonal (Tikhonov) shift
    ``TIKHONOV_EPS * diag(A)``; the shifted solution is judged against A by
    the same rule, and ``regularized`` says whether it was needed.  The
    direct path sets ``refactored`` and keeps the accepted factor in the
    cache, whose ``factor_nnz`` is the nnz of the largest factor it has
    kept.  Raises :class:`LinearSolveError` only when the direct path
    fails, its retry included; when A is not symmetric, the error says so.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs rhs {b.shape}")
    if not (sp.issparse(A) and A.format == "csc"):
        A = sp.csc_matrix(A)
    rhs_norm = float(np.linalg.norm(b))

    cache = cache or FactorCache()
    cg_iterations = 0
    if cache.lu is not None and cache.lu.shape == A.shape:
        target = max(tol, rtol or 0.0) * rhs_norm
        x, cg_iterations = _pcg(A, b, cache.lu, target)
        cache.cg_iterations += cg_iterations
        res = np.inf if x is None else float(np.linalg.norm(A @ x - b))
        if res <= target:
            return x, LinearSolveReport(res, cache.lu.nnz, False, cg_iterations, False)
    cache.lu = None            # the stale factor goes before the next is made

    res = np.inf
    for regularized in (False, True):
        M = sp.csc_matrix(A + sp.diags(TIKHONOV_EPS * A.diagonal())) if regularized else A
        lu = _try_factor(M)
        cache.factorizations += 1
        if lu is None:
            continue
        x = lu.solve(b, "T")
        r = A @ x - b
        res = float(np.linalg.norm(r))
        # relative residual first, so the common case pays for no norm of A
        if np.isfinite(res) and (res <= tol * rhs_norm or np.linalg.norm(r, np.inf) <= tol * (
                spla.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf))):
            cache.lu, cache.factor_nnz = lu, max(cache.factor_nnz, lu.nnz)
            return x, LinearSolveReport(res, lu.nnz, regularized, cg_iterations, True)

    # a NaN entry compares unequal to itself, so only a nonzero difference,
    # not an unequal pair, shows that A is not symmetric
    if np.any(abs(A - A.T).data > 0):
        raise LinearSolveError("SPD solve got a matrix that is not symmetric, "
                               "which breaks the SPD contract", res)
    outcome = "factorization broke down" if lu is None else "solution missed tol"
    raise LinearSolveError(f"SPD solve failed to reach tol={tol:g} (shifted {outcome})", res)
