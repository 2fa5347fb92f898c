"""The SPD solve used by Newton steps.

The solve is a sparse direct LU factorization (SuperLU), deterministic for
fixed input.  The matrices it sees are symmetric positive definite, so it
runs SuperLU in symmetric mode: the columns are ordered by minimum degree
on the pattern of A + A^T, the same permutation is applied to the rows, and
the diagonal is taken as the pivot (no partial pivoting).  On the Schur
matrices of the flux system this keeps the factor less than half as full as
the default unsymmetric (COLAMD, partial pivoting) factorization.

A solution x is accepted when its relative residual is small,
||A x - b||_2 <= tol ||b||_2, or, failing that, when it is backward stable:
its normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||) in the
infinity norm is at most tol, i.e. x solves a nearby system exactly.  The
second test matters when ||A|| ||x|| >> ||b||, where rounding alone can
violate the first.  Only when the factorization breaks down or x passes
neither test is A factored again with a tiny diagonal (Tikhonov) shift
``1e-12 * diag(A)``; the shifted solution is judged against A by the same
rule before the solve gives up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TIKHONOV_EPS = 1e-12


class LinearSolveError(RuntimeError):
    """Factorization breakdown or a solution that fails the acceptance rule."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(f"{message} (achieved residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class LinearSolveReport:
    residual_norm: float
    factor_nnz: int
    regularized: bool


def _try_factor(A: sp.csc_matrix):
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError:
        return None


def solve_spd(A, b: np.ndarray, tol: float = 1e-10):
    """Solve A x = b for symmetric positive definite A.

    Returns ``(x, LinearSolveReport)`` where x has relative residual
    ||A x - b|| <= tol ||b|| or normwise backward error <= tol (see the
    module docstring).  The diagonally shifted retry runs only when the
    factorization breaks down or x meets neither test; ``regularized``
    says whether it did.  Raises :class:`LinearSolveError` when the retry
    fails too.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs rhs {b.shape}")
    A = sp.csc_matrix(A)
    rhs_norm = float(np.linalg.norm(b))

    res = np.inf
    for regularized in (False, True):
        M = A + sp.diags(TIKHONOV_EPS * A.diagonal()) if regularized else A
        lu = _try_factor(sp.csc_matrix(M))
        if lu is None:
            continue
        x = lu.solve(b)
        r = A @ x - b
        res = float(np.linalg.norm(r))
        # relative residual first, so the common case pays for no norm of A
        if np.isfinite(res) and (res <= tol * rhs_norm or np.linalg.norm(r, np.inf) <= tol * (
                spla.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf))):
            return x, LinearSolveReport(res, lu.nnz, regularized)

    raise LinearSolveError(
        f"SPD solve failed to reach tol={tol:g} (regularized retry: {lu is not None})",
        achieved_residual=res,
    )
