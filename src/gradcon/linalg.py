"""The SPD solve used by Newton steps.

The solve is a sparse direct LU factorization (SuperLU), deterministic for
fixed input.  The matrices it sees are symmetric positive definite, so it
runs SuperLU in symmetric mode: the columns are ordered by minimum degree
on the pattern of A + A^T, the same permutation is applied to the rows, and
the diagonal is taken as the pivot (no partial pivoting).  On the Schur
matrices of the flux system this keeps the factor less than half as full as
the default unsymmetric (COLAMD, partial pivoting) factorization.  When
factorization breaks down or the residual check fails, one retry with a
tiny diagonal (Tikhonov) shift ``1e-12 * diag(A)`` is attempted before
giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TIKHONOV_EPS = 1e-12


class LinearSolveError(RuntimeError):
    """Factorization breakdown or unmet residual tolerance.

    ``x`` is the solution with the smallest residual found, or None when
    no factorization succeeded.
    """

    def __init__(self, message: str, achieved_residual: float, x: np.ndarray | None = None):
        super().__init__(f"{message} (achieved residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual
        self.x = x


@dataclass(frozen=True)
class LinearSolveReport:
    residual_norm: float
    rhs_norm: float
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

    Returns ``(x, LinearSolveReport)`` with ||A x - b|| <= tol * ||b||.
    Raises :class:`LinearSolveError` when neither the plain factorization
    nor the diagonally shifted retry reaches the tolerance.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs rhs {b.shape}")
    A = sp.csc_matrix(A)
    rhs_norm = float(np.linalg.norm(b))

    best_res, best_x = np.inf, None
    for regularized in (False, True):
        M = A + sp.diags(TIKHONOV_EPS * A.diagonal()) if regularized else A
        lu = _try_factor(sp.csc_matrix(M))
        if lu is None:
            continue
        x = lu.solve(b)
        res = float(np.linalg.norm(A @ x - b))
        if np.isfinite(res) and res <= tol * rhs_norm:
            return x, LinearSolveReport(res, rhs_norm, lu.nnz, regularized)
        if res < best_res:
            best_res, best_x = res, x

    raise LinearSolveError(
        f"SPD solve failed to reach tol={tol:g} (regularized retry: {lu is not None})",
        achieved_residual=best_res, x=best_x,
    )
