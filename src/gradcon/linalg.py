"""Sparse-matrix plumbing and the SPD solve used by Newton steps.

Matrices are scipy CSR/CSC; the solve path is a sparse direct factorization,
deterministic for fixed input.  When factorization breaks down or the
residual check fails, one retry with a tiny diagonal (Tikhonov) shift
``1e-12 * diag(A)`` is attempted before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TIKHONOV_EPS = 1e-12


class LinearSolveError(RuntimeError):
    """Factorization breakdown or unmet residual tolerance."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(f"{message} (achieved residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class LinearSolveReport:
    residual_norm: float
    rhs_norm: float
    factor_nnz: int
    regularized: bool


def _try_factor(A: sp.csc_matrix):
    try:
        return spla.splu(A)
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

    lu = _try_factor(A)
    best_res = np.inf
    regularized = False
    if lu is not None:
        x = lu.solve(b)
        best_res = float(np.linalg.norm(A @ x - b))
        if np.isfinite(best_res) and best_res <= tol * rhs_norm:
            report = LinearSolveReport(best_res, rhs_norm, lu.nnz, False)
            return x, report

    shifted = A + sp.diags(TIKHONOV_EPS * A.diagonal())
    lu = _try_factor(shifted.tocsc())
    if lu is not None:
        regularized = True
        x = lu.solve(b)
        res = float(np.linalg.norm(A @ x - b))
        if np.isfinite(res) and res <= tol * rhs_norm:
            report = LinearSolveReport(res, rhs_norm, lu.nnz, True)
            return x, report
        best_res = min(best_res, res) if np.isfinite(res) else best_res

    raise LinearSolveError(
        f"SPD solve failed to reach tol={tol:g} (regularized retry: {regularized})",
        achieved_residual=best_res,
    )
