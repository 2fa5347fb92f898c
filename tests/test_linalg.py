import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcon import linalg
from gradcon.linalg import LinearSolveError, solve_spd


def random_spd(rng, n, density=0.3):
    """SPD matrix built from a random factor, A = L L^T + small diagonal."""
    L = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)),
                  format="csr")
    A = (L @ L.T + sp.identity(n) * 0.1).tocsr()
    return A


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    x, report = solve_spd(sp.identity(3, format="csr"), b)
    assert np.allclose(x, b)
    assert report.residual_norm <= 1e-14


def test_solve_scalar_diagonal():
    A = sp.csr_matrix(np.array([[4.0]]))
    x, _ = solve_spd(A, np.array([8.0]))
    assert x[0] == pytest.approx(2.0, abs=1e-14)


def test_solve_factored_oracle():
    # construct by factorization so the solution check is independent
    rng = np.random.default_rng(11)
    L = np.tril(rng.normal(size=(50, 50)), k=-1) + np.diag(rng.uniform(0.5, 2.0, 50))
    A = sp.csr_matrix(L @ L.T)
    x_true = rng.normal(size=50)
    b = A @ x_true
    x, report = solve_spd(A, b, tol=1e-10)
    assert report.residual_norm <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_contract_many_random_systems():
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(2, 501)) if trial % 10 else 500
        A = random_spd(rng, n)
        b = rng.normal(size=n)
        x, report = solve_spd(A, b, tol=1e-10)
        res = np.linalg.norm(A @ x - b)  # independent recomputation
        assert res <= 1e-10 * np.linalg.norm(b)
        assert report.residual_norm <= 1e-10 * np.linalg.norm(b)


def test_solve_zero_rhs():
    A = sp.identity(5, format="csr") * 3.0
    x, report = solve_spd(A, np.zeros(5))
    assert np.array_equal(x, np.zeros(5))
    assert report.residual_norm == 0.0


def test_singular_matrix_raises_with_residual():
    # a zero diagonal entry stays zero under the shift: both factorizations break down
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(LinearSolveError, match="shifted factorization broke down") as err:
        solve_spd(A, np.array([1.0, 1.0]))
    assert np.isinf(err.value.achieved_residual)


def test_shifted_solution_missing_tol_is_named():
    # an SPD system factors with the shift too, but no solution meets tol=1e-300
    rng = np.random.default_rng(5)
    G = rng.normal(size=(20, 20))
    A = sp.csr_matrix(G @ G.T + 20.0 * np.eye(20))
    with pytest.raises(LinearSolveError, match="shifted solution missed tol") as err:
        solve_spd(A, rng.normal(size=20), tol=1e-300)
    assert 0.0 < err.value.achieved_residual < np.inf


def test_regularized_retry_handles_rank_deficiency():
    # singular but with nonzero diagonal: the shifted retry succeeds
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    x, report = solve_spd(A, np.array([1.0, 1.0]), tol=1e-8)
    assert report.regularized
    assert np.linalg.norm(A @ x - np.array([1.0, 1.0])) <= 1e-8 * np.sqrt(2.0)


def test_backward_stable_solution_taken_without_retry(monkeypatch):
    # condition 1e12: rounding alone leaves a relative residual ~1e-6, far
    # above tol, while the normwise backward error is ~1e-17; x is taken from
    # the one plain factorization, not from a shifted retry
    rng = np.random.default_rng(14)
    Q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    A = Q @ np.diag(np.logspace(0, -12, 40)) @ Q.T
    A = sp.csr_matrix(0.5 * (A + A.T))
    b = rng.normal(size=40)
    factorizations = []
    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    x, report = solve_spd(A, b, tol=1e-10)
    r = A @ x - b
    assert np.linalg.norm(r) > 1e-10 * np.linalg.norm(b)
    scale = np.abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert np.abs(r).max() <= 1e-10 * scale
    assert not report.regularized and len(factorizations) == 1


def test_solve_deterministic():
    rng = np.random.default_rng(13)
    A = random_spd(rng, 80)
    b = rng.normal(size=80)
    x1, _ = solve_spd(A, b)
    x2, _ = solve_spd(A, b)
    assert np.array_equal(x1, x2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20))
def test_diagonal_systems_hypothesis(diag):
    A = sp.diags(diag).tocsr()
    b = np.arange(1.0, len(diag) + 1.0)
    x, _ = solve_spd(A, b)
    assert np.allclose(x, b / np.asarray(diag), rtol=1e-12)
