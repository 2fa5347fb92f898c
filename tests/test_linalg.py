import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcon as gc
from gradcon import fem, linalg, solver
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


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_spd(sp.identity(3, format="csc"), np.ones(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_spd(sp.csc_matrix(np.ones((2, 3))), np.ones(3))


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


def spread_spd(n=60, seed=15):
    """SPD with n eigenvalues spread over 1e0..1e-4: unpreconditioned CG needs ~n steps."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(np.logspace(0, -4, n)) @ Q.T
    return sp.csr_matrix(0.5 * (A + A.T)), rng.normal(size=n)


def test_direct_path_reports_its_factorization():
    A, b = spread_spd()
    x, report = solve_spd(A, b, rtol=0.1)       # without a cache rtol is unused
    assert report.refactored and report.cg_iterations == 0
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    # no cache is an empty one: the same solve, and the factor is kept
    cache = linalg.FactorCache()
    x_cached, cached = solve_spd(A, b, rtol=0.1, cache=cache)
    assert np.array_equal(x_cached, x) and cached == report
    assert cache.lu is not None and cache.lu.nnz == report.factor_nnz == cache.factor_nnz
    assert (cache.factorizations, cache.cg_iterations) == (1, 0)


def test_zero_rhs_keeps_the_factor():
    # b = 0 is solved by x = 0 before any PCG iteration: no breakdown, so the
    # kept factor stays and A is not factored again
    A, b = spread_spd()
    cache = linalg.FactorCache()
    solve_spd(A, b, cache=cache)
    kept = cache.lu
    x, report = solve_spd(A, np.zeros_like(b), cache=cache, rtol=0.1)
    assert np.array_equal(x, np.zeros_like(b)) and report.residual_norm == 0.0
    assert not report.refactored and report.cg_iterations == 0
    assert cache.lu is kept and (cache.factorizations, cache.cg_iterations) == (1, 0)


def test_factor_nnz_is_the_largest_accepted_factor():
    small, b_small = spread_spd(n=20)
    large, b_large = spread_spd(n=60)
    cache = linalg.FactorCache()
    _, first = solve_spd(large, b_large, cache=cache)
    _, second = solve_spd(small, b_small, cache=cache)     # another shape: factored again
    assert second.refactored and second.factor_nnz < first.factor_nnz == cache.factor_nnz


def test_cache_keeps_the_factor_and_pcg_meets_rtol():
    rng = np.random.default_rng(16)
    A = random_spd(rng, 200)
    cache = linalg.FactorCache()
    b = rng.normal(size=200)
    _, first = solve_spd(A, b, cache=cache)
    assert first.refactored and cache.lu is not None and cache.factorizations == 1
    kept = cache.lu
    # a nearby matrix: the kept factor preconditions PCG to the looser rtol
    A2 = A + sp.diags(rng.uniform(0.0, 0.05, 200))
    x, report = solve_spd(A2, b, cache=cache, rtol=1e-3)
    assert not report.refactored and not report.regularized
    assert 1 <= report.cg_iterations <= linalg.PCG_MAX_ITER
    assert cache.lu is kept and cache.factorizations == 1
    assert cache.cg_iterations == report.cg_iterations
    res = np.linalg.norm(A2 @ x - b)
    assert res <= 1e-3 * np.linalg.norm(b) and report.residual_norm == pytest.approx(res, rel=1e-9)
    assert report.factor_nnz == kept.nnz


def test_scaled_factor_is_still_an_exact_preconditioner():
    # PCG does not see the scale of its preconditioner: the factor of 1e6 A
    # solves A x = b in one iteration, to tol
    A, b = spread_spd()
    cache = linalg.FactorCache(lu=linalg._try_factor(sp.csc_matrix(1e6 * A)))
    x, report = solve_spd(A, b, cache=cache)
    assert not report.refactored and report.cg_iterations == 1
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


class PoisonedFactor:
    shape, nnz = (60, 60), 60

    def solve(self, r, trans="N"):
        return np.full_like(r, np.nan)


@pytest.mark.parametrize("stale, cg_iterations", [
    # the factor of 1e6 I: plain CG, whose contraction over its first two
    # iterations cannot reach rtol in PCG_MAX_ITER, so it gives up there
    (lambda n: linalg._try_factor(sp.csc_matrix(1e6 * sp.identity(n))), 2),
    (lambda n: PoisonedFactor(), 1),                                # NaN: breaks down at once
    (lambda n: linalg._try_factor(sp.csc_matrix(sp.identity(n + 1))), 0),   # wrong size
])
def test_stale_or_poisoned_cache_factors_again(stale, cg_iterations):
    A, b = spread_spd()
    cache = linalg.FactorCache(lu=stale(A.shape[0]))
    x, report = solve_spd(A, b, cache=cache, rtol=1e-10)
    assert report.refactored and not report.regularized
    assert cache.factorizations == 1 and cache.lu.shape == A.shape
    assert not isinstance(cache.lu, PoisonedFactor)
    assert report.cg_iterations == cache.cg_iterations == cg_iterations
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_slow_contraction_gives_up_before_the_budget():
    # the Jacobi factor contracts too slowly to reach rtol in PCG_MAX_ITER
    # iterations: PCG stops as soon as its mean contraction shows it, and
    # the direct path solves to tol
    A, b = spread_spd()
    cache = linalg.FactorCache(lu=linalg._try_factor(sp.csc_matrix(sp.diags(A.diagonal()))))
    x, report = solve_spd(A, b, cache=cache, rtol=1e-6)
    assert report.refactored and not report.regularized
    assert 2 <= report.cg_iterations < linalg.PCG_MAX_ITER
    assert cache.factorizations == 1 and cache.cg_iterations == report.cg_iterations
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("near, cg_iterations", [
    (lambda A: 1.01 * A, 1),
    # slow at first (|r_2| = 0.05 |r_0|), then superlinear: the mean
    # contraction of the early iterations does not give up on it
    (lambda A: A + 1e-4 * sp.identity(A.shape[0]), 8),
])
def test_near_fresh_factor_is_kept(near, cg_iterations):
    A, b = spread_spd()
    kept = linalg._try_factor(sp.csc_matrix(near(A)))
    cache = linalg.FactorCache(lu=kept)
    x, report = solve_spd(A, b, cache=cache, rtol=1e-6)
    assert not report.refactored and report.cg_iterations == cg_iterations
    assert cache.lu is kept and cache.factorizations == 0
    assert np.linalg.norm(A @ x - b) <= 1e-6 * np.linalg.norm(b)


def test_only_the_direct_path_raises():
    # a poisoned cache falls through to the direct path, whose own failure
    # is the one LinearSolveError; the cache is left without a factor
    A, b = spread_spd()
    cache = linalg.FactorCache(lu=PoisonedFactor())
    with pytest.raises(LinearSolveError, match="shifted solution missed tol"):
        solve_spd(A, b, tol=1e-300, cache=cache)
    assert cache.lu is None and cache.factorizations == 2


def test_every_factorization_has_one_configuration(monkeypatch):
    # a direct solve, and a plain attempt with its shifted retry; relax >
    # panel_size is not memory safe in SuperLU, and scipy's default relax
    # exceeds a panel of one, so both are always passed
    calls, splu = [], linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda *a, **k: calls.append(k) or splu(*a, **k))
    A, b = spread_spd()
    solve_spd(A, b)
    _, report = solve_spd(sp.csr_matrix(np.ones((2, 2))), np.ones(2), tol=1e-8)
    assert report.regularized and len(calls) == 3
    for kw in calls:
        assert {"relax", "panel_size"} <= kw.keys() and kw["relax"] <= kw["panel_size"]
        assert kw["permc_spec"] == "MMD_AT_PLUS_A" and kw["diag_pivot_thresh"] == 0.0
        assert kw["options"] == {"SymmetricMode": True}


class SpyFactor:
    """A SuperLU factor that records the ``trans`` of each solve and passes it on."""

    def __init__(self, lu, calls):
        self.lu, self.calls = lu, calls

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, b, trans="N"):
        self.calls.append(trans)
        return self.lu.solve(b, trans)


def test_every_solve_with_a_factor_uses_the_transposed_sweeps(monkeypatch):
    # the SPD contract makes A^T x = b the system asked for, and SuperLU's
    # transposed sweeps solve it faster: a direct solve, a PCG solve on the
    # kept factor and a shifted retry all take them (the plain factor of the
    # singular ones matrix breaks down, so only its retry solves)
    calls, try_factor = [], linalg._try_factor
    monkeypatch.setattr(linalg, "_try_factor",
                        lambda M: (lu := try_factor(M)) and SpyFactor(lu, calls))
    A, b = spread_spd()
    cache = linalg.FactorCache()
    _, direct = solve_spd(A, b, cache=cache)
    _, pcg = solve_spd(1.01 * A, b, cache=cache, rtol=1e-6)
    _, shifted = solve_spd(sp.csr_matrix(np.ones((2, 2))), np.ones(2), tol=1e-8)
    assert direct.refactored and not pcg.refactored and pcg.cg_iterations >= 1
    assert shifted.regularized
    assert len(calls) == 1 + pcg.cg_iterations + 1 and set(calls) == {"T"}


@pytest.mark.parametrize("name", gc.SCENARIOS)
def test_schur_factor_is_no_fuller_than_scipy_default(name):
    dp = solver.DiscreteProblem.from_spec(gc.scenario(name, n=16))
    sol, _ = solver.continuation_solve(dp)
    S = dp.schur(fem.assemble_huber_jacobian(dp.mesh, sol.p, dp.alpha_q, sol.tau_final,
                                             ws=dp.workspace))
    b = np.random.default_rng(17).normal(size=S.shape[0])
    x, report = solve_spd(S, b)
    assert report.refactored and not report.regularized
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
    default = linalg.spla.splu(sp.csc_matrix(S), permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert report.factor_nnz <= default.nnz
