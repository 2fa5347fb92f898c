import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradcon as gc
from gradcon import fem, huber, linalg, solver
from gradcon.linalg import LinearSolveError, solve_spd
from gradcon.mesh import BOUNDARY_SIDES
from gradcon.solver import (DiscreteProblem, LineSearchStalled, MaxIterationsExceeded,
                            SolverConfig, SolverError, continuation_solve,
                            diagnostics, newton_solve, recover_u,
                            recovered_gradient, residual, tau_schedule)
from test_fem import global_jacobian


def enumerate_schedule(start, factor, floor):
    taus = [start]
    while taus[-1] > floor:
        taus.append(taus[-1] / factor)
    return taus


def stage_record(dp, p, tau):
    """solver._stage_record at flux p, its |p_h| evaluated afresh at radius tau."""
    return solver._stage_record(dp, p, fem.huber_points(dp.workspace, p, dp.alpha_q, tau).norm)


def test_tau_schedule_matches_enumeration():
    cfg = SolverConfig()
    taus = tau_schedule(cfg)
    oracle = enumerate_schedule(10.0, 1.30, 1e-6)
    assert np.allclose(taus, oracle, rtol=1e-15)
    assert len(taus) == len(oracle) == 63
    assert taus[0] == 10.0
    assert taus[-1] <= 1e-6 < taus[-2]
    assert np.allclose(taus[:-1] / taus[1:], 1.30, rtol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau_factor=1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau_min=0.0)
    with pytest.raises(ValueError, match="TAU_START"):
        SolverConfig(tau_min=1.5 * solver.TAU_START)
    assert tau_schedule(SolverConfig(tau_min=solver.TAU_START)).tolist() == [solver.TAU_START]
    # non-finite numbers, e.g. NaN/Infinity read from JSON
    for bad in ({"tau_factor": float("inf")}, {"tau_min": float("nan")},
                {"tau_min": float("inf")}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # the stage count is capped, and the schedule is built no further than the
    # cap: 1.6e13 stages here, and TAU_START / tau_min overflows below
    with pytest.raises(ValueError, match="MAX_STAGES"):
        SolverConfig(tau_factor=1.000000000001)
    with pytest.raises(ValueError, match="MAX_STAGES"):
        SolverConfig(tau_min=1e-300, tau_factor=1.01)
    assert math.isinf(solver.TAU_START / 2.3e-308)
    assert len(tau_schedule(SolverConfig(tau_min=2.3e-308))) == 2710
    # at the cap: MAX_STAGES - 1.5 factors from TAU_START down to tau_min make
    # MAX_STAGES stages, one factor more is rejected
    def near_cap(factors):
        return SolverConfig(tau_factor=1.0001, tau_min=solver.TAU_START * 1.0001**-factors)
    assert len(tau_schedule(near_cap(solver.MAX_STAGES - 1.5))) == solver.MAX_STAGES
    with pytest.raises(ValueError, match="MAX_STAGES"):
        near_cap(solver.MAX_STAGES - 0.5)
    # tau_min on a schedule point: a count taken in logarithms and rounded
    # down read MAX_STAGES here, while the schedule has one stage more
    with pytest.raises(ValueError, match="MAX_STAGES"):
        SolverConfig(tau_factor=1.0001, tau_min=0.014254434198470396)


def test_subnormal_tau_min_names_where_the_schedule_stops():
    # from 1e-323 on, tau / 1.3 rounds back to tau: the schedule never passes
    # 5e-324, and the cap on its length used to be named as the cause
    with pytest.raises(ValueError) as err:
        SolverConfig(tau_min=5e-324)
    assert str(err.value) == ("tau_min = 4.94e-324 is never reached: "
                              "the schedule stops shrinking at tau = 9.88e-324")
    assert len(tau_schedule(SolverConfig(tau_min=1e-320))) == 2819


def test_bound_vanishing_on_part_of_the_domain_is_rejected():
    # a duck-typed bound skips the constructors' checks; from_spec checks its values
    class HalfZero:
        def evaluate(self, mesh, x, y):
            return np.where(np.asarray(x) < 0.5, 0.0, 1.0)

    with pytest.raises(ValueError, match="bound must be positive throughout"):
        DiscreteProblem.from_spec(gc.ProblemSpec(
            rect=gc.UNIT_SQUARE, nx=4, ny=4, boundary=gc.ALL_DIRICHLET,
            alpha=HalfZero(), source=gc.ConstantSource(1.0)))


def test_non_finite_bound_or_source_is_rejected():
    # a NaN passes a test for bound <= 0; such data used to construct, and
    # the solve then failed as a linear solve that missed its tolerance
    class HalfBad:
        def __init__(self, bad):
            self.bad = bad

        def evaluate(self, mesh, x, y):
            return np.where(np.asarray(x) < 0.5, self.bad, 1.0)

    class HalfNaNSource:
        def evaluate(self, x, y):
            return np.where(np.asarray(x) < 0.5, np.nan, 1.0)

    def problem(alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(1.0)):
        return gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=4, ny=4, boundary=gc.ALL_DIRICHLET,
                              alpha=alpha, source=source)

    for bad, match in ((np.nan, "bound must be positive"), (np.inf, "bound must be finite")):
        with pytest.raises(ValueError, match=match):
            DiscreteProblem.from_spec(problem(alpha=HalfBad(bad)))
    with pytest.raises(ValueError, match="source must be finite"):
        DiscreteProblem.from_spec(problem(source=HalfNaNSource()))


def test_load_of_the_wrong_shape_or_non_finite_is_rejected():
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    # one row of point values would broadcast to every cell
    with pytest.raises(ValueError, match="load must have one value per quadrature point"):
        dp.with_load(np.ones(dp.alpha_q.shape[1]))
    bad = np.array(dp.source_q)
    bad[3, 2] = np.nan
    with pytest.raises(ValueError, match="load must be finite"):
        dp.with_load(bad)
    assert dp.with_load(np.array(dp.source_q)).load.tobytes() == dp.load.tobytes()


def test_residual_zero_state_zero_source():
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=2, ny=2, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0)))
    p = np.zeros(dp.mesh.num_edges)
    r = residual(dp, p, tau=1.0)
    assert np.array_equal(r, np.zeros(dp.mesh.num_edges))
    assert stage_record(dp, p, 1.0)[1] == 0.0


def test_residual_zero_state_unit_source():
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=2, ny=2, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(1.0)))
    # zero flux: u(p) is the cell mean of the source, and the flux residual
    # is -B^T u, nonzero only on the boundary edges
    p = np.zeros(dp.mesh.num_edges)
    r = residual(dp, p, tau=1.0)
    assert np.allclose(r, -(dp.Bt @ np.ones(dp.mesh.num_triangles)), atol=1e-15)
    boundary = np.concatenate(list(dp.mesh.boundary_edges.values()))
    assert np.allclose(np.abs(r[boundary]), 1.0)
    r1n, r2n = np.linalg.norm(r), stage_record(dp, p, 1.0)[1]
    assert r1n == pytest.approx(np.sqrt(len(boundary)))
    assert r2n <= 1e-15


def test_newton_zero_source_converges_immediately():
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=4, ny=4, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(0.7), source=gc.ConstantSource(0.0)))
    p, iters, rnorm, _ = newton_solve(dp, 10.0, np.zeros(dp.mesh.num_edges))
    assert iters <= 2
    assert np.allclose(p, 0.0)
    assert rnorm <= 1e-8
    assert np.allclose(recover_u(dp, p), 0.0)


def test_newton_first_stage_converges():
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=8))
    p, iters, rnorm, pnorm = newton_solve(dp, 10.0, np.zeros(dp.mesh.num_edges))
    assert rnorm <= 1e-8
    r1n, r2n = np.linalg.norm(residual(dp, p, 10.0)), stage_record(dp, p, 10.0)[1]
    assert r1n <= 1e-8 and r2n <= 1e-12
    # |p_h| is that of the returned flux, as a fresh evaluation gives it
    assert pnorm.tobytes() == fem.huber_points(dp.workspace, p, dp.alpha_q, 10.0).norm.tobytes()


def test_newton_quadratic_branch_contraction():
    # large smoothing radius keeps every point on the quadratic branch, the
    # system is then linear and one step lands at rounding level
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=8))
    p0 = np.zeros(dp.mesh.num_edges)
    r0 = float(np.linalg.norm(residual(dp, p0, 10.0)))
    p, iters, r1, _ = newton_solve(dp, 10.0, p0)
    assert iters == 1
    assert r1 / r0**2 <= 1.0


def test_newton_max_iterations_error(monkeypatch):
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    with pytest.raises(MaxIterationsExceeded) as err:
        newton_solve(dp, 1e-6, np.zeros(dp.mesh.num_edges))
    assert err.value.tau == 1e-6
    assert err.value.r1_norm > 0.0
    assert err.value.newton_steps == 1
    # u is eliminated exactly, so the balance residual |r2| is rounding and
    # the message names only tau and |r1|
    text = str(err.value)
    assert text.endswith(f"(tau=1.000e-06, |r1|={err.value.r1_norm:.3e})")
    assert "|r2|" not in text


def test_line_search_stall_error(monkeypatch):
    # an unattainable decrease requirement stalls the very first step, so the
    # failing iterate is p0; the error reports its flux residual
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    monkeypatch.setattr(solver, "LS_SUFFICIENT_DECREASE", 0.999)
    monkeypatch.setattr(solver, "LS_MAX_BACKTRACKS", 0)
    p0 = np.random.default_rng(0).normal(size=dp.mesh.num_edges)
    with pytest.raises(LineSearchStalled) as err:
        newton_solve(dp, 1e-4, p0)
    assert err.value.r1_norm == pytest.approx(np.linalg.norm(residual(dp, p0, 1e-4)))
    assert err.value.newton_steps == 1          # the stalled step solved its system


def test_nan_residual_is_not_converged():
    # a NaN residual must not pass the convergence test as zero iterations
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    with pytest.raises(SolverError):
        newton_solve(dp, 1.0, np.full(dp.mesh.num_edges, np.nan))


def force_linear_tol(monkeypatch, tol):
    """Make every ``linalg.solve_spd`` call use ``tol``, whatever its caller passes."""
    real = linalg.solve_spd
    monkeypatch.setattr(linalg, "solve_spd", lambda A, b, **kw: real(A, b, tol=tol))


def test_linear_solve_failure_names_the_stage(monkeypatch):
    # no solution can meet tol=1e-300, so the very first Newton system fails;
    # the failure is a SolverError of the first stage, chained from linalg's
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    force_linear_tol(monkeypatch, 1e-300)
    with pytest.raises(SolverError) as err:
        continuation_solve(dp)
    assert err.value.tau == 10.0
    assert isinstance(err.value.__cause__, LinearSolveError)
    assert err.value.newton_steps == 1          # the failed solve counts


@pytest.mark.parametrize("neumann", [frozenset(), frozenset({"left", "top"})])
def test_schur_scatter_matches_sparse_assembly(neumann):
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.Rect(0.0, 0.0, 1.5, 1.0), nx=5, ny=4, boundary=gc.BoundaryPartition(neumann),
        alpha=gc.PiecewiseAlpha(regions=((gc.HalfPlane(1.0, 1.0, 1.0), 0.75),), default=1.0),
        source=gc.ConstantSource(1.0)))
    assert dp.free.dtype == bool and dp.free.all() == (not neumann)
    p = np.random.default_rng(8).normal(scale=0.3, size=dp.mesh.num_edges)
    blocks = fem.assemble_huber_jacobian(dp.mesh, p, dp.alpha_q, 0.2, ws=dp.workspace)
    reference = global_jacobian(dp.mesh, blocks) + dp.Bt @ sp.diags(1.0 / dp.areas) @ dp.B
    reference = reference.tocsr()[dp.free][:, dp.free].toarray()
    S = dp.schur(blocks)
    assert S.format == "csc" and S.shape == reference.shape
    assert np.max(np.abs(S.toarray() - reference)) <= 1e-13 * np.max(np.abs(reference))
    # B^T is a view of B's arrays, and the base of S is B_f^T M^{-1} B_f to the
    # bit, its index arrays the pattern of S
    assert dp.Bt.format == "csc" and np.shares_memory(dp.Bt.data, dp.B.data)
    base = (dp.B.T @ sp.diags(1.0 / dp.areas) @ dp.B).tocsc()[dp.free][:, dp.free]
    base.sort_indices()
    assert dp.schur_base.format == "csc" and dp.schur_base.shape == base.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(dp.schur_base, name), getattr(base, name)), name
    assert S.indptr is dp.schur_base.indptr
    assert np.array_equal(S.indices, dp.schur_base.indices)


def test_schur_refill_matches_a_fresh_matrix():
    # a run allocates S once and refills its data each Newton step; the
    # refilled matrix is the fresh one to the bit, and it refuses a matrix
    # of another pattern
    dp = DiscreteProblem.from_spec(gc.scenario("ex4_measure", n=8))
    rng = np.random.default_rng(11)
    S = dp.schur(fem.assemble_huber_jacobian(dp.mesh, np.zeros(dp.mesh.num_edges), dp.alpha_q,
                                             10.0, ws=dp.workspace))
    for tau in (1.0, 0.05, 1e-4):
        p = rng.normal(scale=0.3, size=dp.mesh.num_edges)
        blocks = fem.assemble_huber_jacobian(dp.mesh, p, dp.alpha_q, tau, ws=dp.workspace)
        fresh = dp.schur(blocks)
        assert dp.schur(blocks, out=S) is S
        assert np.array_equal(S.data, fresh.data)
        assert np.array_equal(S.indices, fresh.indices)
        assert np.array_equal(S.indptr, fresh.indptr)
    other = DiscreteProblem.from_spec(gc.scenario("ex4_measure", n=4))
    with pytest.raises(ValueError):
        other.schur(np.zeros((other.mesh.num_triangles, 3, 3)), out=S)


POUR_N8 = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=8, ny=8, boundary=gc.ALL_NEUMANN,
                         alpha=gc.ConstantAlpha(1.0),
                         source=gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, 0.5), inside=2.0))


@pytest.mark.parametrize("spec", [gc.scenario(name, n=4) for name in gc.SCENARIOS] + [POUR_N8],
                         ids=list(gc.SCENARIOS) + ["pour_n8"])
def test_schur_matrix_is_bitwise_symmetric(spec):
    # linalg solves with a factor of S through its transposed sweeps, which
    # solve S^T x = b: the same system only while S equals S^T to the bit.
    # The Jacobian's (k, l) and (l, k) blocks are equal, and schur sums both
    # in the same order; a kernel that summed them apart would break this
    dp = DiscreteProblem.from_spec(spec)
    rng = np.random.default_rng(18)
    for tau in (10.0, 1e-2, 1e-6):
        p = rng.normal(scale=0.3, size=dp.mesh.num_edges)
        S = dp.schur(fem.assemble_huber_jacobian(dp.mesh, p, dp.alpha_q, tau, ws=dp.workspace))
        assert (S != S.T).nnz == 0, tau


def test_refill_leaves_the_kept_factor_unchanged():
    # the run's one S is refilled in place each step while the cache keeps a
    # factor of an earlier S; SuperLU copied what it factored, so the kept
    # factor solves exactly as before the refill
    dp = DiscreteProblem.from_spec(gc.scenario("ex4_measure", n=8))
    rng = np.random.default_rng(12)
    blocks1, blocks2 = (fem.assemble_huber_jacobian(
        dp.mesh, rng.normal(scale=0.3, size=dp.mesh.num_edges), dp.alpha_q, tau,
        ws=dp.workspace) for tau in (1.0, 1e-3))
    cache, S = linalg.FactorCache(), dp.schur(blocks1)
    b = rng.normal(size=S.shape[0])
    assert solve_spd(S, b, cache=cache)[1].refactored
    before, data = cache.lu.solve(b), S.data.copy()
    assert dp.schur(blocks2, out=S) is S
    assert not np.array_equal(S.data, data)
    assert np.array_equal(cache.lu.solve(b), before)


def test_back_to_back_runs_share_no_state(solve_cache, monkeypatch):
    # the run's Schur matrix and factor live in its NewtonRun, which every
    # stage of the run gets and no other run sees: a second run on the same
    # problem, or on a copy with the same load, repeats the first
    dp, sol, _ = solve_cache("ex2_a15", 8)
    passed, real = [], solver.newton_solve

    def newton(dp, tau, p0, *, run=None):
        passed.append(run)
        return real(dp, tau, p0, run=run)

    monkeypatch.setattr(solver, "newton_solve", newton)
    copy = dp.with_load(dp.source_q)
    earlier = []
    for problem in (dp, dp, copy, copy):
        passed.clear()
        again, _ = continuation_solve(problem)
        assert again.p.tobytes() == sol.p.tobytes()
        assert again.newton_iterations == sol.newton_iterations
        assert (again.factorizations, again.cg_iterations) == (sol.factorizations,
                                                              sol.cg_iterations)
        run = passed[0]
        assert isinstance(run, solver.NewtonRun) and all(r is run for r in passed)
        assert not any(run is r or run.cache is r.cache for r in earlier)
        earlier.append(run)


def test_each_iterate_is_evaluated_once(monkeypatch):
    # the points of an iterate's residual also give its Jacobian and its
    # stage's record, and the run's diagnostics reuse the last stage's
    # record, so the field is evaluated once per residual and never again
    fields, residuals = [], []
    pair, assemble = fem._pair_components, fem.assemble_huber_residual
    monkeypatch.setattr(fem, "_pair_components",
                        lambda *a: fields.append(1) or pair(*a))
    monkeypatch.setattr(fem, "assemble_huber_residual",
                        lambda *a, **k: residuals.append(1) or assemble(*a, **k))
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=8))
    sol, _ = continuation_solve(dp)
    assert len(residuals) >= len(sol.tau_values) + sum(sol.newton_iterations)
    assert len(fields) == len(residuals)


def recorded_stages(monkeypatch, solve):
    """Run ``solve()``; returns (dp, results, solution) per _stages call that returned.

    ``results`` holds what each newton_solve call of it returned, in call
    order, and None for a call that raised.
    """
    newton, stages = solver.newton_solve, solver._stages
    returned, calls = [], []

    def spy_newton(dp, tau, p0, *, run=None):
        calls[-1].append(None)
        calls[-1][-1] = newton(dp, tau, p0, run=run)
        return calls[-1][-1]

    def spy_stages(*args):
        calls.append([])
        sol, diag = stages(*args)
        returned.append((args[0], calls[-1], sol))
        return sol, diag

    monkeypatch.setattr(solver, "newton_solve", spy_newton)
    monkeypatch.setattr(solver, "_stages", spy_stages)
    solve()
    return returned


def assert_stages_match_a_fresh_evaluation(dp, results, sol):
    ws = dp.workspace
    results = [r for r in results if r is not None]
    assert len(results) == len(sol.gap_history) == len(sol.residual_norms)
    for (p, _, rnorm, pnorm), gap, norms in zip(results, sol.gap_history, sol.residual_norms):
        fresh = huber.norm(*fem._pair_components(ws, p))
        assert pnorm.tobytes() == fresh.tobytes()
        u, r2n, primal = solver._stage_record(dp, p, fresh)
        assert u.tobytes() == recover_u(dp, p).tobytes()
        assert gap == primal - solver._dual(dp, u)
        assert norms == (rnorm, r2n)


def test_stage_records_read_the_stage_flux(monkeypatch):
    # ex1_f1_ajump at n=16 backtracks and has stages that take no Newton step,
    # whose record reads the points of their start flux
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_ajump", n=16))
    (dp, results, sol), = recorded_stages(monkeypatch, lambda: continuation_solve(dp))
    assert 0 in sol.newton_iterations and None not in results
    assert_stages_match_a_fresh_evaluation(dp, results, sol)


def test_stage_records_read_the_stage_flux_after_a_predictor_retry(primal_tail, monkeypatch):
    # the pour of test_pour_whose_secant_start_stalls_finishes, with its
    # primal 12-stage warm tail: a stage of the first step's fallback fails
    # from the secant predictor and reruns from the last converged flux
    alpha, dt = 1.2816002203394372, 0.26814811804337924
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=6, ny=6, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(alpha), source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(-1.0, -0.4609375, -0.96875), inside=4.594128210184986)
    spec = gc.EvolutionSpec(problem=problem, t_final=2 * dt, dt=dt, rate=rate)
    runs = recorded_stages(monkeypatch, lambda: gc.run_evolution(spec))
    assert len(runs) == 2 and None in runs[0][1]
    for dp, results, sol in runs:
        assert_stages_match_a_fresh_evaluation(dp, results, sol)


@pytest.mark.parametrize("name", sorted(gc.SCENARIOS))
def test_stage_gap_matches_the_norm_of_the_interleaved_field(solve_cache, name):
    # the stage objective takes |p_h| from the x and y values of the field;
    # np.linalg.norm over the interleaved field is the reference formula
    dp, sol, _ = solve_cache(name, 8)
    ws = dp.workspace
    u = recover_u(dp, sol.p)
    misfit = ((dp.B @ sol.p) / dp.areas)[:, None] - dp.source_q
    pnorm = np.linalg.norm(fem.rt0_at_quadrature(ws, sol.p), axis=-1)
    primal = 0.5 * fem.integrate(ws, misfit**2) + fem.integrate(ws, dp.alpha_q, pnorm)
    gap = primal - float(dp.load @ u - 0.5 * np.sum(dp.areas * u * u))
    assert sol.gap_history[-1] == pytest.approx(gap, rel=1e-15, abs=0.0)


def test_factor_fill_of_schur_matrix():
    # symmetric-mode minimum-degree ordering: ~74k entries; COLAMD gives ~132k
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=32))
    p = np.zeros(dp.mesh.num_edges)
    S = dp.schur(fem.assemble_huber_jacobian(dp.mesh, p, dp.alpha_q, 10.0, ws=dp.workspace))
    _, report = solve_spd(S, -residual(dp, p, 10.0))
    assert report.factor_nnz < 100_000


def test_continuation_accepts_backward_stable_steps():
    # with tau_factor=3 some Newton systems have ||S|| ||x|| >> ||b|| (~1e4 * 1e2
    # against 0.08): the relative residual misses the linear tolerance by rounding alone,
    # while the backward error is ~1e-16; such steps must be taken, not abort
    dp = DiscreteProblem.from_spec(gc.scenario("ex2_a15", n=32))
    sol, diag = continuation_solve(dp, SolverConfig(tau_factor=3.0))
    assert sol.tau_final <= 1e-6
    assert max(max(norms) for norms in sol.residual_norms) <= 1e-8
    assert -1e-7 <= diag.duality_gap <= 1e-3
    assert diag.max_gradient_ratio <= 1.0 + 1e-12


def test_secant_predictor_keeps_coarse_schedule_in_reach():
    # with tau_factor=3, starting each stage from the last flux leaves Newton
    # stalled at tau=1.37e-2 (LineSearchStalled); the secant predictor through
    # the last two converged stages starts close enough to finish
    dp = DiscreteProblem.from_spec(gc.scenario("ex2_a25", n=32))
    sol, diag = continuation_solve(dp, SolverConfig(tau_factor=3.0))
    assert sol.tau_final <= 1e-6
    assert max(max(norms) for norms in sol.residual_norms) <= 1e-8
    assert -1e-7 <= diag.duality_gap <= 1e-3
    assert diag.max_gradient_ratio <= 1.0 + 1e-12


def test_continuation_from_given_flux_runs_the_warm_tail(solve_cache):
    dp, sol, _ = solve_cache("ex1_f1_a1", 8)
    assert (sol.start, sol.discarded_newton_steps) == ("cold", 0)
    again, _ = continuation_solve(dp, p0=sol.p)
    assert (again.start, again.discarded_newton_steps) == ("warm", 0)
    assert len(again.newton_iterations) == solver.WARM_STAGES
    assert np.array_equal(again.tau_values, tau_schedule(SolverConfig())[-solver.WARM_STAGES:])
    assert np.max(np.abs(again.u - sol.u)) <= 1e-8
    # a flux of the wrong length would fail as a bare IndexError from a mask,
    # and a NaN flux as a linear solve
    for p0 in (sol.p[:-1], np.zeros((dp.mesh.num_edges, 1))):
        with pytest.raises(ValueError, match="one value per edge"):
            continuation_solve(dp, p0=p0)
    with pytest.raises(ValueError, match="must be finite"):
        continuation_solve(dp, p0=np.where(sol.p == sol.p.max(), math.nan, sol.p))


def newton_failing_at(monkeypatch, *calls):
    """Make the given calls of newton_solve (0-based) fail after 2 steps.

    A failing call adds its 2 steps to ``run.steps`` and raises with the
    run's count, as newton_solve does.  Returns the Newton steps of the
    calls that succeed, in call order.
    """
    real, steps, call = solver.newton_solve, [], itertools.count()

    def newton(dp, tau, p0, *, run=None):
        if next(call) in calls:
            run.steps += 2
            raise LineSearchStalled("injected failure", tau, 1.0, run.steps)
        result = real(dp, tau, p0, run=run)
        steps.append(result[1])
        return result

    monkeypatch.setattr(solver, "newton_solve", newton)
    return steps


def test_failed_warm_tail_reruns_the_full_schedule(solve_cache, monkeypatch):
    # the warm tail fails at its third stage, from the secant predictor and
    # again from the last converged stage: its two converged stages and the
    # failed attempts' 2 + 2 steps are discarded, and the full schedule
    # reruns from zero, which is the cold solve.  The fallback runs on the
    # tail's NewtonRun, so its counts are those of every factorization and
    # PCG iteration of the call, the tail's included: more than the cold solve's
    dp, sol, _ = solve_cache("ex1_f1_a1", 8)
    steps = newton_failing_at(monkeypatch, 2, 3)
    factorizations, cg_iterations = [], []
    splu, pcg = linalg.spla.splu, linalg._pcg
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))

    def counted_pcg(*args):
        x, iterations = pcg(*args)
        cg_iterations.append(iterations)
        return x, iterations

    monkeypatch.setattr(linalg, "_pcg", counted_pcg)
    again, _ = continuation_solve(dp, p0=0.5 * sol.p)
    assert again.start == "fallback"
    assert again.discarded_newton_steps == sum(steps[:2]) + 2 + 2
    assert again.newton_iterations == sol.newton_iterations == steps[2:]
    assert again.factorizations == len(factorizations) > sol.factorizations
    assert again.cg_iterations == sum(cg_iterations) > sol.cg_iterations
    assert np.array_equal(again.p, sol.p)
    # a fallback failing at its fifth stage, both attempts, counts every
    # Newton step, the discarded tail's included
    monkeypatch.undo()
    steps = newton_failing_at(monkeypatch, 2, 3, 8, 9)
    with pytest.raises(LineSearchStalled) as err:
        continuation_solve(dp, p0=0.5 * sol.p)
    assert len(steps) == 2 + 4
    assert err.value.newton_steps == sum(steps) + 4 * 2
    assert err.value.tau == tau_schedule(SolverConfig())[4]


def test_stage_failing_from_the_predictor_reruns_from_the_last_stage(solve_cache, monkeypatch):
    # the warm tail's third stage fails from the secant predictor and is run
    # again from the second stage's flux; the failed attempt's 2 steps are
    # discarded and the tail holds.  A failure in the first two stages, which
    # have no predictor, is not retried
    dp, sol, _ = solve_cache("ex1_f1_a1", 8)
    steps = newton_failing_at(monkeypatch, 2)
    again, _ = continuation_solve(dp, p0=0.5 * sol.p)
    assert (again.start, again.discarded_newton_steps) == ("warm", 2)
    assert again.newton_iterations == steps and len(steps) == solver.WARM_STAGES
    assert max(max(norms) for norms in again.residual_norms) <= 1e-8
    monkeypatch.undo()
    steps = newton_failing_at(monkeypatch, 1)
    again, _ = continuation_solve(dp, p0=0.5 * sol.p)
    assert (again.start, again.discarded_newton_steps) == ("fallback", steps[0] + 2)


def dual_fields_seen(monkeypatch, *calls):
    """Record ``run.q`` at the start and the end of each newton_solve call.

    The given calls (0-based) run their real Newton steps and then fail, so
    they leave ``run.q`` moved.  Returns the list of (q at the call's start,
    q at its end), in call order.
    """
    real, seen, call = solver.newton_solve, [], itertools.count()

    def newton(dp, tau, p0, *, run=None):
        seen.append([run.q, None])
        try:
            result = real(dp, tau, p0, run=run)
        finally:
            seen[-1][1] = run.q
        if next(call) in calls:
            raise LineSearchStalled("injected failure", tau, 1.0, run.steps)
        return result

    monkeypatch.setattr(solver, "newton_solve", newton)
    return seen


def test_warm_tail_carries_its_dual_field_and_a_retry_restores_it(solve_cache, monkeypatch):
    # the tail's third stage fails from the secant predictor after moving q;
    # the retry from the second stage's flux starts from the q that the
    # failed attempt started with, and the last stage takes the primal step
    dp, sol, _ = solve_cache("ex1_f1_a1", 8)
    seen = dual_fields_seen(monkeypatch, 2)
    again, _ = continuation_solve(dp, p0=0.5 * sol.p)
    assert again.start == "warm" and len(seen) == solver.WARM_STAGES + 1
    (start, end0), (carried, end1), (failed, lost), (retry, _), (last, _) = seen
    assert start is not None and carried is end0 and failed is end1
    assert retry is failed and lost is not failed
    assert last is None
    # a tail whose second stage fails falls back with q dropped
    monkeypatch.undo()
    seen = dual_fields_seen(monkeypatch, 1)
    again, _ = continuation_solve(dp, p0=0.5 * sol.p)
    assert again.start == "fallback"
    assert all(q is not None for q, _ in seen[:2])
    assert all(q is None and end is None for q, end in seen[2:])
    # a cold run never sets q
    monkeypatch.undo()
    seen = dual_fields_seen(monkeypatch)
    continuation_solve(dp)
    assert all(q is None and end is None for q, end in seen)


def test_cold_solve_keeps_its_counts():
    # cold runs take the primal step on every stage; these are the counts
    # of the default schedule's ex1_f1_a1 solve at n=16
    sol, _ = continuation_solve(DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=16)))
    assert (sol.start, sum(sol.newton_iterations), sol.factorizations,
            sol.cg_iterations) == ("cold", 120, 9, 435)


def test_one_factorization_per_newton_step(monkeypatch):
    # the steps that miss the relative residual test only by rounding (see
    # test_continuation_accepts_backward_stable_steps) must not pay for a
    # second, shifted factorization; every factorization is one step's
    # refactor, and the kept factor serves the other steps
    factorizations, reports = [], []
    splu, real = linalg.spla.splu, linalg.solve_spd
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))

    def solve(A, b, **kw):
        result = real(A, b, **kw)
        reports.append(result[1])
        return result

    monkeypatch.setattr(linalg, "solve_spd", solve)
    dp = DiscreteProblem.from_spec(gc.scenario("ex2_a15", n=32))
    sol, _ = continuation_solve(dp, SolverConfig(tau_factor=3.0))
    assert len(reports) == sum(sol.newton_iterations)
    assert len(factorizations) == sum(r.refactored for r in reports) == sol.factorizations
    assert not any(r.regularized for r in reports)
    assert len(factorizations) < sum(sol.newton_iterations)
    assert sol.cg_iterations == sum(r.cg_iterations for r in reports)
    assert sol.factor_nnz == max(r.factor_nnz for r in reports if r.refactored)


def test_lone_newton_solve_keeps_one_factor_across_its_steps(monkeypatch):
    # without a cache newton_solve makes its own and runs the step the
    # continuation runs: the factor of its first step serves the later ones
    dp = DiscreteProblem.from_spec(gc.scenario("ex2_a15", n=16))
    taus = tau_schedule(SolverConfig())
    previous, _ = continuation_solve(dp, SolverConfig(tau_min=taus[-2]))
    assert previous.tau_final == taus[-2]
    factorizations, splu = [], linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    p, iters, rnorm, _ = newton_solve(dp, taus[-1], previous.p)
    assert rnorm <= solver.NEWTON_TOL
    assert iters >= 3
    assert 1 <= len(factorizations) < iters


def test_intermediate_stages_solve_to_the_forcing_floor(monkeypatch):
    # an intermediate stage asks PCG for no more than its step needs to reach
    # NEWTON_TOL, max(|r|, FORCING_SAFETY * NEWTON_TOL / |r|); the last stage,
    # whose answer the run returns, keeps eta = |r|
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=16))
    taus = tau_schedule(SolverConfig())
    stage, asked = [None], []
    newton, solve = solver.newton_solve, linalg.solve_spd

    def stage_newton(dp, tau, p0, *, run=None):
        stage[0] = tau
        return newton(dp, tau, p0, run=run)

    def recording_solve(A, b, **kw):
        asked.append((stage[0], kw["rtol"], float(np.linalg.norm(b))))
        return solve(A, b, **kw)

    monkeypatch.setattr(solver, "newton_solve", stage_newton)
    monkeypatch.setattr(linalg, "solve_spd", recording_solve)
    continuation_solve(dp)
    assert {tau for tau, _, _ in asked} == set(taus)
    floored = 0
    for tau, rtol, bnorm in asked:
        if tau == taus[-1]:
            assert rtol == pytest.approx(min(0.1, bnorm), rel=1e-12)
        else:
            assert rtol == pytest.approx(min(0.1, max(bnorm, 0.5e-8 / bnorm)), rel=1e-12)
            floored += 0.5e-8 / bnorm > bnorm
    assert floored > 0          # the floor binds on some intermediate step


def test_scenarios_at_n16_factor_at_most_100_times(solve_cache):
    # the forcing floor lets the kept factor serve the loose steps of the
    # intermediate stages: 78 factorizations, against 126 with eta = |r| on
    # every stage
    assert sum(solve_cache(name, 16)[1].factorizations for name in gc.SCENARIOS) <= 100


def test_repeated_runs_repeat_exactly():
    # the kept factor lives for one run, so a second solve of the same
    # problem makes the same steps, factorizations and flux
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=16))
    first, _ = continuation_solve(dp)
    second, _ = continuation_solve(dp)
    assert second.newton_iterations == first.newton_iterations
    assert (second.factorizations, second.cg_iterations) == (
        first.factorizations, first.cg_iterations)
    assert 1 <= first.factorizations < sum(first.newton_iterations)
    assert np.array_equal(second.p, first.p)


@pytest.mark.parametrize("name", ["ex1_f1_a1", "ex4_measure", "ex2_a15"])
def test_lagged_factor_matches_factoring_every_step(name, monkeypatch):
    # both runs stop at |r| <= NEWTON_TOL, not at rounding, so u agrees to
    # what that stop leaves: 3.6e-15, 7.8e-12 and 3.4e-15 here
    dp = DiscreteProblem.from_spec(gc.scenario(name, n=16))
    lagged, _ = continuation_solve(dp)
    real = linalg.solve_spd
    monkeypatch.setattr(linalg, "solve_spd",
                        lambda A, b, tol=1e-10, *, cache=None, rtol=None: real(A, b, tol))
    direct, _ = continuation_solve(dp)
    assert direct.factorizations == direct.cg_iterations == 0
    assert lagged.factorizations < sum(lagged.newton_iterations)
    assert max(max(norms) for norms in lagged.residual_norms) <= 1e-8
    assert np.max(np.abs(lagged.u - direct.u)) <= 1e-11


def test_recover_u_mean_of_source():
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=3, ny=3, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(2.0)))
    u = recover_u(dp, np.zeros(dp.mesh.num_edges))
    assert np.allclose(u, 2.0)


def test_recover_u_constructed_divergence():
    # field with unit divergence and zero source gives u = -1 everywhere
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=3, ny=3, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0)))
    p = fem.interpolate_rt0(dp.mesh, lambda x, y: np.stack([0.5 * x, 0.5 * y], axis=-1))
    u = recover_u(dp, p)
    assert np.allclose(u, -1.0, atol=1e-13)


def test_recover_u_from_interpolated_exact_flux():
    u_ex, p_ex = gc.exact_solution_ex1(1.0, 1.0)
    errs = []
    for n in (8, 16, 32):
        dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=n))
        u = recover_u(dp, fem.interpolate_rt0(dp.mesh, p_ex))
        errs.append(fem.l2_error_p0(dp.mesh, u, u_ex, ws=dp.workspace))
    assert errs[1] <= 0.75 * errs[0]
    assert errs[2] <= 0.75 * errs[1]


def test_continuation_zero_source():
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=4, ny=4, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0)))
    sol, diag = continuation_solve(dp)
    assert np.allclose(sol.u, 0.0) and np.allclose(sol.p, 0.0)
    assert all(k == 0 for k in sol.newton_iterations)
    assert diag.duality_gap == 0.0


def test_continuation_small_run_full_contract(solve_cache):
    dp, sol, diag = solve_cache("ex1_f1_a1", 8)
    assert len(sol.tau_values) == 63
    assert sol.tau_final <= 1e-6
    for r1n, r2n in sol.residual_norms:
        assert r1n <= 1e-8 and r2n <= 1e-8
    # balance equation holds at the returned state
    assert np.linalg.norm(dp.areas * sol.u + dp.B @ sol.p - dp.load) <= 1e-8
    # pointwise certificate
    g = recovered_gradient(dp, sol.p, sol.tau_final)
    assert np.max(np.linalg.norm(g, axis=-1) - dp.alpha_c) <= 1e-12
    # gap tail is non-increasing up to jitter
    tail = sol.gap_history[-10:]
    for a, b in zip(tail, tail[1:]):
        assert b <= a + 1e-10
    assert diag.duality_gap >= -1e-7


def test_continuation_converges_toward_exact_solution(solve_cache):
    dp, sol, _ = solve_cache("ex1_f1_a1", 8)
    u_ex, p_ex = gc.exact_solution_ex1(1.0, 1.0)
    assert fem.l2_error_p0(dp.mesh, sol.u, u_ex, ws=dp.workspace) <= 0.05
    assert fem.l2_error_rt0(dp.mesh, sol.p, p_ex, ws=dp.workspace) <= 0.06


def test_warm_start_consistency_with_finer_schedule():
    spec = gc.scenario("ex1_f1_a1", n=8)
    dp = DiscreteProblem.from_spec(spec)
    sol_a, _ = continuation_solve(dp, SolverConfig(tau_factor=1.30))
    sol_b, _ = continuation_solve(dp, SolverConfig(tau_factor=1.15))
    diff = fem.l2_error_p0(dp.mesh, sol_a.u,
                           lambda x, y: sol_b.u[dp.mesh.locate_triangle(x, y)],
                           ws=dp.workspace)
    assert diff <= 1e-6


def test_diagnostics_zero_problem():
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=2, ny=2, boundary=gc.ALL_DIRICHLET,
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0)))
    diag = diagnostics(dp, np.zeros(dp.mesh.num_edges),
                       np.zeros(dp.mesh.num_triangles), 1e-6)
    assert diag.primal_value == 0.0
    assert diag.dual_value == 0.0
    assert diag.duality_gap == 0.0
    assert diag.feasibility_violation == 0.0


def test_full_diagnostics_once_per_run(monkeypatch):
    # each stage records its gap from the objectives alone; the run's
    # diagnostics reuse the last stage's objectives, and the recovered
    # gradient, ratio and violation are computed once, for the last stage
    calls, real = [], solver.recovered_gradient
    monkeypatch.setattr(solver, "recovered_gradient", lambda *a: calls.append(a) or real(*a))
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=8))
    sol, diag = continuation_solve(dp)
    assert len(calls) == 1 and len(sol.gap_history) == 63
    assert diag == diagnostics(dp, sol.p, sol.u, sol.tau_final)
    assert sol.gap_history[-1] == diag.duality_gap


def test_recovered_gradient_zero_flux():
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    g = recovered_gradient(dp, np.zeros(dp.mesh.num_edges), 1e-3)
    assert np.allclose(g, 0.0)


def test_recovered_gradient_active_and_plateau(solve_cache):
    # constraint active away from ridges for f=1; plateau gradient ~ 0 for f=0.25
    dp, sol, _ = solve_cache("ex1_f1_a1", 16)
    g = np.linalg.norm(recovered_gradient(dp, sol.p, sol.tau_final), axis=-1)
    active = np.mean(g >= 0.999 * dp.alpha_c)
    assert active >= 0.95

    dp2, sol2, _ = solve_cache("ex1_f025_a1", 16)
    g2 = np.linalg.norm(recovered_gradient(dp2, sol2.p, sol2.tau_final), axis=-1)
    centroids = dp2.workspace.centroids
    plateau = np.max(np.abs(centroids - 0.5), axis=1) <= 0.1  # deep inside the flat top
    assert np.max(g2[plateau]) <= 1e-3


def test_continuation_annotates_failing_stage(monkeypatch):
    dp = DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
    cfg = SolverConfig()
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    solves = []
    real = linalg.solve_spd
    monkeypatch.setattr(linalg, "solve_spd", lambda A, b, **kw: solves.append(1) or real(A, b, **kw))
    with pytest.raises(MaxIterationsExceeded) as err:
        continuation_solve(dp, cfg)
    # the error reports the stage of the schedule that failed, and every
    # linear solve of the schedule, the completed stages' included
    assert np.any(np.isclose(err.value.tau, tau_schedule(cfg)))
    assert err.value.newton_steps == len(solves) > 1


halfplanes = st.builds(gc.HalfPlane, *[st.floats(-1.0, 1.0)] * 3)
bounds = st.floats(0.25, 4.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(halfplanes, bounds), min_size=1, max_size=3), bounds,
       st.builds(gc.HalfPlaneSource, halfplanes, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.integers(1, 8), st.sets(st.sampled_from(BOUNDARY_SIDES)))
@example([(gc.HalfPlane(0.0, -1.0, -0.75), 3.0)], 0.75,
         gc.HalfPlaneSource(gc.HalfPlane(0.0, 0.0, 0.0), 1.0), 1, set())
def test_random_problems_meet_their_certificates(regions, default, source, n, neumann):
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=gc.UNIT_SQUARE, nx=n, ny=n, boundary=gc.BoundaryPartition(frozenset(neumann)),
        alpha=gc.PiecewiseAlpha(regions=regions, default=default), source=source))
    sol, diag = continuation_solve(dp)
    # the gap is a sum of nonnegative terms plus r . p, r the flux residual
    # that Newton leaves below NEWTON_TOL; on the example above both the gap
    # and r . p are -5.8e-10
    r = residual(dp, sol.p, sol.tau_final)
    assert diag.duality_gap - r @ sol.p >= -1e-10
    assert diag.max_gradient_ratio <= 1.0 + 1e-9
    if len(neumann) == 4:          # no flux leaves: the held mass is the load
        assert abs(np.sum(dp.areas * sol.u) - np.sum(dp.load)) <= 1e-12
