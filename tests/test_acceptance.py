"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The measure-bound refinement pair defaults to n = 64/128; set
GRADCON_ACCEPT_LARGE=1 to run it at n = 128/256 instead (several minutes).
"""

import os
import time

import numpy as np

import gradcon as gc
from gradcon import fem
from gradcon.solver import SolverConfig, convergence_study, recovered_gradient, tau_schedule

SCENARIO_N = 64
NEWTON_TOL = 1e-8


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: {status} - {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def max_jump_across_midline(dp, u):
    """Largest drop of u between the cell rows touching y = 0.5."""
    n = dp.mesh.nx
    i = np.arange(n)
    above = u[2 * ((n // 2) * n + i)]          # lower triangles of the row above
    below = u[2 * ((n // 2 - 1) * n + i) + 1]  # upper triangles of the row below
    return float(np.max(above - below))


def test_criterion_1_convergence_rates():
    start = time.perf_counter()

    # precondition: the closed-form flux orientation passes the balance oracle
    u_ex, p_ex = gc.exact_solution_ex1(1.0, 1.0)
    dp = gc.DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=32))
    P = fem.interpolate_rt0(dp.mesh, p_ex)
    U = fem.project_p0(dp.mesh, u_ex, ws=dp.workspace)
    res = np.linalg.norm(dp.areas * U + dp.B @ P - dp.load)
    res_flipped = np.linalg.norm(dp.areas * U + dp.B @ (-P) - dp.load)
    assert res <= 2.0 * dp.mesh.h and res_flipped > 10.0 * res

    study = convergence_study("ex1_f1_a1", [8, 16, 32, 64])
    elapsed = time.perf_counter() - start
    ok = study.rate_u >= 0.9 and study.rate_p >= 0.9 and elapsed <= 300.0
    ok = ok and all(a > b for a, b in zip(study.err_u, study.err_u[1:]))
    _report(1, "refinement study reaches first-order rates", ok,
            f"rate_u={study.rate_u:.3f}, rate_p={study.rate_p:.3f}, {elapsed:.0f}s")


def test_criterion_2_solver_fidelity(solve_cache):
    taus = tau_schedule(SolverConfig())
    enumerated = [10.0]
    while enumerated[-1] > 1e-6:
        enumerated.append(enumerated[-1] / 1.30)
    schedule_ok = (np.allclose(taus, enumerated, rtol=1e-15)
                   and len(taus) == 63 and taus[-1] <= 1e-6 < taus[-2])

    worst = 0.0
    for name in gc.SCENARIOS:
        _, sol, _ = solve_cache(name, SCENARIO_N)
        assert len(sol.tau_values) == len(taus)
        for r1n, r2n in sol.residual_norms:
            worst = max(worst, r1n, r2n)
    ok = schedule_ok and worst <= NEWTON_TOL
    _report(2, "all stages of all runs converge below 1e-8", ok,
            f"worst residual {worst:.2e}, schedule length {len(taus)}")


def test_criterion_3_plateau_heights(solve_cache):
    _, sol_a, _ = solve_cache("ex1_f025_a1", SCENARIO_N)
    _, sol_b, _ = solve_cache("ex1_f01_a1", SCENARIO_N)
    max_a = float(sol_a.u.max())
    max_b = float(sol_b.u.max())
    ok = abs(max_a - 0.25) <= 0.01 and abs(max_b - 0.10) <= 0.01
    _report(3, "plateau heights match min(f, alpha/2)", ok,
            f"max_u(f=0.25)={max_a:.4f}, max_u(f=0.1)={max_b:.4f}")


def test_criterion_4_feasibility_certificate(solve_cache):
    worst_excess = -np.inf
    for name in gc.SCENARIOS:
        dp, sol, _ = solve_cache(name, SCENARIO_N)
        g = np.linalg.norm(recovered_gradient(dp, sol.p, sol.tau_final), axis=-1)
        worst_excess = max(worst_excess, float(np.max(g - dp.alpha_c)))
    dp, sol, _ = solve_cache("ex1_f1_a1", SCENARIO_N)
    g = np.linalg.norm(recovered_gradient(dp, sol.p, sol.tau_final), axis=-1)
    active_area = float(np.sum(dp.areas[g >= 0.999 * dp.alpha_c]) / np.sum(dp.areas))
    ok = worst_excess <= 1e-12 and active_area >= 0.95
    _report(4, "pointwise bound holds and the constraint is active", ok,
            f"max excess {worst_excess:.2e}, active area {active_area:.3f}")


def test_criterion_5_strong_duality(solve_cache):
    _, sol, diag = solve_cache("ex1_f1_a1", SCENARIO_N)
    gap = diag.duality_gap
    tail = sol.gap_history[-10:]
    monotone = all(b <= a + 1e-10 for a, b in zip(tail, tail[1:]))
    ok = -1e-7 <= gap <= 1e-3 and monotone
    _report(5, "duality gap small, nonnegative, and settling", ok,
            f"gap={gap:.3e}, tail monotone={monotone}")


def test_criterion_6_measure_bound_jump(solve_cache):
    if os.environ.get("GRADCON_ACCEPT_LARGE"):
        pair = (128, 256)
    else:
        pair = (64, 128)
    jumps = []
    for n in pair:
        dp, sol, _ = solve_cache("ex4_measure", n)
        for r1n, r2n in sol.residual_norms:
            assert max(r1n, r2n) <= NEWTON_TOL
        jumps.append(max_jump_across_midline(dp, sol.u))
    coarse, fine = jumps
    ok = (coarse >= 0.05 and fine >= 0.05 and fine <= 100.0 and coarse <= 100.0
          and fine >= coarse - 0.01)
    _report(6, "line-measure bound produces a stable jump across y=0.5", ok,
            f"jump(n={pair[0]})={coarse:.4f}, jump(n={pair[1]})={fine:.4f}")


def test_criterion_7_conservation():
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=16, ny=16,
                             boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0),
                             source=gc.ConstantSource(1.0))
    spec = gc.EvolutionSpec(problem=problem, rate=gc.ConstantSource(1.0),
                            t_final=0.5, dt=0.1)
    traj = gc.run_evolution(spec)
    balances = [s.mass_balance for s in traj.steps]
    worst = max(abs(b) for b in balances)
    ok = len(balances) == 5 and worst <= 1e-7
    _report(7, "per-step mass balance closes with pinned boundary flux", ok,
            f"worst balance {worst:.2e}")


def test_pour_reaching_the_bound():
    # criterion 7 pours evenly and never moves flux; this pour piles material
    # against the gradient bound, so the balance runs through the flux path
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=16, ny=16,
                             boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0),
                             source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, 0.5), inside=2.0)
    spec = gc.EvolutionSpec(problem=problem, rate=rate, t_final=0.2, dt=0.1)
    traj = gc.run_evolution(spec)
    assert len(traj.steps) == 2
    for st in traj.steps:
        assert sum(st.newton_iterations) > 0
        assert abs(st.mass_balance) <= 1e-12
        assert 1.0 - 1e-9 <= st.max_gradient_ratio <= 1.0 + 1e-12


def test_criterion_8_unit_property_suites():
    import test_fem
    import test_huber
    import test_linalg

    start = time.perf_counter()
    test_huber.test_gradient_matches_finite_differences()
    test_huber.test_hessian_matches_finite_differences()
    test_fem.test_commuting_boundary_flux_identity()
    test_fem.test_divergence_of_identity_interpolant()
    test_fem.test_huber_jacobian_psd()
    test_fem.test_huber_jacobian_symmetric()
    test_linalg.test_solve_contract_many_random_systems()
    elapsed = time.perf_counter() - start
    ok = elapsed <= 60.0
    _report(8, "kernel, assembly, and solver property checks", ok,
            f"{elapsed:.1f}s")
