import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcon as gc
from gradcon import evolution as ev
from gradcon import fem, huber, linalg, solver
from gradcon.solver import DiscreteProblem, MaxIterationsExceeded, newton_solve, recover_u


def make_spec(nx=8, ny=8, boundary=gc.ALL_NEUMANN, alpha=1.0, rate=0.0,
              t_final=0.3, dt=0.1, u0=None, **kw):
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=nx, ny=ny, boundary=boundary,
                             alpha=gc.ConstantAlpha(alpha),
                             source=gc.ConstantSource(rate))
    return ev.EvolutionSpec(problem=problem, rate=gc.ConstantSource(rate),
                            t_final=t_final, dt=dt, u0=u0, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(dt=0.0)
    with pytest.raises(ValueError):
        make_spec(t_final=0.05, dt=0.1)
    for t_final, dt in ((float("nan"), 0.1), (float("inf"), 0.1), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            make_spec(t_final=t_final, dt=dt)
    # t_final / dt overflows to inf, or counts 1e18 steps: rejected, never marched
    for t_final, dt in ((1e300, 1e-300), (1e9, 1e-9)):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            make_spec(t_final=t_final, dt=dt)
    assert make_spec(t_final=float(ev.MAX_STEPS), dt=1.0).t_final == ev.MAX_STEPS


def test_zero_rate_zero_state_stays_zero():
    traj = ev.run(make_spec(rate=0.0, t_final=0.3, dt=0.1))
    assert len(traj.times) == 4
    for u in traj.u:
        assert np.allclose(u, 0.0)


def test_zero_rate_feasible_state_is_fixed_point():
    # smooth zero-trace profile with gradient well inside the bound; gentle
    # enough that the finite-h projection drift stays below the contract
    u0 = lambda x, y: 0.02 * (x * (1 - x) + y * (1 - y))
    spec = make_spec(boundary=gc.ALL_DIRICHLET, rate=0.0, t_final=0.1, dt=0.1, u0=u0)
    traj = ev.run(spec)
    dp = DiscreteProblem.from_spec(spec.problem)
    diff = traj.u[1] - traj.u[0]
    l2 = np.sqrt(np.sum(dp.areas * diff * diff))
    assert l2 <= 1e-6


def test_constant_rate_unconstrained_growth():
    # huge bound, every side flux-pinned: the step is the plain quadratic
    # minimizer u = u_prev + k * rate
    spec = make_spec(alpha=1e6, rate=3.0, t_final=0.1, dt=0.1)
    traj = ev.run(spec)
    assert np.allclose(traj.u[1], 0.3, atol=1e-8)


def test_trajectory_times_and_determinism():
    spec = make_spec(rate=1.0, t_final=0.25, dt=0.1)  # ceil -> 3 steps
    traj = ev.run(spec)
    assert traj.times == [0.0, pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]
    assert traj.times == [0.0] + [s.t for s in traj.steps]
    traj2 = ev.run(spec)
    for a, b in zip(traj.u, traj2.u):
        assert np.array_equal(a, b)


def test_conservation_with_all_sides_pinned():
    spec = make_spec(rate=1.0, alpha=1.0, t_final=0.2, dt=0.1)
    traj = ev.run(spec)
    assert all(abs(s.mass_balance) <= 1e-8 for s in traj.steps)
    # poured mass accounting: one unit rate over the unit square
    assert traj.steps[0].poured == pytest.approx(0.1, rel=1e-12)


def test_poured_mass_uses_the_step_length():
    # n * dt is not a multiple of dt in floating point: from step 3 on,
    # t1 - t0 differs from dt, and the poured mass must use the length
    # that built the load
    spec = ev.EvolutionSpec(problem=make_spec(nx=4, ny=4).problem, t_final=0.7, dt=0.1,
                            rate=gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, 0.5), inside=2.0))
    traj = ev.run(spec)
    ws = traj.problem.workspace
    rate_q = fem.at_qpoints(ws, spec.rate.evaluate)
    assert len(traj.steps) == 7
    assert any(t1 - t0 != spec.dt for t0, t1 in zip(traj.times, traj.times[1:]))
    for t0, t1, s in zip(traj.times, traj.times[1:], traj.steps):
        assert s.poured == (t1 - t0) * fem.integrate(ws, rate_q)


def test_mass_balance_does_not_close_with_open_boundary():
    # material escapes through the Dirichlet sides, so the held mass grows
    # by less than the poured mass; the record reports that balance
    spec = make_spec(boundary=gc.ALL_DIRICHLET, rate=1.0, t_final=0.1, dt=0.1)
    traj = ev.run(spec)
    assert len(traj.steps) == 1
    assert traj.steps[0].mass_balance < -1e-3


def test_monotone_growth_and_feasibility():
    spec = make_spec(nx=4, ny=4, rate=2.0, alpha=1.0, t_final=0.4, dt=0.1)
    traj = ev.run(spec)
    mins = [u.min() for u in traj.u]
    for a, b in zip(mins, mins[1:]):
        assert b >= a - 1e-8
    for s in traj.steps:
        assert s.max_gradient_ratio <= 1.0 + 1e-12


def test_step_against_independent_minimizer():
    # one implicit step cross-checked against a quasi-Newton minimizer of the
    # same smoothed flux objective on a 4x4 mesh
    spec = make_spec(nx=4, ny=4, rate=2.0, alpha=1.0, t_final=0.1, dt=0.1)
    dp = DiscreteProblem.from_spec(spec.problem)
    u_prev = np.zeros(dp.mesh.num_triangles)
    tau = 1e-3

    k = spec.dt
    f_eff_q = u_prev[:, None] + k * 2.0 * np.ones_like(dp.source_q)
    sdp = dp.with_load(f_eff_q)

    p_newton, _, _, _ = newton_solve(sdp, tau, np.zeros(dp.mesh.num_edges))

    assert sdp.free.all() == (not spec.problem.boundary.gamma_n_sides)
    free = np.flatnonzero(sdp.free)
    ws = dp.workspace
    w = ws.rule.weights

    def objective(pf):
        p = np.zeros(dp.mesh.num_edges)
        p[free] = pf
        misfit = (sdp.B @ p) / sdp.areas
        misfit = misfit[:, None] - f_eff_q
        data = 0.5 * np.einsum("q,tq,t->", w, misfit**2, ws.areas)
        pq = fem.rt0_at_quadrature(ws, p)
        pen = np.einsum("q,tq,tq,t->", w, sdp.alpha_q, huber.phi(pq, tau), ws.areas)
        return data + pen

    result = scipy.optimize.minimize(objective, np.zeros(free.size), method="L-BFGS-B",
                                     options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-12})
    p_oracle = np.zeros(dp.mesh.num_edges)
    p_oracle[free] = result.x
    u_newton = recover_u(sdp, p_newton)
    u_oracle = recover_u(sdp, p_oracle)
    l2 = np.sqrt(np.sum(dp.areas * (u_newton - u_oracle) ** 2))
    assert l2 <= 1e-5
    assert objective(p_newton[free]) <= result.fun + 1e-12


def test_time_dependent_rate_callable():
    # rate switches off after t = 0.1; second step pours nothing
    def rate(t):
        return gc.ConstantSource(1.0 if t <= 0.1 else 0.0)

    spec = ev.EvolutionSpec(
        problem=gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=4, ny=4,
                               boundary=gc.ALL_NEUMANN,
                               alpha=gc.ConstantAlpha(1.0),
                               source=gc.ConstantSource(0.0)),
        rate=rate, t_final=0.2, dt=0.1)
    traj = ev.run(spec)
    assert traj.steps[0].poured == pytest.approx(0.1)
    assert traj.steps[1].poured == 0.0
    assert np.allclose(traj.u[2], traj.u[1], atol=1e-8)


@pytest.mark.parametrize("u0, match", [
    (lambda x, y: np.where(x > 0.5, np.nan, 0.0), "must be finite"),
], ids=["callable_nan"])
def test_initial_state_validation(u0, match):
    # a non-finite state is rejected up front, not blamed on the linear solve
    spec = make_spec(nx=4, ny=4, u0=u0)
    with pytest.raises(ValueError, match=match):
        ev.run(spec)


def test_initial_state_must_be_a_field():
    # a cell array is not a start state: the spec names u0 at construction,
    # not a TypeError from the first projection
    for u0 in (np.zeros(8), 0.0):
        with pytest.raises(ValueError, match="u0 must be a field"):
            make_spec(nx=2, ny=2, u0=u0)


def pour_to_the_bound():
    # the pour of test_acceptance::test_pour_reaching_the_bound
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=16, ny=16, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, 0.5), inside=2.0)
    return ev.EvolutionSpec(problem=problem, rate=rate, t_final=0.2, dt=0.1)


def test_warm_steps_match_cold_steps():
    spec = pour_to_the_bound()
    traj = ev.run(spec)
    assert [st.start for st in traj.steps] == ["warm", "warm"]
    assert len(traj.steps[1].newton_iterations) == solver.WARM_STAGES
    # the cold trajectory: every step runs the full schedule from zero
    u = traj.u[0]
    for n in range(1, len(traj.steps) + 1):
        record = ev.step(u, traj.problem, spec, (n - 1) * spec.dt, n * spec.dt)
        assert record.start == "cold"
        assert np.max(np.abs(record.u - traj.u[n])) <= 1e-12
        assert record.tau_final == traj.steps[n - 1].tau_final
        u = record.u


def test_first_step_from_a_nonzero_state_is_warm():
    # the first step's warm tail starts from the zero initial flux, also when
    # the initial state is a slope-3 cone, far outside the feasible set of
    # alpha = 1, and lands where the full schedule does in fewer steps
    cone = lambda x, y: 3.0 * np.maximum(0.0, 0.5 - np.hypot(x - 0.5, y - 0.5))
    spec = make_spec(nx=16, ny=16, rate=1.0, t_final=0.1, dt=0.1, u0=cone)
    traj = ev.run(spec)
    warm = traj.steps[0]
    assert (warm.start, warm.discarded_newton_steps) == ("warm", 0)
    cold = ev.step(traj.u[0], traj.problem, spec, 0.0, spec.dt)
    assert cold.start == "cold"
    assert np.max(np.abs(cold.u - traj.u[1])) <= 1e-12
    assert sum(warm.newton_iterations) < sum(cold.newton_iterations)


def pour_n32(c):
    # the pour-n32 benchmark workload with the poured half-plane x + y <= c
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=32, ny=32, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, c), inside=2.0)
    return ev.EvolutionSpec(problem=problem, rate=rate, t_final=0.5, dt=0.1)


@pytest.mark.parametrize("c", [0.4, 0.5, 0.6])
def test_primal_dual_tail_pours_in_few_newton_steps(c):
    # the primal 12-stage tail took 188 / 198 / 203 Newton steps here, the
    # primal-dual tail of the last 4 stages 109 / 115 / 121 with 55 / 55 / 58
    # factorizations, and the tail that starts at or below WARM_TAU 99 / 103
    # / 104 with 30 / 30 / 29
    traj = ev.run(pour_n32(c))
    assert [st.start for st in traj.steps] == ["warm"] * 5
    assert [st.discarded_newton_steps for st in traj.steps] == [0] * 5
    assert sum(sum(st.newton_iterations) for st in traj.steps) <= 125
    assert sum(st.factorizations for st in traj.steps) <= 36


@pytest.mark.parametrize("c", [0.4, 0.5])
def test_primal_dual_tail_keeps_the_primal_trajectory(c, request):
    # both tails end on a primal stage at the same tau_final; at c = 0.6 the
    # two stop tests (|r| <= 1e-8) leave 1.3e-11 between them on step 2
    traj = ev.run(pour_n32(c))
    request.getfixturevalue("primal_tail")
    primal = ev.run(pour_n32(c))
    assert [st.tau_final for st in traj.steps] == [st.tau_final for st in primal.steps]
    assert max(np.max(np.abs(a - b)) for a, b in zip(traj.u, primal.u)) <= 1e-11


def moving_pour(t_final):
    # a unit time step moves the poured half-plane by a whole unit, so the
    # previous flux is far from the answer: the primal 12-stage warm tail
    # (the primal_tail fixture) stalls on step 2 and the step reruns the full
    # schedule from zero; the primal-dual tail holds
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=16, ny=16, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(2.0), source=gc.ConstantSource(0.0))
    return ev.EvolutionSpec(
        problem=problem,
        rate=lambda t: gc.HalfPlaneSource(gc.HalfPlane(1.0, -1.0, 0.6 - t), inside=3.0),
        t_final=t_final, dt=1.0)


def test_step_record_is_the_step_solution(primal_tail):
    # a step's record is the stationary solve of that step, field for field
    # and bit for bit: a warm step, then one whose warm tail falls back
    spec = moving_pour(t_final=2.0)
    traj = ev.run(spec)
    assert [st.start for st in traj.steps] == ["warm", "fallback"]
    dp = traj.problem
    for n, record in enumerate(traj.steps, start=1):
        t0, t1 = traj.times[n - 1], traj.times[n]
        rate_q = fem.at_qpoints(dp.workspace, spec.rate(0.5 * (t0 + t1)).evaluate)
        load = traj.u[n - 1][:, None] + (t1 - t0) * rate_q
        sol, _ = solver.continuation_solve(dp.with_load(load), spec.config, traj.p[n - 1])
        for name in (f.name for f in dataclasses.fields(solver.DiscreteSolution)):
            mine, theirs = getattr(record, name), getattr(sol, name)
            if isinstance(theirs, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
            else:
                assert mine == theirs, name
        assert record.u is traj.u[n] and record.p is traj.p[n]


def test_step_record_counts_every_factorization_of_its_step(primal_tail, monkeypatch):
    # a record's counts cover its step's whole continuation call: the
    # fallback's factorizations include those of the warm tail it discarded
    # (32 and 55 here; 12 of the 55 are the fallback's own)
    factorizations, per_step = [], []
    splu, step = linalg.spla.splu, ev.step
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))

    def counted_step(*args, **kwargs):
        before = len(factorizations)
        record = step(*args, **kwargs)
        per_step.append(len(factorizations) - before)
        return record

    monkeypatch.setattr(ev, "step", counted_step)
    traj = ev.run(moving_pour(t_final=2.0))
    assert [st.start for st in traj.steps] == ["warm", "fallback"]
    assert [st.factorizations for st in traj.steps] == per_step


def test_failed_warm_tail_falls_back_to_full_schedule(primal_tail, monkeypatch):
    spec = moving_pour(t_final=4.0)
    solves = []
    real = linalg.solve_spd
    monkeypatch.setattr(linalg, "solve_spd", lambda A, b, **kw: solves.append(1) or real(A, b, **kw))
    traj = ev.run(spec)
    assert len(traj.steps) == 4
    assert traj.steps[0].start == "warm"
    assert "fallback" in [st.start for st in traj.steps]
    # every linear solve is a Newton step of some record, the discarded
    # warm tail's included
    assert len(solves) == sum(sum(st.newton_iterations) + st.discarded_newton_steps
                              for st in traj.steps)
    for st in traj.steps:
        assert (st.discarded_newton_steps > 0) == (st.start == "fallback")
        assert 1 <= st.factorizations <= sum(st.newton_iterations)
        assert max(max(norms) for norms in st.residual_norms) <= 1e-8
        assert abs(st.mass_balance) <= 1e-10
        assert st.max_gradient_ratio <= 1.0 + 1e-12


unit = st.floats(-1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), steps=st.integers(2, 3), dt=st.floats(0.02, 0.5),
       alpha=st.floats(0.25, 4.0), rate=st.floats(0.1, 5.0), a=unit, b=unit, c=unit)
def test_random_pours_warm_match_cold(n, steps, dt, alpha, rate, a, b, c):
    # both trajectories stop at Newton |r| <= 1e-8, so they agree to ~1e-8
    # at best, not to rounding
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=n, ny=n, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(alpha), source=gc.ConstantSource(0.0))
    spec = ev.EvolutionSpec(problem=problem, t_final=steps * dt, dt=dt,
                            rate=gc.HalfPlaneSource(gc.HalfPlane(a, b, c), inside=rate))
    warm = ev.run(spec)
    assert len(warm.steps) == steps
    for s in warm.steps:
        assert abs(s.mass_balance) <= 1e-12
        assert s.max_gradient_ratio <= 1.0 + 1e-9
    full_step = ev.step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "step", lambda u, dp, spec, t0, t1, p_prev=None:
                   full_step(u, dp, spec, t0, t1))
        cold = ev.run(spec)
    assert [s.start for s in cold.steps] == ["cold"] * steps
    assert max(np.max(np.abs(uw - uc)) for uw, uc in zip(warm.u, cold.u)) <= 1e-7


def test_pour_whose_secant_start_stalls_finishes(primal_tail):
    # an example of test_random_pours_warm_match_cold: the primal 12-stage
    # warm tail of step 1 fails, and the fallback run stalled from the secant
    # predictor at tau=1.457e-6 (stage 60, LineSearchStalled); that stage now
    # reruns from the last converged flux
    alpha, dt = 1.2816002203394372, 0.26814811804337924
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=6, ny=6, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(alpha), source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(-1.0, -0.4609375, -0.96875), inside=4.594128210184986)
    spec = ev.EvolutionSpec(problem=problem, t_final=2 * dt, dt=dt, rate=rate)
    warm = ev.run(spec)
    assert len(warm.steps) == 2
    for s in warm.steps:
        assert max(max(norms) for norms in s.residual_norms) <= 1e-8
        assert abs(s.mass_balance) <= 1e-12
        assert s.max_gradient_ratio <= 1.0 + 1e-9
    assert warm.steps[0].discarded_newton_steps > 0
    full_step = ev.step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "step", lambda u, dp, spec, t0, t1, p_prev=None:
                   full_step(u, dp, spec, t0, t1))
        cold = ev.run(spec)
    assert max(np.max(np.abs(uw - uc)) for uw, uc in zip(warm.u, cold.u)) <= 1e-7


def test_failed_step_names_step_interval_and_stage(monkeypatch):
    # one Newton step per stage is too few: the first step's warm tail fails,
    # then its full-schedule fallback
    spec = ev.EvolutionSpec(problem=gc.scenario("ex1_f1_a1", n=4), rate=gc.ConstantSource(5.0),
                            t_final=0.1, dt=0.1)
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    solves = []
    real = linalg.solve_spd
    monkeypatch.setattr(linalg, "solve_spd", lambda A, b, **kw: solves.append(1) or real(A, b, **kw))
    with pytest.raises(MaxIterationsExceeded) as err:
        ev.run(spec)
    # the count includes the discarded warm tail's solves
    assert err.value.newton_steps == len(solves)
    cause = err.value.__cause__
    assert isinstance(cause, MaxIterationsExceeded)
    assert (err.value.tau, err.value.r1_norm) == (cause.tau, cause.r1_norm)
    assert str(err.value).startswith("evolution failed at step 1 over [0, 0.1]: ")
    assert str(err.value).count("tau=") == 1
