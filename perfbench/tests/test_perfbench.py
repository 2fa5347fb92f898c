"""Tests of the benchmark's own code: span arithmetic, percentile rule, gate.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gradcon as gc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def tree():
    # solver root [0, 10] with a fem child [1, 4] and a solver child [5, 9]
    # that itself spends [6, 8] in linalg
    return [
        Span(0, None, "solver.newton_solve", "solver", "rep-1", 0.0, 10.0, {"iterations": 1}),
        Span(1, 0, "fem.assemble_huber_residual", "fem", "rep-1", 1.0, 4.0),
        Span(2, 0, "solver.recover_u", "solver", "rep-1", 5.0, 9.0),
        Span(3, 2, "linalg.solve_spd", "linalg", "rep-1", 6.0, 8.0, {"nnz": 7}),
        Span(4, 0, "fem.assemble_huber_residual", "fem", "rep-1", 9.0, 9.5),
        Span(5, 0, "fem.assemble_huber_residual", "fem", "rep-1", 9.5, 9.75),
    ]


def test_self_time_subtracts_direct_children_only():
    s = tree()
    children = spans.children_index(s)
    assert spans.self_time(s[0], children) == pytest.approx(10.0 - 3.0 - 4.0 - 0.5 - 0.25)
    assert spans.self_time(s[2], children) == pytest.approx(2.0)
    assert spans.self_time(s[3], children) == pytest.approx(2.0)


def test_layer_self_time_sees_through_same_layer_children():
    s = tree()
    children = spans.children_index(s)
    # fem 3.75 s and the linalg grandchild 2 s are foreign; recover_u is not
    assert spans.layer_self_time(s[0], children) == pytest.approx(10.0 - 3.75 - 2.0)


def test_solve_metrics_derive_backtracks_from_residual_calls():
    m = spans.solve_metrics(tree())
    # three residual assemblies in one stage: the initial one and two trials
    assert m["fem.residual_calls"] == 3
    assert m["solver.newton_steps"] == 1
    assert m["solver.backtracks"] == 1
    assert m["solver.ls_accept_ratio"] == pytest.approx(0.5)
    assert m["linalg.factor_nnz_p50"] == 7
    assert m["solver.newton_self_s"] == pytest.approx(4.25)


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = spans._wrap(tracer, "fem", "inner", lambda: 1)
    outer = spans._wrap(tracer, "solver", "outer", lambda: inner() + inner())
    assert outer() == 2 and tracer.spans == []      # disabled: records nothing
    with tracer.solve("rep-1"):
        outer()
    root, a, b = tracer.spans
    assert (a.parent, b.parent, root.parent) == (root.id, root.id, None)
    assert {s.solve_id for s in tracer.spans} == {"rep-1"}
    assert (root.duration, a.duration, b.duration) == (5.0, 1.0, 1.0)
    assert spans.self_time(root, spans.children_index(tracer.spans)) == 3.0


def test_install_sees_calls_between_modules_and_restores():
    original = gc.solver.newton_solve
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert gc.solver.newton_solve is not original
        dp = gc.DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
        with tracer.solve("rep-1"):
            sol, _ = gc.continuation_solve(dp)
    finally:
        restore()
    assert gc.solver.newton_solve is original
    m = spans.solve_metrics(tracer.spans)
    assert m["solver.stages"] == len(sol.newton_iterations)
    assert m["solver.newton_steps"] == sum(sol.newton_iterations)
    assert m["linalg.calls"] == m["fem.jacobian_calls"] == m["solver.newton_steps"]
    assert any(s.name == "linalg.splu" for s in tracer.spans)


class FakeReference:
    """A reference that advances a fake clock by ``cost`` per pass."""

    def __init__(self, now, cost, value=1.0):
        self.now, self.cost, self.value = now, cost, value

    def run(self):
        self.now[0] += self.cost
        return self.value

    check = calibrate.Reference.check
    expected = None


def test_calibrator_clock_leaves_out_reference_time_and_scales():
    now = [0.0]
    ref = FakeReference(now, calibrate.REF_NOMINAL_S * 2)   # a host at half speed
    cal = calibrate.Calibrator(every=1.0, reference=ref, timer=lambda: now[0])
    t0 = cal.clock()
    now[0] += 0.5
    cal.maybe_tick()                  # too soon: no pass
    now[0] += 0.7
    cal.maybe_tick()                  # 1.2 s since the warm-up: one pass
    assert len(cal.samples) == 1
    assert cal.clock() - t0 == pytest.approx(1.2)
    assert cal.factor() == pytest.approx(0.5)


def test_calibrator_hooks_a_function_and_restores_it():
    now = [0.0]
    cal = calibrate.Calibrator(every=0.0, reference=FakeReference(now, 0.01),
                               timer=lambda: now[0])
    original = gc.solver.newton_solve
    with cal.between_calls(gc.solver, "newton_solve"):
        assert gc.solver.newton_solve is not original
        dp = gc.DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=4))
        sol, _ = gc.continuation_solve(dp)
    assert gc.solver.newton_solve is original
    assert len(cal.samples) == len(sol.newton_iterations)
    with cal.between_calls(gc.solver, "no_such_function"):
        assert not hasattr(gc.solver, "no_such_function")


def test_reference_checksum_must_repeat():
    ref = calibrate.Reference(m=8, cells=16)
    value = ref.run()
    ref.check(value)
    ref.check(ref.run())
    with pytest.raises(RuntimeError):
        ref.check(value + 1.0)


@pytest.mark.parametrize("n, q, value", [
    (100, 90, 90.1),      # the 90th percentile has exactly ten samples above it
    (50, 81, 40.69),      # p82..p90 would leave fewer than ten above
    (10, 50, 5.5),        # too few samples for any tail: the median
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q, value):
    samples = list(range(n, 0, -1))               # 1..n, unsorted
    got_q, got = workloads.tail_percentile(samples, 90)
    assert got_q == q
    assert got == pytest.approx(value)
    if q > 50:
        assert sum(1 for x in samples if x > got) >= 10


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        workloads.tail_percentile([], 90)


@pytest.fixture(scope="module")
def solved():
    dp = gc.DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=8))
    sol, _ = gc.continuation_solve(dp)
    return dp, sol


def test_gate_accepts_the_solver_output(solved):
    dp, sol = solved
    workloads.check_stationary(dp, sol)


def test_gate_rejects_a_perturbed_solution(solved):
    dp, sol = solved
    rng = np.random.default_rng(0)
    p = sol.p + 1e-6 * rng.standard_normal(sol.p.shape)
    bad = gc.DiscreteSolution(p=p, u=gc.recover_u(dp, p), tau_final=sol.tau_final,
                              tau_values=sol.tau_values, newton_iterations=sol.newton_iterations,
                              residual_norms=sol.residual_norms, gap_history=sol.gap_history)
    with pytest.raises(workloads.GateError, match="recomputed"):
        workloads.check_stationary(dp, bad)


def test_gate_rejects_a_reported_stage_residual(solved):
    dp, sol = solved
    norms = list(sol.residual_norms)
    norms[10] = (norms[10][0], 2e-8)
    bad = gc.DiscreteSolution(p=sol.p, u=sol.u, tau_final=sol.tau_final,
                              tau_values=sol.tau_values, newton_iterations=sol.newton_iterations,
                              residual_norms=norms, gap_history=sol.gap_history)
    with pytest.raises(workloads.GateError, match="stage residual"):
        workloads.check_stationary(dp, bad)


def test_pour_gate_rejects_lost_mass():
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=4, ny=4, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0))
    spec = gc.EvolutionSpec(problem=problem, rate=gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, 0.5), 2.0),
                            t_final=0.2, dt=0.1)
    dp = gc.DiscreteProblem.from_spec(problem)
    traj = gc.run_evolution(spec)
    workloads.check_pour(dp, traj)
    traj.u[2] = traj.u[2] * (1.0 - 1e-4)
    with pytest.raises(workloads.GateError, match="mass balance"):
        workloads.check_pour(dp, traj)


def test_pour_offset_default_and_range():
    assert workloads.pour_offset(0) == 0.5
    offsets = [workloads.pour_offset(s) for s in range(1, 50)]
    assert all(0.4 <= c <= 0.6 for c in offsets)
    assert workloads.pour_offset(7) == workloads.pour_offset(7)


def test_discrete_gap_matches_the_solver_gap_for_constant_data(solved):
    dp, sol = solved
    assert workloads.discrete_gap(dp, sol.p, sol.u) == pytest.approx(sol.gap_history[-1],
                                                                     rel=1e-6, abs=1e-14)
