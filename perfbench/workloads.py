"""The gradcon benchmark workloads and the correctness gate every run passes.

Each workload is built from a seed.  ``setup()`` assembles its problems
through ``DiscreteProblem.from_spec`` (that is what ``setup_s`` times), and
``run(problems, quiet)`` performs one repetition of the workload's solves
and checks every result.  ``quiet`` is a context factory under which the
checks run, so that a traced run does not record the gate's own calls.

Why these three workloads:

* ``solve-ex1-n64``: the size the project quotes its baseline at, with a
  closed-form solution for accuracy.  The SPD factorization dominates.
* ``sweep-n16``: every named scenario at a small size, so every bound and
  source kind and the line search run; per-call overhead dominates.
* ``pour-n32``: the only workload through ``evolution`` and the Neumann
  free-DOF restriction; an evolution change must leave the other two alone.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gradcon as gc
from gradcon import cli, evolution, fem, problems, solver

RESIDUAL_MAX = 1e-8              # every stage, max(|r1|, |r2|)
GAP_RANGE = (-1e-7, 1e-3)        # final duality gap, stationary solves
RATIO_MAX = 1.0 + 1e-12          # max |grad u| / alpha
BALANCE_MAX = 1e-7               # |mass balance| per pour step


class GateError(AssertionError):
    """A solution that fails the benchmark's correctness gate."""


@dataclass
class Outcome:
    """What one repetition of a workload did and measured."""

    solve_s: float = 0.0              # continuation / evolution time only
    step_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)   # must repeat exactly
    err_u: float = 0.0
    vtk_bytes: int = 0


def final_residuals(dp, p, u, tau):
    """(|r1|, |r2|) recomputed from the solution, independently of the solver."""
    r1 = -(dp.Bt @ u) + fem.assemble_huber_residual(dp.mesh, p, dp.alpha_q, tau,
                                                   ws=dp.workspace)
    if dp.free is not None:
        r1 = r1[dp.free]
    r2 = dp.areas * u + dp.B @ p - dp.load
    return float(np.linalg.norm(r1)), float(np.sqrt(np.sum(r2 * r2 / dp.areas)))


def _check_stages(residual_norms, where):
    worst = max(max(r1, r2) for r1, r2 in residual_norms)
    if not worst <= RESIDUAL_MAX:
        raise GateError(f"{where}: stage residual {worst:.3e} > {RESIDUAL_MAX:g}")


def _check_ratio(ratio, where):
    if not ratio <= RATIO_MAX:
        raise GateError(f"{where}: max |grad u|/alpha = {ratio!r} > 1 + 1e-12")


def check_stationary(dp, sol, where="solve"):
    """Raise GateError unless ``sol`` is a certified solution of ``dp``."""
    _check_stages(sol.residual_norms, where)
    _check_stages([final_residuals(dp, sol.p, sol.u, sol.tau_final)], f"{where} (recomputed)")
    diag = solver.diagnostics(dp, sol.p, sol.u, sol.tau_final)
    lo, hi = GAP_RANGE
    if not lo <= diag.duality_gap <= hi:
        raise GateError(f"{where}: duality gap {diag.duality_gap:.3e} outside [{lo:g}, {hi:g}]")
    _check_ratio(diag.max_gradient_ratio, where)
    return diag


def check_pour(dp, traj):
    """Raise GateError unless every step of the pour is certified."""
    for i, st in enumerate(traj.steps, start=1):
        where = f"pour step {i}"
        _check_stages(st.residual_norms, where)
        balance = (float(np.sum(dp.areas * traj.u[i])) - float(np.sum(dp.areas * traj.u[i - 1]))
                   - st.poured)
        if not abs(balance) <= BALANCE_MAX:
            raise GateError(f"{where}: mass balance {balance:.3e}")
        grad = solver.recovered_gradient(dp, traj.p[i], st.tau_final)
        _check_ratio(float(np.max(np.linalg.norm(grad, axis=-1) / dp.alpha_c)), where)


def discrete_gap(dp, p, u) -> float:
    """Duality gap of (p, u) for the load that balances them exactly.

    With ``u = M^{-1}(F - B p)`` the misfit term of the flux objective
    cancels against the height objective, leaving
    ``integral alpha |p| - u . (B p)``.  Unlike the gap the solver reports,
    it carries no quadrature oscillation of a discontinuous source, so it
    measures solver accuracy alone.  The height objective is 1-strongly
    concave in the mass-weighted norm, so ``sqrt(2 |gap|)`` is the L2
    distance from the exact discrete minimiser that the gap allows.
    """
    ws = dp.workspace
    pnorm = np.linalg.norm(fem.rt0_at_quadrature(ws, p), axis=-1)
    flux = float(np.einsum("q,tq,tq,t->", ws.rule.weights, dp.alpha_q, pnorm, ws.areas))
    return flux - float(u @ (dp.B @ p))


def tail_percentile(samples, target=90, min_beyond=10):
    """(q, value): the highest percentile q <= target with >= min_beyond samples above it.

    Falls back to the median (q = 50) when even the median lacks that
    support.  Percentiles interpolate linearly between order statistics.
    """
    s = sorted(samples)
    if not s:
        raise ValueError("no samples")

    def pct(q):
        pos = (len(s) - 1) * q / 100.0
        lo = math.floor(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    for q in range(int(target), 50, -1):
        value = pct(q)
        if sum(1 for x in s if x > value) >= min_beyond:
            return q, value
    return 50, pct(50)


def _record_failure(out, where, exc):
    out.failed += 1
    out.errors.append(f"{where}: {type(exc).__name__}: {exc}")


class Workload:
    """``clock`` times the solves; the benchmark swaps in one that leaves out
    its reference kernel (see ``calibrate.py``)."""

    clock = staticmethod(time.perf_counter)

    def _timed(self, fn, *args):
        t0 = self.clock()
        result = fn(*args)
        return result, self.clock() - t0


class SolveEx1(Workload):
    name = "solve-ex1-n64"
    scenario = "ex1_f1_a1"

    def __init__(self, seed: int, out_dir: Path):
        self.spec = gc.scenario(self.scenario, n=64)
        self.u_exact, _ = problems.exact_solution_for(self.scenario)
        self.out_dir = out_dir

    def setup(self):
        return [solver.DiscreteProblem.from_spec(self.spec)]

    def run(self, dps, quiet):
        (dp,) = dps
        out = Outcome(attempted=1)
        try:
            (sol, diag), dt = self._timed(solver.continuation_solve, dp)
            out.solve_s += dt
            out.step_times.append(dt)
            with quiet():
                check_stationary(dp, sol, self.scenario)
                out.err_u = fem.l2_error_p0(dp.mesh, sol.u, self.u_exact, ws=dp.workspace)
            out.counts[self.scenario] = (len(sol.newton_iterations), sum(sol.newton_iterations))
            out.vtk_bytes = self._export(dp, sol, diag, dt)
        except Exception as exc:          # any failure fails the attempt
            _record_failure(out, self.scenario, exc)
        return out

    def _export(self, dp, sol, diag, wall):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        vtk, summary_path = self.out_dir / "solution.vtk", self.out_dir / "summary.json"
        cli.export_vtk(dp.mesh, sol.u, sol.p, vtk, alpha_c=dp.alpha_c, tau=sol.tau_final)
        r1, r2 = sol.residual_norms[-1]
        summary = cli.RunSummary(
            mode="solve", scenario=self.scenario, nx=dp.spec.nx, ny=dp.spec.ny,
            tau_table=[{"tau": float(t), "newton_iterations": int(k), "r1": float(a),
                        "r2": float(b), "duality_gap": float(g)}
                       for t, k, (a, b), g in zip(sol.tau_values, sol.newton_iterations,
                                                  sol.residual_norms, sol.gap_history)],
            final_residuals={"r1": r1, "r2": r2},
            primal_value=diag.primal_value, dual_value=diag.dual_value,
            duality_gap=diag.duality_gap, wall_time_s=wall,
            extra={"max_gradient_ratio": diag.max_gradient_ratio})
        cli.export_summary_json(summary, summary_path)
        with open(summary_path) as handle:
            if json.load(handle)["duality_gap"] != diag.duality_gap:
                raise GateError("summary.json does not round-trip the duality gap")
        with open(vtk) as handle:
            if handle.readline() != "# vtk DataFile Version 2.0\n":
                raise GateError("solution.vtk lacks the legacy VTK header")
        return vtk.stat().st_size


class Sweep(Workload):
    name = "sweep-n16"

    def __init__(self, seed: int, out_dir: Path):
        self.specs = [(name, gc.scenario(name, n=16)) for name in gc.SCENARIOS]

    def setup(self):
        return [solver.DiscreteProblem.from_spec(spec) for _, spec in self.specs]

    def run(self, dps, quiet):
        out = Outcome()
        l2_errors = []
        for (name, _), dp in zip(self.specs, dps):
            out.attempted += 1
            try:
                (sol, _), dt = self._timed(solver.continuation_solve, dp)
                out.solve_s += dt
                out.step_times.append(dt)
                with quiet():
                    check_stationary(dp, sol, name)
                    try:
                        u_exact, _ = problems.exact_solution_for(name)
                    except ValueError:        # no closed form for this scenario
                        u_exact = None
                    if u_exact is not None:
                        l2_errors.append(fem.l2_error_p0(dp.mesh, sol.u, u_exact, ws=dp.workspace))
                out.counts[name] = (len(sol.newton_iterations), sum(sol.newton_iterations))
            except Exception as exc:
                _record_failure(out, name, exc)
        out.err_u = max(l2_errors, default=0.0)
        return out


def pour_offset(seed: int) -> float:
    """The c of the poured half-plane x + y <= c; seed 0 is the c = 0.5 pour."""
    return 0.5 if seed == 0 else random.Random(seed).uniform(0.4, 0.6)


class Pour(Workload):
    name = "pour-n32"

    def __init__(self, seed: int, out_dir: Path):
        self.c = pour_offset(seed)
        problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=32, ny=32, boundary=gc.ALL_NEUMANN,
                                 alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0))
        rate = gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, self.c), inside=2.0)
        self.spec = gc.EvolutionSpec(problem=problem, rate=rate, t_final=0.5, dt=0.1)

    def setup(self):
        return [solver.DiscreteProblem.from_spec(self.spec.problem)]

    def run(self, dps, quiet):
        (dp,) = dps
        out = Outcome(attempted=1)
        inner = evolution.step

        def timed_step(*args, **kwargs):
            result, dt = self._timed(lambda: inner(*args, **kwargs))
            out.step_times.append(dt)
            return result

        evolution.step = timed_step
        try:
            traj, out.solve_s = self._timed(evolution.run, self.spec)
            with quiet():
                check_pour(dp, traj)
                out.err_u = max(math.sqrt(2.0 * abs(discrete_gap(dp, p, u)))
                                for p, u in zip(traj.p[1:], traj.u[1:]))
            out.counts["pour"] = tuple(sum(st.newton_iterations) for st in traj.steps)
        except Exception as exc:
            _record_failure(out, f"pour c={self.c:.6f}", exc)
        finally:
            evolution.step = inner
        return out


WORKLOADS = {w.name: w for w in (SolveEx1, Sweep, Pour)}
