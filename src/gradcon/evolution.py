"""Implicit Euler time stepping for the evolutionary constrained problem.

Each step solves one stationary problem whose load is built from the
previous state: testing the backward-difference inequality against the
feasible set gives a projection of ``u_prev + integral of the rate over the
step``, so the previous state enters with weight one.  The step integral of
the rate uses the midpoint rule.  :func:`step` returns one record: the
step's :class:`DiscreteSolution` and the mass it pours, which uses the
step's own length ``t1 - t0``, as the load does.

Every step starts the continuation from the previous step's flux, which
is close to the answer (the first step from the zero initial flux): a
"warm" start of :func:`solver.continuation_solve`, with its fallback to
the full schedule; ``StepDiagnostics.start`` records which run gave the
step's solution.  A step that fails stops the run with a
:class:`SolverError` (of the failing stage's type) naming the step, its
interval and the failing tau, chained from the stage's error.

With every boundary side flux-pinned, summing the balance equation over all
cells shows that the total held mass changes exactly by the poured mass,
up to the Newton tolerance; :func:`conservation_report` tabulates that
balance per step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .problems import ProblemSpec
from .solver import (DiscreteProblem, DiscreteSolution, SolverConfig, SolverError,
                     continuation_solve)

MAX_STEPS = 2**20                  # most time steps one run may march


@dataclass(frozen=True)
class EvolutionSpec:
    problem: ProblemSpec
    rate: object                    # SourceSpec, or callable t -> SourceSpec
    t_final: float
    dt: float
    u0: object = None               # field u0(x, y), or None for the zero start
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)):
            raise ValueError("final time and time step must be finite")
        if not self.dt > 0.0:
            raise ValueError("time step must be positive")
        if self.t_final < self.dt:
            raise ValueError("final time must cover at least one step")
        if self.t_final / self.dt > MAX_STEPS:      # also an overflow to inf
            raise ValueError(f"t_final / dt = {self.t_final / self.dt:.3g} steps "
                             f"exceeds MAX_STEPS = {MAX_STEPS}")
        if not (self.u0 is None or callable(self.u0)):
            raise ValueError(f"u0 must be a field u0(x, y) or None, "
                             f"got {type(self.u0).__name__}")


@dataclass(kw_only=True)
class StepDiagnostics(DiscreteSolution):
    """A step's stationary solution, and what the step adds to it."""

    t: float
    poured: float                  # integral of the rate over the step and domain
    mass: float                    # integral of u at the end of the step
    mass_balance: float            # mass change minus poured mass
    max_gradient_ratio: float


@dataclass
class Trajectory:
    spec: EvolutionSpec
    u: list
    p: list
    steps: list                    # StepDiagnostics, one per step
    problem: DiscreteProblem

    @property
    def times(self) -> list:
        return [0.0] + [s.t for s in self.steps]


def _rate_at(rate, t: float):
    return rate(t) if callable(rate) else rate


def _initial_state(spec: EvolutionSpec, dp: DiscreteProblem) -> np.ndarray:
    if spec.u0 is None:
        return np.zeros(dp.mesh.num_triangles)
    u0 = fem.project_p0(dp.mesh, spec.u0, ws=dp.workspace)
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial state must be finite")
    return u0


def step(u_prev: np.ndarray, dp: DiscreteProblem, spec: EvolutionSpec,
         t0: float, t1: float, p_prev: np.ndarray | None = None) -> StepDiagnostics:
    """Advance one implicit-Euler step over [t0, t1]; returns its record.

    The record is the stationary solution with this step's effective load,
    plus the mass the step pours over the length ``k = t1 - t0`` (as the
    load does) and the balance of held mass.  ``p_prev`` is the start flux
    of :func:`solver.continuation_solve` (``run`` passes it at every step,
    the zero initial flux at the first); without it the full schedule runs
    from zero ("cold").
    """
    k = t1 - t0
    rate_q = fem.at_qpoints(dp.workspace, _rate_at(spec.rate, 0.5 * (t0 + t1)).evaluate)
    dp_step = dp.with_load(u_prev[:, None] + k * rate_q)
    sol, diag = continuation_solve(dp_step, spec.config, p0=p_prev)
    poured = k * fem.integrate(dp.workspace, rate_q)
    mass = float(np.sum(dp.areas * sol.u))
    return StepDiagnostics(**vars(sol), t=t1, poured=poured, mass=mass,
                           mass_balance=mass - float(np.sum(dp.areas * u_prev)) - poured,
                           max_gradient_ratio=diag.max_gradient_ratio)


def run(spec: EvolutionSpec) -> Trajectory:
    """March ceil(t_final / dt) steps; frame n sits at time n * dt."""
    dp = DiscreteProblem.from_spec(spec.problem)
    n_steps = math.ceil(spec.t_final / spec.dt - 1e-12)
    traj = Trajectory(spec=spec, u=[_initial_state(spec, dp)],
                      p=[np.zeros(dp.mesh.num_edges)], steps=[], problem=dp)
    for n in range(1, n_steps + 1):
        t0, t1 = (n - 1) * spec.dt, n * spec.dt
        try:
            record = step(traj.u[-1], dp, spec, t0, t1, traj.p[-1])
        except SolverError as exc:
            raise type(exc)(f"evolution failed at step {n} over [{t0:g}, {t1:g}]: {exc.reason}",
                            exc.tau, exc.r1_norm, exc.r2_norm, exc.newton_steps) from exc
        traj.steps.append(record)
        traj.u.append(record.u)
        traj.p.append(record.p)
    return traj


def conservation_report(traj: Trajectory):
    """Per-step mass balances: held-mass change minus poured mass.

    Meaningful when every boundary side is flux-pinned; otherwise a warning
    is emitted and the balances are reported anyway.
    """
    bp = traj.spec.problem.boundary
    if bp.gamma_d_sides:
        warnings.warn(
            "mass balance is not expected to close: boundary sides "
            f"{sorted(bp.gamma_d_sides)} let material escape", stacklevel=2)
    return [s.mass_balance for s in traj.steps]
