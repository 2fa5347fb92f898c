"""Newton continuation for the smoothed primal-dual optimality system.

The discrete system in the flux unknowns P (edge DOFs) and cell values u is

    r1(P, u) = -B^T u + H_tau(P) = 0        (flux equation)
    r2(P, u) = M u + B P - F       = 0        (balance equation)

with B the divergence pairing, M the diagonal P0 mass, F the load and
H_tau the smoothed-norm residual.  M is diagonal, so u is eliminated
exactly, u(P) = M^{-1}(F - B P), and Newton runs on the reduced residual

    R(P) = -B^T u(P) + H_tau(P),     dR/dP = G_tau(P) + B^T M^{-1} B =: S(P),

an SPD system.  Every Newton step writes S and solves S d = -R by PCG on
the kept factor of S, to the relative residual min(0.1, eta) with

    eta = max(|R|, floor / |R|),

and S is factored again only when PCG misses it.  The floor is 0 on the
last stage, whose answer the run returns, so there eta = |R|, the inexact
Newton forcing term (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996):
that answer then agrees with one solved on a fresh factor every step up to
what the stop test leaves, where a floor would move it by more.  On every
other stage the floor is 0.5 NEWTON_TOL, Kelley's safeguard (Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, sec. 6.3): a stage's
last step asks only for what brings |R| below NEWTON_TOL, so PCG misses,
and factorizations, are fewer.  One :class:`NewtonRun` per
:func:`continuation_solve` call holds S, its kept factor, the floor and the
Newton steps taken, so the counts a solution reports cover the whole call,
a failed warm tail included; a lone :func:`newton_solve` makes its own, with
floor 0.
A backtracking line search on the squared residual norm globalizes each
step; a stage ends once |R| is at most ``NEWTON_TOL`` and may take
``NEWTON_MAX_ITER`` steps.  The smoothing radius tau follows a geometric
continuation schedule from ``TAU_START`` down to the config's ``tau_min``;
:class:`SolverConfig` holds the only two settable values, ``tau_min`` and
the factor between stages.  Without a start flux the full schedule runs
from zero ("cold").  From a start flux near the answer a tail of
``WARM_STAGES`` stages runs ("warm"): the first stage at or below
``WARM_TAU``, then the schedule's last ``WARM_STAGES - 1`` stages, so it
ends as a cold run does (see :func:`_warm_tail`).  At its first tau
Newton's model of the smoothed norm holds over a wider region than at the
schedule's end, so the move away from the start flux takes few damped
steps, and few factorizations of S; the next stage then jumps to the end of
the schedule.  If the tail fails, the full schedule reruns from zero
("fallback").  The first stage of a run starts from its start flux, the
second from the first stage's solution, and every later stage from the
secant predictor through the last two converged stages (Allgower & Georg,
Introduction to Numerical Continuation Methods, ch. 2); a stage that fails
from the predictor runs once more from the last converged stage.
A warm tail takes primal-dual Newton steps on all its stages but the last
(Chan, Golub & Mulet, SIAM J. Sci. Comput. 20, 1999; Hintermüller &
Stadler, SIAM J. Sci. Comput. 28, 2006).  Besides the flux it carries the
dual unit field q, q = v/max(|v|, tau) at the quadrature points at
convergence, where -alpha q is the gradient of u.  The primal step rebuilds
q from each iterate, and its model of v/max(|v|, tau) holds only within
about tau of the iterate, so a tail at tau near 1e-5 took 10-18 damped
steps on its first stage.  With q carried, only the Jacobian's rank-1 term
changes; R, the line search and the stop test stay those of the primal
step, so every stage is certified as before.  q is set from the tail's
start flux, carried across its stages and updated after each accepted
step; a failed stage attempt restores the q it started from.  The tail's
last stage drops q and converges by primal steps, as do the fallback and
every cold run, where carrying q costs steps.
Each iterate's field is evaluated once at the quadrature points
(:func:`fem.huber_points`): the values that gave its residual also give its
Jacobian, and :func:`newton_solve` returns |p_h| of its last iterate for
the stage's record.  Each stage records only its residual norms and its
duality gap, read at its last iterate from one product B p and that |p_h|;
the run's :class:`Diagnostics` reuse the last stage's primal and dual
values and add only the recovered gradient's, so the last stage's field
is not evaluated again.
Every failure, a failed linear solve included, is a :class:`SolverError`
naming the failing tau and the flux residual |r1| there.
:func:`convergence_study` runs one continuation per mesh of a refinement
study and measures it against a scenario's closed-form solution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, huber, linalg
from .mesh import build_rect_mesh
from .problems import ProblemSpec, exact_solution_for, scenario


# Armijo backtracking on the squared residual norm
LS_SHRINK = 0.5
LS_SUFFICIENT_DECREASE = 1e-4
LS_MAX_BACKTRACKS = 30

FORCING_MAX = 0.1                  # largest inexact Newton forcing term eta
FORCING_SAFETY = 0.5               # Kelley's gamma in the forcing floor of intermediate stages
NEWTON_MAX_ITER = 50               # Newton steps a stage may take
NEWTON_TOL = 1e-8                  # absolute residual norm that ends a stage
TAU_START = 10.0                   # first smoothing radius of every schedule
MAX_STAGES = 2**16                 # longest continuation schedule accepted
WARM_STAGES = 4                    # stages of the warm tail run from a given start flux
WARM_TAU = 1e-3                    # the warm tail starts at the first stage at or below it


@dataclass(frozen=True)
class SolverConfig:
    tau_factor: float = 1.30
    tau_min: float = 1e-6

    def __post_init__(self):
        if not 1.0 < self.tau_factor < math.inf:
            raise ValueError("continuation factor must exceed 1 and be finite")
        if not 0.0 < self.tau_min < math.inf:
            raise ValueError("tau_min must be positive and finite")
        if self.tau_min > TAU_START:
            raise ValueError(f"tau_min must be at most TAU_START = {TAU_START}")
        tau_schedule(self)


def tau_schedule(config: SolverConfig) -> np.ndarray:
    """Geometric schedule from ``TAU_START`` down to the first value <= tau_min.

    Raises ValueError, without building the rest, once it would pass
    ``MAX_STAGES`` stages or once a division leaves tau unchanged (a
    subnormal ``tau_min`` below the last radius the factor can shrink).
    """
    taus = [TAU_START]
    while taus[-1] > config.tau_min:
        if len(taus) == MAX_STAGES:
            raise ValueError(f"continuation schedule exceeds MAX_STAGES = {MAX_STAGES} stages")
        taus.append(taus[-1] / config.tau_factor)
        if taus[-1] == taus[-2]:
            raise ValueError(f"tau_min = {config.tau_min:.3g} is never reached: the schedule "
                             f"stops shrinking at tau = {taus[-1]:.3g}")
    return np.array(taus)


class SolverError(RuntimeError):
    """Any failed solve: its ``reason``, the failing tau and the flux residual |r1| there."""

    def __init__(self, reason: str, tau: float, r1_norm: float, newton_steps: int):
        super().__init__(f"{reason} (tau={tau:.3e}, |r1|={r1_norm:.3e})")
        self.reason = reason
        self.tau = tau
        self.r1_norm = r1_norm
        self.newton_steps = newton_steps        # NewtonRun.steps of the failed call


class MaxIterationsExceeded(SolverError):
    pass


class LineSearchStalled(SolverError):
    pass


@dataclass(frozen=True)
class DiscreteProblem:
    """Assembled, immutable view of a problem on one mesh.

    ``free`` is always a boolean mask over the edges, False on the edges of
    flux-pinned (Neumann) sides and all True when there are none.  ``Bt``
    is ``B.T``, a CSC view of B's arrays.

    Every Newton step solves a system in the Schur matrix
    S = G_tau + B^T M^{-1} B over the free edges.  Its sparsity never
    changes: edges e and f are coupled exactly when they share a triangle,
    which is also the sparsity of B_f^T M^{-1} B_f.  ``from_spec`` fixes it
    once:

    * ``schur_base``: B_f^T M^{-1} B_f as a CSC matrix, whose index arrays
      are the pattern of S;
    * ``schur_scatter``: for each entry (t, k, l) of the Jacobian's element
      blocks, flattened, its slot in the data array, or ``nnz`` (dropped)
      when edge k or l of triangle t is pinned.

    :meth:`schur` then builds S from the element blocks with one scatter-add.
    """

    spec: ProblemSpec
    mesh: object
    workspace: fem.Workspace
    B: sp.csr_matrix
    Bt: sp.csc_matrix
    areas: np.ndarray
    load: np.ndarray               # F
    source_q: np.ndarray           # source at quadrature points (nt, nq), read-only
    alpha_q: np.ndarray            # bound at quadrature points (nt, nq), read-only
    alpha_c: np.ndarray            # bound at centroids (nt,)
    free: np.ndarray               # bool mask over edges, False where the flux is pinned
    schur_scatter: np.ndarray      # (nt*9,) slot of each element-block entry
    schur_base: sp.csc_matrix      # B^T M^{-1} B over the free edges, the pattern of S

    @classmethod
    def from_spec(cls, spec: ProblemSpec) -> "DiscreteProblem":
        mesh = build_rect_mesh(spec.rect, spec.nx, spec.ny)
        ws = fem.build_workspace(mesh)
        B = fem.assemble_div(mesh)
        areas = ws.areas
        source_q = fem.at_qpoints(ws, spec.source.evaluate)
        alpha_q = fem.at_qpoints(ws, lambda x, y: spec.alpha.evaluate(mesh, x, y))
        alpha_c = np.asarray(spec.alpha.evaluate(mesh, ws.centroids[:, 0], ws.centroids[:, 1]),
                             dtype=float)
        if not (np.all(alpha_q > 0.0) and np.all(alpha_c > 0.0)):      # NaN fails too
            raise ValueError("constraint bound must be positive throughout the domain")
        if not (np.all(np.isfinite(alpha_q)) and np.all(np.isfinite(alpha_c))):
            raise ValueError("constraint bound must be finite throughout the domain")
        if not np.all(np.isfinite(source_q)):
            raise ValueError("source must be finite throughout the domain")
        free = np.ones(mesh.num_edges, dtype=bool)
        for side in spec.boundary.gamma_n_sides:
            free[mesh.boundary_edges[side]] = False

        scatter, base = _schur_pattern(mesh, areas, free)
        return cls(spec=spec, mesh=mesh, workspace=ws, B=B, Bt=B.T, areas=areas,
                   load=fem.assemble_load(mesh, source_q, ws=ws), source_q=source_q,
                   alpha_q=alpha_q, alpha_c=alpha_c, free=free,
                   schur_scatter=scatter, schur_base=base)

    def with_load(self, source_q: np.ndarray) -> "DiscreteProblem":
        """Same operators with the source given at the quadrature points (time stepping)."""
        source_q = np.asarray(source_q, dtype=float)
        if source_q.shape != self.alpha_q.shape:
            raise ValueError(f"load must have one value per quadrature point, shape "
                             f"{self.alpha_q.shape}, got {source_q.shape}")
        if not np.all(np.isfinite(source_q)):
            raise ValueError("load must be finite")
        return dataclasses.replace(self, source_q=source_q,
                                   load=fem.assemble_load(self.mesh, source_q, ws=self.workspace))

    def schur(self, blocks: np.ndarray, out: sp.csc_matrix | None = None) -> sp.csc_matrix:
        """S = G + B^T M^{-1} B over the free edges, G given by its element blocks.

        ``out`` is a matrix that an earlier call returned, on this problem
        or on a copy sharing its pattern (:meth:`with_load`): S is written
        into its data array in place and ``out`` is returned, so a run
        allocates S once.  A factor made from ``out`` earlier does not change
        with it (see :class:`linalg.FactorCache`).

        S is symmetric to the bit: the Jacobian's (k, l) and (l, k) entries
        come from identical basis-product columns, and entries (i, j) and
        (j, i) of S sum the same values over the triangles in the same
        order.  ``linalg`` solves through the transposed sweeps on that basis.
        """
        base = self.schur_base
        nnz = len(base.data)
        if out is None:
            out = sp.csc_matrix((np.empty(nnz), base.indices, base.indptr), shape=base.shape)
        elif out.indptr is not base.indptr:
            raise ValueError("out is not a Schur matrix of this problem's pattern")
        data = np.bincount(self.schur_scatter, blocks.ravel(), minlength=nnz + 1)[:nnz]
        np.add(data, base.data, out=out.data)
        return out


def _schur_pattern(mesh, areas: np.ndarray, free: np.ndarray):
    """(scatter, base) of S over the free edges; see DiscreteProblem."""
    index = np.where(free, np.cumsum(free) - 1, -1)     # free edges numbered, pinned -1
    nf = int(free.sum())
    te = index[mesh.tri_edges]
    rows = np.repeat(te, 3, axis=1).ravel()             # (t, k, l) flattened
    cols = np.tile(te, 3).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, slots = np.unique(rows[kept] * nf + cols[kept], return_inverse=True)
    nnz = len(keys)
    scatter = np.full(rows.size, nnz)
    scatter[kept] = slots
    indptr = np.zeros(nf + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // nf, minlength=nf), out=indptr[1:])
    # B^T M^{-1} B is the sum over triangles of s s^T / |T|, s the incidence
    # signs; it is symmetric, so its CSR arrays are also its CSC arrays
    signs = mesh.tri_edge_signs.astype(float)
    base = signs[:, :, None] * signs[:, None, :] / areas[:, None, None]
    base = np.bincount(scatter, base.ravel(), minlength=nnz + 1)[:nnz]
    return scatter, sp.csc_matrix((base, (keys % nf).astype(np.int32), indptr), shape=(nf, nf))


def recover_u(dp: DiscreteProblem, p: np.ndarray) -> np.ndarray:
    """Cell values from the balance equation: u = M^{-1}(F - B p)."""
    return (dp.load - dp.B @ p) / dp.areas


def residual(dp: DiscreteProblem, p: np.ndarray, tau: float,
             points: fem.HuberPoints | None = None) -> np.ndarray:
    """Reduced flux residual R(p) = -B^T u(p) + H_tau(p); pinned rows are zeroed.

    ``points`` is ``fem.huber_points`` at p when the caller holds it.
    """
    r = -(dp.Bt @ recover_u(dp, p)) + fem.assemble_huber_residual(
        dp.mesh, p, dp.alpha_q, tau, ws=dp.workspace, points=points)
    r[~dp.free] = 0.0
    return r


@dataclass
class NewtonRun:
    """The Newton state of one :func:`continuation_solve` call.

    ``cache`` holds the kept factor of S and the counts of the call's linear
    solves; ``matrix`` is the call's one S, refilled in place at every step.
    ``forcing_floor`` is the floor of the forcing term eta =
    max(|r|, forcing_floor / |r|): 0 on the last stage, so eta = |r|.
    ``steps`` counts the Newton steps that reached a linear solve, those of
    failed attempts included.  A warm tail and its fallback share one run,
    so the counts of a record cover the whole call.
    ``q`` is the dual unit field (qx, qy) of :func:`fem.unit_field` at the
    quadrature points, in pair layout, or None.  With q each step is a
    primal-dual step: its Jacobian reads q in place of v/max(|v|, tau) in
    the rank-1 term, and the accepted step updates q by
    :func:`fem.dual_step`.  Only a warm tail sets q, from its start flux,
    and carries it across its stages; a stage attempt that fails restores
    the q it started with, and the tail's last stage, the fallback and
    every cold run take the primal step, q None.
    """

    cache: linalg.FactorCache = field(default_factory=linalg.FactorCache)
    matrix: sp.csc_matrix | None = None
    forcing_floor: float = 0.0
    steps: int = 0
    q: tuple | None = None


def newton_solve(dp: DiscreteProblem, tau: float, p0: np.ndarray, *,
                 run: NewtonRun | None = None):
    """Damped Newton on the reduced residual; returns (p, iterations, |r|, |p_h|).

    It stops once |r| <= ``NEWTON_TOL``.  The cell variable is eliminated
    exactly at every iterate, so the balance equation holds up to rounding
    throughout.  Each step writes S into ``run.matrix``, adds one to
    ``run.steps`` and solves for its direction with :func:`linalg.solve_spd`
    on the run's kept factor, to the relative residual min(FORCING_MAX, eta)
    with eta = max(|r|, run.forcing_floor / |r|).  Without ``run`` the call
    makes its own, with floor 0, so its steps, like those of a
    continuation, share one factor.
    Each iterate's field is evaluated once, by :func:`fem.huber_points`: its
    residual and its Jacobian read the same point values, which are dropped
    before the linear solve, all but the (vx, vy, |v|) that the update of
    ``run.q`` reads when the run carries q; |p_h| is that of the returned
    flux at the quadrature points, in the pair layout of
    :func:`fem.huber_points`.  With ``run.q`` the Jacobian is the
    primal-dual one and each accepted step replaces ``run.q`` by a new
    field, so a caller that kept the old one can restore it.  The residual,
    the line search and the stop test do not read q.
    Every failure raises :class:`SolverError` with ``newton_steps`` =
    ``run.steps``; a failed linear solve is chained as its cause.
    """
    run = run or NewtonRun()
    p = np.array(p0, dtype=float)
    p[~dp.free] = 0.0

    points = fem.huber_points(dp.workspace, p, dp.alpha_q, tau)
    r = residual(dp, p, tau, points)
    rnorm = math.sqrt(r @ r)
    iterations = 0
    while not rnorm <= NEWTON_TOL:      # a NaN residual is not converged
        if iterations >= NEWTON_MAX_ITER:
            raise MaxIterationsExceeded("Newton did not converge", tau, rnorm, run.steps)
        run.matrix = dp.schur(fem.assemble_huber_jacobian(
            dp.mesh, p, dp.alpha_q, tau, ws=dp.workspace, points=points, q=run.q),
            out=run.matrix)
        before = None if run.q is None else (points.vx, points.vy, points.norm)
        points = None                   # kept through the solve, they add to its peak memory
        run.steps += 1
        eta = max(rnorm, run.forcing_floor / rnorm)
        step = np.zeros_like(p)
        try:
            step[dp.free] = linalg.solve_spd(run.matrix, -r[dp.free], cache=run.cache,
                                             rtol=min(FORCING_MAX, eta))[0]
        except linalg.LinearSolveError as exc:
            raise SolverError(str(exc), tau, rnorm, run.steps) from exc

        merit0 = rnorm * rnorm
        s = 1.0
        for _ in range(LS_MAX_BACKTRACKS + 1):
            trial = p + s * step
            points = fem.huber_points(dp.workspace, trial, dp.alpha_q, tau)
            r_trial = residual(dp, trial, tau, points)
            m_trial = float(r_trial @ r_trial)
            if m_trial <= (1.0 - 2.0 * LS_SUFFICIENT_DECREASE * s) * merit0:
                break
            s *= LS_SHRINK
        else:
            raise LineSearchStalled("line search made no progress", tau, rnorm, run.steps)
        if before is not None:
            run.q = fem.dual_step(run.q, before, points, tau)
            before = None               # kept through the next Jacobian, it adds to its peak
        p, r, rnorm = trial, r_trial, math.sqrt(m_trial)
        iterations += 1
    return p, iterations, rnorm, points.norm


@dataclass(frozen=True)
class Diagnostics:
    primal_value: float        # flux-side objective (unsmoothed)
    dual_value: float          # height-side objective, sign-flipped
    duality_gap: float
    max_gradient_ratio: float  # max over cells of |grad u| / alpha
    feasibility_violation: float


@dataclass
class DiscreteSolution:
    p: np.ndarray
    u: np.ndarray
    tau_final: float
    tau_values: np.ndarray
    newton_iterations: list
    residual_norms: list       # (|r1|, |r2|) per stage
    gap_history: list          # duality gap per stage
    start: str = "cold"        # "cold", "warm" or "fallback" (warm tail failed)
    # the counts below cover the whole continuation_solve call, a failed warm
    # tail included; its steps were solved to eta = max(|r|, floor / |r|),
    # floor 0 on the last stage
    discarded_newton_steps: int = 0     # of a failed tail and failed predictor starts
    factorizations: int = 0    # of S
    cg_iterations: int = 0     # PCG iterations on a kept factor
    factor_nnz: int = 0        # nnz of the largest factor of S


def recovered_gradient(dp: DiscreteProblem, p: np.ndarray, tau: float) -> np.ndarray:
    """Per-cell gradient reconstruction -alpha * dphi_tau(p_h) at centroids."""
    pc = fem.rt0_at_centroids(dp.mesh, p)
    return -dp.alpha_c[:, None] * huber.dphi(pc, tau)


def _stage_record(dp: DiscreteProblem, p: np.ndarray, pnorm: np.ndarray):
    """(u(p), |r2|, primal) at flux p from one product B p and |p_h| at the quadrature points.

    |r2| is the mass-weighted norm of the balance residual M u(p) + B p - F,
    which is zero up to rounding; primal is the unsmoothed flux-side
    objective, read with ``pnorm`` in the pair layout of :func:`fem.huber_points`.
    """
    ws = dp.workspace
    Bp = dp.B @ p
    u = (dp.load - Bp) / dp.areas
    r2 = dp.areas * u + Bp - dp.load
    primal = 0.5 * fem.integrate(ws, ((Bp / dp.areas)[:, None] - dp.source_q)**2)
    primal += fem.integrate(ws, dp.alpha_q, pnorm.reshape(dp.alpha_q.shape))
    return u, float(np.sqrt(np.sum(r2 * r2 / dp.areas))), primal


def _dual(dp: DiscreteProblem, u: np.ndarray) -> float:
    """The height-side objective at cell values u, sign-flipped."""
    return float(dp.load @ u - 0.5 * np.sum(dp.areas * u * u))


def _diagnostics(dp: DiscreteProblem, p: np.ndarray, tau: float, primal: float,
                 dual: float) -> Diagnostics:
    """Diagnostics of flux p from its primal and dual values: adds the recovered gradient's."""
    gnorm = huber.norm(*recovered_gradient(dp, p, tau).T)
    ratio = float(np.max(gnorm / dp.alpha_c))
    violation = float(np.sum(dp.areas * np.maximum(0.0, gnorm - dp.alpha_c)))
    return Diagnostics(primal_value=primal, dual_value=dual, duality_gap=primal - dual,
                       max_gradient_ratio=ratio, feasibility_violation=violation)


def diagnostics(dp: DiscreteProblem, p: np.ndarray, u: np.ndarray, tau: float) -> Diagnostics:
    """Diagnostics of flux p at radius tau, the dual read at the given cell values u."""
    pnorm = fem.huber_points(dp.workspace, p, dp.alpha_q, tau).norm
    return _diagnostics(dp, p, tau, _stage_record(dp, p, pnorm)[2], _dual(dp, u))


def continuation_solve(dp: DiscreteProblem, config: SolverConfig | None = None,
                       p0: np.ndarray | None = None):
    """Run the continuation; returns (DiscreteSolution, Diagnostics).

    Without ``p0`` the full ``tau_schedule(config)`` runs from zero
    ("cold").  With ``p0``, one finite value per edge, the warm tail of
    :func:`_warm_tail` runs from ``p0`` ("warm"): the first stage at or
    below ``WARM_TAU``, then the schedule's last ``WARM_STAGES - 1`` stages.
    If it raises :class:`SolverError` the full schedule reruns from zero
    ("fallback").
    ``DiscreteSolution.start`` names the run that gave the solution.  The
    call makes one :class:`NewtonRun`; the fallback runs on it with the
    tail's factor and dual field dropped, so the solution's counts include
    the tail's work.  The warm tail sets ``run.q`` from its start flux, so
    its stages but the last take primal-dual steps.
    """
    config = config or SolverConfig()
    taus = tau_schedule(config)
    zero = np.zeros(dp.mesh.num_edges)
    run = NewtonRun()
    if p0 is None:
        return _stages(dp, taus, zero, "cold", run)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != zero.shape:
        raise ValueError(f"initial flux must have one value per edge, got {p0.shape}")
    if not np.all(np.isfinite(p0)):
        raise ValueError("initial flux must be finite")
    tail = _warm_tail(taus)
    try:
        run.q = fem.unit_field(dp.workspace, np.where(dp.free, p0, 0.0), tail[0])
        return _stages(dp, tail, p0, "warm", run)
    except SolverError:
        run.cache.lu = None        # the fallback factors afresh, as a cold solve does
        run.q = None
    return _stages(dp, taus, zero, "fallback", run)


def _warm_tail(taus: np.ndarray) -> np.ndarray:
    """The stages of schedule ``taus`` that a warm run takes.

    They are the first stage at or below ``WARM_TAU``, then the last
    ``WARM_STAGES - 1`` stages.  If that stage is already one of the last
    ``WARM_STAGES``, or no stage lies at or below ``WARM_TAU``, they are the
    last ``WARM_STAGES`` stages.  The last three stages are always those of
    the schedule, so the last stage's secant predictor reads the same two
    stages as on a cold run.
    """
    first = np.flatnonzero(taus <= WARM_TAU)[:1]
    if first.size and first[0] < len(taus) - WARM_STAGES:
        return np.concatenate([taus[first], taus[1 - WARM_STAGES:]])
    return taus[-WARM_STAGES:]


def _stages(dp: DiscreteProblem, taus: np.ndarray, p: np.ndarray, start: str, run: NewtonRun):
    """Run the stages ``taus`` from flux ``p`` on ``run``; see :func:`continuation_solve`.

    ``taus`` is a whole schedule or a warm tail; a tail's stages need not be
    consecutive ones of the schedule, but its last three are.

    From the third stage on, Newton starts at the secant predictor

        p_k + (tau_{k+1} - tau_k) / (tau_k - tau_{k-1}) * (p_k - p_{k-1}),

    which extrapolates only between converged stages; on consecutive stages
    of the geometric schedule the step is (p_k - p_{k-1}) / tau_factor, and
    a warm tail's third stage, whose two stages before it are far apart,
    starts close to p_k.  A stage that fails from the predictor is run once
    more from p_k, with the ``run.q`` that the failed attempt started from.
    Every stage but the last sets ``run.forcing_floor`` to
    ``FORCING_SAFETY * NEWTON_TOL``; the last sets it to 0 and drops
    ``run.q``, so it takes the primal step.  Each stage records only its
    residual norms and duality gap, at its last iterate: from one product
    B p and the |p_h| that ``newton_solve`` returned, which is then
    dropped.  The run's diagnostics reuse the last stage's primal and dual
    values and add only the recovered gradient's.  A failing stage raises
    the :class:`SolverError` of its last attempt.  The run's steps that no
    returned stage took, failed attempts and an earlier failed tail on the
    same run included, are the record's ``discarded_newton_steps``.
    """
    iteration_counts, norms, gaps = [], [], []
    for k, tau in enumerate(taus):
        guesses = [p]
        if k >= 2:                 # p and p_prev are both converged stages
            guesses.insert(0, p + (tau - taus[k - 1]) / (taus[k - 1] - taus[k - 2]) * (p - p_prev))
        p_prev = p
        if k == len(taus) - 1:
            run.forcing_floor, run.q = 0.0, None
        else:
            run.forcing_floor = FORCING_SAFETY * NEWTON_TOL
        q = run.q
        for guess in guesses:
            try:
                p, iters, r1n, pnorm = newton_solve(dp, tau, guess, run=run)
                break
            except SolverError:
                run.q = q
                if guess is guesses[-1]:
                    raise
        u, r2n, primal = _stage_record(dp, p, pnorm)
        del pnorm                  # kept through the next stage, it adds to its peak memory
        dual = _dual(dp, u)
        iteration_counts.append(iters)
        norms.append((float(r1n), r2n))
        gaps.append(primal - dual)

    sol = DiscreteSolution(p=p, u=u, tau_final=float(taus[-1]), tau_values=taus,
                           newton_iterations=iteration_counts,
                           residual_norms=norms, gap_history=gaps, start=start,
                           discarded_newton_steps=run.steps - sum(iteration_counts),
                           factorizations=run.cache.factorizations,
                           cg_iterations=run.cache.cg_iterations,
                           factor_nnz=run.cache.factor_nnz)
    return sol, _diagnostics(dp, p, sol.tau_final, primal, dual)


# --- mesh-refinement study ----------------------------------------------------

@dataclass(frozen=True)
class StudyResult:
    mesh_sizes: tuple
    h: tuple
    err_u: tuple
    err_p: tuple
    rate_u: float        # least-squares slope of log err vs log h
    rate_p: float
    step_rates_u: tuple  # pairwise rates, one fewer than meshes
    step_rates_p: tuple


def check_mesh_sizes(mesh_sizes) -> tuple:
    """The mesh sizes of a study: at least two, none repeated, so every rate is defined."""
    sizes = tuple(mesh_sizes)
    if len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise ValueError(f"a study needs at least two distinct mesh sizes, got {list(sizes)}")
    return sizes


def convergence_study(name: str, mesh_sizes, config: SolverConfig | None = None) -> StudyResult:
    """One continuation solve per mesh against the closed-form solution."""
    mesh_sizes = check_mesh_sizes(mesh_sizes)
    u_exact, p_exact = exact_solution_for(name)
    hs, eus, eps = [], [], []
    for n in mesh_sizes:
        spec = scenario(name, n=n)
        dp = DiscreteProblem.from_spec(spec)
        sol, _ = continuation_solve(dp, config)
        hs.append(dp.mesh.h)
        eus.append(fem.l2_error_p0(dp.mesh, sol.u, u_exact, ws=dp.workspace))
        eps.append(fem.l2_error_rt0(dp.mesh, sol.p, p_exact, ws=dp.workspace))

    def steps(errs):
        return tuple(
            math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1])
            for i in range(len(errs) - 1)
        )

    def fit(errs):
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    return StudyResult(
        mesh_sizes=mesh_sizes, h=tuple(hs),
        err_u=tuple(eus), err_p=tuple(eps),
        rate_u=fit(eus), rate_p=fit(eps),
        step_rates_u=steps(eus), step_rates_p=steps(eps),
    )
