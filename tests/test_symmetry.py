"""Exact mesh symmetries of the discrete problem.

Every cell of the grid is split along its lower-left to upper-right
diagonal, so on the unit square the swap (x, y) -> (y, x) and the half turn
(x, y) -> (1 - x, 1 - y) map the mesh onto itself.  A problem whose data are
read at the mapped point, with its flux-pinned sides mapped too, then has
the mapped solution: u of the image, read at the mapped cells, equals u.
These relations hold whatever path the solver takes, so a sign, orientation
or indexing error that treats x and y, or opposite sides, differently breaks
them.  A pour whose data are swap-symmetric has swap-symmetric steps.

The data also scale: (c f, c alpha) has the solution (c p, c u) at the
radius c tau, because dphi is jointly 0-homogeneous in (v, tau) and every
residual scales by c.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import gradcon as gc


def swap(x, y):
    return y, x


def half_turn(x, y):
    return 1.0 - x, 1.0 - y


# where each map sends the sides of the unit square
SIDES = {swap: {"left": "bottom", "bottom": "left", "right": "top", "top": "right"},
         half_turn: {"left": "right", "right": "left", "bottom": "top", "top": "bottom"}}


@dataclass(frozen=True)
class Mapped:
    """Bound or source data read at T(x, y); a bound's mesh argument passes through."""

    data: object
    T: object

    def evaluate(self, *args):
        *mesh, x, y = args
        return self.data.evaluate(*mesh, *self.T(np.asarray(x), np.asarray(y)))


def image(spec, T):
    sides = frozenset(SIDES[T][side] for side in spec.boundary.gamma_n_sides)
    return gc.ProblemSpec(rect=spec.rect, nx=spec.nx, ny=spec.ny,
                          boundary=gc.BoundaryPartition(sides),
                          alpha=Mapped(spec.alpha, T), source=Mapped(spec.source, T))


@pytest.mark.parametrize("neumann", [frozenset(), frozenset({"left"})],
                         ids=["dirichlet", "neumann_left"])
@pytest.mark.parametrize("name", gc.SCENARIOS)
def test_image_problem_has_the_mapped_solution(name, neumann):
    # the Newton counts of a problem and its image may differ by a step, so
    # only the answers are compared
    spec = gc.scenario(name, n=8)
    spec = gc.ProblemSpec(rect=spec.rect, nx=8, ny=8, boundary=gc.BoundaryPartition(neumann),
                          alpha=spec.alpha, source=spec.source)
    dp = gc.DiscreteProblem.from_spec(spec)
    u = gc.continuation_solve(dp)[0].u
    centroids = dp.workspace.centroids
    for T in SIDES:
        mapped = image(spec, T)
        u_image = gc.continuation_solve(gc.DiscreteProblem.from_spec(mapped))[0].u
        cells = dp.mesh.locate_triangle(*T(centroids[:, 0], centroids[:, 1]))
        assert np.array_equal(np.sort(cells), np.arange(dp.mesh.num_triangles)), T.__name__
        assert np.max(np.abs(u_image[cells] - u)) <= 1e-12, T.__name__


def test_swap_symmetric_pour_has_swap_symmetric_steps():
    # the all-Neumann pour of x + y <= 0.5 is its own image under the swap,
    # so every step's u equals its own swap, warm starts and all
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=8, ny=8, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, 0.5), inside=2.0)
    traj = gc.run_evolution(gc.EvolutionSpec(problem=problem, rate=rate, t_final=0.5, dt=0.1))
    mesh, centroids = traj.problem.mesh, traj.problem.workspace.centroids
    cells = mesh.locate_triangle(*swap(centroids[:, 0], centroids[:, 1]))
    assert np.array_equal(np.sort(cells), np.arange(mesh.num_triangles))
    assert len(traj.steps) == 5
    for step in traj.steps:
        assert np.max(step.u) > 0.0
        assert np.max(np.abs(step.u[cells] - step.u)) <= 1e-12


def scaled_problem(c):
    """alpha = 0.7 c on x <= 0.4 and c elsewhere, f = c on x + 2y <= 0.9, Neumann left."""
    alpha = gc.PiecewiseAlpha(regions=((gc.HalfPlane(1.0, 0.0, 0.4), c * 0.7),), default=c)
    source = gc.HalfPlaneSource(gc.HalfPlane(1.0, 2.0, 0.9), inside=c)
    return gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=8, ny=8,
                          boundary=gc.BoundaryPartition(frozenset({"left"})),
                          alpha=alpha, source=source)


@pytest.mark.parametrize("c", [2.0, 8.0])
def test_scaled_data_have_the_scaled_solution(c):
    # with factor 2 and c a power of 2 the schedule of the scaled problem
    # ends at exactly c times the radius of the unscaled one; it starts at
    # the same TAU_START, so the paths differ and the answers agree to the
    # Newton tolerance, whose absolute stop does not scale
    def solve(scale):
        config = gc.SolverConfig(tau_factor=2.0, tau_min=scale * 10.0 / 2**20)
        return gc.continuation_solve(gc.DiscreteProblem.from_spec(scaled_problem(scale)),
                                     config)[0]

    sol, scaled = solve(1.0), solve(c)
    assert scaled.tau_final == c * sol.tau_final
    assert np.max(np.abs(scaled.u - c * sol.u)) <= 1e-9 * c
    assert np.max(np.abs(scaled.p - c * sol.p)) <= 1e-9 * c
