"""Exact mesh symmetries of the discrete problem.

Every cell of the grid is split along its lower-left to upper-right
diagonal, so on the unit square the swap (x, y) -> (y, x) and the half turn
(x, y) -> (1 - x, 1 - y) map the mesh onto itself.  A problem whose data are
read at the mapped point, with its flux-pinned sides mapped too, then has
the mapped solution: u of the image, read at the mapped cells, equals u.
These relations hold whatever path the solver takes, so a sign, orientation
or indexing error that treats x and y, or opposite sides, differently breaks
them.
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
