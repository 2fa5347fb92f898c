"""Structured triangulations of axis-aligned rectangles.

Every grid cell is split along its lower-left to upper-right diagonal, so an
nx-by-ny grid has 2*nx*ny triangles and nx*(ny+1) + ny*(nx+1) + nx*ny edges.
Each edge carries a fixed global unit normal: the 90-degree clockwise
rotation of the direction from its lower-numbered to its higher-numbered
vertex.  This pins the sign convention for flux degrees of freedom, and the
incidence sign of a triangle on an edge is +1 exactly when the triangle's
counterclockwise traversal runs from the lower to the higher vertex index.
The mesh stores the incidence signs; code that needs a normal applies the
rule where it needs it.

Meshes are immutable after construction; all queries are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BOUNDARY_SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (x0, y0) to (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x0, self.y0, self.x1, self.y1)):
            raise ValueError(f"rectangle corners must be finite: {self}")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class BoundaryPartition:
    """Splits the rectangle boundary into flux-constrained sides and the rest.

    ``gamma_n_sides`` lists whole sides (subset of left/right/bottom/top) on
    which the normal flux of the vector variable is pinned to zero.  The
    complementary sides carry the zero condition on the scalar variable,
    which is natural in the mixed form and needs no DOF constraint.
    """

    gamma_n_sides: frozenset = frozenset()

    def __post_init__(self):
        sides = frozenset(self.gamma_n_sides)
        unknown = sides - set(BOUNDARY_SIDES)
        if unknown:
            raise ValueError(f"unknown boundary sides: {sorted(unknown)}")
        object.__setattr__(self, "gamma_n_sides", sides)

    @property
    def gamma_d_sides(self) -> frozenset:
        return frozenset(BOUNDARY_SIDES) - self.gamma_n_sides


ALL_DIRICHLET = BoundaryPartition(frozenset())
ALL_NEUMANN = BoundaryPartition(frozenset(BOUNDARY_SIDES))


@dataclass(frozen=True)
class Mesh:
    """Structured triangulation with oriented edges.

    vertices        (nv, 2) coordinates, row-major in (i, j) with j outer
    triangles       (nt, 3) vertex ids, counterclockwise
    edges           (ne, 2) vertex ids, lower index first
    tri_edges       (nt, 3) edge ids; local slot k joins vertices k, k+1
    tri_edge_signs  (nt, 3) +1/-1 incidence signs, +1 where vertex k < vertex k+1
    boundary_edges  side name -> edge ids
    """

    rect: Rect
    nx: int
    ny: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    boundary_edges: dict = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def dx(self) -> float:
        return self.rect.width / self.nx

    @property
    def dy(self) -> float:
        return self.rect.height / self.ny

    @property
    def h(self) -> float:
        """Mesh size used by mesh-dependent data: the smaller cell side."""
        return min(self.dx, self.dy)

    def locate_triangle(self, x, y) -> np.ndarray:
        """Triangle ids containing the given points (vectorized).

        Points on a shared edge go to the cell/triangle whose closed region
        is checked first; for field evaluation either choice agrees.  Cell
        indices are clamped into the grid, so points on or beyond the top or
        right side land in the last cell of their row or column.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xi = (x - self.rect.x0) / self.dx
        yj = (y - self.rect.y0) / self.dy
        i = np.clip(np.floor(xi).astype(int), 0, self.nx - 1)
        j = np.clip(np.floor(yj).astype(int), 0, self.ny - 1)
        # below the cell diagonal -> lower triangle
        lower = (xi - i) >= (yj - j)
        return 2 * (j * self.nx + i) + np.where(lower, 0, 1)


def build_rect_mesh(rect: Rect, nx: int, ny: int) -> Mesh:
    """Triangulate ``rect`` on an nx-by-ny grid with deterministic numbering.

    Vertices are numbered row-major, edges in three blocks (horizontal,
    vertical, diagonal, each row-major), triangles cell by cell with the
    lower triangle first.  With sw, se, ne, nw the corners of a cell, its
    triangles and their local edge slots are

        lower  (sw, se, ne)  bottom, right, diagonal
        upper  (sw, ne, nw)  diagonal, top, left
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must have at least one cell per direction, got {nx}x{ny}")
    gx, gy = np.meshgrid(rect.x0 + (rect.width / nx) * np.arange(nx + 1),
                         rect.y0 + (rect.height / ny) * np.arange(ny + 1))
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # vertex ids on the grid; each edge block pairs two slices of it
    v = np.arange(len(vertices)).reshape(ny + 1, nx + 1)
    blocks = [(v[:, :-1], v[:, 1:]), (v[:-1], v[1:]), (v[:-1, :-1], v[1:, 1:])]
    edges = np.concatenate([np.stack(pair, axis=-1).reshape(-1, 2) for pair in blocks])
    ids = np.split(np.arange(len(edges)), np.cumsum([a.size for a, _ in blocks[:-1]]))
    h, vert, d = (i.reshape(a.shape) for i, (a, _) in zip(ids, blocks))

    # three (ny, nx) grids per triangle, a cell's lower triangle first
    sw, se, nw, ne = v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]
    triangles = np.stack([sw, se, ne, sw, ne, nw], axis=-1).reshape(-1, 3)
    tri_edges = np.stack([h[:-1], vert[:, 1:], d, d, h[1:], vert[:, :-1]], axis=-1).reshape(-1, 3)
    tri_edge_signs = np.where(triangles < np.roll(triangles, -1, axis=1), 1, -1).astype(np.int8)
    boundary_edges = {"bottom": h[0], "top": h[-1], "left": vert[:, 0], "right": vert[:, -1]}
    for arr in (vertices, triangles, edges, tri_edges, tri_edge_signs, *boundary_edges.values()):
        arr.setflags(write=False)
    return Mesh(rect=rect, nx=nx, ny=ny, vertices=vertices, triangles=triangles, edges=edges,
                tri_edges=tri_edges, tri_edge_signs=tri_edge_signs, boundary_edges=boundary_edges)


def classify_boundary(mesh: Mesh, bp: BoundaryPartition):
    """Split boundary edges into (dirichlet_edge_ids, neumann_edge_ids)."""
    dirichlet, neumann = [], []
    for side in BOUNDARY_SIDES:
        ids = mesh.boundary_edges[side]
        (neumann if side in bp.gamma_n_sides else dirichlet).append(ids)
    cat = lambda parts: np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=int)
    return cat(dirichlet), cat(neumann)
