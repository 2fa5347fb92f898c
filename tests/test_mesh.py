import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcon.fem import build_workspace
from gradcon.mesh import (ALL_DIRICHLET, ALL_NEUMANN, BOUNDARY_SIDES,
                          BoundaryPartition, Rect, UNIT_SQUARE,
                          build_rect_mesh)
from gradcon.problems import ConstantAlpha, ConstantSource, ProblemSpec
from gradcon.solver import DiscreteProblem


def edge_count(nx, ny):
    return nx * (ny + 1) + ny * (nx + 1) + nx * ny


def test_fine_grid_dof_counts():
    mesh = build_rect_mesh(UNIT_SQUARE, 256, 256)
    assert mesh.num_edges == 197_120
    assert mesh.num_triangles == 131_072


@pytest.mark.parametrize("nx,ny,edges,tris", [(1, 1, 5, 2), (2, 1, 9, 4)])
def test_tiny_counts(nx, ny, edges, tris):
    mesh = build_rect_mesh(UNIT_SQUARE, nx, ny)
    assert mesh.num_edges == edges == edge_count(nx, ny)
    assert mesh.num_triangles == tris == 2 * nx * ny


def test_counts_match_formula_all_grids_to_64():
    for nx in range(1, 65):
        for ny in range(1, 65):
            mesh = build_rect_mesh(UNIT_SQUARE, nx, ny)
            assert mesh.num_edges == edge_count(nx, ny)
            assert mesh.num_triangles == 2 * nx * ny
            assert mesh.num_vertices == (nx + 1) * (ny + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64))
def test_counts_match_formula_sampled(nx, ny):
    mesh = build_rect_mesh(Rect(-1.0, 2.0, 3.0, 4.5), nx, ny)
    assert mesh.num_edges == edge_count(nx, ny)
    assert mesh.num_triangles == 2 * nx * ny


def test_rejects_empty_grid():
    with pytest.raises(ValueError):
        build_rect_mesh(UNIT_SQUARE, 0, 4)
    with pytest.raises(ValueError):
        build_rect_mesh(UNIT_SQUARE, 4, 0)


def test_rect_invariants():
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 2.0, 1.0, 1.0)
    for bad in ((0.0, 0.0, float("inf"), 1.0), (float("-inf"), 0.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            Rect(*bad)


def test_areas_positive_equal_and_sum_exact():
    rect = Rect(0.0, 0.0, 2.0, 3.0)
    mesh = build_rect_mesh(rect, 5, 7)
    coords = mesh.vertices[mesh.triangles]
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    expected = (mesh.dx * mesh.dy) / 2.0
    assert np.all(areas > 0)  # counterclockwise
    assert np.allclose(areas, expected, rtol=1e-14)
    total = rect.width * rect.height
    assert abs(areas.sum() - total) <= 1e-14 * total


def test_interior_edges_have_opposite_signs():
    mesh = build_rect_mesh(UNIT_SQUARE, 6, 4)
    sign_sum = np.zeros(mesh.num_edges)
    count = np.zeros(mesh.num_edges, dtype=int)
    np.add.at(sign_sum, mesh.tri_edges, mesh.tri_edge_signs)
    np.add.at(count, mesh.tri_edges, 1)
    boundary = np.zeros(mesh.num_edges, dtype=bool)
    boundary[np.concatenate(list(mesh.boundary_edges.values()))] = True
    assert np.all(count[boundary] == 1)
    assert np.all(count[~boundary] == 2)
    assert np.all(sign_sum[~boundary] == 0)
    # every even triangle has the signs of triangle 0, every odd one those of
    # triangle 1: the RT0 basis of the two cell shapes relies on this
    assert mesh.tri_edge_signs.dtype == np.int8
    assert np.all(mesh.tri_edge_signs[0::2] == (1, 1, -1))
    assert np.all(mesh.tri_edge_signs[1::2] == (1, -1, -1))


def test_edges_run_lower_vertex_first():
    mesh = build_rect_mesh(Rect(0.0, 0.0, 2.0, 1.0), 3, 3)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])


def free_edges(nx, ny, bp):
    """The mesh and ``DiscreteProblem.free``, which classifies the boundary:
    False exactly on the edges of the flux-pinned sides."""
    spec = ProblemSpec(rect=UNIT_SQUARE, nx=nx, ny=ny, boundary=bp,
                       alpha=ConstantAlpha(1.0), source=ConstantSource(1.0))
    dp = DiscreteProblem.from_spec(spec)
    assert dp.free.dtype == bool and dp.free.shape == (dp.mesh.num_edges,)
    return dp.mesh, dp.free


def test_classify_boundary_all_dirichlet():
    _, free = free_edges(1, 1, ALL_DIRICHLET)
    assert free.all() and len(free) == 5


def test_classify_boundary_all_neumann():
    mesh, free = free_edges(1, 1, ALL_NEUMANN)
    assert np.flatnonzero(~free).tolist() == sorted(
        np.concatenate(list(mesh.boundary_edges.values())))
    assert free.sum() == 1                  # the diagonal


def test_classify_boundary_top_only():
    mesh, free = free_edges(2, 2, BoundaryPartition(frozenset({"top"})))
    assert np.flatnonzero(~free).tolist() == sorted(mesh.boundary_edges["top"])
    assert len(mesh.boundary_edges["top"]) == 2
    for side in ("left", "right", "bottom"):
        assert free[mesh.boundary_edges[side]].all()


def test_classify_boundary_partitions_exactly():
    bp = BoundaryPartition(frozenset({"left", "bottom"}))
    mesh, free = free_edges(3, 2, bp)
    pinned = np.concatenate([mesh.boundary_edges[side] for side in bp.gamma_n_sides])
    assert np.flatnonzero(~free).tolist() == sorted(pinned)
    dirichlet = np.concatenate([mesh.boundary_edges[side] for side in bp.gamma_d_sides])
    assert len(pinned) + len(dirichlet) == 2 * (3 + 2) and free[dirichlet].all()


def test_boundary_partition_rejects_unknown_side():
    with pytest.raises(ValueError):
        BoundaryPartition(frozenset({"north"}))


def test_element_geometry_unit_square():
    # the per-element areas and centroids the assembly workspace holds
    mesh = build_rect_mesh(UNIT_SQUARE, 1, 1)
    ws = build_workspace(mesh)
    assert np.allclose(ws.areas, 0.5, atol=1e-15)
    assert np.allclose(ws.centroids, mesh.vertices[mesh.triangles].mean(axis=1))


def test_element_geometry_quarter_cells():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    assert np.allclose(build_workspace(mesh).areas, 0.125)


def test_deterministic_construction():
    a = build_rect_mesh(UNIT_SQUARE, 4, 3)
    b = build_rect_mesh(UNIT_SQUARE, 4, 3)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.tri_edge_signs, b.tri_edge_signs)


def test_numbering_on_a_two_by_one_grid():
    # the rule of the build_rect_mesh docstring, written out
    mesh = build_rect_mesh(Rect(0.0, 0.0, 2.0, 1.0), 2, 1)
    assert mesh.edges.tolist() == [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3], [1, 4],
                                   [2, 5], [0, 4], [1, 5]]
    assert mesh.triangles.tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]
    assert mesh.tri_edges.tolist() == [[0, 5, 7], [7, 2, 4], [1, 6, 8], [8, 3, 5]]
    assert {s: ids.tolist() for s, ids in mesh.boundary_edges.items()} == {
        "bottom": [0, 1], "top": [2, 3], "left": [4], "right": [6]}


NUMBERING_GRIDS = [(UNIT_SQUARE, 1, 1), (UNIT_SQUARE, 1, 7), (UNIT_SQUARE, 9, 1),
                   (Rect(-3.0, 10.0, 7.0, 11.0), 6, 4), (Rect(0.0, 0.0, 2.0, 1.0), 2, 1)]


@pytest.mark.parametrize("rect,nx,ny", NUMBERING_GRIDS)
def test_slot_k_joins_vertices_k_and_k_plus_1(rect, nx, ny):
    mesh = build_rect_mesh(rect, nx, ny)
    pairs = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)], axis=-1)
    assert np.array_equal(mesh.edges[mesh.tri_edges], np.sort(pairs, axis=-1))


def test_mesh_arrays_are_read_only():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    arrays = [mesh.vertices, mesh.triangles, mesh.edges, mesh.tri_edges, mesh.tri_edge_signs]
    for arr in arrays + [mesh.boundary_edges[side] for side in BOUNDARY_SIDES]:
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("rect,nx,ny", NUMBERING_GRIDS + [(Rect(0.1, 0.2, 0.7, 1.3), 33, 17)])
def test_locate_triangle_on_vertices_and_edge_midpoints(rect, nx, ny):
    # corners and points on the top and right sides included: the cell index
    # is clamped into the grid
    mesh = build_rect_mesh(rect, nx, ny)
    pts = np.concatenate([mesh.vertices, mesh.vertices[mesh.edges].mean(axis=1)])
    coords = mesh.vertices[mesh.triangles[mesh.locate_triangle(pts[:, 0], pts[:, 1])]]
    T = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=-1)
    lam = np.linalg.solve(T, (pts - coords[:, 0])[..., None])[..., 0]
    lam = np.column_stack([1.0 - lam.sum(axis=1), lam])
    assert lam.min() >= -1e-12


def test_locate_triangle_round_trip():
    mesh = build_rect_mesh(UNIT_SQUARE, 5, 4)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.01, 0.99, size=(200, 2))
    tids = mesh.locate_triangle(pts[:, 0], pts[:, 1])
    for (x, y), t in zip(pts, tids):
        coords = mesh.vertices[mesh.triangles[t]]
        T = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
        lam = np.linalg.solve(T, np.array([x, y]) - coords[0])
        assert lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12


def test_sides_cover_boundary():
    mesh = build_rect_mesh(UNIT_SQUARE, 4, 2)
    ids = [mesh.boundary_edges[s] for s in BOUNDARY_SIDES]
    flat = np.concatenate(ids)
    assert len(flat) == len(set(flat)) == 2 * (4 + 2)
