import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import gradcon as gc
from gradcon import fem, huber
from gradcon.mesh import Rect, UNIT_SQUARE, build_rect_mesh
from gradcon.solver import DiscreteProblem, recover_u, residual


def reference_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def linear_product_integral(area, g_vertex, h_vertex):
    """Exact integral over a triangle of two linear scalars from vertex values."""
    return area / 12.0 * (np.dot(g_vertex, h_vertex) + g_vertex.sum() * h_vertex.sum())


def test_quadrature_exact_to_degree_four():
    rule = fem.TRI_QUADRATURE
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    # barycentric point 0 is (1-x-y, x, y) for the unit reference triangle
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(5):
        for b in range(5 - a):
            approx = 0.5 * np.sum(rule.weights * x**a * y**b)
            exact = reference_monomial_integral(a, b)
            assert approx == pytest.approx(exact, rel=1e-14, abs=1e-16)


def test_quadrature_points_interior():
    lam = fem.TRI_QUADRATURE.points
    assert np.all(lam > 0) and np.allclose(lam.sum(axis=1), 1.0)


def test_rt0_reproduces_constants():
    mesh = build_rect_mesh(UNIT_SQUARE, 1, 1)
    p = fem.interpolate_rt0(mesh, lambda x, y: np.stack(
        [np.ones_like(x), np.zeros_like(y)], axis=-1))
    ws = fem.build_workspace(mesh)
    assert np.allclose(fem.rt0_at_quadrature(ws, p), [1.0, 0.0], atol=1e-13)
    assert np.allclose(fem.rt0_at_centroids(mesh, p), [1.0, 0.0], atol=1e-13)


def test_rt0_zero_field():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    p = np.zeros(mesh.num_edges)
    ws = fem.build_workspace(mesh)
    assert np.array_equal(fem.rt0_at_quadrature(ws, p), np.zeros(ws.qpoints.shape))
    assert np.array_equal(fem.rt0_at_centroids(mesh, p), np.zeros(ws.centroids.shape))


def test_rt0_identity_field_at_centroids():
    # (x, y) lies in the local RT0 space, so interpolation reproduces it
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 2)
    p = fem.interpolate_rt0(mesh, lambda x, y: np.stack([x, y], axis=-1))
    ws = fem.build_workspace(mesh)
    values = fem.rt0_at_centroids(mesh, p)
    assert np.allclose(values, ws.centroids, atol=1e-13)
    assert np.allclose(fem.rt0_at_quadrature(ws, p), ws.qpoints, atol=1e-13)


@pytest.mark.parametrize("rect, nx, ny", [
    (Rect(-3.0, 10.0, 7.0, 11.0), 6, 4), (UNIT_SQUARE, 1, 1), (UNIT_SQUARE, 16, 16)])
def test_rt0_at_centroids_matches_per_triangle_basis(rect, nx, ny):
    mesh = build_rect_mesh(rect, nx, ny)
    p = np.random.default_rng(nx * ny).normal(size=mesh.num_edges)
    coords = mesh.vertices[mesh.triangles]
    ref = np.zeros((mesh.num_triangles, 2))
    for t, (a, b, c) in enumerate(coords):
        area = 0.5 * ((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        centroid = (a + b + c) / 3.0
        for k in range(3):
            opp = coords[t, (k + 2) % 3]
            sign = mesh.tri_edge_signs[t, k]
            ref[t] += p[mesh.tri_edges[t, k]] * sign * (centroid - opp) / (2.0 * area)
    values = fem.rt0_at_centroids(mesh, p)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(values - ref)) <= 1e-12 * scale
    # an RT0 field is affine on each triangle: its centroid value is its mean
    ws = fem.build_workspace(mesh)
    mean = np.einsum("q,tqd->td", ws.rule.weights, fem.rt0_at_quadrature(ws, p))
    assert np.max(np.abs(values - mean)) <= 1e-12 * scale


def test_interpolate_constant_field_dofs():
    # the flux of a constant field across each edge block (horizontal, vertical,
    # diagonal) along the clockwise turn of the lower-to-higher direction
    mesh = build_rect_mesh(Rect(0.0, 0.0, 2.0, 1.0), 2, 3)
    dx, dy = mesh.dx, mesh.dy
    sizes = (2 * 4, 3 * 3, 2 * 3)
    for field, blocks in (((1.0, 0.0), (0.0, dy, dy)), ((0.0, 1.0), (-dx, 0.0, -dx))):
        p = fem.interpolate_rt0(mesh, lambda x, y: np.stack(
            [np.full_like(x, field[0]), np.full_like(y, field[1])], axis=-1))
        assert np.allclose(p, np.repeat(blocks, sizes), atol=1e-14)


def test_interpolate_identity_field_reproduced_on_fine_mesh():
    # the scaled normals come from the corner cells, as the basis does; per
    # edge vertex differences would drift from that basis by about n * eps
    mesh = build_rect_mesh(Rect(0.0, 0.0, 2.0, 1.0), 600, 400)
    ws = fem.build_workspace(mesh)
    values = fem.rt0_at_quadrature(ws, fem.interpolate_rt0(
        mesh, lambda x, y: np.stack([x, y], axis=-1)))
    assert np.max(np.abs(values - ws.qpoints)) <= 2e-15 * np.max(np.abs(ws.qpoints))


def test_interpolate_zero_field():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    p = fem.interpolate_rt0(mesh, lambda x, y: np.zeros(x.shape + (2,)))
    assert np.allclose(p, 0.0)


def test_divergence_of_identity_interpolant():
    mesh = build_rect_mesh(Rect(0.0, 0.0, 2.0, 1.0), 4, 3)
    p = fem.interpolate_rt0(mesh, lambda x, y: np.stack([x, y], axis=-1))
    B = fem.assemble_div(mesh)
    areas = fem.build_workspace(mesh).areas
    assert np.allclose(B @ p, 2.0 * areas, atol=1e-13)


def test_div_matrix_structure():
    mesh = build_rect_mesh(UNIT_SQUARE, 1, 1)
    B = fem.assemble_div(mesh)
    assert B.shape == (2, 5)
    dense = B.toarray()
    assert np.all(np.sum(dense != 0, axis=1) == 3)
    assert set(np.unique(dense)) <= {-1.0, 0.0, 1.0}
    mesh = build_rect_mesh(UNIT_SQUARE, 4, 4)
    B = fem.assemble_div(mesh)
    col_sums = np.asarray(abs(B).sum(axis=0)).ravel()
    interior = np.ones(mesh.num_edges, dtype=bool)
    interior[np.concatenate(list(mesh.boundary_edges.values()))] = False
    signed = np.asarray(B.sum(axis=0)).ravel()
    assert np.all(col_sums[interior] == 2)
    assert np.all(signed[interior] == 0)


def test_p0_mass_diagonal():
    mesh = build_rect_mesh(UNIT_SQUARE, 1, 1)
    areas = fem.build_workspace(mesh).areas
    assert np.allclose(areas, [0.5, 0.5])
    assert np.all(areas > 0)


def ones(ws):
    return np.ones(ws.qpoints.shape[:2])


def test_integrate_is_the_quadrature_sum():
    # within a few roundings of the sum of the exact products of quadrature
    # weight, area and field values, each rounded once and summed exactly
    mesh = build_rect_mesh(UNIT_SQUARE, 5, 3)
    ws = fem.build_workspace(mesh)
    a, b = np.random.default_rng(0).normal(size=(2, *ws.qpoints.shape[:2]))
    for fields in ((a,), (a, b)):
        terms = []
        for t, q in np.ndindex(a.shape):
            term = Fraction(ws.rule.weights[q]) * Fraction(ws.areas[t])
            for f in fields:
                term *= Fraction(f[t, q])
            terms.append(float(term))
        bound = 4.0 * np.finfo(float).eps * math.fsum(abs(x) for x in terms)
        assert abs(fem.integrate(ws, *fields) - math.fsum(terms)) <= bound
    # the rule is exact for degree 4: x^2 y^2 over the unit square is 1/9
    assert fem.integrate(ws, fem.at_qpoints(ws, lambda x, y: x**2 * y**2)) == pytest.approx(
        1.0 / 9.0, rel=0.0, abs=1e-14)


def test_load_constant_one():
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 3)
    ws = fem.build_workspace(mesh)
    F = fem.assemble_load(mesh, ones(ws), ws=ws)
    assert np.allclose(F, ws.areas, atol=1e-15)


def test_load_zero():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    ws = fem.build_workspace(mesh)
    F = fem.assemble_load(mesh, 0.0 * ones(ws), ws=ws)
    assert np.allclose(F, 0.0)


def test_load_upper_half_indicator():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    ws = fem.build_workspace(mesh)
    F = fem.assemble_load(mesh, fem.at_qpoints(ws, lambda x, y: np.where(y >= 0.5, 0.25, 0.0)),
                          ws=ws)
    centroids = ws.centroids
    upper = centroids[:, 1] > 0.5
    assert np.allclose(F[upper], 0.03125, atol=1e-15)
    assert np.allclose(F[~upper], 0.0, atol=1e-15)


def test_huber_residual_zero_cases():
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 3)
    ws = fem.build_workspace(mesh)
    zero_p = np.zeros(mesh.num_edges)
    out = fem.assemble_huber_residual(mesh, zero_p, ones(ws), 0.5, ws=ws)
    assert np.allclose(out, 0.0)
    rng = np.random.default_rng(0)
    p = rng.normal(size=mesh.num_edges)
    out = fem.assemble_huber_residual(mesh, p, 0.0 * ones(ws), 0.5, ws=ws)
    assert np.allclose(out, 0.0)


def test_huber_residual_linear_in_alpha():
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 3)
    ws = fem.build_workspace(mesh)
    rng = np.random.default_rng(1)
    p = rng.normal(size=mesh.num_edges)
    one = fem.assemble_huber_residual(mesh, p, ones(ws), 0.3, ws=ws)
    two = fem.assemble_huber_residual(mesh, p, 2.0 * ones(ws), 0.3, ws=ws)
    assert np.allclose(two, 2.0 * one, rtol=1e-14)


def test_huber_residual_neumann_rows_zeroed():
    # the solver's flux residual zeroes the rows of flux-pinned edges only
    dp = DiscreteProblem.from_spec(gc.ProblemSpec(
        rect=UNIT_SQUARE, nx=3, ny=3, boundary=gc.BoundaryPartition(frozenset({"left", "top"})),
        alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.5)))
    rng = np.random.default_rng(2)
    p = rng.normal(size=dp.mesh.num_edges)
    out = residual(dp, p, 0.3)
    pinned = np.concatenate([dp.mesh.boundary_edges[s] for s in ("left", "top")])
    assert np.array_equal(np.flatnonzero(~dp.free), np.sort(pinned))
    assert np.all(out[pinned] == 0.0)
    full = -(dp.Bt @ recover_u(dp, p)) + fem.assemble_huber_residual(
        dp.mesh, p, dp.alpha_q, 0.3, ws=dp.workspace)
    assert np.array_equal(out[dp.free], full[dp.free])
    assert np.all(full[pinned] != 0.0)


def rt0_mass_oracle(mesh):
    """RT0 mass matrix from the exact vertex-value formula for linear fields."""
    ws = fem.build_workspace(mesh)
    coords = mesh.vertices[mesh.triangles]
    M = np.zeros((mesh.num_edges, mesh.num_edges))
    for t in range(mesh.num_triangles):
        area = ws.areas[t]
        psi_vertex = np.empty((3, 3, 2))  # slot k evaluated at vertex i
        for k in range(3):
            opp = coords[t, (k + 2) % 3]
            psi_vertex[k] = mesh.tri_edge_signs[t, k] * (coords[t] - opp) / (2 * area)
        for k in range(3):
            for l in range(3):
                val = sum(
                    linear_product_integral(area, psi_vertex[k][:, d], psi_vertex[l][:, d])
                    for d in range(2))
                M[mesh.tri_edges[t, k], mesh.tri_edges[t, l]] += val
    return M


def global_jacobian(mesh, blocks):
    """Sum the element blocks of assemble_huber_jacobian into an edge matrix."""
    rows = np.broadcast_to(mesh.tri_edges[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(mesh.tri_edges[:, None, :], blocks.shape).ravel()
    ne = mesh.num_edges
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(ne, ne)).tocsr()


def closed_form_basis(ws):
    """psi_k(x) = sign_k (x - v_opp) / (2|T|) at the quadrature points, (nt, 3, nq, 2)."""
    opp = ws.mesh.vertices[ws.mesh.triangles][:, [2, 0, 1]]  # opposite local edge k
    scale = ws.mesh.tri_edge_signs / (2.0 * ws.areas[:, None])
    return scale[:, :, None, None] * (ws.qpoints[:, None] - opp[:, :, None])


def einsum_residual(ws, p, aq, tau):
    """Huber residual as a plain einsum contraction, the reference formula."""
    psi = closed_form_basis(ws)
    pq = np.einsum("tk,tkqd->tqd", p[ws.mesh.tri_edges], psi)
    g = huber.dphi(pq, tau)
    elem = np.einsum("q,tq,tqd,tkqd->tk", ws.rule.weights, aq, g, psi,
                     optimize=True) * ws.areas[:, None]
    out = np.zeros(ws.mesh.num_edges)
    np.add.at(out, ws.mesh.tri_edges, elem)
    return out


def einsum_jacobian_blocks(ws, p, aq, tau):
    """Huber Jacobian element blocks as plain einsum contractions, the reference."""
    psi = closed_form_basis(ws)
    pq = np.einsum("tk,tkqd->tqd", p[ws.mesh.tri_edges], psi)
    r = np.linalg.norm(pq, axis=-1)
    quad = r <= tau
    safe_r = np.where(quad, 1.0, r)
    iso = np.where(quad, 1.0 / tau, 1.0 / safe_r)
    rank1 = np.where(quad, 0.0, 1.0 / safe_r**3)
    w = ws.rule.weights
    blocks = np.einsum("q,tq,tq,tkqd,tlqd->tkl", w, aq, iso, psi, psi, optimize=True)
    pk = np.einsum("tkqd,tqd->tkq", psi, pq, optimize=True)
    blocks -= np.einsum("q,tq,tq,tkq,tlq->tkl", w, aq, rank1, pk, pk, optimize=True)
    return blocks * ws.areas[:, None, None]


def extended_rt0_at_quadrature(ws, p):
    """The closed form of rt0_at_quadrature in np.longdouble, from the float64
    vertices, barycentric points and coefficients, (nt, nq, 2)."""
    ld = np.longdouble
    coords = ws.mesh.vertices[ws.mesh.triangles].astype(ld)             # (nt, 3, 2)
    bary = ws.rule.points.astype(ld)                                     # (nq, 3)
    x = sum(bary[None, :, j, None] * coords[:, None, j] for j in range(3))  # (nt, nq, 2)
    e01, e02 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    areas = (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0]) / 2
    opp = coords[:, [2, 0, 1]]                                           # opposite local edge k
    scale = ws.mesh.tri_edge_signs * p[ws.mesh.tri_edges].astype(ld) / (2 * areas[:, None])
    return sum(scale[:, k, None, None] * (x - opp[:, k, None]) for k in range(3))


@pytest.mark.parametrize("rect, nx, ny, relative", [
    (Rect(0.0, 0.0, 2.0, 1.0), 6, 4, False), (UNIT_SQUARE, 64, 64, True)], ids=["6x4", "64x64"])
def test_rt0_at_quadrature_matches_extended_precision_closed_form(rect, nx, ny, relative):
    # a float64 closed form rounds x - v_opp where the cell lies far from the
    # origin, by 1e-14 of the largest value at 64x64; without extended
    # precision the reference would carry that rounding again
    assert np.finfo(np.longdouble).eps < 1e-18
    mesh = build_rect_mesh(rect, nx, ny)
    ws = fem.build_workspace(mesh)
    p = np.random.default_rng(7).normal(scale=0.3, size=mesh.num_edges)
    ref = extended_rt0_at_quadrature(ws, p)
    err = float(np.max(np.abs(fem.rt0_at_quadrature(ws, p) - ref)))
    assert err <= 1e-15 * (float(np.max(np.abs(ref))) if relative else 1.0)


@pytest.mark.parametrize("rect", [Rect(0.0, 0.0, 2.0, 1.0), Rect(-3.0, 10.0, 7.0, 11.0)],
                         ids=["origin", "far"])
def test_matmul_assembly_matches_einsum_reference(rect):
    # both smoothing branches, a nonconstant bound and non-square rectangles,
    # one of them far from the origin
    mesh = build_rect_mesh(rect, 6, 4)
    ws = fem.build_workspace(mesh)
    aq = 1.0 + ws.qpoints[..., 0] * ws.qpoints[..., 1]
    rng = np.random.default_rng(7)
    p = rng.normal(scale=0.3, size=mesh.num_edges)
    tau = 0.2
    r = np.linalg.norm(fem.rt0_at_quadrature(ws, p), axis=-1)
    assert np.any(r <= tau) and np.any(r > tau)
    res = fem.assemble_huber_residual(mesh, p, aq, tau, ws=ws)
    ref = einsum_residual(ws, p, aq, tau)
    assert np.max(np.abs(res - ref)) <= 1e-13 * np.max(np.abs(ref))
    blocks = fem.assemble_huber_jacobian(mesh, p, aq, tau, ws=ws)
    ref = einsum_jacobian_blocks(ws, p, aq, tau)
    assert blocks.shape == (mesh.num_triangles, 3, 3)
    assert np.max(np.abs(blocks - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernels_at_the_branch_switch():
    # |v| = tau exactly belongs to the quadratic branch: iso = 1/tau and no
    # rank-one term.  tau is taken from points where the matmul and einsum
    # routes give |v| to the same bit, and v = 0 on every point of the
    # triangles whose three edges carry no flux
    mesh = build_rect_mesh(UNIT_SQUARE, 6, 6)
    ws = fem.build_workspace(mesh)
    aq = 1.0 + ws.qpoints[..., 0] * ws.qpoints[..., 1]
    p = np.random.default_rng(9).normal(scale=0.3, size=mesh.num_edges)
    p[mesh.tri_edges[::7]] = 0.0
    pq = fem.rt0_at_quadrature(ws, p)
    r = np.linalg.norm(pq, axis=-1)
    r_ref = np.linalg.norm(np.einsum("tk,tkqd->tqd", p[mesh.tri_edges], closed_form_basis(ws)),
                           axis=-1)
    assert np.all(r[::7] == 0.0)
    exact = np.flatnonzero((r == r_ref) & (r > 0.0))
    assert len(exact) >= 4
    for tau in r.ravel()[exact[:: len(exact) // 4][:4]]:
        res = fem.assemble_huber_residual(mesh, p, aq, tau, ws=ws)
        ref = einsum_residual(ws, p, aq, tau)
        assert np.max(np.abs(res - ref)) <= 1e-13 * np.max(np.abs(ref))
        blocks = fem.assemble_huber_jacobian(mesh, p, aq, tau, ws=ws)
        ref = einsum_jacobian_blocks(ws, p, aq, tau)
        assert np.max(np.abs(blocks - ref)) <= 1e-13 * np.max(np.abs(ref))
        with np.errstate(divide="ignore"):
            iso = np.where(r <= tau, 1.0 / tau, 1.0 / r)
        assert np.array_equal(huber.dphi(pq, tau), pq * iso[..., None])


@pytest.mark.parametrize("name", sorted(gc.SCENARIOS))
def test_kernels_on_shared_points_match_their_own_evaluation(solve_cache, name):
    # the residual and then the Jacobian read one huber_points record, as a
    # Newton step does: neither may change it, and both equal the calls that
    # evaluate the points themselves, bit for bit, on both smoothing branches
    dp = solve_cache(name, 4)[0]
    mesh, ws, aq = dp.mesh, dp.workspace, dp.alpha_q
    rng = np.random.default_rng(3)
    p = solve_cache(name, 4)[1].p + 1e-2 * rng.normal(size=mesh.num_edges)
    for tau in (10.0, 1e-2, 1e-6):
        points = fem.huber_points(ws, p, aq, tau)
        residual_ = fem.assemble_huber_residual(mesh, p, aq, tau, ws=ws, points=points)
        blocks = fem.assemble_huber_jacobian(mesh, p, aq, tau, ws=ws, points=points)
        assert residual_.tobytes() == fem.assemble_huber_residual(mesh, p, aq, tau,
                                                                  ws=ws).tobytes()
        assert blocks.tobytes() == fem.assemble_huber_jacobian(mesh, p, aq, tau,
                                                               ws=ws).tobytes()
        assert points.norm.tobytes() == huber.norm(*fem._pair_components(ws, p)).tobytes()


def test_huber_jacobian_is_scaled_rt0_mass_at_zero():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    ws = fem.build_workspace(mesh)
    tau = 1.0
    G = global_jacobian(mesh, fem.assemble_huber_jacobian(
        mesh, np.zeros(mesh.num_edges), ones(ws), tau, ws=ws))
    oracle = rt0_mass_oracle(mesh) / tau
    assert np.allclose(G.toarray(), oracle, atol=1e-13)


def test_huber_jacobian_symmetric():
    mesh = build_rect_mesh(UNIT_SQUARE, 4, 4)
    ws = fem.build_workspace(mesh)
    rng = np.random.default_rng(3)
    p = rng.normal(scale=0.5, size=mesh.num_edges)
    G = global_jacobian(mesh, fem.assemble_huber_jacobian(mesh, p, ones(ws), 0.2, ws=ws))
    assert abs(G - G.T).max() <= 1e-13


def test_huber_jacobian_psd():
    mesh = build_rect_mesh(UNIT_SQUARE, 4, 4)
    ws = fem.build_workspace(mesh)
    rng = np.random.default_rng(4)
    p = rng.normal(scale=0.5, size=mesh.num_edges)
    G = global_jacobian(mesh, fem.assemble_huber_jacobian(mesh, p, ones(ws), 0.2, ws=ws))
    for _ in range(50):
        x = rng.normal(size=mesh.num_edges)
        assert x @ (G @ x) >= -1e-12 * (x @ x)


def test_huber_jacobian_matches_residual_derivative():
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 3)
    ws = fem.build_workspace(mesh)
    rng = np.random.default_rng(5)
    tau = 0.1
    alpha = ones(ws)
    # keep all quadrature values away from the branch switch
    while True:
        p = rng.normal(scale=1.0, size=mesh.num_edges)
        r = np.linalg.norm(fem.rt0_at_quadrature(ws, p), axis=-1)
        if np.min(np.abs(r - tau)) > 0.02:
            break
    d = rng.normal(size=mesh.num_edges)
    d /= np.linalg.norm(d)
    G = global_jacobian(mesh, fem.assemble_huber_jacobian(mesh, p, alpha, tau, ws=ws))
    base = fem.assemble_huber_residual(mesh, p, alpha, tau, ws=ws)
    errs = []
    for eps in (1e-4, 5e-5):
        shifted = fem.assemble_huber_residual(mesh, p + eps * d, alpha, tau, ws=ws)
        errs.append(np.linalg.norm(shifted - base - eps * (G @ d)))
    assert errs[0] <= 1e-6
    assert errs[1] <= errs[0] / 3.0  # roughly O(eps^2)


def test_commuting_boundary_flux_identity():
    # per element, B applied to the interpolant equals the divergence integral
    mesh = build_rect_mesh(UNIT_SQUARE, 4, 4)
    ws = fem.build_workspace(mesh)
    v = lambda x, y: np.stack([x**2, x * y], axis=-1)  # div = 3x
    p = fem.interpolate_rt0(mesh, v)
    B = fem.assemble_div(mesh)
    div_integrals = 3.0 * ws.areas * ws.centroids[:, 0]
    assert np.allclose(B @ p, div_integrals, atol=1e-12)


def test_l2_error_p0_self_and_constants():
    mesh = build_rect_mesh(UNIT_SQUARE, 4, 4)
    ws = fem.build_workspace(mesh)
    u = np.full(mesh.num_triangles, 0.37)
    assert fem.l2_error_p0(mesh, u, lambda x, y: np.full_like(x, 0.37), ws=ws) <= 1e-14
    zero = np.zeros(mesh.num_triangles)
    assert fem.l2_error_p0(mesh, zero, lambda x, y: np.ones_like(x),
                           ws=ws) == pytest.approx(1.0, abs=1e-14)


def test_l2_error_rt0_self():
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 3)
    p = fem.interpolate_rt0(mesh, lambda x, y: np.stack([x, y], axis=-1))
    assert fem.l2_error_rt0(mesh, p, lambda x, y: np.stack([x, y], axis=-1),
                            ws=fem.build_workspace(mesh)) <= 1e-13


def p0_projection_error_oracle(mesh):
    """Exact L2 distance between x and its cell means, by the vertex formula."""
    ws = fem.build_workspace(mesh)
    coords = mesh.vertices[mesh.triangles]
    total = 0.0
    for t in range(mesh.num_triangles):
        g = coords[t, :, 0] - ws.centroids[t, 0]  # x minus its cell mean
        total += linear_product_integral(ws.areas[t], g, g)
    return math.sqrt(total)


def test_p0_projection_error_scales_linearly():
    errors = {}
    for n in (4, 8, 16):
        mesh = build_rect_mesh(UNIT_SQUARE, n, n)
        ws = fem.build_workspace(mesh)
        u = fem.project_p0(mesh, lambda x, y: x, ws=ws)
        err = fem.l2_error_p0(mesh, u, lambda x, y: x, ws=ws)
        assert err == pytest.approx(p0_projection_error_oracle(mesh), rel=1e-12)
        errors[n] = err
    assert errors[4] / errors[8] == pytest.approx(2.0, rel=1e-10)
    assert errors[8] / errors[16] == pytest.approx(2.0, rel=1e-10)


def test_workspace_mismatch_rejected():
    # every op that reads a workspace rejects one built for another mesh,
    # an equal one built again included: only the identity check tells
    # those apart
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    p, u = np.zeros(mesh.num_edges), np.zeros(mesh.num_triangles)
    zero = lambda x, y: 0.0 * x
    for other in (build_rect_mesh(UNIT_SQUARE, 2, 2), build_rect_mesh(UNIT_SQUARE, 3, 3)):
        ws = fem.build_workspace(other)
        aq = ones(ws)
        calls = (lambda: fem.assemble_load(mesh, aq, ws=ws),
                 lambda: fem.project_p0(mesh, zero, ws=ws),
                 lambda: fem.assemble_huber_residual(mesh, p, aq, 1.0, ws=ws),
                 lambda: fem.assemble_huber_jacobian(mesh, p, aq, 1.0, ws=ws),
                 lambda: fem.l2_error_p0(mesh, u, zero, ws=ws),
                 lambda: fem.l2_error_rt0(mesh, p, lambda x, y: np.zeros((*x.shape, 2)), ws=ws))
        for call in calls:
            with pytest.raises(ValueError, match="different mesh"):
                call()


def test_assembly_order_independent():
    # results identical across repeated assembly (no iteration-order effects)
    mesh = build_rect_mesh(UNIT_SQUARE, 5, 5)
    ws = fem.build_workspace(mesh)
    rng = np.random.default_rng(6)
    p = rng.normal(size=mesh.num_edges)
    a1 = fem.assemble_huber_residual(mesh, p, ones(ws), 0.2, ws=ws)
    a2 = fem.assemble_huber_residual(mesh, p, ones(ws), 0.2, ws=ws)
    assert np.array_equal(a1, a2)
    G1 = fem.assemble_huber_jacobian(mesh, p, ones(ws), 0.2, ws=ws)
    G2 = fem.assemble_huber_jacobian(mesh, p, ones(ws), 0.2, ws=ws)
    assert np.array_equal(G1, G2)
