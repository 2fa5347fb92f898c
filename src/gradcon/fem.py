"""Lowest-order Raviart-Thomas / piecewise-constant finite elements.

Vector fields are expanded in the RT0 basis with one degree of freedom per
edge, normalized as the signed total flux across the edge in the direction
of the global edge normal.  With that normalization the local basis on a
triangle is

    psi_k(x) = sign_k * (x - v_opp) / (2 |T|),

where v_opp is the vertex opposite local edge k, and the divergence pairing
matrix B has entries +-1.  Scalar fields are piecewise constant, one value
per triangle.

Area integrals use a 6-point rule on the reference triangle that is exact
for polynomials of total degree <= 4; the non-polynomial smoothed-norm
integrands are evaluated with the same rule.  Edge integrals (RT0
interpolation) use 3-point Gauss, along scaled normals |e| n_e taken from
the mesh's two cell shapes as the basis is.

Assembly is pure given an immutable mesh.  Every op that reads the per-mesh
basis tables takes their :class:`Workspace` as the required keyword ``ws``.
The load and Huber kernels take scalar data as (nt, nq) arrays of values at
the quadrature points; ``project_p0`` and the error norms take callables
``f(x, y)``.  :func:`at_qpoints` and :func:`integrate` are the one way to
sample a field on the quadrature rule and to integrate such samples over
the domain, so no caller needs the layout of the quadrature tables;
:func:`integrate` is the sum of the workspace's point weights times the
fields.
The basis is held per cell shape, not per triangle: every even triangle is a
translate of triangle 0 and every odd one of triangle 1, edge signs
included, so one block-diagonal table of those two cells' basis serves
every pair of cells, and the quadrature sums are 2-D matrix products over
the pairs.  Built at the corner cell, the table keeps x - v_opp from
cancelling: on the 64x64 unit square the field values lie within 1.1e-16
of their largest value of an extended-precision closed form, where a table
per triangle was off by 1.2e-14.  Centroid values come from the same
builder at the two centroids.

The table's columns hold the x values of the field at the points of both
cells first, then the y values, so a field is evaluated as two contiguous
arrays vx and vy in pair layout: one row per pair of cells, one column per
(cell, point), which reshapes to (nt, nq) without a copy.  The workspace
keeps the weight of each point, its cell's area times its quadrature
weight, in the same layout.  :func:`huber_points` evaluates a flux once for
both Huber kernels: vx, vy, |v| and one weight per point for both smoothing
branches, iso = w/max(|v|, tau), w the point weight times the bound.  A
caller that holds those points passes them to the residual and to the
Jacobian, which otherwise evaluate them themselves.  The residual contracts
iso vx and iso vy with the x and y columns of the table; the Jacobian
writes the three distinct entries (xx, xy, yy) of the symmetric weighted
Hessian into one array and contracts it with the workspace's 36-row table
of basis products per pair of cells, whose rows run over (cell, point,
entry) as the array does, the xy and yx products summed in one row.  The
Huber Jacobian is returned as its per-triangle element blocks; the solver
adds them into a sparsity pattern it fixes once per mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import huber
from .mesh import Mesh


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights; weights sum to 1."""

    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,)


def _degree4_rule() -> QuadratureRule:
    a1, w1 = 0.816847572980459, 0.109951743655322
    b1 = (1.0 - a1) / 2.0
    a2, w2 = 0.108103018168070, 0.223381589678011
    b2 = (1.0 - a2) / 2.0
    pts, wts = [], []
    for a, b, w in ((a1, b1, w1), (a2, b2, w2)):
        pts += [(a, b, b), (b, a, b), (b, b, a)]
        wts += [w, w, w]
    return QuadratureRule(points=np.array(pts), weights=np.array(wts))


TRI_QUADRATURE = _degree4_rule()

# 3-point Gauss-Legendre on [-1, 1]
_EDGE_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_EDGE_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


@dataclass(frozen=True)
class Workspace:
    """Per-mesh tables shared by the assembly routines; the basis is per cell shape."""

    mesh: Mesh
    rule: QuadratureRule
    areas: np.ndarray          # (nt,)
    centroids: np.ndarray      # (nt, 2)
    qpoints: np.ndarray        # (nt, nq, 2)
    point_weights: np.ndarray  # (nt/2, 2*nq) area times quadrature weight, in pair layout
    basis: np.ndarray          # (6, 2*2*nq) _pair_basis at the qpoints of triangles 0 and 1
    basis_products: np.ndarray  # (2*nq*3, 18) its products for the Huber Jacobian


def _areas(coords: np.ndarray) -> np.ndarray:
    """Areas of counterclockwise triangles given as (m, 3, 2) vertex coordinates."""
    e01, e02 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    return 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])


def _pair_basis(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Basis of triangles 0 and 1 at their points (2, n, 2), block-diagonal (6, 2*2*n).

    Rows are the edge slots of the two cells, columns their (d, cell, point)
    values, so ``p[mesh.tri_edges].reshape(-1, 6)`` times the first or the
    second half of the columns gives the x or the y values of the field at
    the translated points of both cells of every pair.
    """
    coords = mesh.vertices[mesh.triangles[:2]]      # (2, 3, 2)
    # local edge slot k joins vertices k, k+1; opposite vertex is k+2
    opp = coords[:, [2, 0, 1], None]                # (2, 3, 1, 2)
    scale = mesh.tri_edge_signs[:2] / (2.0 * _areas(coords))[:, None]
    shapes = scale[..., None, None] * (points[:, None] - opp)  # (2, 3, n, 2)
    table = np.zeros((2, 3, 2, 2, points.shape[1]))  # (cell, k, d, cell of the points, q)
    table[0, :, :, 0], table[1, :, :, 1] = shapes.swapaxes(-1, -2)
    return table.reshape(6, -1)


def build_workspace(mesh: Mesh) -> Workspace:
    rule = TRI_QUADRATURE
    coords = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    centroids = (coords[:, 0] + coords[:, 1] + coords[:, 2]) / 3.0
    # summed vertex by vertex: a matmul is faster still but rounds otherwise,
    # which moves quadrature points lying on a jump line such as x + y = 1
    # across it
    qpoints = np.stack([sum(coords[:, k, d, None] * rule.points[:, k] for k in range(3))
                        for d in range(2)], axis=-1)
    areas = _areas(coords)
    basis = _pair_basis(mesh, qpoints[:2])
    # the Jacobian's products psi_k . e_d psi_l . e_e per (cell, q) for the
    # Hessian entries xx, xy + yx and yy, block-diagonal as the basis is
    psi = basis.reshape(2, 3, 2, 2, -1)             # (cell, k, d, cell of the points, q)
    pp = np.einsum("skdrq,slerq->derqskl", psi, psi)
    products = np.stack([pp[0, 0], pp[0, 1] + pp[1, 0], pp[1, 1]], axis=2).reshape(-1, 18)
    weights = (areas[:, None] * rule.weights).reshape(-1, basis.shape[1] // 2)
    return Workspace(mesh=mesh, rule=rule, areas=areas, centroids=centroids, qpoints=qpoints,
                     point_weights=weights, basis=basis, basis_products=products)


def _check_mesh(mesh: Mesh, ws: Workspace) -> None:
    if ws.mesh is not mesh:
        raise ValueError("workspace belongs to a different mesh")


def at_qpoints(ws: Workspace, f) -> np.ndarray:
    """A callable scalar field at all quadrature points, as a read-only (nt, nq) view."""
    vals = np.asarray(f(ws.qpoints[..., 0], ws.qpoints[..., 1]), dtype=float)
    return np.broadcast_to(vals, ws.qpoints.shape[:2])


def integrate(ws: Workspace, *fields: np.ndarray) -> float:
    """Domain integral of the product of (nt, nq) quadrature-point fields."""
    values = ws.point_weights.reshape(ws.qpoints.shape[:2])
    for f in fields:
        values = values * f
    return float(values.sum())


def assemble_div(mesh: Mesh) -> sp.csr_matrix:
    """Divergence pairing B, shape (nt, ne): B[T, e] = incidence sign."""
    nt = mesh.num_triangles
    rows = np.repeat(np.arange(nt), 3)
    cols = mesh.tri_edges.ravel()
    vals = mesh.tri_edge_signs.ravel().astype(float)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, mesh.num_edges)).tocsr()


def assemble_load(mesh: Mesh, fq: np.ndarray, *, ws: Workspace) -> np.ndarray:
    """Cell integrals of a scalar source given at the quadrature points."""
    _check_mesh(mesh, ws)
    return ws.areas * (fq @ ws.rule.weights)


def project_p0(mesh: Mesh, f, *, ws: Workspace) -> np.ndarray:
    """Cell means of a scalar field ``f(x, y)``."""
    _check_mesh(mesh, ws)
    return at_qpoints(ws, f) @ ws.rule.weights


def interpolate_rt0(mesh: Mesh, field) -> np.ndarray:
    """Edge-flux interpolation: DOF_e = integral over e of field . n_e.

    ``field(x, y)`` must return an array of shape (..., 2).  Edge integrals
    use 3-point Gauss, exact for traces of polynomial degree <= 5.
    """
    # |e| n_e from the two cell shapes: on slot k of triangle 0 or 1, the
    # incidence sign times the clockwise turn of v_{k+1} - v_k
    coords = mesh.vertices[mesh.triangles[:2]]      # (2, 3, 2)
    tangents = mesh.tri_edge_signs[:2, :, None] * (np.roll(coords, -1, axis=1) - coords)
    normals = np.empty((mesh.num_edges, 2))
    normals[mesh.tri_edges.reshape(-1, 2, 3)] = tangents @ [[0.0, -1.0], [1.0, 0.0]]
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    dofs = np.zeros(mesh.num_edges)
    for s, w in zip(_EDGE_NODES, _EDGE_WEIGHTS):
        pts = mid + s * half
        vals = np.asarray(field(pts[:, 0], pts[:, 1]), dtype=float)
        dofs += 0.5 * w * np.einsum("ed,ed->e", vals, normals)
    return dofs


def _pair_components(ws: Workspace, p: np.ndarray):
    """(vx, vy): the RT0 field's x and y values at the quadrature points, in pair layout."""
    pe = p[ws.mesh.tri_edges].reshape(-1, 6)
    half = ws.basis.shape[1] // 2
    return pe @ ws.basis[:, :half], pe @ ws.basis[:, half:]


def rt0_at_quadrature(ws: Workspace, p: np.ndarray) -> np.ndarray:
    """RT0 field values at all quadrature points, shape (nt, nq, 2)."""
    return np.stack(_pair_components(ws, p), axis=-1).reshape(ws.qpoints.shape)


def rt0_at_centroids(mesh: Mesh, p: np.ndarray) -> np.ndarray:
    """RT0 field values at the cell centroids, shape (nt, 2), from the two cell shapes."""
    table = _pair_basis(mesh, mesh.vertices[mesh.triangles[:2]].mean(axis=1)[:, None])
    values = p[mesh.tri_edges].reshape(-1, 6) @ table    # (nt/2, (d, cell))
    return values.reshape(-1, 2, 2).transpose(0, 2, 1).reshape(-1, 2)


@dataclass(frozen=True)
class HuberPoints:
    """The Huber kernels' values of one flux iterate at the quadrature points, in pair layout."""

    vx: np.ndarray             # x values of the field
    vy: np.ndarray             # y values of the field
    norm: np.ndarray           # |v|
    iso: np.ndarray            # w/max(|v|, tau), w the point weight times alpha


def huber_points(ws: Workspace, p: np.ndarray, aq: np.ndarray, tau: float) -> HuberPoints:
    """The point values of flux p that the Huber residual and Jacobian share."""
    tau = huber.check_tau(tau)
    vx, vy = _pair_components(ws, p)
    norm = huber.norm(vx, vy)
    # the point weight times iso of huber.norm_weights, computed in place
    iso = np.maximum(norm, tau)
    np.divide(ws.point_weights * aq.reshape(iso.shape), iso, out=iso)
    return HuberPoints(vx, vy, norm, iso)


def assemble_huber_residual(mesh: Mesh, p: np.ndarray, aq: np.ndarray, tau: float, *,
                            ws: Workspace, points: HuberPoints | None = None) -> np.ndarray:
    """Edge vector of integrals alpha * dphi(p_h) . psi_e over the mesh.

    ``points`` is ``huber_points(ws, p, aq, tau)`` when the caller holds it.
    """
    _check_mesh(mesh, ws)
    pts = points or huber_points(ws, p, aq, tau)
    # dphi(p_h) = iso p_h
    half = ws.basis.shape[1] // 2
    elem = (pts.iso * pts.vx) @ ws.basis[:, :half].T    # (nt/2, 6)
    elem += (pts.iso * pts.vy) @ ws.basis[:, half:].T
    return np.bincount(mesh.tri_edges.ravel(), elem.ravel(), minlength=mesh.num_edges)


def assemble_huber_jacobian(mesh: Mesh, p: np.ndarray, aq: np.ndarray, tau: float, *,
                            ws: Workspace, points: HuberPoints | None = None) -> np.ndarray:
    """Element blocks of the matrix of integrals alpha * psi_e^T d2phi(p_h) psi_f.

    Returns shape (nt, 3, 3): block t couples the edges ``mesh.tri_edges[t]``
    and is symmetric PSD; the global Jacobian is the sum of the blocks
    placed at those edges.  ``points`` is ``huber_points(ws, p, aq, tau)``
    when the caller holds it.
    """
    _check_mesh(mesh, ws)
    pts = points or huber_points(ws, p, aq, tau)
    vx, vy, iso = pts.vx, pts.vy, pts.iso
    # the point weight times rank1 of huber.norm_weights, iso/max(|v|, tau)^2
    # outside and 0 inside
    rank1 = np.maximum(pts.norm, tau)
    rank1 *= rank1
    np.divide(iso, rank1, out=rank1)
    rank1 *= pts.norm > tau
    # the distinct entries xx, xy, yy of the weighted iso I - rank1 v v^T,
    # written in place: a large temporary per entry costs as much as the
    # arithmetic
    h = np.empty(vx.shape + (3,))
    xx, xy, yy = h.transpose(2, 0, 1)
    np.multiply(rank1, vx, out=xy)
    np.multiply(xy, vx, out=xx)
    np.subtract(iso, xx, out=xx)
    rank1 *= vy
    np.multiply(rank1, vy, out=yy)
    np.subtract(iso, yy, out=yy)
    xy *= vy
    np.negative(xy, out=xy)
    # blocks = sum over (cell, q, entry) of h times the basis products of
    # that entry at that point: one product with their table
    return (h.reshape(len(h), -1) @ ws.basis_products).reshape(-1, 3, 3)


def l2_error_p0(mesh: Mesh, u: np.ndarray, exact, *, ws: Workspace) -> float:
    """L2 distance between a P0 field and a scalar callback."""
    _check_mesh(mesh, ws)
    diff = u[:, None] - at_qpoints(ws, exact)
    return float(np.sqrt(integrate(ws, diff**2)))


def l2_error_rt0(mesh: Mesh, p: np.ndarray, exact, *, ws: Workspace) -> float:
    """L2 distance between an RT0 field and a vector callback."""
    _check_mesh(mesh, ws)
    vals = np.asarray(exact(ws.qpoints[..., 0], ws.qpoints[..., 1]), dtype=float)
    diff = rt0_at_quadrature(ws, p) - vals
    return float(np.sqrt(integrate(ws, np.einsum("tqd,tqd->tq", diff, diff))))
