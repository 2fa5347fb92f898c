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
interpolation) use 3-point Gauss.

Assembly is pure given an immutable mesh.  Every op that reads the per-mesh
basis tables takes their :class:`Workspace` as the required keyword ``ws``.
The load and Huber kernels take scalar data as (nt, nq) arrays of values at
the quadrature points; ``project_p0`` and the error norms take callables
``f(x, y)``.  :func:`at_qpoints` and :func:`integrate` are the one way to
sample a field on the quadrature rule and to integrate such samples over
the domain, so no caller needs the layout of the quadrature tables.
The one basis table is stored as one (3, nq*2) matrix per triangle, and the
quadrature sums are batched matrix products with it.  Centroid values come
from the mesh's two cell shapes instead of a table.  The Huber Jacobian
is returned as its per-triangle element blocks; the solver adds them into a
sparsity pattern it fixes once per mesh.
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
    """Per-mesh basis tables shared by the assembly routines."""

    mesh: Mesh
    rule: QuadratureRule
    areas: np.ndarray          # (nt,)
    centroids: np.ndarray      # (nt, 2)
    qpoints: np.ndarray        # (nt, nq, 2)
    psi: np.ndarray            # (nt, 3, nq*2) signed RT0 basis at qpoints, (q, d) flattened


def _areas_and_basis(coords: np.ndarray, signs: np.ndarray, points: np.ndarray):
    """Areas of triangles (m, 3, 2) and their basis at points (m, n, 2) as (m, 3, n*2)."""
    e01, e02 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    areas = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
    # local edge slot k joins vertices k, k+1; opposite vertex is k+2
    opp = coords[:, [2, 0, 1], :]                   # (m, 3, 2)
    scale = (signs / (2.0 * areas)[:, None])[:, :, None]
    # with (x, d) flattened the broadcast runs over rows of n*2 values
    return areas, scale * (points.reshape(len(points), 1, -1) - np.tile(opp, points.shape[1]))


def build_workspace(mesh: Mesh) -> Workspace:
    rule = TRI_QUADRATURE
    coords = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    centroids = (coords[:, 0] + coords[:, 1] + coords[:, 2]) / 3.0
    # summed vertex by vertex: a matmul is faster still but rounds otherwise,
    # which moves quadrature points lying on a jump line such as x + y = 1
    # across it
    qpoints = np.stack([sum(coords[:, k, d, None] * rule.points[:, k] for k in range(3))
                        for d in range(2)], axis=-1)
    areas, psi = _areas_and_basis(coords, mesh.tri_edge_signs, qpoints)
    return Workspace(mesh=mesh, rule=rule, areas=areas, centroids=centroids,
                     qpoints=qpoints, psi=psi)


def _check_mesh(mesh: Mesh, ws: Workspace) -> None:
    if ws.mesh is not mesh:
        raise ValueError("workspace belongs to a different mesh")


def at_qpoints(ws: Workspace, f) -> np.ndarray:
    """A callable scalar field at all quadrature points, as a read-only (nt, nq) view."""
    vals = np.asarray(f(ws.qpoints[..., 0], ws.qpoints[..., 1]), dtype=float)
    return np.broadcast_to(vals, ws.qpoints.shape[:2])


def integrate(ws: Workspace, *fields: np.ndarray) -> float:
    """Domain integral of the product of (nt, nq) quadrature-point fields."""
    subscripts = "q," + "tq," * len(fields) + "t->"
    return float(np.einsum(subscripts, ws.rule.weights, *fields, ws.areas))


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
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    dofs = np.zeros(mesh.num_edges)
    for s, w in zip(_EDGE_NODES, _EDGE_WEIGHTS):
        pts = mid + s * half
        vals = np.asarray(field(pts[:, 0], pts[:, 1]), dtype=float)
        dofs += 0.5 * w * np.einsum("ed,ed->e", vals, mesh.edge_normals)
    return dofs * mesh.edge_lengths


def _transposed(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def rt0_at_quadrature(ws: Workspace, p: np.ndarray) -> np.ndarray:
    """RT0 field values at all quadrature points, shape (nt, nq, 2)."""
    coeffs = p[ws.mesh.tri_edges][:, None, :]  # (nt, 1, 3)
    return (coeffs @ ws.psi).reshape(ws.qpoints.shape)


def rt0_at_centroids(mesh: Mesh, p: np.ndarray) -> np.ndarray:
    """RT0 field values at the cell centroids, shape (nt, 2).

    Every even triangle is a translate of triangle 0 and every odd one of
    triangle 1, edge signs included, so those two shapes serve every cell.
    """
    coords = mesh.vertices[mesh.triangles[:2]]      # (2, 3, 2)
    centroids = coords.mean(axis=1)[:, None]        # (2, 1, 2)
    _, shapes = _areas_and_basis(coords, mesh.tri_edge_signs[:2], centroids)
    coeffs = p[mesh.tri_edges].reshape(-1, 2, 3)
    return np.stack([coeffs[:, 0] @ shapes[0], coeffs[:, 1] @ shapes[1]], axis=1).reshape(-1, 2)


def assemble_huber_residual(mesh: Mesh, p: np.ndarray, aq: np.ndarray, tau: float, *,
                            ws: Workspace) -> np.ndarray:
    """Edge vector of integrals alpha * dphi(p_h) . psi_e over the mesh."""
    _check_mesh(mesh, ws)
    g = huber.dphi(rt0_at_quadrature(ws, p), tau)
    g *= (ws.areas[:, None] * ws.rule.weights * aq)[..., None]
    elem = ws.psi @ g.reshape(len(g), -1, 1)            # (nt, 3, 1)
    return np.bincount(mesh.tri_edges.ravel(), elem.ravel(), minlength=mesh.num_edges)


def assemble_huber_jacobian(mesh: Mesh, p: np.ndarray, aq: np.ndarray, tau: float, *,
                            ws: Workspace) -> np.ndarray:
    """Element blocks of the matrix of integrals alpha * psi_e^T d2phi(p_h) psi_f.

    Returns shape (nt, 3, 3): block t couples the edges ``mesh.tri_edges[t]``
    and is symmetric PSD; the global Jacobian is the sum of the blocks
    placed at those edges.
    """
    _check_mesh(mesh, ws)
    pq = rt0_at_quadrature(ws, p)
    iso, rank1 = huber.hessian_weights(pq, tau)

    # blocks = sum over q of w_q a_q (iso_q psi_k.psi_l - rank1_q (psi_k.p)(psi_l.p)),
    # as two batched (3, m) @ (m, 3) products; with a transposed view as the
    # right operand matmul runs ~3x slower than with a contiguous copy
    wa = ws.areas[:, None] * ws.rule.weights * aq           # (nt, nq)
    pk = ws.psi[..., 0::2] * pq[:, None, :, 0] + ws.psi[..., 1::2] * pq[:, None, :, 1]  # psi_k.p
    blocks = (ws.psi * np.repeat(wa * iso, 2, axis=1)[:, None, :]) @ _transposed(ws.psi)
    blocks -= (pk * (wa * rank1)[:, None, :]) @ _transposed(pk)
    return blocks


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
