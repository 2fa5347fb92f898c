"""Huber smoothing of the Euclidean norm and its first two derivatives.

``phi(v, tau)`` is quadratic for |v| <= tau and linear outside, matching the
norm up to tau/2.  All kernels broadcast over leading axes, so ``v`` may be
a single 2-vector or an array of shape (..., 2).  The switch case |v| = tau
is assigned to the quadratic branch; both branches agree there.
"""

from __future__ import annotations

import numpy as np


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"smoothing radius must be positive, got {tau}")
    return tau


def _norm(v):
    """|v| over the last axis of a (..., 2) array: np.linalg.norm's bits, without its reduction."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def phi(v, tau: float):
    """Smoothed norm: |v|^2/(2 tau) inside, |v| - tau/2 outside."""
    tau = _check_tau(tau)
    v = np.asarray(v, dtype=float)
    r = _norm(v)
    return np.where(r <= tau, r * r / (2.0 * tau), r - 0.5 * tau)


def _weights(v, tau: float):
    """(quad, safe_r, iso): the inside mask, |v| guarded to 1 inside, and 1/tau or 1/|v|."""
    tau = _check_tau(tau)
    r = _norm(v)
    quad = r <= tau
    safe_r = np.where(quad, 1.0, r)  # outside branch has r > tau > 0
    return quad, safe_r, np.where(quad, 1.0 / tau, 1.0 / safe_r)


def dphi(v, tau: float):
    """Gradient of ``phi``: v/tau inside, v/|v| outside; |dphi| <= 1."""
    v = np.asarray(v, dtype=float)
    return v * _weights(v, tau)[2][..., None]


def hessian_weights(v, tau: float):
    """(iso, rank1) with ``d2phi(v) = iso I - rank1 v v^T``, each of shape v.shape[:-1]."""
    quad, safe_r, iso = _weights(v, tau)
    return iso, np.where(quad, 0.0, 1.0 / safe_r**3)


def d2phi(v, tau: float):
    """Hessian of ``phi``: I/tau inside, (I - v v^T/|v|^2)/|v| outside."""
    v = np.asarray(v, dtype=float)
    iso, rank1 = hessian_weights(v, tau)
    # entry by entry: broadcasting a (..., 2, 2) outer product is ~10x slower
    vx, vy = v[..., 0], v[..., 1]
    xy = -rank1 * (vx * vy)
    hess = [iso - rank1 * (vx * vx), xy, xy, iso - rank1 * (vy * vy)]
    return np.stack(hess, axis=-1).reshape(v.shape + (2,))
