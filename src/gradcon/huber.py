"""Huber smoothing of the Euclidean norm and its first two derivatives.

``phi(v, tau)`` is quadratic for |v| <= tau and linear outside, matching the
norm up to tau/2.  All kernels broadcast over leading axes, so ``v`` may be
a single 2-vector or an array of shape (..., 2); ``norm`` and
``norm_weights`` take the x and y values of v, or |v|, as separate arrays,
for kernels that hold a field that way.  The switch case |v| = tau is
assigned to the quadratic branch; both branches agree there.
"""

from __future__ import annotations

import numpy as np


def check_tau(tau: float) -> float:
    """tau as a float; raises ValueError unless it is positive."""
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"smoothing radius must be positive, got {tau}")
    return tau


def norm(vx, vy):
    """|v| from its x and y values: np.linalg.norm's bits, without its reduction."""
    r = vx * vx
    r += vy * vy
    return np.sqrt(r)


def _norm(v):
    """|v| over the last axis of a (..., 2) array."""
    return norm(v[..., 0], v[..., 1])


def phi(v, tau: float):
    """Smoothed norm: |v|^2/(2 tau) inside, |v| - tau/2 outside."""
    tau = check_tau(tau)
    v = np.asarray(v, dtype=float)
    r = _norm(v)
    return np.where(r <= tau, r * r / (2.0 * tau), r - 0.5 * tau)


def dphi(v, tau: float):
    """Gradient of ``phi``: v/tau inside, v/|v| outside; |dphi| <= 1."""
    v = np.asarray(v, dtype=float)
    return v * norm_weights(_norm(v), tau)[0][..., None]


def norm_weights(r, tau: float):
    """(iso, rank1) with ``d2phi(v) = iso I - rank1 v v^T`` at points where |v| = r.

    iso is 1/max(r, tau), which also gives ``dphi(v) = iso v``: one weight
    serves both branches, so a kernel needs no branch mask for it.  rank1
    is iso/|v|^2 = 1/|v|^3 outside and 0 inside.  ``dphi`` and ``d2phi``
    take their weights from here.
    """
    m = np.maximum(r, check_tau(tau))
    iso = 1.0 / m
    m *= m
    rank1 = iso / m
    rank1 *= r > tau
    return iso, rank1


def d2phi(v, tau: float):
    """Hessian of ``phi``: I/tau inside, (I - v v^T/|v|^2)/|v| outside."""
    v = np.asarray(v, dtype=float)
    iso, rank1 = norm_weights(_norm(v), tau)
    # entry by entry: broadcasting a (..., 2, 2) outer product is ~10x slower
    vx, vy = v[..., 0], v[..., 1]
    xy = -rank1 * (vx * vy)
    hess = [iso - rank1 * (vx * vx), xy, xy, iso - rank1 * (vy * vy)]
    return np.stack(hess, axis=-1).reshape(v.shape + (2,))
