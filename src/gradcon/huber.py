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


def isotropic_weight(v, tau: float):
    """iso = 1/max(|v|, tau), of shape v.shape[:-1]: 1/tau inside, 1/|v| outside.

    ``dphi(v) = iso v`` and ``d2phi(v) = iso I - rank1 v v^T``; one weight
    serves both branches, so a kernel needs no branch mask for it.
    """
    return 1.0 / np.maximum(_norm(v), _check_tau(tau))


def dphi(v, tau: float):
    """Gradient of ``phi``: v/tau inside, v/|v| outside; |dphi| <= 1."""
    v = np.asarray(v, dtype=float)
    return v * isotropic_weight(v, tau)[..., None]


def hessian_weights(v, tau: float):
    """(iso, rank1) with ``d2phi(v) = iso I - rank1 v v^T``, each of shape v.shape[:-1].

    rank1 is iso^3 = 1/|v|^3 outside and 0 inside.
    """
    tau = _check_tau(tau)
    r = _norm(v)
    iso = 1.0 / np.maximum(r, tau)
    return iso, (r > tau) * (iso * iso * iso)


def d2phi(v, tau: float):
    """Hessian of ``phi``: I/tau inside, (I - v v^T/|v|^2)/|v| outside."""
    v = np.asarray(v, dtype=float)
    iso, rank1 = hessian_weights(v, tau)
    # entry by entry: broadcasting a (..., 2, 2) outer product is ~10x slower
    vx, vy = v[..., 0], v[..., 1]
    xy = -rank1 * (vx * vy)
    hess = [iso - rank1 * (vx * vx), xy, xy, iso - rank1 * (vy * vy)]
    return np.stack(hess, axis=-1).reshape(v.shape + (2,))
