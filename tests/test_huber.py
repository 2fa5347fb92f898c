import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcon import huber
from gradcon.huber import d2phi, dphi, phi

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
taus = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def test_phi_values():
    assert phi([0.0, 0.0], 0.3) == 0.0
    assert phi([0.2, 0.0], 0.1) == pytest.approx(0.15, abs=1e-15)
    assert phi([0.05, 0.0], 0.1) == pytest.approx(0.0125, abs=1e-15)


def test_dphi_values():
    assert np.allclose(dphi([0.0, 0.0], 0.1), [0.0, 0.0])
    assert np.allclose(dphi([0.2, 0.0], 0.1), [1.0, 0.0])
    assert np.allclose(dphi([0.05, 0.0], 0.1), [0.5, 0.0])


def test_d2phi_values():
    assert np.allclose(d2phi([0.0, 0.0], 0.5), [[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(d2phi([1.0, 0.0], 0.1), [[0.0, 0.0], [0.0, 1.0]])
    assert np.allclose(d2phi([0.6, 0.8], 0.1),
                       [[0.64, -0.48], [-0.48, 0.36]], atol=1e-15)


def test_norm_is_bit_identical_to_linalg_norm():
    rng = np.random.default_rng(0)
    for scale in (1e-8, 1e-4, 1.0, 1e3):
        v = scale * rng.normal(size=(64, 7, 2))
        v[0] = 0.0
        v[1, :, 0] = 0.0
        assert np.array_equal(huber._norm(v), np.linalg.norm(v, axis=-1))
        assert np.array_equal(huber._norm(v[3, 2]), np.linalg.norm(v[3, 2]))


def test_rejects_nonpositive_tau():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            phi([1.0, 0.0], bad)
        with pytest.raises(ValueError):
            dphi([1.0, 0.0], bad)
        with pytest.raises(ValueError):
            d2phi([1.0, 0.0], bad)


def test_branches_agree_at_switch():
    for tau in (0.1, 0.7, 2.5):
        for theta in np.linspace(0.0, 2 * np.pi, 9):
            v = tau * np.array([np.cos(theta), np.sin(theta)])
            r = np.linalg.norm(v)
            quad_phi = r * r / (2 * tau)
            lin_phi = r - 0.5 * tau
            assert abs(quad_phi - lin_phi) <= 1e-14
            assert np.allclose(v / tau, v / r, atol=1e-14)
            assert abs(phi(v, tau) - quad_phi) <= 1e-14


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        v = rng.uniform(-2.0, 2.0, size=2)
        tau = rng.uniform(0.05, 1.5)
        r = np.linalg.norm(v)
        if abs(r - tau) < 0.05 or r < 0.02:  # stay off the switch and the origin kink scale
            continue
        eps = 1e-6
        grad_fd = np.array([
            (phi(v + [eps, 0.0], tau) - phi(v - [eps, 0.0], tau)) / (2 * eps),
            (phi(v + [0.0, eps], tau) - phi(v - [0.0, eps], tau)) / (2 * eps),
        ])
        assert np.allclose(dphi(v, tau), grad_fd, atol=5e-9)
        checked += 1


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 1000:
        v = rng.uniform(-2.0, 2.0, size=2)
        tau = rng.uniform(0.05, 1.5)
        r = np.linalg.norm(v)
        if abs(r - tau) < 0.05 or r < 0.05:
            continue
        eps = 1e-6
        hess_fd = np.column_stack([
            (dphi(v + [eps, 0.0], tau) - dphi(v - [eps, 0.0], tau)) / (2 * eps),
            (dphi(v + [0.0, eps], tau) - dphi(v - [0.0, eps], tau)) / (2 * eps),
        ])
        assert np.allclose(d2phi(v, tau), hess_fd, atol=5e-7 * max(1.0, 1.0 / tau))
        checked += 1


def test_monotone_convergence_to_norm():
    rng = np.random.default_rng(44)
    v = rng.uniform(-3.0, 3.0, size=(200, 2))
    r = np.linalg.norm(v, axis=-1)
    for tau in (1.0, 0.1, 1e-3, 1e-6):
        diff = r - phi(v, tau)
        assert np.all(diff >= -1e-15)
        assert np.all(diff <= tau / 2 + 1e-15)


def test_hessian_psd_random():
    rng = np.random.default_rng(45)
    v = rng.uniform(-4.0, 4.0, size=(500, 2))
    tau = 0.3
    eigs = np.linalg.eigvalsh(d2phi(v, tau))
    assert np.all(eigs >= -1e-14)


@settings(max_examples=200, deadline=None)
@given(finite, finite, taus)
def test_properties_hypothesis(vx, vy, tau):
    v = np.array([vx, vy])
    r = np.linalg.norm(v)
    value = phi(v, tau)
    assert value >= 0.0
    assert r - value <= tau / 2 + 1e-12 and r - value >= -1e-12
    assert np.linalg.norm(dphi(v, tau)) <= 1.0 + 1e-12
    assert np.all(np.linalg.eigvalsh(d2phi(v, tau)) >= -1e-12)


def test_vectorized_shapes():
    v = np.zeros((4, 6, 2))
    assert phi(v, 0.5).shape == (4, 6)
    assert dphi(v, 0.5).shape == (4, 6, 2)
    assert d2phi(v, 0.5).shape == (4, 6, 2, 2)
