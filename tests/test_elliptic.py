import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from gkdvlab.elliptic import complete_elliptic_k, jacobi_cn_dn, jacobi_sn_cn_dn

# the quadrature oracles run scipy.integrate.quad at tolerances where it
# reports its own roundoff detection; that is expected for oracle use
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9, 0.99])
def test_normalization_at_zero(kappa):
    cn, dn = jacobi_cn_dn(0.0, kappa)
    assert abs(cn - 1.0) < 1e-14
    assert abs(dn - 1.0) < 1e-14


@pytest.mark.parametrize("u", [0.3, 1.1])
def test_degenerate_modulus_is_cosine(u):
    cn, dn = jacobi_cn_dn(u, 0.0)
    assert abs(cn - np.cos(u)) < 1e-14
    assert abs(dn - 1.0) < 1e-14


def _incomplete_integral(phi, kappa):
    return quad(lambda th: 1.0 / np.sqrt(1.0 - (kappa * np.sin(th)) ** 2),
                0.0, phi, epsabs=1e-14, epsrel=1e-14)[0]


@pytest.mark.parametrize("kappa,u", [(0.9, 1.0), (0.5, 0.7), (0.99, 1.3)])
def test_against_quadrature_inversion(kappa, u):
    # invert u = integral_0^phi dtheta / sqrt(1 - kappa^2 sin^2 theta)
    phi = brentq(lambda p: _incomplete_integral(p, kappa) - u, 0.0, np.pi / 2.0,
                 xtol=1e-14)
    cn, dn = jacobi_cn_dn(u, kappa)
    assert abs(cn - np.cos(phi)) < 1e-10
    assert abs(dn - np.sqrt(1.0 - (kappa * np.sin(phi)) ** 2)) < 1e-10


@pytest.mark.parametrize("kappa", [0.3, 0.8])
def test_periodicity(kappa):
    K = complete_elliptic_k(kappa)
    us = np.linspace(-3.0, 3.0, 17)
    cn0, dn0 = jacobi_cn_dn(us, kappa)
    cn4, dn4 = jacobi_cn_dn(us + 4.0 * K, kappa)
    cn2, dn2 = jacobi_cn_dn(us + 2.0 * K, kappa)
    assert np.max(np.abs(cn4 - cn0)) < 1e-10
    assert np.max(np.abs(cn2 + cn0)) < 1e-10
    assert np.max(np.abs(dn2 - dn0)) < 1e-10


def test_pythagorean_identities():
    rng = np.random.default_rng(0)
    for kappa in (0.2, 0.6, 0.95):
        us = rng.uniform(-10.0, 10.0, size=64)
        sn, cn, dn = jacobi_sn_cn_dn(us, kappa)
        assert np.max(np.abs(sn ** 2 + cn ** 2 - 1.0)) < 1e-12
        assert np.max(np.abs(dn ** 2 + (kappa * sn) ** 2 - 1.0)) < 1e-12


def test_quarter_period_value():
    # K(kappa) for kappa = 1/sqrt(2): known value via the AGM of 1 and kappa'
    kappa = 1.0 / np.sqrt(2.0)
    val = complete_elliptic_k(kappa)
    oracle = quad(lambda th: 1.0 / np.sqrt(1.0 - (kappa * np.sin(th)) ** 2),
                  0.0, np.pi / 2.0, epsabs=1e-14)[0]
    assert abs(val - oracle) < 1e-12


def test_modulus_out_of_range():
    with pytest.raises(ValueError):
        jacobi_cn_dn(1.0, 1.5)
    with pytest.raises(ValueError):
        jacobi_cn_dn(1.0, -0.1)


@pytest.mark.parametrize("kappa", [0.1, 0.5, 0.8, 0.999])
def test_against_mpmath_oracle(kappa):
    # dn taken as cn/cos(phi_1 - phi_0) is 0/0 where cn vanishes and was
    # off by up to 6e-13 here; sqrt(1 - kappa^2 sn^2) has no such point
    import mpmath

    us = np.linspace(-25.0, 25.0, 201)
    sn, cn, dn = jacobi_sn_cn_dn(us, kappa)
    with mpmath.workdps(40):
        m = mpmath.mpf(kappa) ** 2
        ref = np.array([[float(mpmath.ellipfun(name, mpmath.mpf(u), m=m))
                         for u in us] for name in ("sn", "cn", "dn")])
    assert np.max(np.abs(dn - ref[2])) <= 2e-14
    # sn and cn carry the argument's rounding, |u| * eps, amplified near
    # kappa = 1 by the descent
    assert np.max(np.abs(sn - ref[0])) <= 5e-14
    assert np.max(np.abs(cn - ref[1])) <= 5e-14


def _reference_sn_cn(u, kappa):
    """The descent with a fresh ladder and the arcsin argument clipped."""
    a, c = [1.0], [kappa]
    b = np.sqrt(1.0 - kappa * kappa)
    while c[-1] > 1e-15 and len(a) < 32:
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        c.append(0.5 * (a_prev - b))
        b = np.sqrt(a_prev * b)
    phi = (2.0 ** (len(a) - 1)) * a[-1] * np.asarray(u, dtype=float)
    for m in range(len(a) - 1, 0, -1):
        ratio = np.clip(c[m] / a[m] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(ratio))
    return np.sin(phi), np.cos(phi)


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.8, 0.99, 0.999999])
def test_sn_cn_bitwise_equal_to_clipped_descent(kappa):
    # the clip never acts (|c_m/a_m sin phi| <= c_m/a_m < 1) and the
    # cached ladder, which serves every call after the first, is the same
    # ladder: sn and cn must not move at all
    rng = np.random.default_rng(7)
    us = rng.uniform(-60.0, 60.0, size=257)
    for u in (us, us[0], float(us[1]), us.reshape(1, -1)):
        sn, cn, _ = jacobi_sn_cn_dn(u, kappa)
        want_sn, want_cn = _reference_sn_cn(u, kappa)
        assert np.array_equal(sn, want_sn)
        assert np.array_equal(cn, want_cn)
