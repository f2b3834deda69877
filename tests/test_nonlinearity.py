import numpy as np
import pytest

from gkdvlab.nonlinearity import AnalyticNonlinearity, NonFiniteResultError


def test_kdv_closed_form():
    nl = AnalyticNonlinearity.kdv()
    assert nl.f(3.0) == 9.0
    assert nl.fp(2.0) == 4.0
    assert nl.fpp(2.0) == 2.0
    assert nl.F(3.0) == 9.0


def test_exponential_at_zero():
    nl = AnalyticNonlinearity.exponential()
    assert nl.f(0.0) == 1.0
    assert nl.F(0.0) == 0.0


def test_custom_series_matches_sine():
    coeffs = AnalyticNonlinearity.sine(order=25).coeffs
    series = AnalyticNonlinearity.from_series(coeffs)
    assert abs(series.f(np.pi / 2.0) - 1.0) < 1e-12


def test_cosine_second_derivative():
    nl = AnalyticNonlinearity.cosine()
    assert abs(nl.fpp(0.0) + 1.0) < 1e-15


def test_sine_primitive_closed_form():
    nl = AnalyticNonlinearity.sine()
    assert abs(nl.F(np.pi) - 2.0) < 1e-12
    assert nl.F(0.0) == 0.0


@pytest.mark.parametrize("maker", [
    AnalyticNonlinearity.kdv,
    AnalyticNonlinearity.mkdv_focusing,
    lambda: AnalyticNonlinearity.gardner(0.5),
    AnalyticNonlinearity.exponential,
    AnalyticNonlinearity.sine,
    AnalyticNonlinearity.cosine,
    lambda: AnalyticNonlinearity.from_series(
        AnalyticNonlinearity.cosine(order=28).coeffs),
])
def test_fp_matches_finite_differences(maker):
    nl = maker()
    rng = np.random.default_rng(3)
    xs = rng.uniform(-10.0, 10.0, size=100)
    h = 1e-5
    fd = (nl.f(xs + h) - nl.f(xs - h)) / (2.0 * h)
    scale = np.maximum(np.abs(nl.fp(xs)), 1.0)
    assert np.max(np.abs(fd - nl.fp(xs)) / scale) < 1e-6


@pytest.mark.parametrize("maker", [
    AnalyticNonlinearity.kdv,
    AnalyticNonlinearity.exponential,
    AnalyticNonlinearity.sine,
])
def test_primitive_differentiates_back(maker):
    nl = maker()
    rng = np.random.default_rng(4)
    xs = rng.uniform(-5.0, 5.0, size=50)
    h = 1e-5
    fd = (nl.F(xs + h) - nl.F(xs - h)) / (2.0 * h)
    scale = np.maximum(np.abs(nl.f(xs)), 1.0)
    assert np.max(np.abs(fd - nl.f(xs)) / scale) < 1e-6


def test_custom_series_fd_oracle_at_07():
    nl = AnalyticNonlinearity.from_series(
        AnalyticNonlinearity.exponential(order=30).coeffs)
    h = 1e-5
    fd = (nl.f(0.7 + h) - nl.f(0.7 - h)) / (2.0 * h)
    assert abs(fd - nl.fp(0.7)) / abs(nl.fp(0.7)) < 1e-8


def test_polynomial_integer_exactness():
    nl = AnalyticNonlinearity.polynomial([1.0, -2.0, 0.0, 3.0])
    # 1 - 2x + 3x^3 at x = 1/2: 1 - 1 + 3/8
    assert nl.f(0.5) == 0.375
    assert nl.fp(0.5) == -2.0 + 9.0 * 0.25
    assert nl.fpp(0.5) == 18.0 * 0.5


def test_gwp_bound_quadratic():
    nl = AnalyticNonlinearity.kdv()
    bound = nl.gwp_bound(-10.0, 10.0)
    assert bound.M == 2.0
    assert bound.hypothesis_holds


def test_gwp_bound_sine():
    nl = AnalyticNonlinearity.sine()
    bound = nl.gwp_bound(-50.0, 50.0)
    assert abs(bound.M - 1.0) < 1e-6
    assert bound.hypothesis_holds


def test_gwp_bound_cubic():
    nl = AnalyticNonlinearity.polynomial([0.0, 0.0, 0.0, 1.0])
    bound = nl.gwp_bound(-2.0, 2.0)
    assert abs(bound.M - 12.0) < 1e-12
    assert not bound.hypothesis_holds


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflow_reported():
    nl = AnalyticNonlinearity.exponential()
    with pytest.raises(NonFiniteResultError):
        nl.f(1e10)


def test_tail_decay_invariant_rejects_slow_series():
    bad = [1.0] * 25
    with pytest.raises(ValueError):
        AnalyticNonlinearity.from_series(bad)


def test_series_tail_proxy_satisfied_for_catalog():
    for maker in (AnalyticNonlinearity.exponential, AnalyticNonlinearity.sine,
                  AnalyticNonlinearity.cosine):
        nl = maker()
        a_top = abs(nl.coeffs[-1])
        if a_top > 0:
            assert a_top ** (1.0 / nl.order) <= 0.1


def filled_loop_taylor(nl, x):
    """Taylor tables with each Horner chain started from a filled array."""
    from math import comb

    a, d, out = nl.coeffs, nl.order, []
    for k in range(1, d + 1):
        out.append(np.full(np.shape(x), comb(d, k) * a[d]))
        for j in range(d - 1, k - 1, -1):
            out[-1] *= x
            out[-1] += comb(j, k) * a[j]
    return out


@pytest.mark.parametrize("coeffs", [
    [0.3, -1.7], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, -0.5],
    [1.0, -2.0, 3.0, 5.0, -1.0], [0.1, 0.2, -0.3, 0.7, 1.3],
], ids=["deg1", "kdv", "mkdv", "gardner", "deg4", "deg4b"])
def test_taylor_is_the_filled_array_loop(coeffs):
    rng = np.random.default_rng(4)
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300],
                        3.0 * rng.standard_normal(250)]).reshape(4, 64)
    nl = AnalyticNonlinearity.polynomial(coeffs)
    got, want = nl.taylor(x), filled_loop_taylor(nl, x)
    assert len(got) == len(want) == nl.order
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_taylor_coefficients_integer_exact():
    # c_k(x) = f^(k)(x)/k! = sum_j C(j, k) a_j x^(j-k), exact on integers
    from math import comb

    coeffs = [1, -2, 3, 5, -1]
    nl = AnalyticNonlinearity.polynomial(coeffs)
    x = np.arange(-3.0, 4.0)
    got = nl.taylor(x)
    assert len(got) == 4
    for k, c in enumerate(got, start=1):
        want = [sum(comb(j, k) * a * int(v) ** (j - k)
                    for j, a in enumerate(coeffs) if j >= k) for v in x]
        assert np.array_equal(c, want)
