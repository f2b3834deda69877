import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkdvlab.config import NONLINEARITIES, ScenarioConfig
from gkdvlab.nonlinearity import AnalyticNonlinearity, NonFiniteResultError

# the period-4 cycle of each closed kind's derivatives at 0
AT_ZERO = {"exponential": (1.0, 1.0, 1.0, 1.0), "sine": (0.0, 1.0, 0.0, -1.0),
           "cosine": (1.0, 0.0, -1.0, 0.0)}


def taylor_list(kind, order=30):
    """The Taylor coefficients of a closed kind at 0, up to `order`: the
    oracle a `series` built from them is checked against."""
    return [AT_ZERO[kind][k % 4] / math.factorial(k) for k in range(order + 1)]


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
    coeffs = taylor_list("sine", 25)
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
    lambda: AnalyticNonlinearity.from_series(taylor_list("cosine", 28)),
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
    nl = AnalyticNonlinearity.from_series(taylor_list("exponential"))
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
    assert nl.gwp_bound(-10.0, 10.0) == 2.0


def test_gwp_bound_sine():
    nl = AnalyticNonlinearity.sine()
    assert abs(nl.gwp_bound(-50.0, 50.0) - 1.0) < 1e-6


def test_gwp_bound_cubic():
    nl = AnalyticNonlinearity.polynomial([0.0, 0.0, 0.0, 1.0])
    assert abs(nl.gwp_bound(-2.0, 2.0) - 12.0) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflow_reported():
    nl = AnalyticNonlinearity.exponential()
    with pytest.raises(NonFiniteResultError):
        nl.f(1e10)


def test_tail_decay_invariant_rejects_slow_series():
    bad = [1.0] * 25
    with pytest.raises(ValueError):
        AnalyticNonlinearity.from_series(bad)


@pytest.mark.parametrize("kind", sorted(AT_ZERO))
def test_closed_kinds_carry_no_coefficients(kind):
    # a closed kind sums no list, so it keeps none and is given none
    assert getattr(AnalyticNonlinearity, kind)().coeffs == ()
    with pytest.raises(ValueError, match="takes no coefficients"):
        AnalyticNonlinearity(kind, [1.0])


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


# ----------------------------------------------------------------------
# the closed-form table and the Horner lists

def _catalog():
    """Every catalog kind, the polynomial and series ones with a general
    coefficient list, plus a series and a polynomial built directly."""
    general = {"polynomial": (0.3, -1.0, 0.5, 0.2, -0.05),
               "series": taylor_list("cosine", 28)}
    nls = {kind: ScenarioConfig(
        nonlinearity_kind=kind,
        nonlinearity_coefficients=general.get(kind, ())).nonlinearity()
        for kind in NONLINEARITIES}
    nls["series_exp"] = AnalyticNonlinearity.from_series(
        taylor_list("exponential", 19))
    nls["polynomial_deg5"] = AnalyticNonlinearity.polynomial(
        [1.0, -2.0, 0.0, 3.0, 0.5, -0.25])
    return nls


CATALOG = _catalog()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_derivatives_and_primitive_match_finite_differences(name):
    # central differences at h = 1e-5 on [-3, 3]: truncation h^2/6 |g'''|
    # and rounding 1e-16 |g| / h stay below 1e-8 relative to max(|g'|, 1)
    # for every g here (|g'''| <= 2e3 on this range); 1e-6 is the bound of
    # the f' check above, a sign or factor slip moves the ratio by O(1)
    nl = CATALOG[name]
    xs = np.random.default_rng(7).uniform(-3.0, 3.0, size=200)
    h = 1e-5
    for g, dg in ((nl.f, nl.fp), (nl.fp, nl.fpp), (nl.F, nl.f)):
        fd = (g(xs + h) - g(xs - h)) / (2.0 * h)
        scale = np.maximum(np.abs(dg(xs)), 1.0)
        assert np.max(np.abs(fd - dg(xs)) / scale) < 1e-6, (name, dg)
    assert nl.F(0.0) == 0.0 and nl.F(np.zeros(3)).tolist() == [0.0] * 3


def if_chain(nl, which, x):
    """f, f', f'' and F as the kind dispatch wrote them, one if-chain each."""
    if which == "f":
        if nl.kind == "exponential":
            return np.exp(x)
        if nl.kind == "sine":
            return np.sin(x)
        if nl.kind == "cosine":
            return np.cos(x)
        return horner(nl.coeffs, x)
    if which == "fp":
        if nl.kind == "exponential":
            return np.exp(x)
        if nl.kind == "sine":
            return np.cos(x)
        if nl.kind == "cosine":
            return -np.sin(x)
        return horner([k * a for k, a in enumerate(nl.coeffs)][1:] or [0.0], x)
    if which == "fpp":
        if nl.kind == "exponential":
            return np.exp(x)
        if nl.kind == "sine":
            return -np.sin(x)
        if nl.kind == "cosine":
            return -np.cos(x)
        return horner([k * (k - 1) * a for k, a in enumerate(nl.coeffs)][2:]
                      or [0.0], x)
    if nl.kind == "exponential":
        return np.expm1(x)
    if nl.kind == "sine":
        return 1.0 - np.cos(x)
    if nl.kind == "cosine":
        return np.sin(x)
    return horner([0.0] + [a / (k + 1) for k, a in enumerate(nl.coeffs)], x)


def horner(coeffs, x):
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


@pytest.mark.parametrize("name", sorted(CATALOG) + ["series_empty"])
def test_table_is_the_if_chains(name):
    nl = CATALOG.get(name) or AnalyticNonlinearity.from_series(())
    x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, np.pi, -np.pi],
                        np.random.default_rng(8).uniform(-8.0, 8.0, 250)])
    for which in ("f", "fp", "fpp", "F"):
        for point in (x, 0.7, -0.0):
            got, want = getattr(nl, which)(point), if_chain(nl, which, point)
            assert np.array_equal(got, want), (name, which)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_record_is_a_hashable_picklable_value():
    # flux_grid is cached on the record and the record crosses processes:
    # its fields are kind and coeffs, whatever it has evaluated
    for nl in CATALOG.values():
        nl.f(0.5)
        back = pickle.loads(pickle.dumps(nl))
        assert back == nl and hash(back) == hash(nl)
        assert back.f(0.5) == nl.f(0.5)
        assert [f.name for f in dataclasses.fields(nl)] == ["kind", "coeffs"]
        assert nl.order == len(nl.coeffs) - 1


def test_polynomial_without_coefficients_is_zero():
    nl = AnalyticNonlinearity.polynomial(())
    assert nl == AnalyticNonlinearity.polynomial([0.0, 0.0, 0.0])
    assert nl.coeffs == (0.0,) and nl.polynomial_degree() == 0


# ----------------------------------------------------------------------
# the Taylor plan

def comb_loop_taylor(nl, x):
    """The Taylor tables from math.comb on every call and a filled array
    for c_d, kept as the reference for taylor's plan."""
    from math import comb

    a, d, out = nl.coeffs, nl.order, []
    for k in range(1, d + 1):
        acc = comb(d, k) * a[d] * x if k < d else np.full(np.shape(x), a[d])
        for j in range(d - 1, k - 1, -1):
            acc += comb(j, k) * a[j]
            if j > k:
                acc *= x
        out.append(acc)
    return out


def assert_taylor_is_the_comb_loop(nl, x):
    # bit for bit, signed zeros included, twice: the second call reads the
    # plan and the shared table of c_d the first one built
    for _ in range(2):
        got, want = nl.taylor(x), comb_loop_taylor(nl, x)
        assert len(got) == len(want) == nl.order
        for a, b in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def taylor_points(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300],
                           3.0 * rng.standard_normal(58)])


@pytest.mark.parametrize("name", sorted(
    name for name, nl in CATALOG.items() if nl.polynomial_degree() is not None))
def test_taylor_plan_is_the_comb_loop_on_the_catalog(name):
    nl = CATALOG[name]
    x = taylor_points(11)
    for points in (x, x.reshape(4, 16), 0.7):
        assert_taylor_is_the_comb_loop(nl, points)
    # c_d = a_d is one read-only table per shape, shared by every call
    top = nl.taylor(x)[-1]
    assert nl.taylor(2.0 * x)[-1] is top and not top.flags.writeable
    with pytest.raises(ValueError):
        top[0] = 0.0


@pytest.mark.parametrize("protocol", [4, 5])
def test_pickled_taylor_tables_stay_read_only(protocol):
    # a round trip carries the fields only: the plan and the shared c_d
    # table come back rebuilt, read-only, so no write can reach the flux
    nl = AnalyticNonlinearity.mkdv_defocusing()
    x = taylor_points(3)
    nl.taylor(x)                    # plan and table built before pickling
    back = pickle.loads(pickle.dumps(nl, protocol=protocol))
    assert back == nl and hash(back) == hash(nl)
    top = back.taylor(x)[-1]
    with pytest.raises(ValueError):
        top[-1] = 99.0
    assert back.taylor(x)[-1] is top and np.all(top == -1.0)
    for got, want in zip(back.taylor(x), nl.taylor(x), strict=True):
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(
    -10.0, 10.0), min_size=1, max_size=7), trimmed=st.booleans(),
    seed=st.integers(0, 2 ** 16))
def test_taylor_plan_is_the_comb_loop(coeffs, trimmed, seed):
    # degrees 0-6, zero and signed-zero coefficients; built directly, a
    # list keeps its trailing zeros, so c_d may be a zero of either sign
    nl = (AnalyticNonlinearity.polynomial(coeffs) if trimmed
          else AnalyticNonlinearity("polynomial", coeffs))
    x = taylor_points(seed)
    for points in (x, x.reshape(2, 32), float(x[-1])):
        assert_taylor_is_the_comb_loop(nl, points)
