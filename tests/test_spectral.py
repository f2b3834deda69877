import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gkdvlab.background import GardnerKink, MKdVKink, ZeroBackground
from gkdvlab.nonlinearity import AnalyticNonlinearity
from gkdvlab.solver import SpectralCore, rhs
from gkdvlab.spectral import (
    Grid,
    PhysicalField,
    SizeMismatchError,
    SpectralField,
    Trajectory,
    UnresolvedFieldError,
    airy_propagate,
    bessel_potential,
    dissipative_propagate,
    dyadic_band,
    dyadic_bump,
    flux_coefficients,
    flux_grid,
    flux_tables,
    inverse_transform,
    l2_norm,
    lp_low_block,
    lp_project,
    lp_project_below,
    pseudoproduct,
    require_resolved,
    riesz_potential,
    smooth_cutoff,
    smoothing_constant,
    spatial_derivative,
    tail_fraction_of_spectrum,
    transform,
)


@pytest.fixture
def grid():
    return Grid(20.0, 512)


def random_field(grid, seed=0, band=None):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.xi.size, dtype=complex)
    jmax = band or grid.n // 2 - 1
    coeffs[1:jmax] = (rng.standard_normal(jmax - 1)
                      + 1j * rng.standard_normal(jmax - 1))
    coeffs[0] = rng.standard_normal()
    return inverse_transform(SpectralField(grid, coeffs))


# ----------------------------------------------------------------------
# grid and transforms

def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        Grid(10.0, 300)


def test_constant_field_coefficients(grid):
    f = PhysicalField(grid, np.full(grid.n, 2.5))
    coeffs = transform(f).coeffs
    assert abs(coeffs[0] - 2.5) < 1e-14
    assert np.max(np.abs(coeffs[1:])) < 1e-14


def test_cosine_splits_into_two_bins(grid):
    j = 9
    xi1 = np.pi * j / grid.half_length
    f = PhysicalField(grid, np.cos(xi1 * grid.x))
    coeffs = transform(f).coeffs
    assert abs(coeffs[j] - 0.5) < 1e-13
    # bin j stands for both modes +-j, so every other bin is empty
    coeffs[j] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-13


def test_round_trip_and_parseval(grid):
    f = random_field(grid, seed=1)
    back = inverse_transform(transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    spec = transform(f)
    parseval = 2.0 * grid.half_length * np.sum(
        grid.multiplicity * np.abs(spec.coeffs) ** 2)
    assert abs(parseval - l2_norm(f) ** 2) < 1e-10 * l2_norm(f) ** 2


def test_exact_sign_round_trip_random_grids():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = Grid(rng.uniform(0.1, 100.0), 2 ** int(rng.integers(0, 11)))
        f = PhysicalField(g, rng.uniform(-1.0, 1.0, g.n))
        spec = transform(f)
        assert spec.hermitian_defect() == 0.0
        assert np.max(np.abs(inverse_transform(spec).values - f.values)) <= 1e-15


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([2 ** e for e in range(12)]),
       half_length=st.floats(0.1, 100.0), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, half_length=7.5, seed=0)
@example(n=2, half_length=7.5, seed=0)
def test_half_spectrum_properties(n, half_length, seed):
    grid = Grid(half_length, n)
    f = PhysicalField(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, n))
    spec = transform(f)
    assert spec.coeffs.shape == (n // 2 + 1,)
    assert spec.hermitian_defect() == 0.0
    # the complex-to-real inverse at 2048 points lands one rounding step
    # (1.1e-16) above 1e-15 in about 5 of 10^4 uniform draws
    bound = 1e-15 if n <= 1024 else 1.25e-15
    assert np.max(np.abs(inverse_transform(spec).values - f.values)) <= bound
    # Parseval on the half spectrum: interior bins stand for +-j
    mass = 2.0 * half_length * np.sum(
        grid.multiplicity * np.abs(spec.coeffs) ** 2)
    assert abs(mass - l2_norm(f) ** 2) <= 1e-14 * l2_norm(f) ** 2
    # the dyadic blocks and the low block partition unity on every bin
    total = lp_low_block(spec).coeffs.copy()
    for block in dyadic_band(grid):
        total += lp_project(spec, block).coeffs
    assert np.max(np.abs(total - spec.coeffs)) <= 1e-14


def test_sign_is_left_end_phase():
    # the samples of cos(xi_j x) start at x = -L with the phase (-1)^j; the
    # transform must remove it to leave 1/2 in bin j (1 in bins 0 and n/2,
    # where the modes +-j coincide) and nothing elsewhere
    for n in (1, 2, 8, 1024):
        g = Grid(7.5, n)
        for j, xi in enumerate(g.xi):
            want = np.zeros(g.xi.size)
            want[j] = 1.0 / g.multiplicity[j]
            got = transform(PhysicalField(g, np.cos(xi * g.x))).coeffs
            assert np.max(np.abs(got - want)) < 1e-12


def test_size_mismatch_rejected(grid):
    other = Grid(20.0, 256)
    with pytest.raises(SizeMismatchError):
        PhysicalField(grid, np.zeros(grid.n)) + PhysicalField(other,
                                                              np.zeros(other.n))


def test_hermitian_symmetry_of_real_fields(grid):
    f = random_field(grid, seed=2)
    assert transform(f).hermitian_defect() < 1e-12


# ----------------------------------------------------------------------
# derivatives and potentials

def test_derivative_of_sine(grid):
    xi1 = np.pi * 5 / grid.half_length
    f = PhysicalField(grid, np.sin(xi1 * grid.x))
    df = inverse_transform(spatial_derivative(transform(f), 1))
    assert np.max(np.abs(df.values - xi1 * np.cos(xi1 * grid.x))) < 1e-11


def test_third_derivative_single_mode(grid):
    j = 4
    xi1 = np.pi * j / grid.half_length
    spec = np.zeros(grid.xi.size, dtype=complex)
    spec[j] = 1.0
    out = spatial_derivative(SpectralField(grid, spec), 3)
    assert abs(out.coeffs[j] - (1j * xi1) ** 3) < 1e-14


def test_derivative_against_high_order_differences():
    grid = Grid(15.0, 1024)
    f = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    df = inverse_transform(spatial_derivative(transform(f), 1)).values
    v = f.values
    h = grid.dx
    fd = (-np.roll(v, 3) + 9 * np.roll(v, 2) - 45 * np.roll(v, 1)
          + 45 * np.roll(v, -1) - 9 * np.roll(v, -2) + np.roll(v, -3)) / (60 * h)
    assert np.max(np.abs(df - fd)) <= 1e-8 * np.max(np.abs(df))


def test_bessel_identity_and_inverse(grid):
    f = random_field(grid, seed=3)
    spec = transform(f)
    assert np.max(np.abs(bessel_potential(spec, 0.0).coeffs - spec.coeffs)) == 0.0
    round_trip = bessel_potential(bessel_potential(spec, 1.3), -1.3)
    assert np.max(np.abs(round_trip.coeffs - spec.coeffs)) < 1e-12


def test_bessel_single_mode_amplitude(grid):
    j = 8
    xi1 = np.pi * j / grid.half_length
    spec = np.zeros(grid.xi.size, dtype=complex)
    spec[j] = 1.0
    out = bessel_potential(SpectralField(grid, spec), 0.7)
    assert abs(out.coeffs[j] - (1.0 + xi1 ** 2) ** 0.35) < 1e-14


def test_riesz_annihilates_zero_mode(grid):
    f = PhysicalField(grid, np.full(grid.n, 1.0))
    for s in (0.5, -0.5):
        out = riesz_potential(transform(f), s)
        assert np.max(np.abs(out.coeffs)) < 1e-14


# ----------------------------------------------------------------------
# dyadic projectors

def test_cutoff_profile():
    assert smooth_cutoff(np.array([0.0, 0.5, 1.0])).tolist() == [1.0, 1.0, 1.0]
    assert smooth_cutoff(np.array([2.0, 3.0])).tolist() == [0.0, 0.0]
    mid = smooth_cutoff(np.array([1.5]))[0]
    assert 0.0 < mid < 1.0
    assert dyadic_bump(np.array([1.0]))[0] == 1.0


def test_partition_of_unity_on_grid(grid):
    f = random_field(grid, seed=4)
    spec = transform(f)
    total = lp_low_block(spec).coeffs.copy()
    for block in dyadic_band(grid):
        total += lp_project(spec, block).coeffs
    assert np.max(np.abs(total - spec.coeffs)) < 1e-12


def test_block_passes_its_center_mode():
    # commensurate domain: half length 16*pi makes xi_j = j/16 carry the
    # dyadic block centers exactly
    grid = Grid(16.0 * np.pi, 512)
    band = dyadic_band(grid)
    N = band[len(band) // 2]
    j = int(round(N * grid.half_length / np.pi))
    assert np.isclose(np.pi * j / grid.half_length, N)
    spec = np.zeros(grid.xi.size, dtype=complex)
    spec[j] = 1.0
    out = lp_project(SpectralField(grid, spec), N)
    assert abs(out.coeffs[j] - 1.0) < 1e-14


def test_block_annihilates_far_modes(grid):
    band = dyadic_band(grid)
    N = band[2]
    j = int(round(2.5 * N * grid.half_length / np.pi))
    spec = np.zeros(grid.xi.size, dtype=complex)
    spec[j] = 1.0
    out = lp_project(SpectralField(grid, spec), N)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_project_below_is_complementary(grid):
    f = random_field(grid, seed=5)
    spec = transform(f)
    band = dyadic_band(grid)
    below = lp_project_below(spec, band[-1]).coeffs
    assert np.max(np.abs(below - spec.coeffs)) < 1e-12


# ----------------------------------------------------------------------
# propagators

def test_airy_isometry_and_inverse(grid):
    f = random_field(grid, seed=6)
    spec = transform(f)
    moved = airy_propagate(spec, 0.37)
    assert abs(l2_norm(inverse_transform(moved)) - l2_norm(f)) < 1e-12
    back = airy_propagate(moved, -0.37)
    assert np.max(np.abs(back.coeffs - spec.coeffs)) < 1e-14


def test_airy_single_mode_phase(grid):
    j = 7
    xi1 = np.pi * j / grid.half_length
    spec = np.zeros(grid.xi.size, dtype=complex)
    spec[j] = 1.0
    out = airy_propagate(SpectralField(grid, spec), 0.2)
    assert abs(out.coeffs[j] - np.exp(1j * 0.2 * xi1 ** 3)) < 1e-14


def test_dissipative_reduces_to_airy(grid):
    f = random_field(grid, seed=7)
    spec = transform(f)
    a = airy_propagate(spec, 0.11).coeffs
    b = dissipative_propagate(spec, 0.11, 0.0).coeffs
    assert np.array_equal(a, b)


def test_dissipative_mass_decay(grid):
    f = random_field(grid, seed=8)
    spec = transform(f)
    norms = [l2_norm(inverse_transform(dissipative_propagate(spec, t, 0.3)))
             for t in (0.0, 0.1, 0.2, 0.5)]
    assert all(a >= b - 1e-14 for a, b in zip(norms, norms[1:]))


def test_dissipative_rejects_backward_time(grid):
    f = random_field(grid, seed=8)
    with pytest.raises(ValueError):
        dissipative_propagate(transform(f), -0.1, 0.5)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_smoothing_bound_samples(r):
    C = smoothing_constant(r)
    xi = np.linspace(0.0, 200.0, 20001)
    for mu in (0.01, 0.1, 1.0):
        for t in (0.01, 0.1, 1.0):
            lhs = np.max((1.0 + xi ** 2) ** (r / 2.0) * np.exp(-mu * xi ** 2 * t))
            rhs = C * np.sqrt(1.0 + (2.0 * mu * t) ** (-r))
            assert lhs <= rhs * (1.0 + 1e-9)


# ----------------------------------------------------------------------
# pseudoproduct

def test_pseudoproduct_unit_symbol_is_product(grid):
    f = random_field(grid, seed=9, band=grid.n // 8)
    g = random_field(grid, seed=10, band=grid.n // 8)
    product = pseudoproduct(transform(f), transform(g))
    direct = PhysicalField(grid, f.values * g.values)
    out = inverse_transform(product)
    assert np.max(np.abs(out.values - direct.values)) < 1e-10


def test_pseudoproduct_duality_general_symbol(grid):
    # moving the operator off the first slot: the adjoint symbol under this
    # transform convention is chi1(xi, xi1) = chi(xi1 - xi, -xi)
    def chi(xi, xi1):
        return np.exp(-0.01 * xi1 ** 2) / (1.0 + xi ** 2)

    def chi1(xi, xi1):
        return chi(xi1 - xi, -xi)

    f = random_field(grid, seed=13, band=grid.n // 8)
    g = random_field(grid, seed=14, band=grid.n // 8)
    h = random_field(grid, seed=15, band=grid.n // 8)

    def integral(a, b):
        return grid.dx * np.sum(a.values * b.values)

    lhs = integral(inverse_transform(pseudoproduct(transform(f), transform(g),
                                                   chi)), h)
    rhs = integral(f, inverse_transform(pseudoproduct(transform(g), transform(h),
                                                      chi1)))
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_pseudoproduct_duality_product_symbol(grid):
    # for even product symbols sigma(xi1) sigma(xi - xi1) the conjugate
    # third-slot form chi2(xi, xi1) = conj(chi)(xi - xi1, xi) is exact
    def sigma(xi):
        return np.exp(-0.02 * xi ** 2) * (1.0 + 0.3 * np.cos(xi))

    def chi(xi, xi1):
        return sigma(xi1) * sigma(xi - xi1)

    def chi2(xi, xi1):
        return np.conj(chi(xi - xi1, xi))

    f = random_field(grid, seed=23, band=grid.n // 8)
    g = random_field(grid, seed=24, band=grid.n // 8)
    h = random_field(grid, seed=25, band=grid.n // 8)

    def integral(a, b):
        return grid.dx * np.sum(a.values * b.values)

    lhs = integral(inverse_transform(pseudoproduct(transform(f), transform(g),
                                                   chi)), h)
    rhs = integral(inverse_transform(pseudoproduct(transform(f), transform(h),
                                                   chi2)), g)
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_pseudoproduct_bilinearity(grid):
    f1 = random_field(grid, seed=16, band=grid.n // 8)
    f2 = random_field(grid, seed=17, band=grid.n // 8)
    g = random_field(grid, seed=18, band=grid.n // 8)
    a, b = 1.3, -0.7
    combo = PhysicalField(grid, a * f1.values + b * f2.values)
    lhs = pseudoproduct(transform(combo), transform(g)).coeffs
    rhs = (a * pseudoproduct(transform(f1), transform(g)).coeffs
           + b * pseudoproduct(transform(f2), transform(g)).coeffs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ----------------------------------------------------------------------
# nonlinear flux

def flux_samples(u, bg, nl, t):
    """f(u + Psi(t)) - f(Psi(t)) as samples, from the stage tables the
    solver evaluates its flux with."""
    tables = SpectralCore(u.grid, bg, nl).stage(t).tables
    return inverse_transform(SpectralField(u.grid, flux_coefficients(
        transform(u).coeffs, nl, tables)))


def test_flux_zero_input(grid):
    bg = ZeroBackground()
    nl = AnalyticNonlinearity.kdv()
    out = flux_samples(PhysicalField.zero(grid), bg, nl, 0.0)
    assert np.max(np.abs(out.values)) < 1e-15


def test_flux_pure_square(grid):
    bg = ZeroBackground()
    nl = AnalyticNonlinearity.kdv()
    f = random_field(grid, seed=19, band=grid.n // 8)
    out = flux_samples(f, bg, nl, 0.0)
    assert np.max(np.abs(out.values - f.values ** 2)) < 1e-10


def test_flux_kink_expansion():
    grid = Grid(50.0, 1024)
    bg = MKdVKink(c=1.0)
    nl = AnalyticNonlinearity.kdv()
    f = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    out = flux_samples(f, bg, nl, 0.2)
    psi = bg.profile(0.2, grid.x)
    exact = f.values ** 2 + 2.0 * psi * f.values
    assert np.max(np.abs(out.values - exact)) < 1e-10


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_tail_is_unresolved(grid):
    # an overflowed tail fraction is NaN, which no threshold may pass
    spec = transform(PhysicalField(grid, 1e160 * np.cos(
        grid.xi_max * 0.9 * grid.x)))
    with pytest.raises(UnresolvedFieldError, match="nan"):
        require_resolved(spec, 1.0)


def test_flux_rejects_unresolved_field(grid):
    bg = ZeroBackground()
    nl = AnalyticNonlinearity.kdv()
    noisy = PhysicalField(grid,
                          np.cos(grid.xi_max * 0.9 * grid.x))
    with pytest.raises(UnresolvedFieldError):
        rhs(noisy, bg, nl, 0.0, tail_threshold=1e-6)


def test_flux_transcendental_lowpass(grid):
    bg = ZeroBackground()
    nl = AnalyticNonlinearity.sine()
    raw = random_field(grid, seed=20, band=grid.n // 16)
    f = PhysicalField(grid, 0.01 * raw.values)
    out = flux_samples(f, bg, nl, 0.0)
    spec = transform(out).coeffs
    cutoff = 2.0 * grid.xi_max / 3.0
    assert np.max(np.abs(spec[np.abs(grid.xi) > cutoff])) < 1e-15
    inner = np.sin(f.values)
    assert np.max(np.abs(out.values - inner)) < 1e-5


@pytest.mark.parametrize("bg, nl", [
    (MKdVKink(c=1.0), AnalyticNonlinearity.mkdv_defocusing()),
    (GardnerKink(c=1.0, beta=1.0), AnalyticNonlinearity.gardner(1.0)),
], ids=["mkdv_kink", "gardner_pedestal"])
def test_flux_free_of_cancellation(bg, nl):
    # at |u| ~ 1e-8 on an O(1) background, f(u+Psi) - f(Psi) formed as a
    # difference keeps about eight digits; the oracle is that difference
    # at 40 digits on the same padded samples of u and Psi
    mpmath = pytest.importorskip("mpmath")
    grid = Grid(50.0, 256)
    m = grid.n // 2
    u = PhysicalField.sample(grid, lambda x: 1e-8 * np.exp(-x ** 2))
    half = transform(u).coeffs
    big = flux_grid(grid, nl)
    psi = bg.profile(0.3, big.x)
    got = flux_coefficients(half, nl, flux_tables(nl, psi))
    padded = np.zeros(big.xi.size, dtype=complex)
    padded[:m] = half[:m]
    u_big = inverse_transform(SpectralField(big, padded)).values

    def f(v):
        return sum(mpmath.mpf(a) * v ** k for k, a in enumerate(nl.coeffs))

    with mpmath.workdps(40):
        exact = [float(f(mpmath.mpf(a) + mpmath.mpf(p)) - f(mpmath.mpf(p)))
                 for a, p in zip(u_big, psi)]
    want = transform(PhysicalField(big, np.array(exact))).coeffs[:m + 1]
    want[m] = 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ----------------------------------------------------------------------
# multiplier algebra

def test_multipliers_commute(grid):
    f = random_field(grid, seed=21)
    spec = transform(f)
    band = dyadic_band(grid)
    ops = [
        lambda s: spatial_derivative(s, 1),
        lambda s: bessel_potential(s, 0.8),
        lambda s: lp_project(s, band[3]),
        lambda s: airy_propagate(s, 0.21),
        lambda s: dissipative_propagate(s, 0.1, 0.2),
    ]
    for i, op_a in enumerate(ops):
        for op_b in ops[i + 1:]:
            ab = op_a(op_b(spec)).coeffs
            ba = op_b(op_a(spec)).coeffs
            scale = max(np.max(np.abs(ab)), 1e-30)
            assert np.max(np.abs(ab - ba)) < 1e-12 * scale


def test_multipliers_preserve_realness(grid):
    f = random_field(grid, seed=22)
    spec = transform(f)
    band = dyadic_band(grid)
    outs = [
        spatial_derivative(spec, 1),
        spatial_derivative(spec, 2),
        bessel_potential(spec, 1.2),
        lp_project(spec, band[2]),
        airy_propagate(spec, 0.3),
        dissipative_propagate(spec, 0.2, 0.4),
    ]
    for out in outs:
        # the squared-frequency multipliers amplify round-trip rounding
        assert out.hermitian_defect() < 1e-11


def test_sobolev_product_bound_regression():
    # continuity of the product map H^1 x H^1 -> H^0.75; the grid constant
    # was measured once on this configuration and is pinned with margin
    from gkdvlab.norms import sobolev_norm

    grid = Grid(20.0, 256)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        def mk():
            c = np.zeros(grid.xi.size, dtype=complex)
            jmax = grid.n // 6
            c[1:jmax] = (rng.standard_normal(jmax - 1)
                         + 1j * rng.standard_normal(jmax - 1))
            c[0] = rng.standard_normal()
            return inverse_transform(SpectralField(grid, c))

        f, g = mk(), mk()
        ratio = (sobolev_norm(PhysicalField(grid, f.values * g.values), 0.75)
                 / (sobolev_norm(f, 1.0) * sobolev_norm(g, 1.0)))
        worst = max(worst, ratio)
    assert worst < 0.1


@pytest.mark.parametrize("bg, nl, rule", [
    (MKdVKink(c=1.0), AnalyticNonlinearity.kdv(), "auto"),        # padded 2n
    (MKdVKink(c=1.0), AnalyticNonlinearity.mkdv_defocusing(), "auto"),
    (MKdVKink(c=1.0), AnalyticNonlinearity.kdv(), "lowpass"),     # unpadded
    (MKdVKink(c=1.0), AnalyticNonlinearity.sine(), "auto"),       # unpadded
], ids=["quadratic", "cubic", "lowpass", "sine"])
def test_flux_rows_equal_single_calls(bg, nl, rule):
    # a (rows, bins) stack with one table row per spectrum, as the Picard
    # lattice passes it, is row by row the call on that row alone
    grid = Grid(50.0, 256)
    big = flux_grid(grid, nl, rule)
    rows = np.array([transform(random_field(grid, seed=k, band=40)).coeffs
                     * 0.05 for k in range(5)])
    tables = [flux_tables(nl, bg.profile(0.1 * k, big.x)) for k in range(5)]
    stacked = [np.array(col) for col in zip(*tables)]
    got = flux_coefficients(rows, nl, stacked, rule)
    assert got.shape == rows.shape
    for row, tab, out in zip(rows, tables, got):
        assert np.array_equal(out, flux_coefficients(row, nl, tab, rule))


def test_tail_fraction_rows_equal_single_calls(grid):
    rows = np.array([transform(random_field(grid, seed=k)).coeffs
                     for k in range(4)])
    rows[1] = 0.0
    tails = tail_fraction_of_spectrum(grid, rows)
    assert tails.shape == (4,)
    for row, tail in zip(rows, tails):
        assert tail == tail_fraction_of_spectrum(grid, row)


def test_trajectory_from_matrix_keeps_its_matrix(grid):
    mat = np.array([random_field(grid, seed=k).values for k in range(3)])
    traj = Trajectory.from_matrix(grid, 0.5, 0.1, mat)
    assert traj.values_matrix() is traj.values_matrix()
    assert np.array_equal(traj.values_matrix(), mat)
    assert not traj.values_matrix().flags.writeable
    assert len(traj) == 3 and traj.t0 == 0.5 and traj.dt == 0.1
    for f, row in zip(traj.fields, mat):
        assert f.grid == grid and np.array_equal(f.values, row)
    with pytest.raises(SizeMismatchError):
        Trajectory.from_matrix(grid, 0.0, 0.1, mat[:, :-1])
    with pytest.raises(ValueError, match="positive"):
        Trajectory.from_matrix(grid, 0.0, 0.0, mat)
    mat[2, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory.from_matrix(grid, 0.0, 0.1, mat)


def test_trajectory_owns_its_samples(grid):
    # the store is a copy: later writes to the caller's arrays reach
    # neither the samples, the fields nor the cached spectra
    mat = np.array([random_field(grid, seed=k).values for k in range(3)])
    fields = [PhysicalField(grid, row.copy()) for row in mat]
    for traj, source in ((Trajectory.from_matrix(grid, 0.0, 0.1, mat), mat),
                         (Trajectory(grid, 0.0, 0.1, fields),
                          fields[1].values)):
        want = traj.spectra().copy()
        source[..., 5] = np.nan
        assert np.all(np.isfinite(traj.values_matrix()))
        assert np.array_equal(traj.fields[1].values,
                              random_field(grid, seed=1).values)
        assert np.array_equal(traj.spectra(), want)
        assert np.array_equal(traj.spectra(), transform(traj.samples).coeffs)
        assert not traj.samples.values.flags.writeable
        assert not traj.fields[0].values.flags.writeable


@pytest.mark.parametrize("t0, dt", [
    (0.0, float("nan")), (0.0, float("inf")), (0.0, -0.1), (0.0, 0.0),
    (float("nan"), 0.1), (float("inf"), 0.1), (-float("inf"), 0.1),
])
def test_trajectory_rejects_bad_spacing_and_start(grid, t0, dt):
    mat = np.array([random_field(grid, seed=k).values for k in range(2)])
    with pytest.raises(ValueError, match="sample spacing"):
        Trajectory.from_matrix(grid, t0, dt, mat)
    with pytest.raises(ValueError, match="sample spacing"):
        Trajectory(grid, t0, dt, [PhysicalField(grid, row) for row in mat])


def test_l2_norm_rows_equal_single_calls(grid):
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = rng.normal(size=(rng.integers(1, 9), grid.n)) * 10.0 ** \
            rng.uniform(-8, 8, size=(1, 1))
        norms = l2_norm(PhysicalField(grid, rows))
        assert norms.shape == rows.shape[:1]
        for row, norm in zip(rows, norms.tolist()):
            single = l2_norm(PhysicalField(grid, row))
            assert isinstance(single, float)
            assert norm == single


def test_fourier_phase_lives_in_spectral():
    # every other module reaches samples through transform and
    # inverse_transform, so the half-spectrum convention is written once
    import pathlib

    import gkdvlab

    src = pathlib.Path(gkdvlab.__file__).parent
    found = [f"{path.name}:{number}"
             for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if any(word in line for word in
                    ("_left_end_phase", "np.fft.rfft", "np.fft.irfft"))]
    assert found == []
