import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gkdvlab.background import GardnerKink, MKdVKink, ZeroBackground, \
    require_resolved_background
from gkdvlab.nonlinearity import AnalyticNonlinearity
from gkdvlab.solver import SpectralCore
from gkdvlab.spectral import (
    Grid,
    PhysicalField,
    SizeMismatchError,
    SpectralField,
    Trajectory,
    UnresolvedFieldError,
    airy_propagate,
    bessel_potential,
    dyadic_band,
    dyadic_bump,
    flux_coefficients,
    flux_grid,
    flux_tables,
    inverse_transform,
    l2_norm,
    lp_low_block,
    lp_project,
    require_resolved,
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
        assert np.all(spec.coeffs[..., [0, -1]].imag == 0.0)
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
    assert np.all(spec.coeffs[..., [0, -1]].imag == 0.0)
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
    # bins 0 and n/2 are their own conjugate partners, so they are real
    c = transform(random_field(grid, seed=2)).coeffs
    assert np.max(np.abs(c[..., [0, -1]].imag)) < 1e-12 * np.max(np.abs(c))


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
    psi = bg.jet(0.2, grid.x).psi
    exact = f.values ** 2 + 2.0 * psi * f.values
    assert np.max(np.abs(out.values - exact)) < 1e-10


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_tail_is_unresolved(grid):
    # an overflowed tail fraction is NaN, which no threshold may pass
    spec = transform(PhysicalField(grid, 1e160 * np.cos(
        grid.xi_max * 0.9 * grid.x)))
    with pytest.raises(UnresolvedFieldError, match="nan"):
        require_resolved(spec, 1.0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_background_tail_is_unresolved(grid):
    # the background check is the same rule: a finite Psi_x whose squared
    # spectrum overflows fails it too
    with pytest.raises(UnresolvedFieldError, match="background derivative: "
                       "spectral tail nan exceeds threshold 1.00e\\+00; "
                       "grid does not resolve the background"):
        require_resolved_background(1e200 * np.exp(-grid.x ** 2), grid, 1.0)


def test_require_resolved_rejects_unresolved_field(grid):
    noisy = PhysicalField(grid,
                          np.cos(grid.xi_max * 0.9 * grid.x))
    with pytest.raises(UnresolvedFieldError):
        require_resolved(transform(noisy), 1e-6)


def test_require_resolved_names_the_first_row_in_breach(grid):
    smooth = np.exp(-grid.x ** 2)
    noise = np.cos(grid.xi_max * 0.9 * grid.x)
    rows = np.array([smooth, smooth + 1e-2 * noise, smooth + noise, smooth])
    require_resolved(transform(PhysicalField(grid, rows[[0, 3]])), 1e-6)
    with pytest.raises(UnresolvedFieldError) as want:
        require_resolved(transform(PhysicalField(grid, rows[1])), 1e-6)
    with pytest.raises(UnresolvedFieldError) as got:
        require_resolved(transform(PhysicalField(grid, rows)), 1e-6)
    assert str(got.value) == str(want.value)


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
    psi = bg.jet(0.3, big.x).psi
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
    ]
    for out in outs:
        # the squared-frequency multipliers amplify round-trip rounding,
        # and airy_propagate can rotate the Nyquist bin
        c = out.coeffs
        assert np.max(np.abs(c[..., [0, -1]].imag)) \
            < 1e-11 * np.max(np.abs(c))


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


@pytest.mark.parametrize("bg, nl", [
    (MKdVKink(c=1.0), AnalyticNonlinearity.kdv()),                # padded 2n
    (MKdVKink(c=1.0), AnalyticNonlinearity.mkdv_defocusing()),
    # KdV's flux unpadded and cut at 2/3
    (MKdVKink(c=1.0), AnalyticNonlinearity.from_series([0.0, 0.0, 1.0])),
    (MKdVKink(c=1.0), AnalyticNonlinearity.sine()),               # unpadded
], ids=["quadratic", "cubic", "lowpass", "sine"])
def test_flux_rows_equal_single_calls(bg, nl):
    # a (rows, bins) stack with one table row per spectrum, as the Picard
    # lattice passes it, is row by row the call on that row alone
    grid = Grid(50.0, 256)
    big = flux_grid(grid, nl)
    rows = np.array([transform(random_field(grid, seed=k, band=40)).coeffs
                     * 0.05 for k in range(5)])
    tables = [flux_tables(nl, bg.jet(0.1 * k, big.x).psi) for k in range(5)]
    stacked = [np.array(col) for col in zip(*tables)]
    got = flux_coefficients(rows, nl, stacked)
    assert got.shape == rows.shape
    for row, tab, out in zip(rows, tables, got):
        assert np.array_equal(out, flux_coefficients(row, nl, tab))


def test_tail_fraction_rows_equal_single_calls(grid):
    rows = np.array([transform(random_field(grid, seed=k)).coeffs
                     for k in range(4)])
    rows[1] = 0.0
    tails = tail_fraction_of_spectrum(grid, rows)
    assert tails.shape == (4,)
    for row, tail in zip(rows, tails):
        assert tail == tail_fraction_of_spectrum(grid, row)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_one_row_tail_is_the_stacked_row(grid):
    # a row alone is finished on floats, a stack on arrays: bit for bit the
    # same tail, and the same verdict and text at and just below it
    rows = np.array([transform(random_field(grid, seed=k)).coeffs
                     for k in range(6)])
    rows[1] = 0.0                       # empty
    rows[2] *= 1e-15                    # mass under the 1e-20 floor
    rows[3, -5] = np.nan                # NaN total
    rows[4, 3] = np.inf                 # infinite total, finite tail
    rows[5] *= 1e160                    # the squares overflow: inf / inf
    tails = tail_fraction_of_spectrum(grid, rows)
    assert np.isnan(tails[[3, 5]]).all() and tails[4] == 0.0
    for i, tail in enumerate(tails):
        alone = tail_fraction_of_spectrum(grid, rows[i])
        assert type(alone) is float and same_bits(alone, tail)
        specs = (SpectralField(grid, rows[i]), SpectralField(grid, rows[[1, i]]))
        if tail == tail:                # a finite tail passes at itself
            for spec in specs:
                require_resolved(spec, alone)
        if not tail <= 0.0:             # and fails below it, as NaN fails
            below = float(np.nextafter(tail, 0.0)) if tail == tail else 1.0
            for spec in specs:
                with pytest.raises(UnresolvedFieldError) as got:
                    require_resolved(spec, below)
                assert str(got.value) == (f"spectral tail {tail:.2e} exceeds "
                                          f"threshold {below:.2e}")


def test_grid_points_are_read_only(grid):
    # the points a jet is keyed on by identity cannot change in place
    assert not grid.x.flags.writeable and grid.x.flags.owndata
    with pytest.raises(ValueError):
        grid.x[0] = 0.0
    assert grid.x is grid.x


@pytest.mark.parametrize("protocol", [4, 5])
def test_pickled_grid_points_stay_read_only(grid, protocol):
    # a round trip carries the fields only; x comes back rebuilt,
    # read-only, and the grid is the same key of the flux-grid cache
    nl = AnalyticNonlinearity.kdv()
    padded = flux_grid(grid, nl)
    grid.x                          # cached before pickling
    back = pickle.loads(pickle.dumps(grid, protocol=protocol))
    assert back == grid and hash(back) == hash(grid)
    assert not back.x.flags.writeable and back.x is back.x
    with pytest.raises(ValueError):
        back.x[0] = 0.0
    assert np.array_equal(back.x, grid.x)
    assert flux_grid(back, pickle.loads(pickle.dumps(nl, protocol))) is padded


def test_trajectory_keeps_its_matrix(grid):
    mat = np.array([random_field(grid, seed=k).values for k in range(3)])
    traj = Trajectory(grid, 0.5, 0.1, mat)
    assert traj.samples.values is traj.samples.values
    assert np.array_equal(traj.samples.values, mat)
    assert not traj.samples.values.flags.writeable
    assert len(traj) == 3 and traj.t0 == 0.5 and traj.dt == 0.1
    assert traj.samples.grid == grid
    with pytest.raises(SizeMismatchError):
        Trajectory(grid, 0.0, 0.1, mat[:, :-1])
    with pytest.raises(ValueError, match="positive"):
        Trajectory(grid, 0.0, 0.0, mat)
    mat[2, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(grid, 0.0, 0.1, mat)


def test_trajectory_owns_its_samples(grid):
    # the store is a copy: later writes to the caller's arrays reach
    # neither the samples nor the cached spectra
    mat = np.array([random_field(grid, seed=k).values for k in range(3)])
    fields = [PhysicalField(grid, row.copy()) for row in mat]
    for traj, source in ((Trajectory(grid, 0.0, 0.1, mat), mat),
                         (Trajectory(grid, 0.0, 0.1, fields),
                          fields[1].values)):
        want = traj.spectra().coeffs.copy()
        source[..., 5] = np.nan
        assert np.all(np.isfinite(traj.samples.values))
        assert np.array_equal(traj.samples.values[1],
                              random_field(grid, seed=1).values)
        assert traj.spectra() is traj.spectra()
        assert traj.spectra().grid == grid
        assert np.array_equal(traj.spectra().coeffs, want)
        assert np.array_equal(traj.spectra().coeffs,
                              transform(traj.samples).coeffs)
        assert not traj.spectra().coeffs.flags.writeable
        assert not traj.samples.values.flags.writeable


def test_trajectory_adopts_a_handed_over_matrix(grid):
    # the in-package hand-over keeps the builder's stacked field as the
    # store, its matrix read-only, and checks the spacing and stacking
    mat = np.array([random_field(grid, seed=k).values for k in range(3)])
    store = PhysicalField(grid, mat)
    traj = Trajectory._adopt(store, 0.5, 0.1, completed=False,
                             abort_reason="stopped")
    assert traj.samples is store and traj.samples.values is mat
    assert not mat.flags.writeable and traj.grid == grid
    assert (traj.t0, traj.dt, len(traj)) == (0.5, 0.1, 3)
    assert (traj.completed, traj.abort_reason) == (False, "stopped")
    assert np.array_equal(traj.spectra().coeffs,
                          Trajectory(grid, 0.5, 0.1, mat).spectra().coeffs)
    with pytest.raises(ValueError, match="sample spacing"):
        Trajectory._adopt(PhysicalField(grid, mat.copy()), 0.0, 0.0)
    with pytest.raises(SizeMismatchError):
        Trajectory._adopt(PhysicalField(grid, mat[0].copy()), 0.0, 0.1)


@pytest.mark.parametrize("t0, dt", [
    (0.0, float("nan")), (0.0, float("inf")), (0.0, -0.1), (0.0, 0.0),
    (float("nan"), 0.1), (float("inf"), 0.1), (-float("inf"), 0.1),
])
def test_trajectory_rejects_bad_spacing_and_start(grid, t0, dt):
    mat = np.array([random_field(grid, seed=k).values for k in range(2)])
    with pytest.raises(ValueError, match="sample spacing"):
        Trajectory(grid, t0, dt, mat)
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
