import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gkdvlab.norms import (
    ResonanceCheck,
    _block_support,
    _envelope_weight,
    _synthetic_coeff,
    bourgain_norm,
    enveloped_norm,
    envelope_weights,
    extend_trajectory,
    modulation_band,
    modulation_partition_defect,
    resonance_vanishing_check,
    sobolev_norm,
    sobolev_weights,
)
from gkdvlab.spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    airy_propagate,
    dyadic_band,
    inverse_transform,
    l2_norm,
    lp_low_block,
    lp_project,
    smooth_cutoff,
    trajectory_transform,
    transform,
)


def free_trajectory(grid, u0, T, m, t0=0.0):
    spec = transform(u0)
    fields = [inverse_transform(airy_propagate(spec, t0 + k * T / m))
              for k in range(m + 1)]
    return Trajectory(grid, t0, T / m, fields)


# ----------------------------------------------------------------------
# Sobolev norms

def test_sobolev_zero_order_is_l2():
    grid = Grid(20.0, 256)
    rng = np.random.default_rng(0)
    f = PhysicalField(grid, rng.standard_normal(grid.n))
    assert abs(sobolev_norm(f, 0.0) - l2_norm(f)) < 1e-12


def test_sobolev_single_mode():
    grid = Grid(20.0, 256)
    j, A, s = 6, 1.7, 1.3
    xi1 = np.pi * j / grid.half_length
    f = PhysicalField(grid, A * np.cos(xi1 * grid.x))
    # two conjugate bins of amplitude A/2 each
    expected = A * np.sqrt(grid.half_length) * (1.0 + xi1 ** 2) ** (s / 2.0)
    assert abs(sobolev_norm(f, s) - expected) < 1e-10


def test_sobolev_gaussian_vs_quadrature():
    grid = Grid(20.0, 512)
    f = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    i0 = quad(lambda x: np.exp(-2 * x ** 2), -np.inf, np.inf)[0]
    i1 = quad(lambda x: (2 * x * np.exp(-x ** 2)) ** 2, -np.inf, np.inf)[0]
    oracle = np.sqrt(i0 + i1)
    assert abs(sobolev_norm(f, 1.0) - oracle) / oracle < 1e-8


def test_sobolev_monotone_in_order():
    grid = Grid(20.0, 256)
    rng = np.random.default_rng(1)
    f = PhysicalField(grid, rng.standard_normal(grid.n))
    values = [sobolev_norm(f, s) for s in (-1.0, -0.25, 0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# weight sequences and enveloped norms

@pytest.mark.parametrize("L, n", [(20.0, 256), (16.0 * np.pi, 512),
                                  (50.0, 1024)], ids=["n256", "n512", "n1024"])
def test_envelope_weights_are_slowly_varying(L, n):
    # the properties the sequence constructor once checked at run time:
    # exactly 1 at the low edge (the array over its own first entry, where
    # a scalar power could round an ulp away from the array's, as on
    # Grid(20, 256) at eps 0.1 and Grid(50, 1024) at eps 0.5), nondecreasing,
    # ratio at most 2^eps (strictly increasing for eps > 0), one weight per
    # block of the band
    grid = Grid(L, n)
    blocks = dyadic_band(grid)
    for eps in (0.0, 0.1, 0.25, 0.5, 1.0, 3.0):
        w = envelope_weights(grid, eps)
        assert w.shape == blocks.shape and not w.flags.writeable
        assert w[0] == 1.0
        ratios = w[1:] / w[:-1]
        assert np.all(ratios <= 2.0 ** eps * (1 + 1e-12))
        assert np.all(ratios > 1.0) if eps else np.all(w == 1.0)
        assert envelope_weights(grid, eps) is w    # cached


def test_sobolev_weights_are_the_bessel_multiplier():
    # the one table of (1 + xi^2)^s that sobolev_norm, enveloped_norm and
    # bourgain_norm read; s = 300 on Grid(20, 256) overflowed in each, with
    # numpy warnings, where it is now a ValueError
    grid = Grid(20.0, 256)
    w = sobolev_weights(grid, 1.5)
    assert np.array_equal(w, (1.0 + grid.xi ** 2) ** 1.5)
    assert sobolev_weights(grid, 1.5) is w and not w.flags.writeable
    with pytest.raises(ValueError, match="weights must be finite"):
        sobolev_weights(grid, 300.0)


def test_envelope_weights_reject_bad_exponents():
    grid = Grid(20.0, 256)
    for eps in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            envelope_weights(grid, eps)
    # eps = 400 overflows (1 + N^2)^(eps/2) on this band, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            envelope_weights(grid, 400.0)


def test_enveloped_zero_field():
    grid = Grid(20.0, 256)
    assert enveloped_norm(PhysicalField.zero(grid), 1.0, 0.0) == 0.0


def test_enveloped_two_sided_comparison():
    # with unit weights the enveloped norm differs from H^s only through
    # the overlap of the squared block symbols, measured per grid
    grid = Grid(20.0, 256)
    from gkdvlab.spectral import dyadic_bump, smooth_cutoff

    band = dyadic_band(grid)
    overlap = smooth_cutoff(2.0 * grid.xi / band[0]) ** 2
    for N in band:
        overlap = overlap + dyadic_bump(grid.xi / N) ** 2
    c1, c2 = np.sqrt(np.min(overlap)), np.sqrt(np.max(overlap))
    assert 0.0 < c1 <= c2 <= 1.5

    rng = np.random.default_rng(2)
    for seed in range(20):
        f = PhysicalField(grid, np.random.default_rng(seed).standard_normal(grid.n))
        h = sobolev_norm(f, 0.8)
        e = enveloped_norm(f, 0.8, 0.0)
        assert c1 * h - 1e-9 <= e <= c2 * h + 1e-9


def test_enveloped_single_mode_structure():
    grid = Grid(16.0 * np.pi, 512)
    band = dyadic_band(grid)
    N = band[len(band) // 2]
    j = int(round(N * grid.half_length / np.pi))
    xi1 = np.pi * j / grid.half_length
    f = PhysicalField(grid, np.cos(xi1 * grid.x))
    expected = (envelope_weights(grid, 0.3)[len(band) // 2]
                * (1.0 + xi1 ** 2) ** 0.5 * np.sqrt(grid.half_length))
    # the mode sits at a block center where only one block contributes
    assert abs(enveloped_norm(f, 1.0, 0.3) - expected) < 1e-8 * expected


def block_loop_enveloped_norm(f, s, eps):
    """The definition block by block: project, apply the Bessel potential
    (1 + xi^2)^(s/2), transform back and take the L^2 norm, once per block
    of the band."""
    spec = transform(f)
    bessel = (1.0 + f.grid.xi ** 2) ** (s / 2.0)
    total = l2_norm(inverse_transform(
        lp_low_block(spec).apply_multiplier(bessel))) ** 2
    for block, weight in zip(dyadic_band(f.grid),
                             envelope_weights(f.grid, eps)):
        piece = l2_norm(inverse_transform(
            lp_project(spec, block).apply_multiplier(bessel)))
        total += weight ** 2 * piece ** 2
    return float(np.sqrt(total))


@pytest.mark.parametrize("eps", [0.0, 0.3], ids=["ones", "bracket"])
@pytest.mark.parametrize("s", [0.0, 0.8, 1.0, 2.0])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_enveloped_matches_block_loop(n, s, eps):
    grid = Grid(20.0, n)
    rng = np.random.default_rng(n)
    fields = [PhysicalField(grid, rng.standard_normal(n)),
              PhysicalField.sample(grid,
                                   lambda x: np.exp(-x ** 2) * np.cos(3 * x))]
    for f in fields:
        want = block_loop_enveloped_norm(f, s, eps)
        assert abs(enveloped_norm(f, s, eps) - want) <= 1e-13 * want


def test_enveloped_weight_is_cached_read_only():
    grid = Grid(20.0, 256)
    weight = _envelope_weight(grid, 1.0, 0.3)
    assert _envelope_weight(Grid(20.0, 256), 1.0, 0.3) is weight
    assert not weight.flags.writeable


# ----------------------------------------------------------------------
# space-time norms

def sup_t_sobolev(traj, s):
    """Oracle: the sup in time of the spatial H^s norm over the window."""
    return float(np.max(sobolev_norm(traj.spectra(), s)))


def l2_t_sobolev(traj, s):
    """Oracle: the L^2 in time of the spatial H^s norm over the window."""
    h_s = sobolev_norm(traj.spectra(), s).tolist()
    return float(np.sqrt(traj.dt * np.sum([v ** 2 for v in h_s])))


def test_bourgain_b0_collapse():
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = extend_trajectory(free_trajectory(grid, u0, 0.5, 256))
    assert abs(bourgain_norm(traj, 1.0, 0.0) - l2_t_sobolev(traj, 1.0)) < 1e-8


@pytest.mark.parametrize("T, m, samples", [(0.5, 256, 2048), (0.02, 2, 400)])
def test_extension_keeps_fine_lattice(T, m, samples):
    # dt = 1/512 and dt = 0.01 put the cutoff below 1e-10 at t = 2 - dt
    # already, so the window stays [-2, 2) with its exact sample count
    grid = Grid(20.0, 64)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = extend_trajectory(free_trajectory(grid, u0, T, m))
    assert len(traj) == samples and traj.t0 == -2.0


def test_bourgain_plane_wave_on_characteristic():
    # a single space-time plane wave with tau = xi^3 carries modulation
    # weight one: its X^{s,b} norm is b-independent
    grid = Grid(16.0 * np.pi, 64)
    j = 8
    xi1 = np.pi * j / grid.half_length
    tau = xi1 ** 3
    window = 2.0 * np.pi / tau * 64
    dt = window / 256
    fields = [PhysicalField(grid, np.cos(xi1 * grid.x + tau * (k * dt)))
              for k in range(256)]
    traj = Trajectory(grid, 0.0, dt, fields)
    # the wave is genuinely time-periodic, so read the lattice spectrum
    # directly instead of going through the decay precondition
    coeffs, taus, xis = trajectory_transform(traj)
    mod = 1.0 + np.abs(taus[:, None] - xis[None, :] ** 3)
    mass = np.abs(coeffs) ** 2
    weighted = np.sum(mod[mass > 1e-20] * mass[mass > 1e-20])
    plain = np.sum(mass)
    assert abs(weighted / plain - 1.0) < 1e-6


def test_bourgain_requires_decaying_ends():
    grid = Grid(20.0, 64)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = free_trajectory(grid, u0, 0.5, 64)
    with pytest.raises(ValueError):
        bourgain_norm(traj, 1.0, 1.0)


def test_free_solution_bound_pinned():
    # ||ext(U(t)u0)||_{X^{1,1}} / ||u0||_{H^1} measured once: about 3.12
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = extend_trajectory(free_trajectory(grid, u0, 0.5, 256))
    ratio = bourgain_norm(traj, 1.0, 1.0) / sobolev_norm(u0, 1.0)
    assert 2.5 < ratio < 3.8


def test_space_time_path_holds_one_extension_and_one_spectrum():
    # the benchmark's trajectory: n = 128, 257 samples, a 2048-row
    # extension E.  The path must hold E (1x its bytes), then its half
    # spectrum (2048 x 65 complex, 1.02x) and one real array of the
    # lattice's size (0.51x): 2.52x for the norm, 1x for the extension.
    # The rest is small: the input's spectra (0.13x) and 64-row chunks.
    # A copy of E, a full-height propagation of the ends or one more
    # lattice-sized array costs at least 0.5x, more than either bound
    # leaves above what the path reads now (1.31x and 2.65x)
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    peaks = []
    for with_norm in (False, True):
        traj = free_trajectory(grid, u0, 0.5, 256)
        tracemalloc.start()
        try:
            ext = extend_trajectory(traj)
            if with_norm:
                bourgain_norm(ext, 1.0, 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ext.samples.values.shape == (2048, 128)
    size = ext.samples.values.nbytes
    assert peaks[0] <= 1.6 * size, peaks[0] / size
    assert peaks[1] <= 2.9 * size, peaks[1] / size


# ----------------------------------------------------------------------
# modulation blocks

def _lattice_band(grid, nt, dt):
    """modulation_band as it was written, on the whole lattice: the oracle."""
    taus = 2.0 * np.pi * np.fft.fftfreq(nt, d=dt)
    m_max = np.max(np.abs(taus[:, None] - grid.xi[None, :] ** 3))
    l_hi = max(int(np.ceil(np.log2(max(m_max, 2.0)))), 1)
    return 2.0 ** np.arange(0, l_hi + 1)


def test_modulation_band_reads_the_lattice_corners():
    # the largest |tau - xi^3| sits at a corner of the lattice: rounded
    # subtraction is monotone in each operand.  Bisection finds the two
    # adjacent dt at which the oracle's band gains a block; there one unit
    # in the last place of the maximum decides the band, and the corner
    # rule must give the oracle's band on both sides
    crossings = 0
    for n, half_length, nt in ((128, 20.0, 2048), (64, 3.0, 41),
                               (16, 0.7, 8), (2, 5.0, 3)):
        grid = Grid(half_length, n)
        for k in (9, 13, 17, 20):
            if grid.xi_max ** 3 >= 2.0 ** (k - 1):
                continue
            below, above = 1e-12, 1e3       # the maximum falls as dt grows
            while True:
                mid = 0.5 * (below + above)
                if mid in (below, above):
                    break
                if _lattice_band(grid, nt, mid).size > k + 1:
                    below = mid
                else:
                    above = mid
            for dt in (np.nextafter(below, 0.0), below, above,
                       np.nextafter(above, np.inf)):
                traj = Trajectory(grid, 0.0, dt, np.zeros((nt, n)))
                want = _lattice_band(grid, nt, dt)
                assert np.array_equal(modulation_band(traj), want), (n, dt)
            assert (_lattice_band(grid, nt, below).size ==
                    _lattice_band(grid, nt, above).size + 1 == k + 2)
            crossings += 1
    assert crossings == 11


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 70),
       st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))
def test_lattice_corner_rule_is_bit_exact(nt, nx, shift, scale):
    # the rule modulation_band uses, against the whole lattice, on random
    # axes: tau of either sign, xi^3 >= 0
    rng = np.random.default_rng(nt * 1000 + nx)
    taus = shift + scale * rng.standard_normal(nt)
    cubes = (scale * rng.random(nx)) ** 3
    corner = max(taus.max() - cubes.min(), cubes.max() - taus.min())
    assert corner == np.max(np.abs(taus[:, None] - cubes[None, :]))


def test_modulation_partition_exact():
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = extend_trajectory(free_trajectory(grid, u0, 0.5, 256))
    assert modulation_partition_defect(traj) < 1e-12


def test_windowed_free_solution_concentrates_at_low_modulation():
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    dt = 1.0 / 512
    K = int(7.5 / dt)
    spec = transform(u0)
    fields = []
    for k in range(-K, K):
        t = k * dt
        w = np.exp(-(t / 1.5) ** 2)
        fields.append(PhysicalField(
            grid, w * inverse_transform(airy_propagate(spec, t)).values))
    traj = Trajectory(grid, -K * dt, dt, fields)
    coeffs, taus, xis = trajectory_transform(traj)
    # the modulation blocks L = 1 and 2 sum to the symbol eta(m/2), and by
    # Parseval the space-time mass is sum mult_j |c|^2
    low = smooth_cutoff((taus[:, None] - xis ** 3) / 2.0)
    mass = grid.multiplicity * np.abs(coeffs) ** 2
    assert np.sum(low ** 2 * mass) / np.sum(mass) >= 0.99


# ----------------------------------------------------------------------
# compact extension

def test_extension_restriction_identity():
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = free_trajectory(grid, u0, 0.5, 64)
    ext = extend_trajectory(traj)
    offset = int(round(-ext.t0 / ext.dt))
    assert np.array_equal(ext.samples.values[offset:offset + len(traj)],
                          traj.samples.values)


def test_extension_vanishes_outside_support():
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    ext = extend_trajectory(free_trajectory(grid, u0, 0.5, 64))
    outside = np.abs(ext.times) >= 2.0
    assert np.any(outside)
    assert np.max(np.abs(ext.samples.values[outside])) == 0.0


def test_extension_of_free_solution_is_windowed_free_solution():
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    traj = free_trajectory(grid, u0, 0.5, 64)
    ext = extend_trajectory(traj)
    from gkdvlab.spectral import smooth_cutoff

    spec = transform(u0)
    for t, row in zip(ext.times, ext.samples.values):
        w = float(smooth_cutoff(np.array([t]))[0])
        expected = w * inverse_transform(airy_propagate(spec, float(t))).values
        assert np.max(np.abs(row - expected)) < 1e-12


def per_sample_extension(traj, window_half=2.0):
    """The extension one sample at a time: a scalar cutoff, a free
    propagation and an inverse transform per outside time."""
    T = traj.duration
    k_half = int(np.ceil(window_half / traj.dt))
    while smooth_cutoff(np.array([(k_half - 1) * traj.dt]))[0] > 1e-10:
        k_half += 1
    first, last = (transform(PhysicalField(traj.grid, traj.samples.values[k]))
                   for k in (0, -1))
    rows = []
    for k in range(-k_half, k_half):
        t = k * traj.dt
        cut = float(smooth_cutoff(np.array([t]))[0])
        if cut == 0.0:
            rows.append(np.zeros(traj.grid.n))
        elif k < 0:
            rows.append(cut * inverse_transform(airy_propagate(first, t)).values)
        elif k > len(traj) - 1:
            rows.append(cut * inverse_transform(
                airy_propagate(last, t - T)).values)
        else:
            rows.append(cut * traj.samples.values[k])
    return -k_half * traj.dt, np.array(rows)


@pytest.mark.parametrize("T, m", [(0.5, 256), (0.5, 64), (0.08, 2), (1.5, 30)])
def test_extension_matches_per_sample_loop(T, m):
    grid = Grid(20.0, 128)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2) * np.cos(x))
    ext = extend_trajectory(free_trajectory(grid, u0, T, m))
    t0, rows = per_sample_extension(free_trajectory(grid, u0, T, m))
    assert ext.t0 == t0 and len(ext) == len(rows)
    assert np.max(np.abs(ext.samples.values - rows)) <= 1e-15


def test_extension_rejects_long_windows():
    grid = Grid(20.0, 64)
    u0 = PhysicalField.sample(grid, lambda x: np.exp(-x ** 2))
    with pytest.raises(ValueError):
        extend_trajectory(free_trajectory(grid, u0, 2.5, 64))


# ----------------------------------------------------------------------
# block-localized multilinear integral

def test_resonance_vanishing_three_factors():
    chk = resonance_vanishing_check([32, 32, 16], [1, 1, 1])
    assert isinstance(chk, ResonanceCheck)
    assert chk.vanishing_expected
    assert chk.magnitude <= 1e-12 * chk.scale


def test_resonance_vanishing_four_factors():
    chk = resonance_vanishing_check(
        [16, 16, 8, 1], [1, 1, 1, 1],
        domain_half_length=4.0 * np.pi, window_half_length=np.pi / 2.0)
    assert chk.magnitude <= 1e-12 * chk.scale


def test_resonance_witness_nonzero():
    chk = resonance_vanishing_check([4, 4, 2], [1, 1, 32])
    assert not chk.vanishing_expected
    assert chk.magnitude > 1e-6 * chk.scale


def test_resonance_zero_factor():
    # a block with no lattice support is a configuration error
    with pytest.raises(ValueError):
        resonance_vanishing_check([32, 32, 0.001], [1, 1, 1])


def _chi(xi):
    """A multiplier with no zero and no symmetry: 1 <= chi <= 3."""
    return 2.0 + np.sin(xi)


def _weighted(chi):
    """A context in which resonance_vanishing_check synthesizes every block
    multiplied by chi(xi), as the oracles below do; None changes nothing."""
    if chi is None:
        return contextlib.nullcontext()

    def coeff(j, k, N, L, dxi, *rest):
        return chi(j * dxi) * _synthetic_coeff(j, k, N, L, dxi, *rest)
    return mock.patch("gkdvlab.norms._synthetic_coeff", coeff)


def _nonzero_supports(Ns, Ls, dxi, dtau, phases, chi=None):
    out = []
    for N, L, (phase_t, phase_x) in zip(Ns, Ls, phases):
        js, ks = _block_support(N, L, dxi, dtau)
        vals = _synthetic_coeff(js, ks, N, L, dxi, dtau, phase_t, phase_x)
        if chi is not None:
            vals = chi(js * dxi) * vals
        keep = np.abs(vals) > 0.0
        out.append((js[keep], ks[keep], vals[keep]))
    return out


def brute_force_resonance(Ns, Ls, chi=None, domain_half_length=8.0 * np.pi,
                          window_half_length=np.pi, seed=0):
    """The lattice sum by its definition: every (k-1)-tuple of the nonzero
    supports of the first k-1 blocks, the last factor in closed form at
    minus their sum; each factor times chi(xi) when chi is given.  Returns
    (magnitude, scale)."""
    k = len(Ns)
    dxi = np.pi / domain_half_length
    dtau = np.pi / window_half_length
    phases = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k, 2))
    J, K, V = 0, 0, 1.0
    for i, (js, ks, vals) in enumerate(
            _nonzero_supports(Ns[:-1], Ls[:-1], dxi, dtau, phases, chi)):
        shape = [1] * (k - 1)
        shape[i] = -1
        J = J + js.reshape(shape)
        K = K + ks.reshape(shape)
        V = V * vals.reshape(shape)
    terms = V * _synthetic_coeff(-J, -K, Ns[-1], Ls[-1], dxi, dtau,
                                 phases[-1, 0], phases[-1, 1])
    if chi is not None:
        terms = terms * chi(-J * dxi)
    measure = (2.0 * domain_half_length) * (2.0 * window_half_length)
    return (float(np.abs(np.sum(terms))) * measure,
            float(np.sum(np.abs(terms))) * measure)


# witnesses: the gathered (largest) block sits first, second or last
WITNESSES = [
    ([2, 2, 1], [1, 1, 8], 2.0 * np.pi, np.pi),
    ([1, 2, 2], [8, 1, 1], 2.0 * np.pi, np.pi),
    ([2, 1, 2], [1, 8, 1], 2.0 * np.pi, np.pi),
    ([4, 4, 2, 1], [1, 1, 1, 1], 2.0 * np.pi, np.pi / 2.0),
    ([2, 1, 1, 1], [2, 2, 4, 8], 2.0 * np.pi, np.pi),
    ([4, 4, 2, 1, 1], [1, 1, 1, 1, 1], 2.0 * np.pi, np.pi / 2.0),
    ([1, 1, 1, 1, 1], [2, 2, 2, 4, 8], 2.0 * np.pi, np.pi),
]


@pytest.mark.parametrize("chi", [None, _chi], ids=["plain", "chi"])
@pytest.mark.parametrize("Ns, Ls, D, W", WITNESSES,
                         ids=[f"k{len(w[0])}-{i}" for i, w in
                              enumerate(WITNESSES)])
def test_resonance_matches_brute_force(Ns, Ls, D, W, chi):
    with _weighted(chi):
        chk = resonance_vanishing_check(Ns, Ls, domain_half_length=D,
                                        window_half_length=W, seed=3)
    magnitude, scale = brute_force_resonance(
        Ns, Ls, chi=chi, domain_half_length=D, window_half_length=W, seed=3)
    assert magnitude > 1e-4 * scale  # a witness, not a vanishing sum
    assert abs(chk.magnitude - magnitude) <= 1e-13 * magnitude
    assert abs(chk.scale - scale) <= 1e-13 * scale


def element_loop_resonance(Ns, Ls, chi=None, domain_half_length=8.0 * np.pi,
                           window_half_length=np.pi, seed=0):
    """The lattice sum with one table lookup per k-tuple of the summed
    blocks, in row chunks of at most 2e6 (the loop that run-tuple pruning
    replaced), each block times chi(xi) when chi is given.  Returns the
    four ResonanceCheck fields."""
    k_factors = len(Ns)
    dxi = np.pi / domain_half_length
    dtau = np.pi / window_half_length
    phases = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                 size=(k_factors, 2))
    js, ks, vals = zip(*_nonzero_supports(Ns, Ls, dxi, dtau, phases, chi))
    stride = 2 * sum(int(np.max(np.abs(k))) for k in ks) + 1
    keys = [j * stride + k for j, k in zip(js, ks)]

    sizes = [v.size for v in vals]
    g = int(np.argmax(sizes))
    order = np.argsort(keys[g])
    table_keys, table_vals = keys[g][order], vals[g][order]
    free = [i for i in range(k_factors) if i != g]
    col = max(free, key=lambda i: sizes[i])
    rows = [i for i in free if i != col]
    row_shape = tuple(sizes[i] for i in rows)
    n_rows = math.prod(row_shape)

    total = 0.0 + 0.0j
    abs_total = 0.0
    closed = 0
    chunk = max(1, int(2e6 // sizes[col]))
    for start in range(0, n_rows, chunk):
        row_idx = np.unravel_index(
            np.arange(start, min(start + chunk, n_rows)), row_shape)
        target = -(sum(keys[i][ix] for i, ix in zip(rows, row_idx))[:, None]
                   + keys[col][None, :])
        pos = np.minimum(np.searchsorted(table_keys, target),
                         table_keys.size - 1)
        r, c = np.nonzero(table_keys[pos] == target)
        closed += r.size
        picked = {col: c, **{i: ix[r] for i, ix in zip(rows, row_idx)}}
        term = table_vals[pos[r, c]]
        for i in free:
            term = term * vals[i][picked[i]]
        total += np.sum(term)
        abs_total += np.sum(np.abs(term))

    measure = (2.0 * domain_half_length) * (2.0 * window_half_length)
    magnitude = float(np.abs(total)) * measure
    scale = float(abs_total) * measure
    if scale == 0.0:
        block_norms = [float(np.sqrt(np.sum(np.abs(v) ** 2))) for v in vals]
        scale = float(np.prod(block_norms)) * measure
    return magnitude, scale, closed == 0, n_rows * sizes[col]


EXACT_ZERO = [([16, 16, 8], [1, 1, 1]), ([16, 16, 8, 1], [1, 1, 1, 1]),
              ([16, 16, 16, 1, 1], [1, 1, 1, 1, 1])]
# the witnesses, the exact zeros and the benchmark's two lattices
ORACLE_CASES = WITNESSES + [
    (Ns, Ls, 2.0 * np.pi, np.pi / 2.0) for Ns, Ls in EXACT_ZERO] + [
    ([32, 32, 16], [1, 1, 1], 4.0 * np.pi, np.pi),
    ([32, 32, 16, 1], [1, 1, 1, 1], 1.5 * np.pi, np.pi / 2.0)]


@pytest.mark.parametrize("seed", [0, 3, 77])
@pytest.mark.parametrize("chi", [None, _chi], ids=["plain", "chi"])
@pytest.mark.parametrize("Ns, Ls, D, W", ORACLE_CASES,
                         ids=[f"k{len(c[0])}-{i}" for i, c in
                              enumerate(ORACLE_CASES)])
def test_resonance_matches_element_loop(Ns, Ls, D, W, chi, seed):
    # pruning run tuples changes which k-tuples are formed, not one bit
    # of what is summed
    kw = dict(domain_half_length=D, window_half_length=W, seed=seed)
    with _weighted(chi):
        got = tuple(resonance_vanishing_check(Ns, Ls, **kw))
    assert got == element_loop_resonance(Ns, Ls, chi=chi, **kw)


@pytest.mark.parametrize("Ns, Ls, expected",
                         [(Ns, Ls, True) for Ns, Ls in EXACT_ZERO])
def test_resonance_vanishing_is_exact_zero(Ns, Ls, expected):
    kw = dict(domain_half_length=2.0 * np.pi, window_half_length=np.pi / 2.0)
    for chi in (None, _chi):
        with _weighted(chi):
            chk = resonance_vanishing_check(Ns, Ls, **kw)
        assert chk.magnitude == 0.0
        assert chk.scale > 0.0
        assert chk.vanishing_expected == expected
    if len(Ns) < 5:
        assert brute_force_resonance(Ns, Ls, **kw)[0] == 0.0


def test_resonance_flag_reads_every_block():
    # with sum xi = 0 the four-factor resonance is 3s(xi1 xi2 - xi3 xi4),
    # s = xi3 + xi4, and |xi1 xi2| >= 64 > 32 >= |xi3 xi4| on these blocks:
    # no level reaches the modulation budget, on any lattice.  A flag read
    # from the first three blocks alone said otherwise.
    for D in (2.0 * np.pi, 4.0 * np.pi):
        kw = dict(domain_half_length=D, window_half_length=np.pi / 2.0)
        chk = resonance_vanishing_check([16, 16, 8, 1], [1, 1, 1, 1], **kw)
        assert chk.vanishing_expected and chk.magnitude == 0.0
        assert brute_force_resonance([16, 16, 8, 1], [1, 1, 1, 1], **kw)[0] == 0.0
    # every witness closes some k-tuple, so none is expected to vanish
    for Ns, Ls, D, W in WITNESSES:
        assert not resonance_vanishing_check(
            Ns, Ls, domain_half_length=D,
            window_half_length=W).vanishing_expected


def test_resonance_n_terms_counts_formed_tuples():
    Ns, Ls, D, W = [2, 2, 2, 1], [1, 1, 8, 1], 2.0 * np.pi, np.pi
    phases = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 2))
    sizes = [js.size for js, _, _ in
             _nonzero_supports(Ns, Ls, np.pi / D, np.pi / W, phases)]
    chk = resonance_vanishing_check(Ns, Ls, domain_half_length=D,
                                    window_half_length=W)
    # every block but the largest (the third) is summed over
    assert sizes == [36, 36, 232, 14]
    assert chk.n_terms == math.prod(sizes) // max(sizes) == 36 * 36 * 14


class _FixedPhases:
    """Stands in for the phase generator: hands out the given phases."""

    def __init__(self, phases):
        self.phases = phases

    def uniform(self, low, high, size):
        assert self.phases.shape == size
        return self.phases


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(WITNESSES[3:]), data=st.data(),
       seed=st.integers(0, 2 ** 16))
def test_resonance_permutation_invariant(case, data, seed):
    # the unweighted integral is symmetric in its factors: permuting the
    # blocks together with their fields leaves it unchanged
    Ns, Ls, D, W = case
    perm = data.draw(st.permutations(range(len(Ns))))
    phases = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                 size=(len(Ns), 2))
    kw = dict(domain_half_length=D, window_half_length=W)
    with mock.patch.object(np.random, "default_rng",
                           lambda seed: _FixedPhases(phases)):
        ref = resonance_vanishing_check(Ns, Ls, **kw)
    with mock.patch.object(np.random, "default_rng",
                           lambda seed: _FixedPhases(phases[perm])):
        got = resonance_vanishing_check([Ns[i] for i in perm],
                                        [Ls[i] for i in perm], **kw)
    # a permutation reorders the sum, whose rounding error is a few ulps of
    # the sum of |terms|, `scale`, not of |sum| = `magnitude`: these sums
    # cancel down to magnitude/scale = 4e-5, where 1e-13 * magnitude failed
    # 5 of 640 permuted draws.  The worst of them moves by 9.4e-17 * scale
    assert abs(got.magnitude - ref.magnitude) <= 1e-15 * ref.scale
    assert abs(got.scale - ref.scale) <= 1e-13 * ref.scale
    assert got.n_terms == ref.n_terms


@pytest.mark.parametrize("Ns, Ls", [
    ([0.001, 32, 32], [1, 1, 1]),
    ([16, 16, 8, 0.001], [1, 1, 1, 1]),
    ([4, 4, 0.001, 1, 1], [1, 1, 1, 1, 1]),
])
def test_resonance_empty_block_rejected(Ns, Ls):
    with pytest.raises(ValueError, match="empty support"):
        resonance_vanishing_check(Ns, Ls)


def test_norm_values_regression_fixture():
    # deterministic fixture pinned at first release; values must be stable
    grid = Grid(20.0, 128)
    rng = np.random.default_rng(42)
    c = np.zeros(grid.xi.size, dtype=complex)
    c[1:16] = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    c[0] = 0.5
    u0 = inverse_transform(SpectralField(grid, c))
    spec = transform(u0)
    m = 256
    fields = [inverse_transform(airy_propagate(spec, k * 0.5 / m))
              for k in range(m + 1)]
    traj = Trajectory(grid, 0.0, 0.5 / m, fields)
    ext = extend_trajectory(traj)
    pinned = {
        "sup_sobolev": 59.098775402482936,
        "l2_sobolev": 41.87068471927492,
        "bourgain11": 188.3473733971492,
    }
    got = {
        "sup_sobolev": sup_t_sobolev(traj, 1.0),
        "l2_sobolev": l2_t_sobolev(traj, 1.0),
        "bourgain11": bourgain_norm(ext, 1.0, 1.0),
    }
    for key, want in pinned.items():
        assert abs(got[key] - want) <= 1e-10 * want, (key, got[key])

