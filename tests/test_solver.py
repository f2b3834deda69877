import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gkdvlab import background, solver
from gkdvlab.background import (
    BACKGROUNDS,
    Background,
    KdVCnoidal,
    MKdVKink,
    SyntheticBackground,
    TabulatedBackground,
    ZeroBackground,
)
from gkdvlab.elliptic import jacobi_sn_cn_dn
from gkdvlab.nonlinearity import AnalyticNonlinearity
from gkdvlab.norms import sobolev_norm
from gkdvlab.background import residual_S
from gkdvlab.solver import (
    BoundaryContaminationError,
    InstabilityError,
    SimulationState,
    SolverConfig,
    SolverError,
    SpectralCore,
    _phi,
    evolve,
    picard_solve,
    step,
    vanishing_viscosity,
)
from gkdvlab.spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    UnresolvedFieldError,
    airy_propagate,
    flux_tables,
    inverse_transform,
    l2_norm,
    require_resolved,
    spatial_derivative,
    transform,
)

KDV = AnalyticNonlinearity.kdv()
ZERO_BG = ZeroBackground()


def gaussian(grid, amp=1.0, width=1.0, center=0.0):
    return PhysicalField.sample(
        grid, lambda x: amp * np.exp(-((x - center) / width) ** 2))


def soliton(grid, c=1.0):
    return PhysicalField.sample(
        grid, lambda x: 1.5 * c / np.cosh(np.sqrt(c) / 2.0 * x) ** 2)


# ----------------------------------------------------------------------
# phi functions

def test_phi_series_direct_crossover():
    import mpmath as mp

    mp.mp.dps = 40

    def oracle(z, k):
        z = mp.mpc(z)
        if k == 1:
            return (mp.exp(z) - 1) / z
        if k == 2:
            return (mp.exp(z) - 1 - z) / z ** 2
        return (mp.exp(z) - 1 - z - z ** 2 / 2) / z ** 3

    mags = [1e-8, 1e-5, 1e-3, 0.05, 0.49, 0.51, 1.0, 5.0, 30.0]
    angles = [0.0, 0.7, np.pi / 2, 2.3, np.pi]
    for k in (1, 2, 3):
        for mag in mags:
            for ang in angles:
                z = mag * np.exp(1j * ang)
                got = _phi(np.array([z]), k)[0]
                want = complex(oracle(z, k))
                assert abs(got - want) <= 1e-13 * abs(want)


def test_phi_values_at_zero():
    zero = np.array([0.0 + 0j])
    assert abs(_phi(zero, 1)[0] - 1.0) < 1e-15
    assert abs(_phi(zero, 2)[0] - 0.5) < 1e-15
    assert abs(_phi(zero, 3)[0] - 1.0 / 6.0) < 1e-15


# ----------------------------------------------------------------------
# right-hand side: _linear_symbol(grid, mu) * spec + n_hat(spec, stage(t))

def core_right_side(core, u, t):
    """The core's right side at u and time t, in physical values."""
    spec = transform(u).coeffs
    symbol = solver._linear_symbol(u.grid, 0.0)
    return inverse_transform(SpectralField(u.grid, symbol * spec
                                           + core.n_hat(spec, core.stage(t))))


def test_residual_S_is_the_forcing():
    grid = Grid(50.0, 512)
    bg = SyntheticBackground()
    out = residual_S(bg, KDV, 0.0, grid, tail_threshold=1e-2)
    jet = bg.jet(0.0, grid.x)
    forcing = jet.psi_t + jet.psi_xxx + KDV.fp(jet.psi) * jet.psi_x
    assert np.max(np.abs(out.values - forcing)) < 1e-12


def test_core_kdv_form():
    grid = Grid(30.0, 512)
    u = gaussian(grid, amp=0.7, width=1.3)
    out = core_right_side(SpectralCore(grid, ZERO_BG, KDV), u, 0.0)
    spec = transform(u)
    u_xxx = inverse_transform(spatial_derivative(spec, 3)).values
    u_x = inverse_transform(spatial_derivative(spec, 1)).values
    expected = -u_xxx - 2.0 * u.values * u_x
    assert np.max(np.abs(out.values - expected)) < 1e-9


def test_core_vanishes_on_exact_kink():
    grid = Grid(50.0, 1024)
    bg = MKdVKink(c=1.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    out = core_right_side(SpectralCore(grid, bg, nl), PhysicalField.zero(grid),
                          0.4)
    assert np.max(np.abs(out.values)) < 1e-10


# ----------------------------------------------------------------------
# stepping

def test_linear_step_equals_airy():
    grid = Grid(20.0, 256)
    zero_nl = AnalyticNonlinearity.polynomial([0.0])
    u0 = gaussian(grid)
    config = SolverConfig(dt=1e-3, horizon=1e-3)
    core = SpectralCore(grid, ZERO_BG, zero_nl)
    core.check_background(0.0, config.tail_threshold)
    out = step(SimulationState.from_field(u0), config, core)
    exact = airy_propagate(transform(u0), 1e-3)
    assert np.max(np.abs(out.spectrum.coeffs - exact.coeffs)) < 1e-15


def test_evolve_samples_each_state_once(monkeypatch):
    # the samples the boundary monitor takes of a state are the ones
    # evolve keeps at a cadence point: one inverse transform per step
    grid = Grid(20.0, 256)
    calls = []
    real = solver.inverse_transform
    monkeypatch.setattr(solver, "inverse_transform",
                        lambda spec: calls.append(1) or real(spec))
    cfg = SolverConfig(dt=1e-3, horizon=1e-2, cadence=1)
    traj = evolve(gaussian(grid), ZERO_BG, KDV, cfg)
    assert len(traj) == 11 and len(calls) == 10


def test_evolve_holds_one_store():
    # 1,001 samples of n = 256 at cadence 1, a 2.05 MB store.  evolve
    # writes each sample into its row of one preallocated matrix and hands
    # it over uncopied, so the peak is that store (1x) and the run's tables
    # and one step's temporaries, O(n) each (about 0.1x).  A list of the
    # fields plus the copy a Trajectory constructor makes holds the store
    # twice: 2.33x here
    grid = Grid(50.0, 256)
    cfg = SolverConfig(dt=1e-3, horizon=1.0, cadence=1)
    u0 = gaussian(grid, amp=0.5, width=2.0)
    tracemalloc.start()
    try:
        traj = evolve(u0, ZERO_BG, KDV, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = traj.samples.values.nbytes
    assert len(traj) == 1001 and traj.completed
    assert peak <= 1.5 * size, peak / size


def test_evolve_hands_its_store_over_unscanned():
    # the setting above after a one-step run has built the run's tables:
    # the store (1x) and one step's temporaries (about 0.04x), and no
    # more.  Each row passed the finiteness scan when it was sampled;
    # scanning the store again on the hand-over takes a bool per entry,
    # 0.125x, which reads 1.16x here
    grid = Grid(50.0, 256)
    cfg = SolverConfig(dt=1e-3, horizon=1.0, cadence=1)
    u0 = gaussian(grid, amp=0.5, width=2.0)
    evolve(u0, ZERO_BG, KDV, replace(cfg, horizon=1e-3))
    tracemalloc.start()
    try:
        traj = evolve(u0, ZERO_BG, KDV, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = traj.samples.values.nbytes
    assert len(traj) == 1001 and traj.completed
    assert peak <= 1.1 * size, peak / size


def test_step_halving_fourth_order():
    grid = Grid(50.0, 512)
    u0 = gaussian(grid)
    T = 0.25

    def final(dt):
        cfg = SolverConfig(dt=dt, horizon=T, cadence=int(round(T / dt)))
        return evolve(u0, ZERO_BG, KDV, cfg).samples.values[-1]

    ref = final(T / 2048)
    err_coarse = np.max(np.abs(final(T / 64) - ref))
    err_fine = np.max(np.abs(final(T / 128) - ref))
    ratio = err_coarse / err_fine
    assert 12.0 < ratio < 20.0


def test_determinism_bitwise():
    grid = Grid(30.0, 256)
    u0 = gaussian(grid, amp=0.8)
    cfg = SolverConfig(dt=1e-3, horizon=0.05, cadence=10)
    a = evolve(u0, ZERO_BG, KDV, cfg)
    b = evolve(u0, ZERO_BG, KDV, cfg)
    assert np.array_equal(a.samples.values, b.samples.values)


def test_zero_data_zero_background():
    grid = Grid(30.0, 256)
    cfg = SolverConfig(dt=1e-3, horizon=0.05, cadence=10)
    traj = evolve(PhysicalField.zero(grid), ZERO_BG, KDV, cfg)
    assert np.max(np.abs(traj.samples.values)) == 0.0


def test_soliton_peak_tracks_its_speed():
    # peak position from quadratic interpolation around the grid maximum;
    # the exact translate sampled on the same grid serves as the oracle and
    # shares the estimator's interpolation bias
    c, T = 1.0, 1.0
    grid = Grid(50.0, 1024)

    def peak_position(field):
        i = int(np.argmax(field.values))
        ys = field.values[[i - 1, i, (i + 1) % field.grid.n]]
        shift = 0.5 * (ys[0] - ys[2]) / (ys[0] - 2 * ys[1] + ys[2])
        return field.grid.x[i] + shift * field.grid.dx

    cfg = SolverConfig(dt=2e-4, horizon=T, cadence=int(round(T / 2e-4)))
    final = PhysicalField(grid, evolve(soliton(grid, c), ZERO_BG, KDV,
                                       cfg).samples.values[-1])
    exact = PhysicalField.sample(
        grid, lambda x: 1.5 * c / np.cosh(np.sqrt(c) / 2.0 * (x - c * T)) ** 2)
    assert abs(peak_position(final) - peak_position(exact)) < 1e-6
    assert abs(peak_position(final) - c * T) < 1e-4


def test_lowpass_dealias_rule_available():
    # the unpadded flux cut at 2/3 is the series kind with KdV's coefficients
    grid = Grid(30.0, 256)
    u0 = gaussian(grid, amp=0.5)
    cfg = SolverConfig(dt=1e-3, horizon=0.02, cadence=20)
    traj = evolve(u0, ZERO_BG, AnalyticNonlinearity.from_series(KDV.coeffs),
                  cfg)
    traj_auto = evolve(u0, ZERO_BG, KDV, cfg)
    # both stable and close; the rules differ only in retained tail mass
    diff = np.max(np.abs(traj.samples.values[-1] - traj_auto.samples.values[-1]))
    assert diff < 1e-6


def test_mean_is_conserved_exactly():
    grid = Grid(50.0, 512)
    u0 = soliton(grid)
    cfg = SolverConfig(dt=5e-4, horizon=0.5, cadence=100)
    traj = evolve(u0, ZERO_BG, KDV, cfg)
    means = grid.dx * np.sum(traj.samples.values, axis=1)
    assert np.max(np.abs(means - means[0])) < 1e-12


def test_spatial_self_convergence_spectral():
    T = 0.1
    dt = 1e-4
    errs = []
    ref_grid = Grid(20.0, 512)
    # coarse members of the ladder are deliberately under-resolved, so the
    # resolution and contamination monitors are disabled for the study
    cfg = SolverConfig(dt=dt, horizon=T, cadence=int(round(T / dt)),
                       tail_threshold=1.0, boundary_threshold=1.0)
    ref = evolve(gaussian(ref_grid, width=0.8), ZERO_BG, KDV,
                 cfg).samples.values[-1]
    for n in (64, 128, 256):
        grid = Grid(20.0, n)
        out = evolve(gaussian(grid, width=0.8), ZERO_BG, KDV,
                     cfg).samples.values[-1]
        stride = ref_grid.n // n
        errs.append(np.max(np.abs(out - ref[::stride])))
    # spectral accuracy: at least one decade per doubling until the floor
    for a, b in zip(errs, errs[1:]):
        assert b <= a / 10.0 or b < 1e-12


def test_viscous_linear_flow_contracts_l2():
    grid = Grid(30.0, 256)
    zero_nl = AnalyticNonlinearity.polynomial([0.0])
    u0 = gaussian(grid)
    cfg = SolverConfig(dt=1e-3, horizon=0.1, mu=0.5, cadence=10)
    traj = evolve(u0, ZERO_BG, zero_nl, cfg)
    norms = l2_norm(traj.samples)
    assert np.all(norms[:-1] >= norms[1:] - 1e-13)


def test_instability_flagged_not_raised():
    grid = Grid(20.0, 128)
    huge = gaussian(grid, amp=80.0, width=0.4)
    cfg = SolverConfig(dt=5e-2, horizon=2.0, cadence=1,
                       tail_threshold=1e-3)
    traj = evolve(huge, ZERO_BG, KDV, cfg, raise_on_failure=False)
    assert not traj.completed
    assert traj.abort_reason


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_one_row_boundary_fraction_is_the_stacked_row():
    # a row alone is finished on floats, a stack on arrays: bit for bit the
    # same fraction, and a step passes at it and fails just below it with
    # the same text
    grid = Grid(50.0, 1024)
    ends = sum(np.exp(-(grid.x + c) ** 2) for c in (0.0, 50.0, -50.0))
    rows = np.array([np.exp(-(grid.x - 40.0) ** 2), ends, 0.0 * ends,
                     1e-12 * ends,               # L^2 norm below 1e-10
                     2e154 * ends, 2e154 * np.exp(-grid.x ** 2), ends])
    stacked = PhysicalField(grid, rows)
    rows[-1, 10] = np.nan       # a NaN total, past the samples' own check
    object.__setattr__(stacked, "values", rows)
    fracs = solver.boundary_mass_fraction(stacked, 0.1)
    assert fracs[2] == fracs[3] == 0.0 and np.isnan(fracs[4:]).all()
    for row, frac in zip(rows, fracs):
        field = PhysicalField(grid, rows[0])
        object.__setattr__(field, "values", row)
        alone = solver.boundary_mass_fraction(field, 0.1)
        assert type(alone) is float
        assert np.float64(alone).tobytes() == frac.tobytes()
    u0 = PhysicalField(grid, rows[1])
    state = SimulationState.from_field(u0)
    core = SpectralCore(grid, ZERO_BG, AnalyticNonlinearity.sine())
    cfg = SolverConfig(dt=1e-3, horizon=1e-3, boundary_threshold=1.0)
    frac = solver.boundary_mass_fraction(step(state, cfg, core).u, 0.1)
    step(state, replace(cfg, boundary_threshold=frac), core)
    below = float(np.nextafter(frac, 0.0))
    with pytest.raises(BoundaryContaminationError) as got:
        step(state, replace(cfg, boundary_threshold=below), core)
    assert str(got.value) == (f"boundary buffer holds {frac:.3e} of the "
                              f"solution mass at step 1 (threshold "
                              f"{below:.1e})")


def test_boundary_monitor_fails_a_nan_fraction():
    # bumps at the centre and at both ends put 0.707 of the L^2 mass in the
    # boundary buffer; at amplitude 2e154 the squares overflow and the
    # fraction is inf/inf = NaN, which used to pass and run all 10 steps.
    # The centre bump alone overflowed to finite/inf = 0, which passed too
    grid = Grid(50.0, 1024)
    bumps = sum(np.exp(-(grid.x + c) ** 2) for c in (0.0, 50.0, -50.0))
    cfg = SolverConfig(dt=1e-3, horizon=1e-2)
    for u0, share in ((bumps, "7.071e-01"), (2e154 * bumps, "nan"),
                      (2e154 * np.exp(-grid.x ** 2), "nan")):
        traj = evolve(PhysicalField(grid, u0), ZERO_BG,
                      AnalyticNonlinearity.sine(), cfg, raise_on_failure=False)
        assert len(traj) == 1 and not traj.completed
        assert traj.abort_reason.startswith(
            f"boundary buffer holds {share} of the solution mass at step 1")


def test_instability_raised_by_default():
    grid = Grid(20.0, 128)
    huge = gaussian(grid, amp=80.0, width=0.4)
    cfg = SolverConfig(dt=5e-2, horizon=2.0, cadence=1, tail_threshold=1e-3)
    with pytest.raises((InstabilityError, BoundaryContaminationError)):
        evolve(huge, ZERO_BG, KDV, cfg)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_flux_is_an_instability():
    # the squared data overflow on the padded grid: the run is flagged at
    # the step that formed the flux instead of raising NonFiniteResultError
    grid = Grid(20.0, 128)
    cfg = SolverConfig(dt=1e-3, horizon=1e-2, tail_threshold=1.0)
    traj = evolve(gaussian(grid, amp=1e160), ZERO_BG, KDV, cfg,
                  raise_on_failure=False)
    assert not traj.completed and len(traj) == 1
    assert "non-finite" in traj.abort_reason
    with pytest.raises(InstabilityError) as err:
        evolve(gaussian(grid, amp=1e160), ZERO_BG, KDV, cfg)
    assert err.value.step_index == 1


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_flux_outside_step_is_an_instability():
    # the Duhamel map forms the same flux as step and must report its
    # overflow the same way, not as NonFiniteResultError
    grid = Grid(20.0, 128)
    u0 = gaussian(grid, amp=1e160)
    with pytest.raises(InstabilityError, match="non-finite"):
        picard_solve(u0, ZERO_BG, KDV, mu=0.1, t_small=0.01, n_nodes=5)


def test_overflow_outside_step_raises_without_warnings():
    # like evolve, picard_solve reports an overflow as an instability
    # only, without numpy RuntimeWarnings on the way
    grid = Grid(20.0, 128)
    u0 = gaussian(grid, amp=1e160)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(InstabilityError):
            picard_solve(u0, ZERO_BG, KDV, mu=0.1, t_small=0.01, n_nodes=5)
    assert [str(w.message) for w in seen] == []


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_tail_stops_the_step():
    # evolve checks u0's tail before the first step, with step's wrap
    grid = Grid(20.0, 128)
    noisy = PhysicalField(grid, 1e160 * np.cos(grid.xi_max * 0.9 * grid.x))
    cfg = SolverConfig(dt=1e-3, horizon=1e-2, tail_threshold=1.0)
    with pytest.raises(InstabilityError, match="spectral tail nan") as err:
        evolve(noisy, ZERO_BG, KDV, cfg)
    assert err.value.step_index == 0


@pytest.mark.parametrize("n_steps", [1, 2])
def test_tail_monitor_checks_the_returned_state(n_steps):
    # the state after one step has tail 1.15e-6 > 1e-6 (the default
    # threshold): a 1-step run must not complete with it as its last
    # sample, and a longer run must not keep it; u0 (tail 2.8e-7) passes
    grid = Grid(20.0, 128)
    u0 = gaussian(grid, amp=0.5)
    cfg = SolverConfig(dt=1e-3, horizon=n_steps * 1e-3)
    with pytest.raises(InstabilityError,
                       match="spectral tail 1.15e-06 exceeds threshold "
                             "1.00e-06 at step 1") as err:
        evolve(u0, ZERO_BG, KDV, cfg)
    assert err.value.step_index == 1
    traj = evolve(u0, ZERO_BG, KDV, cfg, raise_on_failure=False)
    assert not traj.completed and len(traj) == 1
    assert np.array_equal(traj.samples.values[0], u0.values)
    core = SpectralCore(grid, ZERO_BG, KDV)
    core.check_background(0.0, cfg.tail_threshold)
    with pytest.raises(InstabilityError, match="at step 1"):
        step(SimulationState.from_field(u0), cfg, core)


def ifrk4_final(u0, bg, nl, dt, T):
    """The field at T by integrating-factor RK4: classical RK4 on
    exp(-t L) u, from the core's linear symbol L, stages and nonlinear
    term, combined independently of ETDRK4's phi-function weights."""
    core = SpectralCore(u0.grid, bg, nl)
    z = dt * solver._linear_symbol(u0.grid, 0.0)
    e_full, e_half = np.exp(z), np.exp(z / 2.0)
    spec, t = transform(u0).coeffs, 0.0
    for _ in range(int(round(T / dt))):
        s0, s_mid, s_end = (core.stage(t), core.stage(t + dt / 2),
                            core.stage(t + dt))
        k1 = core.n_hat(spec, s0)
        k2 = core.n_hat(e_half * (spec + 0.5 * dt * k1), s_mid)
        k3 = core.n_hat(e_half * spec + 0.5 * dt * k2, s_mid)
        k4 = core.n_hat(e_full * spec + e_half * dt * k3, s_end)
        spec = e_full * spec + dt / 6.0 * (
            e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        t += dt
    return inverse_transform(SpectralField(u0.grid, spec)).values


def test_ifrk4_reaches_fourth_order():
    grid = Grid(50.0, 512)
    u0 = gaussian(grid)
    T = 0.25
    cfg = SolverConfig(dt=T / 2048, horizon=T, cadence=2048)
    ref = evolve(u0, ZERO_BG, KDV, cfg).samples.values[-1]
    err_coarse = np.max(np.abs(ifrk4_final(u0, ZERO_BG, KDV, T / 64, T) - ref))
    err_fine = np.max(np.abs(ifrk4_final(u0, ZERO_BG, KDV, T / 128, T) - ref))
    assert 10.0 < err_coarse / err_fine < 24.0
    # the two schemes agree at T/2048: each one's error there is about
    # err_fine * (128/2048)^4, 8e-15, and the gap (1.4e-14 measured) is at
    # most their sum plus rounding, a random walk of one eps * max|u| per
    # step over 2048 steps
    gap = np.max(np.abs(ifrk4_final(u0, ZERO_BG, KDV, T / 2048, T) - ref))
    assert gap <= (2.0 * err_fine * (128 / 2048) ** 4 + np.sqrt(2048)
                   * np.finfo(float).eps * np.max(np.abs(ref)))


# ----------------------------------------------------------------------
# the spectral core

class CountingKink(MKdVKink):
    """mKdV kink that records the time of every jet evaluation."""

    def __init__(self, c):
        super().__init__(c=c)
        object.__setattr__(self, "times", [])

    def jet(self, t, x, stride=1):
        self.times.append(t)
        return super().jet(t, x, stride)


def test_nyquist_bin_keeps_state_hermitian():
    # the Nyquist bin stands for both modes +-n/2, so a real field's is
    # real; the symbol i*xi^3 used to rotate it off the real axis, which no
    # real field can follow.  A real field's spectrum is also the transform
    # of its own samples.
    grid = Grid(50.0, 512)
    bg = MKdVKink(c=1.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    coeffs = transform(gaussian(grid, amp=0.3)).coeffs
    coeffs[-1] = 1e-7 * np.max(np.abs(coeffs))
    state = SimulationState(0.0, SpectralField(grid, coeffs))
    cfg = SolverConfig(dt=2e-4, horizon=1e-3)
    core = SpectralCore(grid, bg, nl)
    core.check_background(0.0, cfg.tail_threshold)
    for k in range(6):
        if k:
            state = step(state, cfg, core)
        spec = state.spectrum.coeffs
        assert np.max(np.abs(spec[[0, -1]].imag)) \
            <= 1e-14 * np.max(np.abs(spec))
        resampled = transform(state.u).coeffs
        assert np.max(np.abs(resampled - spec)) <= 1e-14 * np.max(np.abs(spec))


def test_stage_cache_two_jets_per_step():
    grid = Grid(50.0, 512)
    bg = CountingKink(c=1.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    cfg = SolverConfig(dt=2e-4, horizon=2e-3)
    core = SpectralCore(grid, bg, nl)
    state = SimulationState.from_field(gaussian(grid, amp=0.3))
    jets = []
    for _ in range(6):
        before = len(bg.times)
        state = step(state, cfg, core)
        jets.append(len(bg.times) - before)
    assert jets[0] == 3
    assert all(n <= 2 for n in jets[1:])
    # each jet is taken at a stage time not seen before
    assert len(set(bg.times)) == len(bg.times)


def test_cnoidal_steps_take_no_grid_jacobi_after_the_first(monkeypatch):
    # a cnoidal jet shifts the grid triple kept on the background, so a
    # step after the first evaluates one scalar triple per new stage time
    grid = Grid(50.0, 512)
    bg = KdVCnoidal(c=1.0, kappa=0.8)
    sizes = []

    def counting(u, kappa):
        sizes.append(np.size(u))
        return jacobi_sn_cn_dn(u, kappa)

    monkeypatch.setattr(background, "jacobi_sn_cn_dn", counting)
    cfg = SolverConfig(dt=2e-4, horizon=2e-3, boundary_threshold=0.05)
    core = SpectralCore(grid, bg, KDV)
    state = SimulationState.from_field(gaussian(grid, amp=0.5, width=1.5))
    calls = []
    for _ in range(6):
        before = len(sizes)
        state = step(state, cfg, core)
        calls.append(sizes[before:])
    assert core.flux_grid.n in calls[0]
    assert all(c == [1, 1] for c in calls[1:])


def test_tabulated_on_run_grid_fails_before_any_step(monkeypatch):
    # the padded flux samples up to L - dx/2, past the last grid point
    grid = Grid(20.0, 256)
    bg = TabulatedBackground(grid.x, 0.1 * np.tanh(grid.x))
    steps = []
    real_step = solver.step
    monkeypatch.setattr(solver, "step",
                        lambda *a, **k: steps.append(1) or real_step(*a, **k))
    cfg = SolverConfig(dt=1e-3, horizon=1e-2)
    intervals = (r"query \[-20, 19\.92187\d*\] outside the tabulated sample "
                 r"range \[-20, 19\.84375\]")
    with pytest.raises(ValueError, match=intervals):
        SpectralCore(grid, bg, KDV).check_background(0.0, cfg.tail_threshold)
    with pytest.raises(ValueError, match=intervals):
        evolve(gaussian(grid, amp=0.1), bg, KDV, cfg)
    assert steps == []


def test_tabulated_reaching_the_boundary_runs():
    grid = Grid(20.0, 256)
    xs = np.linspace(-20.0, 20.0, 513)
    bg = TabulatedBackground(xs, 0.1 * np.tanh(xs))
    cfg = SolverConfig(dt=1e-3, horizon=1e-2)
    traj = evolve(gaussian(grid, amp=0.1), bg, KDV, cfg)
    assert traj.completed and len(traj) == 11
    assert np.all(np.isfinite(traj.samples.values[-1]))


@pytest.mark.parametrize("nl", [
    AnalyticNonlinearity.kdv(),                          # padded to 2n
    AnalyticNonlinearity.polynomial([0.0, 0.0, 0.5, 0.0, 0.0, -0.1]),  # 4n
    AnalyticNonlinearity.sine(),                         # unpadded
], ids=["kdv", "quintic", "sine"])
def test_stage_forcing_matches_residual(nl):
    # the forcing is sampled from the flux-grid jet at x_big[::p]; it must
    # agree with the forcing sampled on the grid itself at every stage time
    grid = Grid(50.0, 512)
    bg = SyntheticBackground()
    core = SpectralCore(grid, bg, nl)
    dt = 1e-3
    times = sorted({k * dt / 2.0 for k in range(5)} | {0.3, 0.3 + dt / 2.0})
    for t in times:
        want = transform(residual_S(bg, nl, t, grid,
                                    tail_threshold=1e-2)).coeffs
        want[-1] = 0.0
        got = core.stage(t).forcing
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_core_signed_dt_rules():
    grid = Grid(30.0, 256)
    core = SpectralCore(grid, ZERO_BG, KDV)
    spec = transform(gaussian(grid, amp=0.2)).coeffs
    with pytest.raises(ValueError):
        core.advance(spec, 0.0, -1e-3, mu=0.1)
    # inviscid steps run both ways and retrace each other
    back = core.advance(core.advance(spec, 0.0, 1e-3), 1e-3, -1e-3)
    assert np.max(np.abs(back - spec)) < 1e-12 * np.max(np.abs(spec))


def per_core_tables(core, dt, mu):
    """The ETDRK4 coefficients built from one core's own symbol, kept as
    the reference for the shared tables."""
    z = dt * solver._linear_symbol(core.grid, mu)
    p1, p2, p3 = _phi(z, 1), _phi(z, 2), _phi(z, 3)
    return (np.exp(z), np.exp(z / 2.0), 0.5 * dt * _phi(z / 2.0, 1),
            dt * (p1 - 3.0 * p2 + 4.0 * p3), 2.0 * (dt * (p2 - 2.0 * p3)),
            dt * (4.0 * p3 - p2))


@pytest.mark.parametrize("n, dt, mu", [
    (128, 1e-3, 0.0), (256, -1e-3, 0.0), (512, 2e-4, 0.0), (512, 2e-4, 0.1),
    (1024, 5e-2, 0.3), (1024, 2e-4, 0.0)])
def test_etd_tables_are_the_per_core_tables(n, dt, mu):
    # one read-only entry per (grid, dt, mu), bit for bit a core's own
    # build, and the viscosity rules hold on every call, cached or not
    grid = Grid(50.0, n)
    core = SpectralCore(grid, ZERO_BG, KDV)
    tables = solver._etd_tables(grid, dt, mu)
    assert solver._etd_tables(Grid(50.0, n), dt, mu) is tables
    for got, want in zip(tables, per_core_tables(core, dt, mu),
                         strict=True):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert not got.flags.writeable
    spec = transform(gaussian(grid, amp=0.2)).coeffs
    for _ in range(2):
        with pytest.raises(ValueError, match="non-negative"):
            core.advance(spec, 0.0, abs(dt), -0.1)
        with pytest.raises(ValueError, match="forward-only"):
            core.advance(spec, 0.0, -abs(dt), 0.1)


def test_lipschitz_run_builds_its_constants_once(monkeypatch):
    # four evolves of 20 steps on one cnoidal background: one ETD table
    # build (4 phi calls, where a build per core makes 16), one grid
    # Jacobi triple per sample grid, the run grid and the flux grid (8 if
    # the two evicted each other), and a scalar triple per new stage time,
    # two per step and two per evolve's t = 0 check
    from gkdvlab.diagnostics import flow_lipschitz_experiment

    grid = Grid(50.0, 512)
    bg = KdVCnoidal(c=1.0, kappa=0.8)
    phis, sizes = [], []
    real_phi = solver._phi
    monkeypatch.setattr(solver, "_phi",
                        lambda z, k: phis.append(k) or real_phi(z, k))
    monkeypatch.setattr(background, "jacobi_sn_cn_dn", lambda u, kappa: (
        sizes.append(np.size(u)) or jacobi_sn_cn_dn(u, kappa)))
    solver._etd_tables.cache_clear()
    cfg = SolverConfig(dt=2e-4, horizon=4e-3, cadence=10,
                       boundary_threshold=0.05)
    flow_lipschitz_experiment(gaussian(grid, amp=0.5, width=1.5), bg, KDV,
                              cfg, [1e-2, 1e-3, 1e-4])
    assert sorted(phis) == [1, 1, 2, 3]
    assert sorted(n for n in sizes if n > 1) == [512, 1024]
    assert sizes.count(1) == 4 * (2 + 2 * 20)


# ----------------------------------------------------------------------
# fixed-point construction

def test_picard_zero_data_fixed_point():
    grid = Grid(30.0, 256)
    traj, report = picard_solve(PhysicalField.zero(grid), ZERO_BG, KDV,
                                mu=0.1, t_small=0.05, n_nodes=17)
    assert report.iterations <= 2
    assert np.max(np.abs(traj.samples.values)) == 0.0


def test_picard_fixed_point_structure_near_linear():
    # with negligible data the Duhamel map is dominated by the dissipative
    # propagation of the data; with zero background the forcing quadrature
    # vanishes and the fixed point is the free dissipative flow
    grid = Grid(30.0, 256)
    u0 = gaussian(grid, amp=1e-8)
    traj, report = picard_solve(u0, ZERO_BG, KDV, mu=0.2, t_small=0.04,
                                n_nodes=17, tol=1e-22)
    spec, xi = transform(u0), grid.xi
    for t, row in zip(traj.times, traj.samples.values):
        # the free dissipative flow: multiplier exp((i xi^3 - mu xi^2) t)
        free = inverse_transform(spec.apply_multiplier(
            np.exp((1j * xi ** 3 - 0.2 * xi ** 2) * float(t))))
        # deviation is the quadratic correction, ten orders below the data
        assert np.max(np.abs(row - free.values)) < 1e-17


def test_picard_contracts_and_matches_evolve():
    grid = Grid(50.0, 512)
    u0 = gaussian(grid)
    traj, report = picard_solve(u0, ZERO_BG, KDV, mu=0.1, t_small=0.05,
                                n_nodes=65)
    assert all(f < 1.0 for f in report.contraction_factors[1:])
    cfg = SolverConfig(dt=0.05 / 640, horizon=0.05, mu=0.1, cadence=10)
    other = evolve(u0, ZERO_BG, KDV, cfg)
    assert np.max(sobolev_norm(traj.samples - other.samples, 0.0)) < 1e-7


def test_picard_updates_match_field_norm(monkeypatch):
    # each sweep's update is the sup-in-time L^2 distance of successive
    # iterates; the solver takes it from the node spectra, the reference
    # goes through the field and sobolev_norm
    grid = Grid(50.0, 512)
    u0 = gaussian(grid)
    kw = dict(mu=0.1, t_small=0.05, n_nodes=17)
    _, report = picard_solve(u0, ZERO_BG, KDV, **kw)
    seen = []
    n_hat = SpectralCore.n_hat

    def spy(self, spec, stage):
        seen.append(spec.copy())
        return n_hat(self, spec, stage)

    monkeypatch.setattr(SpectralCore, "n_hat", spy)
    # one sweep more with tol = 0: the spy sees every iterate the report
    # compares, the last one included, as one (nodes, bins) lattice each
    with pytest.raises(SolverError):
        picard_solve(u0, ZERO_BG, KDV, tol=0.0,
                     max_iter=report.iterations + 1, **kw)
    assert all(lattice.shape == (17, grid.n // 2 + 1) for lattice in seen)
    iterates = [list(lattice) for lattice in seen]
    updates = [max(sobolev_norm(inverse_transform(
                       SpectralField(grid, a - b)), 0.0)
                   for a, b in zip(new, old))
               for old, new in zip(iterates, iterates[1:])]
    assert len(updates) == report.iterations
    assert all(u > 1e-10 for u in updates[:-1]) and updates[-1] <= 1e-10
    assert abs(report.final_update - updates[-1]) <= 1e-12 * updates[-1]
    assert len(report.contraction_factors) == len(updates) - 1
    for got, a, b in zip(report.contraction_factors, updates, updates[1:]):
        assert abs(got - b / a) <= 1e-12 * (b / a)


@pytest.mark.parametrize("arg, value", [
    ("n_nodes", 1), ("n_nodes", 0), ("t_small", -0.05), ("t_small", 0.0),
    ("t_small", float("nan")), ("max_iter", 0), ("mu", float("nan")),
])
def test_picard_rejects_bad_lattice(arg, value):
    grid = Grid(30.0, 256)
    kw = dict(mu=0.1, t_small=0.05, n_nodes=17, max_iter=50)
    kw[arg] = value
    with pytest.raises(ValueError, match=arg):
        picard_solve(gaussian(grid), ZERO_BG, KDV, **kw)


def test_picard_reports_first_unresolved_node():
    # the lattice tail check raises require_resolved's error for node 0,
    # the data, which the first sweep's iterate (zero) does not hold yet
    grid = Grid(30.0, 256)
    u0 = PhysicalField(grid, np.exp(-grid.x ** 2)
                       + 1e-2 * np.cos(grid.xi_max * 0.9 * grid.x))
    with pytest.raises(UnresolvedFieldError) as want:
        require_resolved(transform(u0), 1e-6)
    with pytest.raises(UnresolvedFieldError) as got:
        picard_solve(u0, ZERO_BG, KDV, mu=0.1, t_small=0.01, n_nodes=5)
    assert str(got.value) == str(want.value)


def test_picard_one_flux_per_sweep(monkeypatch):
    grid = Grid(50.0, 512)
    calls = []
    real = solver.flux_coefficients
    monkeypatch.setattr(solver, "flux_coefficients",
                        lambda half, *a: calls.append(half.shape)
                        or real(half, *a))
    _, report = picard_solve(gaussian(grid), ZERO_BG, KDV, mu=0.1,
                             t_small=0.05, n_nodes=17)
    assert calls == [(17, grid.n // 2 + 1)] * report.iterations


def per_node_lattice(core, times, tail_threshold=1e-10):
    """The lattice as picard_solve stacked it node by node: residual_S's
    check, then the flux-grid jet, with the forcing read off the Taylor
    table f'(Psi) of a polynomial flux."""
    stages, p = [], core.flux_grid.n // core.grid.n
    for t in times.tolist():
        residual_S(core.bg, core.nl, t, core.grid,
                   tail_threshold=max(tail_threshold, 1e-10))
        jet = core.bg.jet(t, core.flux_grid.x)
        tables = flux_tables(core.nl, jet.psi)
        fp = (tables[1][::p] if core.nl.polynomial_degree()
              else core.nl.fp(jet.psi[::p]))
        forcing = jet.psi_t[::p] + jet.psi_xxx[::p] + fp * jet.psi_x[::p]
        forcing_hat = transform(PhysicalField(core.grid, forcing)).coeffs
        forcing_hat[-1] = 0.0
        stages.append(solver.Stage(tables, forcing_hat))
    return solver.Stage([np.array(rows) for rows in zip(*(st.tables
                                                          for st in stages))],
                        np.array([st.forcing for st in stages]))


def catalog_background(variant, tmp_path):
    """A catalog background at its defaults; the table reaches x = 50."""
    build, params = BACKGROUNDS[variant]
    if variant == "tabulated":
        xs = np.linspace(-50.0, 50.0, 1001)
        path = tmp_path / "psi.txt"
        np.savetxt(path, np.c_[xs, 0.1 * np.tanh(xs / 4.0)],
                   header="t-dependence: static")
        params = {"file": str(path)}
    return build(**params)


@pytest.mark.parametrize("variant", sorted(BACKGROUNDS))
def test_batched_background_check_is_the_per_node_lattice(variant, tmp_path):
    # one jet over the node times, against the per-node checks it
    # replaced: bit for bit, tables and forcing; a static background's
    # one row stands for every node, by broadcasting
    bg = catalog_background(variant, tmp_path)
    grid = Grid(50.0, 1024)
    times = 0.05 / 16 * np.arange(17)
    padded = bg.associated_nonlinearity() or KDV
    for nl in (padded, AnalyticNonlinearity.from_series(padded.coeffs),
               AnalyticNonlinearity.sine()):
        core = SpectralCore(grid, bg, nl)
        got = core.check_background(times, 1e-6)
        want = per_node_lattice(core, times, 1e-6)
        assert len(got.tables) == len(want.tables)
        for a, b in zip(got.tables + [got.forcing],
                        want.tables + [want.forcing]):
            assert np.array_equal(np.broadcast_to(a, b.shape), b)


def stride_one_stage(core, jet):
    """The stage recipe of the stride-1 jet: every field sliced [..., ::p],
    then forcing_S and transform, the Nyquist bin zeroed."""
    p, tables = core.flux_grid.n // core.grid.n, flux_tables(core.nl, jet.psi)
    forcing = background.forcing_S(
        background.Jet(*(a[..., ::p] for a in jet)), core.nl,
        fp=tables[1][..., ::p] if core.nl.polynomial_degree() else None)
    forcing_hat = transform(PhysicalField(core.grid, forcing)).coeffs
    forcing_hat[..., -1] = 0.0
    return solver.Stage(tables, forcing_hat)


@pytest.mark.parametrize("variant", sorted(BACKGROUNDS))
def test_stage_is_the_stride_one_recipe(variant, tmp_path):
    # a stage asks its jet for the derivatives at stride p only; the tables
    # and forcing must be those of the full jet sliced, bit for bit, at a
    # scalar time and in every row of a batched check
    bg = catalog_background(variant, tmp_path)
    grid = Grid(50.0, 1024)
    times = np.array([0.0, 1e-3, 0.0375, 0.25])
    for nl in (AnalyticNonlinearity.mkdv_defocusing(), KDV,
               AnalyticNonlinearity.sine()):
        core = SpectralCore(grid, bg, nl)
        for t in times.tolist():
            got = core.stage(t)
            want = stride_one_stage(core, bg.jet(t, core.flux_grid.x))
            for a, b in zip(got.tables + [got.forcing],
                            want.tables + [want.forcing], strict=True):
                assert np.array_equal(a, b), (nl.kind, t)
        got = core.check_background(times, 1e-6)
        want = stride_one_stage(core, bg.jet(times[:, None], core.flux_grid.x))
        for a, b in zip(got.tables + [got.forcing],
                        want.tables + [want.forcing], strict=True):
            assert np.array_equal(a, np.broadcast_to(b, a.shape)), nl.kind


class SteepeningKink(Background):
    """tanh(k x) with k = 0.4 + 50 t: resolved on Grid(50, 512) up to k of
    about 0.75, which it reaches at t of about 7e-3."""

    def jet(self, t, x, stride=1):
        return background._tanh_jet(x, 0.0, 1.0, 0.4 + 50.0 * np.asarray(t),
                                    0.0, 0.0, stride)


def test_batched_background_check_names_the_first_unresolved_node():
    grid = Grid(50.0, 512)
    core = SpectralCore(grid, SteepeningKink(), KDV)
    times = 0.01 / 8 * np.arange(9)
    core.check_background(times[:5])            # the first nodes pass
    with pytest.raises(UnresolvedFieldError) as want:
        per_node_lattice(core, times)
    with pytest.raises(UnresolvedFieldError) as got:
        core.check_background(times)
    assert str(got.value) == str(want.value)
    with pytest.raises(UnresolvedFieldError) as got:
        picard_solve(gaussian(grid), SteepeningKink(), KDV, mu=0.1,
                     t_small=0.01, n_nodes=9)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bg", [ZERO_BG, KdVCnoidal(c=1.0, kappa=0.8)],
                         ids=["zero", "cnoidal"])
def test_picard_on_the_batched_lattice_is_bitwise_per_node(bg, monkeypatch):
    grid = Grid(50.0, 512)
    u0 = gaussian(grid, amp=0.5, width=1.5)
    kw = dict(mu=0.1, t_small=0.05, n_nodes=65)
    traj, report = picard_solve(u0, bg, KDV, **kw)
    monkeypatch.setattr(SpectralCore, "check_background", per_node_lattice)
    want_traj, want_report = picard_solve(u0, bg, KDV, **kw)
    assert np.array_equal(traj.samples.values, want_traj.samples.values)
    assert report == want_report


def test_both_constructions_run_the_one_background_rule(monkeypatch):
    # evolve and picard_solve check the background by residual_S alone:
    # a rule that rejects every background stops both before any work
    def rejected(*args, **kwargs):
        raise UnresolvedFieldError("rejected")
    monkeypatch.setattr(solver, "residual_S", rejected)
    grid = Grid(20.0, 128)
    with pytest.raises(UnresolvedFieldError, match="^rejected$"):
        evolve(gaussian(grid), ZERO_BG, KDV, SolverConfig(horizon=1e-2))
    with pytest.raises(UnresolvedFieldError, match="^rejected$"):
        picard_solve(gaussian(grid), ZERO_BG, KDV, mu=0.1, t_small=0.01,
                     n_nodes=5)


def prefix_weights(m, h):
    """Closed Newton-Cotes weights for the integral over [t_0, t_m]:
    composite Simpson pairs, a 3/8 block leading odd prefixes, the
    trapezoid on two nodes."""
    weights = np.zeros(m + 1)
    if m == 0:
        return weights
    if m == 1:
        weights[:2] = h / 2.0
        return weights
    start = 3 if m % 2 == 1 else 0
    if start:
        weights[:4] += np.array([3.0, 9.0, 9.0, 3.0]) * h / 8.0
    for seg in range(start, m, 2):
        weights[seg:seg + 3] += np.array([1.0, 4.0, 1.0]) * h / 3.0
    return weights


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 8, 9, 65])
def test_duhamel_panels_match_prefix_rule(n_nodes):
    # node m of the panel recurrence against the direct prefix sum
    # sum_l w_l W(t_m - t_l) N(t_l)
    grid = Grid(50.0, 512)
    h = 0.05 / (n_nodes - 1)
    symbol = solver._linear_symbol(grid, 0.1)
    rng = np.random.default_rng(n_nodes)
    shape = (n_nodes, grid.xi.size)
    N = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    prop = np.array([np.exp(symbol * (g * h)) for g in range(n_nodes)])
    got = solver._duhamel_quadrature(N, prop[1], h)
    assert np.all(got[0] == 0.0)
    for m in range(1, n_nodes):
        w = prefix_weights(m, h)[:, None]
        want = np.sum(w * prop[m::-1] * N[:m + 1], axis=0)
        assert (np.max(np.abs(got[m] - want))
                <= 1e-13 * np.max(np.abs(want)))


def test_picard_requires_positive_viscosity():
    grid = Grid(30.0, 256)
    with pytest.raises(ValueError):
        picard_solve(gaussian(grid), ZERO_BG, KDV, mu=0.0, t_small=0.05)


# ----------------------------------------------------------------------
# vanishing viscosity

def test_viscosity_differences_linear_problem():
    # with no nonlinearity the difference is exactly the heat-factor
    # deviation, computable mode by mode
    grid = Grid(30.0, 256)
    zero_nl = AnalyticNonlinearity.polynomial([0.0])
    u0 = gaussian(grid)
    cfg = SolverConfig(dt=1e-3, horizon=0.2, cadence=50)
    study = vanishing_viscosity(u0, ZERO_BG, zero_nl, [0.2, 0.1, 0.0], cfg)
    spec = transform(u0)
    for mu, diff in zip(study.mus, study.differences):
        worst = 0.0
        for t in np.arange(0.0, 0.2 + 1e-12, cfg.dt * cfg.cadence):
            dev = np.abs(np.exp(-mu * grid.xi ** 2 * t) - 1.0) * np.abs(spec.coeffs)
            worst = max(worst, np.sqrt(2.0 * grid.half_length * np.sum(
                grid.multiplicity * dev ** 2)))
        assert abs(diff - worst) < 1e-8 * max(worst, 1e-30)


def test_viscosity_monotone_and_first_order():
    grid = Grid(50.0, 512)
    u0 = gaussian(grid, amp=1.0, width=2.0)
    cfg = SolverConfig(dt=1e-3, horizon=0.5, cadence=100,
                       boundary_threshold=0.02)
    study = vanishing_viscosity(u0, ZERO_BG, KDV, [0.1, 0.05, 0.025, 0.0], cfg)
    assert all(b < a for a, b in zip(study.differences, study.differences[1:]))
    assert study.fitted_rate > 0.85


def test_viscosity_distances_are_the_per_pair_norms():
    # one row-wise norm per run is bit for bit the sup over the sample
    # pairs taken one at a time, the loop kept here as the reference
    grid = Grid(50.0, 512)
    u0 = gaussian(grid, amp=1.0, width=2.0)
    cfg = SolverConfig(dt=1e-3, horizon=0.05, cadence=10)
    mus = [0.1, 0.05, 0.0]
    study = vanishing_viscosity(u0, ZERO_BG, KDV, mus, cfg, s=0.5)
    runs = [evolve(u0, ZERO_BG, KDV, replace(cfg, mu=mu)) for mu in mus]
    assert study.differences == tuple(
        float(max(sobolev_norm(PhysicalField(grid, a - b), -0.5)
                  for a, b in zip(run.samples.values, runs[-1].samples.values)))
        for run in runs[:-1])


def test_viscosity_list_validation():
    grid = Grid(30.0, 256)
    cfg = SolverConfig(dt=1e-3, horizon=0.1)
    with pytest.raises(ValueError):
        vanishing_viscosity(gaussian(grid), ZERO_BG, KDV, [0.1, 0.2, 0.0], cfg)
