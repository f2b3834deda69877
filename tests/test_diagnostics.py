import numpy as np
import pytest

from gkdvlab.background import KdVCnoidal, MKdVKink, SyntheticBackground, \
    ZeroBackground
from gkdvlab.diagnostics import (
    DiagnosticsReport,
    GrowthVerdict,
    collect_report,
    flow_lipschitz_experiment,
    invariants_I,
    l2_growth_monitor,
    modified_energy,
)
from gkdvlab.nonlinearity import AnalyticNonlinearity
from gkdvlab.norms import sobolev_norm
from gkdvlab.solver import SolverConfig, evolve
from gkdvlab.spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    inverse_transform,
    l2_norm,
    transform,
)

KDV = AnalyticNonlinearity.kdv()


def gaussian(grid, amp=1.0, width=1.0):
    return PhysicalField.sample(grid,
                                lambda x: amp * np.exp(-(x / width) ** 2))


def sample_fields(traj):
    """The stored samples one field at a time, as the per-sample
    references below take them."""
    return [PhysicalField(traj.grid, row) for row in traj.samples.values]


# ----------------------------------------------------------------------
# invariants

def test_invariants_zero_field():
    grid = Grid(20.0, 256)
    assert invariants_I(PhysicalField.zero(grid), KDV) == (0.0, 0.0, 0.0)


def test_invariants_cosine_closed_form():
    grid = Grid(25.0, 512)
    A, j = 1.3, 8
    xi1 = np.pi * j / grid.half_length
    v = PhysicalField(grid, A * np.cos(xi1 * grid.x))
    i1, i2, i3 = invariants_I(v, KDV)
    L = grid.half_length
    assert abs(i1) < 1e-12
    assert abs(i2 - A ** 2 * L) < 1e-10
    # the cubic term integrates to zero over the period
    assert abs(i3 - A ** 2 * xi1 ** 2 * L) < 1e-10


def test_invariants_drift_on_soliton_run():
    grid = Grid(50.0, 1024)
    c = 1.0
    u0 = PhysicalField.sample(
        grid, lambda x: 1.5 * c / np.cosh(np.sqrt(c) / 2.0 * x) ** 2)
    cfg = SolverConfig(dt=2e-4, horizon=0.25, cadence=250)
    traj = evolve(u0, ZeroBackground(), KDV, cfg)
    i1s, i2s, i3s = (v.tolist() for v in invariants_I(traj.samples, KDV))
    assert max(abs(v - i1s[0]) for v in i1s) < 1e-12
    assert max(abs(v - i2s[0]) for v in i2s) / abs(i2s[0]) < 1e-8
    assert max(abs(v - i3s[0]) for v in i3s) / (1 + abs(i3s[0])) < 1e-8


# ----------------------------------------------------------------------
# modified energy

def test_modified_energy_zero():
    grid = Grid(20.0, 256)
    assert modified_energy(PhysicalField.zero(grid), ZeroBackground(), KDV,
                           0.0) == 0.0


def test_modified_energy_reduces_without_background():
    grid = Grid(20.0, 256)
    u = gaussian(grid, amp=0.7)
    from gkdvlab.spectral import spatial_derivative

    u_x = inverse_transform(spatial_derivative(transform(u), 1)).values
    expected = 0.5 * grid.dx * np.sum(u_x ** 2) - grid.dx * np.sum(
        KDV.F(u.values))
    got = modified_energy(u, ZeroBackground(), KDV, 0.0)
    assert abs(got - expected) < 1e-12


def test_modified_energy_small_amplitude_scaling():
    grid = Grid(50.0, 1024)
    bg = MKdVKink(c=1.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    u = gaussian(grid, width=2.0)
    from gkdvlab.spectral import spatial_derivative

    u_x = inverse_transform(spatial_derivative(transform(u), 1)).values
    psi = bg.jet(0.0, grid.x).psi
    quad_exact = (0.5 * grid.dx * np.sum(u_x ** 2)
                  - 0.5 * grid.dx * np.sum(nl.fp(psi) * u.values ** 2))
    for h in (1e-2, 1e-3):
        scaled = PhysicalField(grid, h * u.values)
        ratio = modified_energy(scaled, bg, nl, 0.0) / h ** 2
        assert abs(ratio - quad_exact) < 0.01 * abs(quad_exact)


def test_modified_energy_time_reversibility():
    # integrate forward, then retrace backward from the final state with a
    # negated step; the recomputed energies must match the forward series
    # in reverse order (the inviscid scheme is reversible at this budget)
    from gkdvlab.solver import SpectralCore

    grid = Grid(50.0, 512)
    bg = MKdVKink(c=1.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    u0 = gaussian(grid, amp=0.3)
    dt, T, cad = 2e-4, 0.1, 100
    cfg = SolverConfig(dt=dt, horizon=T, cadence=cad)
    fwd = evolve(u0, bg, nl, cfg)
    energies_fwd = modified_energy(fwd.samples, bg, nl,
                                   fwd.times[:, None]).tolist()

    core = SpectralCore(grid, bg, nl)
    coeffs = fwd.spectra().coeffs[-1]
    t = T
    energies_back = [energies_fwd[-1]]
    for k in range(int(round(T / dt))):
        coeffs = core.advance(coeffs, t, -dt)
        t -= dt
        if (k + 1) % cad == 0:
            energies_back.append(modified_energy(
                inverse_transform(SpectralField(grid, coeffs)),
                bg, nl, t))
    scale = max(abs(e) for e in energies_fwd) + 1.0
    for e_f, e_b in zip(energies_fwd[::-1], energies_back):
        assert abs(e_f - e_b) < 1e-6 * scale


# ----------------------------------------------------------------------
# growth monitor

def test_growth_bound_free_case():
    grid = Grid(50.0, 512)
    u0 = gaussian(grid)
    cfg = SolverConfig(dt=5e-4, horizon=0.25, cadence=100)
    traj = evolve(u0, ZeroBackground(), KDV, cfg)
    verdict = l2_growth_monitor(traj, ZeroBackground(), KDV)
    assert verdict.holds
    assert verdict.forcing_level == 0.0
    assert verdict.growth_rate == 1.0


def test_growth_bound_kink_background():
    grid = Grid(50.0, 1024)
    bg = MKdVKink(c=2.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    cfg = SolverConfig(dt=2e-4, horizon=0.25, cadence=250)
    traj = evolve(gaussian(grid, amp=0.5), bg, nl, cfg)
    verdict = l2_growth_monitor(traj, bg, nl)
    assert verdict.holds
    assert verdict.forcing_level < 1e-20  # exact background: A = 0


def test_growth_bound_synthetic_background():
    grid = Grid(50.0, 1024)
    bg = SyntheticBackground()
    cfg = SolverConfig(dt=2e-4, horizon=0.25, cadence=250,
                       boundary_threshold=1.0, tail_threshold=1e-2)
    traj = evolve(gaussian(grid, width=2.0), bg, KDV, cfg)
    verdict = l2_growth_monitor(traj, bg, KDV)
    assert verdict.holds
    assert verdict.forcing_level > 1.0  # genuinely forced


def test_growth_margin_excludes_t0_on_desk_kink():
    # at t = 0 the bound holds with equality; the reported margin is the
    # smallest relative slack after it
    grid = Grid(50.0, 1024)
    bg = MKdVKink(c=2.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    cfg = SolverConfig(dt=2e-4, horizon=0.02, cadence=25)
    traj = evolve(gaussian(grid, amp=0.5), bg, nl, cfg)
    verdict = l2_growth_monitor(traj, bg, nl)
    assert verdict.holds
    assert 0.0 < verdict.worst_margin < 1.0
    assert verdict.margin_time in [float(t) for t in traj.times[1:]]


# ----------------------------------------------------------------------
# flow separation experiment

def test_lipschitz_rejects_zero_delta():
    grid = Grid(30.0, 256)
    cfg = SolverConfig(dt=1e-3, horizon=0.05, cadence=10)
    with pytest.raises(ValueError):
        flow_lipschitz_experiment(gaussian(grid), ZeroBackground(), KDV, cfg,
                                  [0.0])


def test_lipschitz_linear_flow_is_isometric():
    grid = Grid(30.0, 256)
    zero_nl = AnalyticNonlinearity.polynomial([0.0])
    cfg = SolverConfig(dt=1e-3, horizon=0.1, cadence=20)
    table = flow_lipschitz_experiment(gaussian(grid), ZeroBackground(),
                                      zero_nl, cfg, [1e-2, 1e-3], s=1.0)
    for r in table.ratios:
        assert abs(r - 1.0) < 1e-9


def test_lipschitz_series_excludes_t0():
    # the sup ratio is pinned at 1 by t = 0; the series and its growth
    # exponent are taken over t > 0 only, from the same norms
    grid = Grid(30.0, 256)
    zero_nl = AnalyticNonlinearity.polynomial([0.0])
    cfg = SolverConfig(dt=1e-3, horizon=0.1, cadence=20)
    table = flow_lipschitz_experiment(gaussian(grid), ZeroBackground(),
                                      zero_nl, cfg, [1e-2, 1e-3], s=1.0)
    assert table.times == pytest.approx((0.02, 0.04, 0.06, 0.08, 0.1),
                                        abs=1e-15)
    assert len(table.series) == len(table.growth_exponents) == 2
    for series, ratio, exponent in zip(table.series, table.ratios,
                                       table.growth_exponents):
        assert len(series) == len(table.times)
        assert max(series) <= ratio
        assert all(abs(r - 1.0) < 1e-9 for r in series)
        assert abs(exponent) <= 1e-9


def test_lipschitz_bounded_on_cnoidal():
    grid = Grid(50.0, 512)
    bg = KdVCnoidal(1.0, 0.8)
    cfg = SolverConfig(dt=5e-4, horizon=0.25, cadence=100,
                       boundary_threshold=0.05)
    table = flow_lipschitz_experiment(gaussian(grid, amp=0.5, width=1.5), bg,
                                      KDV, cfg, [1e-2, 1e-3], s=1.0)
    assert table.bounded_by(10.0)
    assert table.spread() < 0.2


@pytest.mark.parametrize("s", [1.0, 0.5])
def test_lipschitz_separations_are_the_per_pair_norms(s):
    # the row-wise separations are bit for bit the norms of the sample
    # pairs one at a time, the loop kept here as the reference
    grid = Grid(50.0, 512)
    bg, nl = MKdVKink(c=1.0), AnalyticNonlinearity.mkdv_defocusing()
    cfg = SolverConfig(dt=2e-4, horizon=0.004, cadence=5)
    u0 = gaussian(grid, amp=0.5, width=1.5)
    profile = PhysicalField(grid, np.exp(-((grid.x + 3.0) / 1.5) ** 2))
    deltas = [1e-2, 1e-3]
    table = flow_lipschitz_experiment(u0, bg, nl, cfg, deltas, s=s)
    g = PhysicalField(grid, profile.values / sobolev_norm(profile, s - 1.0))
    base = evolve(u0, bg, nl, cfg)
    for delta, ratio, series in zip(deltas, table.ratios, table.series):
        shifted = PhysicalField(grid, u0.values + delta * g.values)
        run = evolve(shifted, bg, nl, cfg)
        seps = np.array([sobolev_norm(a - b, s - 1.0)
                         for a, b in zip(sample_fields(run),
                                         sample_fields(base))]
                        ) / sobolev_norm(shifted - u0, s - 1.0)
        assert ratio == float(np.max(seps))
        assert series == tuple(seps[1:].tolist())


# ----------------------------------------------------------------------
# report plumbing

def test_report_round_trip(tmp_path):
    grid = Grid(30.0, 256)
    cfg = SolverConfig(dt=1e-3, horizon=0.05, cadence=10)
    traj = evolve(gaussian(grid, amp=0.5), ZeroBackground(), KDV, cfg)
    report = collect_report(traj, ZeroBackground(), KDV, s=1.0)
    path = tmp_path / "diag.csv"
    report.write_csv(path)
    rows = open(path).read().strip().splitlines()
    assert rows[0].startswith("t,I1,I2,I3,E,Hs")
    assert len(rows) == len(traj) + 1
    report.verdicts["demo"] = (True, "ok")
    vpath = tmp_path / "verdicts.txt"
    report.write_verdicts(vpath)
    assert "demo: PASS" in open(vpath).read()


def test_gardner_perturbation_smoke_report():
    from gkdvlab.background import GardnerKink

    grid = Grid(50.0, 1024)
    bg = GardnerKink(c=1.0, beta=0.5)
    nl = AnalyticNonlinearity.gardner(0.5)
    cfg = SolverConfig(dt=2e-4, horizon=0.25, cadence=250)
    traj = evolve(gaussian(grid, amp=0.5, width=1.5), bg, nl, cfg)
    report = collect_report(traj, bg, nl, s=1.0)
    report.validate()
    assert all(np.isfinite(report.energy))
    assert all(b < 0.05 for b in report.boundary)


def test_report_rejects_non_monotone_times():
    report = DiagnosticsReport(times=[0.0, 0.5, 0.4], i1=[0] * 3, i2=[0] * 3,
                               i3=[0] * 3, energy=[0] * 3, hs=[0] * 3,
                               hs_enveloped=[0] * 3, boundary=[0] * 3)
    with pytest.raises(ValueError):
        report.validate()


@pytest.mark.parametrize("bg, nl", [
    (MKdVKink(c=1.0), AnalyticNonlinearity.mkdv_defocusing()),
    (KdVCnoidal(c=1.0, kappa=0.8), KDV),
], ids=["kink", "cnoidal"])
def test_report_is_the_per_sample_functionals(monkeypatch, bg, nl):
    # each column is bit for bit the functional on that sample alone, and
    # the transforms taken do not grow with the number of samples
    from gkdvlab import diagnostics, norms, spectral
    from gkdvlab.solver import boundary_mass_fraction

    grid = Grid(50.0, 512)
    rng = np.random.default_rng(5)
    calls = []
    for name in ("transform", "inverse_transform"):
        real = getattr(spectral, name)

        def counted(f, _real=real, _name=name):
            calls.append(_name)
            return _real(f)
        for module in (spectral, norms, diagnostics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    counts = []
    for n_samples in (3, 9):
        amps = rng.uniform(0.2, 0.5, size=(n_samples, 1))
        mat = amps * np.exp(-((grid.x - rng.uniform(-1, 1)) / 1.5) ** 2)
        traj = Trajectory(grid, 0.0, 0.01, mat)
        calls.clear()
        report = collect_report(traj, bg, nl, 1.0)
        counts.append(len(calls))
        per_sample = [(*invariants_I(f, nl),
                       modified_energy(f, bg, nl, t),
                       boundary_mass_fraction(f, 0.1))
                      for t, f in zip(report.times, sample_fields(traj))]
        columns = (report.i1, report.i2, report.i3, report.energy,
                   report.boundary)
        assert list(zip(*columns)) == per_sample
    assert counts[0] == counts[1]


def _l2_by_sample(f):
    return float(np.sqrt(f.grid.dx * np.sum(f.values ** 2)))


def _growth_by_sample(traj, bg, nl):
    # l2_growth_monitor as it was before its masses came from one row-wise
    # l2_norm of the stored samples: one norm per field, then the loop
    from gkdvlab.background import forcing_S

    grid = traj.grid
    jet = bg.jet(traj.times[:, None], grid.x)
    total = traj.samples.values + jet.psi
    lo, hi = float(np.min(total)), float(np.max(total))
    pad = 0.1 * max(abs(lo), abs(hi), 1e-30)
    M = nl.gwp_bound(lo - pad, hi + pad)
    B = 1.0 + M * float(np.max(np.abs(jet.psi_x)))
    forcing = forcing_S(jet, nl)
    l2 = np.atleast_1d(np.sqrt(grid.dx * np.sum(forcing ** 2, axis=-1)))
    A = max(v ** 2 for v in l2.tolist())
    fields = sample_fields(traj)
    mass0 = _l2_by_sample(fields[0]) ** 2
    worst, worst_t, holds = np.inf, float("nan"), True
    for i, (t, f) in enumerate(zip(traj.times, fields)):
        bound = (mass0 + float(t) * A) * np.exp(B * float(t))
        mass = _l2_by_sample(f) ** 2
        if mass - bound > 1e-9 * max(bound, 1.0):
            holds = False
        if i == 0:
            continue
        if bound > 0.0:
            rel = 1.0 - mass / bound
        else:
            rel = 0.0 if mass == 0.0 else -np.inf
        if rel < worst:
            worst, worst_t = rel, float(t)
    return GrowthVerdict(holds, A, B, M, float(worst), worst_t)


@pytest.mark.parametrize("bg, nl", [
    (MKdVKink(c=1.0), AnalyticNonlinearity.mkdv_defocusing()),
    (KdVCnoidal(c=1.0, kappa=0.8), KDV),
], ids=["kink", "cnoidal"])
def test_growth_and_sup_l2_are_the_per_sample_loops(bg, nl):
    # the monitor and the zero-perturbation sup L2 of `gkdvlab run` read
    # the stored samples row-wise; both are bit for bit the old loops
    grid = Grid(50.0, 512)
    cfg = SolverConfig(dt=2e-4, horizon=0.004, cadence=2,
                       boundary_threshold=0.05)
    for u0 in (gaussian(grid, amp=0.3, width=1.5), PhysicalField.zero(grid)):
        traj = evolve(u0, bg, nl, cfg)
        assert len(traj) == 11
        assert l2_growth_monitor(traj, bg, nl) == _growth_by_sample(traj, bg,
                                                                    nl)
        assert max(l2_norm(traj.samples).tolist()) == max(
            _l2_by_sample(f) for f in sample_fields(traj))
