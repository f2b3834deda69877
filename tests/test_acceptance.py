"""Acceptance suite: one test per criterion, one pass/fail line each.

Reference desk scale where the criterion depends on it: half length 50,
1024 points, dt = 2e-4, horizon 1.  Run with `pytest -v -s` to see the
per-criterion lines inline.
"""

import numpy as np
import pytest

from gkdvlab.background import (
    GardnerKink,
    KdVCnoidal,
    MKdVDnoidal,
    MKdVKink,
    SyntheticBackground,
    ZeroBackground,
    residual_S,
    zhidkov_split,
)
from gkdvlab.diagnostics import (
    flow_lipschitz_experiment,
    invariants_I,
    l2_growth_monitor,
)
from gkdvlab.nonlinearity import AnalyticNonlinearity
from gkdvlab.norms import (
    bourgain_norm,
    extend_trajectory,
    modulation_partition_defect,
    resonance_vanishing_check,
    sobolev_norm,
)
from gkdvlab.solver import (
    SolverConfig,
    evolve,
    picard_solve,
    vanishing_viscosity,
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
    smoothing_constant,
    transform,
)

DESK_L = 50.0
DESK_N = 1024
DESK_DT = 2e-4
DESK_T = 1.0

KDV = AnalyticNonlinearity.kdv()


def announce(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_grid():
    return Grid(DESK_L, DESK_N)


def gaussian(grid, amp=1.0, width=1.0, center=0.0):
    return PhysicalField.sample(
        grid, lambda x: amp * np.exp(-((x - center) / width) ** 2))


def soliton(grid, c=1.0):
    return PhysicalField.sample(
        grid, lambda x: 1.5 * c / np.cosh(np.sqrt(c) / 2.0 * x) ** 2)


EXACT_CATALOG = [
    ("mkdv_kink", MKdVKink(c=2.0), AnalyticNonlinearity.mkdv_defocusing()),
    ("gardner_kink", GardnerKink(c=1.0, beta=0.5),
     AnalyticNonlinearity.gardner(0.5)),
    ("kdv_cnoidal", KdVCnoidal(c=1.0, kappa=0.8), KDV),
    ("mkdv_dnoidal", MKdVDnoidal(c=1.0, kappa=0.5),
     AnalyticNonlinearity.mkdv_focusing()),
]


def test_criterion_01_background_exactness(desk_grid):
    worst_rel = 0.0
    for name, bg, nl in [EXACT_CATALOG[0], EXACT_CATALOG[1]]:
        for t in (0.0, 0.5, 1.0):
            jet = bg.jet(t, desk_grid.x)
            scale = float(np.max(np.abs(jet.psi_t) + np.abs(jet.psi_xxx)
                                 + np.abs(nl.fp(jet.psi) * jet.psi_x)))
            forcing = residual_S(bg, nl, t, desk_grid)
            worst_rel = max(worst_rel,
                            float(np.max(np.abs(forcing.values))) / scale)
    announce(1, "background exactness", worst_rel <= 1e-10,
             f"max|S|/scale = {worst_rel:.3e} (tol 1e-10)")


def zero_data_sup(grid, bg, nl, cfg):
    """sup_t ||u||_L2 of the run from zero data, criterion 2's measure."""
    traj = evolve(PhysicalField.zero(grid), bg, nl, cfg)
    return max(l2_norm(traj.samples).tolist())


def persists(sup):
    """Criterion 2's rule: zero data stays zero."""
    return sup <= 1e-8


def test_criterion_02_zero_perturbation_persistence(desk_grid):
    cfg = SolverConfig(dt=DESK_DT, horizon=DESK_T, cadence=500)
    worst = 0.0
    for name, bg, nl in EXACT_CATALOG:
        worst = max(worst, zero_data_sup(desk_grid, bg, nl, cfg))
    announce(2, "zero-perturbation persistence", persists(worst),
             f"sup_t ||u||_L2 = {worst:.3e} over the exact catalog (tol 1e-8)")


def test_criterion_02_negative_control():
    # the kink solves mKdV, not KdV, so under the KdV flux its forcing S
    # is O(1) and drives zero data away from zero; a forcing assembled as
    # zero, or dropped, would pass #2 by construction
    cfg = SolverConfig(dt=DESK_DT, horizon=0.01, cadence=10)
    assert not persists(zero_data_sup(Grid(DESK_L / 2, 512), MKdVKink(c=2.0),
                                      KDV, cfg))


def test_criterion_03_conservation(desk_grid):
    cfg = SolverConfig(dt=DESK_DT, horizon=DESK_T, cadence=500)
    traj = evolve(soliton(desk_grid), ZeroBackground(), KDV, cfg)
    i1s, i2s, i3s = (v.tolist() for v in invariants_I(traj.samples, KDV))
    d1 = max(abs(v - i1s[0]) for v in i1s)
    d2 = max(abs(v - i2s[0]) for v in i2s) / abs(i2s[0])
    d3 = max(abs(v - i3s[0]) for v in i3s) / (1.0 + abs(i3s[0]))
    ok = d1 <= 1e-12 and d2 <= 1e-8 and d3 <= 1e-8
    announce(3, "conservation with zero background", ok,
             f"I1 drift {d1:.2e} (1e-12), I2 rel {d2:.2e}, I3 rel {d3:.2e} (1e-8)")


def test_criterion_04_temporal_order():
    grid = Grid(DESK_L, 512)
    u0 = gaussian(grid)
    T = 0.5

    def final(dt):
        cfg = SolverConfig(dt=dt, horizon=T, cadence=int(round(T / dt)))
        return evolve(u0, ZeroBackground(), KDV, cfg).samples.values[-1]

    ref = final(T / 4096)
    dts, errs = [], []
    for m in (128, 256, 512):
        dts.append(T / m)
        errs.append(float(np.max(np.abs(final(T / m) - ref))))
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    announce(4, "temporal order", abs(order - 4.0) <= 0.3,
             f"fitted order {order:.3f} (target 4 +- 0.3), errors {errs}")


def test_criterion_05_spatial_spectral_accuracy():
    T, dt = 0.1, 1e-4
    cfg = SolverConfig(dt=dt, horizon=T, cadence=int(round(T / dt)),
                       tail_threshold=1.0, boundary_threshold=1.0)
    ref_grid = Grid(20.0, 512)
    ref = evolve(gaussian(ref_grid, width=0.8), ZeroBackground(), KDV,
                 cfg).samples.values[-1]
    errs = []
    for n in (64, 128, 256):
        grid = Grid(20.0, n)
        out = evolve(gaussian(grid, width=0.8), ZeroBackground(), KDV,
                     cfg).samples.values[-1]
        errs.append(float(np.max(np.abs(out - ref[::ref_grid.n // n]))))
    ok = all(b <= a / 10.0 or b < 1e-12 for a, b in zip(errs, errs[1:]))
    announce(5, "spatial spectral accuracy", ok,
             f"errors per doubling {errs} (>=10x to the 1e-12 floor)")


def test_criterion_06_l2_growth_bound(desk_grid):
    scenarios = EXACT_CATALOG + [("synthetic", SyntheticBackground(), KDV)]
    details = []
    ok = True
    for name, bg, nl in scenarios:
        cfg = SolverConfig(dt=DESK_DT, horizon=DESK_T, cadence=500,
                           boundary_threshold=1.0,
                           tail_threshold=1e-2 if name == "synthetic" else 1e-5)
        traj = evolve(gaussian(desk_grid, amp=0.5, width=2.0), bg, nl, cfg)
        verdict = l2_growth_monitor(traj, bg, nl)
        ok = ok and verdict.holds
        details.append(f"{name}: margin {verdict.worst_margin:.2e} at "
                       f"t={verdict.margin_time:.3g}")
    announce(6, "exponential mass bound", ok, "; ".join(details))


def test_criterion_07_flow_lipschitz(desk_grid):
    bg = KdVCnoidal(c=1.0, kappa=0.8)
    cfg = SolverConfig(dt=DESK_DT, horizon=DESK_T, cadence=1000,
                       boundary_threshold=0.05)
    table = flow_lipschitz_experiment(
        gaussian(desk_grid, amp=0.5, width=1.5), bg, KDV, cfg,
        [1e-2, 1e-3, 1e-4], s=1.0)
    ok = table.bounded_by(10.0) and table.spread() <= 0.2
    announce(7, "flow Lipschitz stability", ok,
             f"ratios {[f'{r:.4f}' for r in table.ratios]}, "
             f"spread {table.spread():.3f} (<=0.2), bound 10")


def test_criterion_08_vanishing_viscosity():
    grid = Grid(DESK_L, 512)
    u0 = gaussian(grid, amp=1.0, width=2.0)
    cfg = SolverConfig(dt=5e-4, horizon=DESK_T, cadence=100,
                       boundary_threshold=0.02)
    study = vanishing_viscosity(u0, ZeroBackground(), KDV,
                                [0.1, 0.05, 0.025, 0.0], cfg)
    monotone = all(b <= 1.05 * a for a, b in
                   zip(study.differences, study.differences[1:]))
    strict = all(b < a for a, b in
                 zip(study.differences, study.differences[1:]))
    ok = monotone and strict and study.fitted_rate >= 0.9
    announce(8, "vanishing viscosity", ok,
             f"diffs {[f'{d:.3e}' for d in study.differences]}, "
             f"rate {study.fitted_rate:.3f} (>=0.9)")


def test_criterion_09_partitions_of_unity(desk_grid):
    rng = np.random.default_rng(0)
    f = PhysicalField(desk_grid, rng.standard_normal(desk_grid.n))
    spec = transform(f)
    total = lp_low_block(spec).coeffs.copy()
    for N in dyadic_band(desk_grid):
        total += lp_project(spec, N).coeffs
    lp_defect = float(np.max(np.abs(total - spec.coeffs)))

    grid = Grid(20.0, 128)
    u0 = gaussian(grid)
    m = 256
    spec0 = transform(u0)
    fields = [inverse_transform(airy_propagate(spec0, k * 0.5 / m))
              for k in range(m + 1)]
    ext = extend_trajectory(Trajectory(grid, 0.0, 0.5 / m, fields))
    q_defect = modulation_partition_defect(ext)
    ok = lp_defect <= 1e-12 and q_defect <= 1e-12
    announce(9, "dyadic and modulation partitions", ok,
             f"frequency defect {lp_defect:.2e}, modulation defect "
             f"{q_defect:.2e} (tol 1e-12)")


def test_criterion_10_dissipative_smoothing_bound():
    xi = np.linspace(0.0, 400.0, 40001)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        C = smoothing_constant(r)
        for mu in (0.01, 0.1, 1.0):
            for t in (0.01, 0.1, 1.0):
                lhs = float(np.max((1.0 + xi ** 2) ** (r / 2.0)
                                   * np.exp(-mu * xi ** 2 * t)))
                rhs = C * np.sqrt(1.0 + (2.0 * mu * t) ** (-r))
                worst = max(worst, lhs / rhs)
    announce(10, "dissipative smoothing bound", worst <= 1.0 + 1e-9,
             f"worst symbol-sup ratio {worst:.6f} over the 3x3x3 sample")


def vanishes(chk):
    """Criterion 11's rule for one lattice sum."""
    return chk.magnitude <= 1e-12 * chk.scale


def test_criterion_11_resonance_vanishing():
    chk3 = resonance_vanishing_check([32, 32, 16], [1, 1, 1])
    chk4 = resonance_vanishing_check(
        [32, 32, 16, 1], [1, 1, 1, 1],
        domain_half_length=4.0 * np.pi, window_half_length=np.pi / 2.0)
    ok = vanishes(chk3) and vanishes(chk4)
    announce(11, "resonance-forced vanishing", ok,
             f"three-factor |I|/scale = "
             f"{chk3.magnitude / chk3.scale:.2e}, four-factor "
             f"{chk4.magnitude / chk4.scale:.2e} (tol 1e-12)")


def test_criterion_11_negative_control():
    # a sum that came out empty on every block list would pass #11 by
    # construction; on a list whose resonance closes, the rule must fail
    assert not vanishes(resonance_vanishing_check([4, 4, 2], [1, 1, 32]))


def test_criterion_12_gaussian_split(desk_grid):
    rng = np.random.default_rng(1)
    worst_spec = 0.0
    sup_ok = True
    for trial in range(20):
        base = np.tanh((desk_grid.x + rng.uniform(-5, 5))
                       * rng.uniform(0.3, 2.0))
        ripple = np.cos(rng.uniform(0.2, 2.0) * desk_grid.x
                        + rng.uniform(0, 6.0))
        phi = PhysicalField(desk_grid,
                            rng.uniform(0.5, 3.0) * base
                            + rng.uniform(0.0, 1.0) * ripple)
        smooth, rem = zhidkov_split(phi)
        dev = np.max(np.abs(
            transform(rem).coeffs
            - (1.0 - np.exp(-desk_grid.xi ** 2)) * transform(phi).coeffs))
        worst_spec = max(worst_spec, float(dev))
        sup_ok = sup_ok and (np.max(np.abs(smooth.values))
                             <= np.max(np.abs(phi.values)) * (1 + 1e-12))
    ok = worst_spec <= 1e-12 and sup_ok
    announce(12, "smooth/decaying split", ok,
             f"spectral identity defect {worst_spec:.2e} (tol 1e-12), "
             f"sup bound on 20 random inputs: {sup_ok}")


def test_criterion_13_free_solution_bound_stability():
    def ratio(n, m):
        grid = Grid(20.0, n)
        u0 = gaussian(grid)
        dt = 0.5 / m
        spec = transform(u0)
        fields = [inverse_transform(airy_propagate(spec, k * dt))
                  for k in range(m + 1)]
        ext = extend_trajectory(Trajectory(grid, 0.0, dt, fields))
        return bourgain_norm(ext, 1.0, 1.0) / sobolev_norm(u0, 1.0)

    base = ratio(128, 256)
    fine_t = ratio(128, 512)
    fine_x = ratio(256, 2048)
    vals = [base, fine_t, fine_x]
    spread = max(vals) / min(vals) - 1.0
    announce(13, "free-solution space-time bound", spread <= 0.2,
             f"ratios {[f'{v:.4f}' for v in vals]}, spread {spread:.4f} "
             f"(<=0.2)")


def test_criterion_14_picard_cross_validation():
    grid = Grid(DESK_L, 512)
    u0 = gaussian(grid)
    mu, t_small = 0.1, 0.05
    traj, report = picard_solve(u0, ZeroBackground(), KDV, mu=mu,
                                t_small=t_small, n_nodes=257)
    cfg = SolverConfig(dt=t_small / 1280, horizon=t_small, mu=mu, cadence=5)
    other = evolve(u0, ZeroBackground(), KDV, cfg)
    worst = max(sobolev_norm(traj.samples - other.samples, 0.0).tolist())
    contracting = all(f < 1.0 for f in report.contraction_factors[1:])
    ok = worst <= 1e-8 and contracting
    announce(14, "fixed-point/integrator cross-validation", ok,
             f"sup-t H^0 gap {worst:.3e} (tol 1e-8), "
             f"{report.iterations} iterations, contracting: {contracting}")
