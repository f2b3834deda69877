"""Conserved functionals, growth monitors and quantitative stability experiments.

The functionals follow the catalog conventions exactly: the energy carries
no 1/2 on the gradient term while the modified energy does; both are kept
as written rather than reconciled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .background import TAIL_FLOOR, Background, forcing_S, \
    require_resolved_background, residual_S
from .nonlinearity import AnalyticNonlinearity
from .norms import enveloped_norm, sobolev_norm
from .solver import SolverConfig, boundary_mass_fraction, evolve
from .spectral import (
    Grid,
    PhysicalField,
    Trajectory,
    inverse_transform,
    l2_norm,
    spatial_derivative,
    transform,
)

__all__ = [
    "background_exactness",
    "zero_perturbation_persistence",
    "invariants_I",
    "modified_energy",
    "l2_growth_monitor",
    "GrowthVerdict",
    "flow_lipschitz_experiment",
    "LipschitzTable",
    "DiagnosticsReport",
    "collect_report",
]

EXACTNESS_TOLERANCE = 1e-10     # verdict #1: max|S| per unit of its scale
PERSISTENCE_TOLERANCE = 1e-8    # verdict #2: sup_t ||u||_L2 from zero data


def background_exactness(bg: Background, nl: AnalyticNonlinearity, t: float,
                         grid: Grid):
    """Verdict #1 at time t: (max|S| <= EXACTNESS_TOLERANCE * scale, max|S|,
    scale), with scale = max(|Psi_t| + |Psi_xxx| + |f'(Psi) Psi_x|)."""
    worst = float(np.max(np.abs(residual_S(bg, nl, t, grid).values)))
    jet = bg.jet(t, grid.x)
    scale = float(np.max(np.abs(jet.psi_t) + np.abs(jet.psi_xxx)
                         + np.abs(nl.fp(jet.psi) * jet.psi_x)))
    return worst <= EXACTNESS_TOLERANCE * scale, worst, scale


def zero_perturbation_persistence(traj: Trajectory):
    """Verdict #2, zero data on an exact Psi stays zero: (sup_t ||u||_L2
    <= PERSISTENCE_TOLERANCE, sup_t ||u||_L2)."""
    sup_l2 = max(l2_norm(traj.samples).tolist())
    return sup_l2 <= PERSISTENCE_TOLERANCE, sup_l2


def _integrate(grid: Grid, values: np.ndarray):
    """Periodic quadrature over the last axis, a float for one field;
    exact for band-limited integrands."""
    out = grid.dx * np.sum(values, axis=-1)
    return out if out.ndim else float(out)


def invariants_I(v: PhysicalField, nl: AnalyticNonlinearity):
    """Mean, mass and energy of a localized field, or of each row of a
    stacked one, from one transform and one inverse:

    I1 = int v,  I2 = int v^2,  I3 = int (v_x^2 - F(v)).
    """
    grid = v.grid
    v_x = inverse_transform(spatial_derivative(transform(v), 1)).values
    i1 = _integrate(grid, v.values)
    i2 = _integrate(grid, v.values ** 2)
    i3 = _integrate(grid, v_x ** 2 - nl.F(v.values))
    return i1, i2, i3


def modified_energy(u: PhysicalField, bg: Background, nl: AnalyticNonlinearity,
                    t):
    """Energy adapted to the background:

        E = 1/2 int u_x^2 - int ( F(u+Psi) - F(Psi) - u f(Psi) ).

    The second integrand is quadratic in u near u = 0, so it decays
    wherever u decays and the truncated integral converges on refinement.
    For a stacked field, t is a column of times, one per row (as in
    :func:`l2_growth_monitor`), and E comes one value per row.
    """
    grid = u.grid
    psi = bg.jet(t, grid.x).psi
    u_x = inverse_transform(spatial_derivative(transform(u), 1)).values
    bulk = nl.F(u.values + psi) - nl.F(psi) - u.values * nl.f(psi)
    return 0.5 * _integrate(grid, u_x ** 2) - _integrate(grid, bulk)


@dataclass(frozen=True)
class GrowthVerdict:
    holds: bool
    forcing_level: float          # A = sup_t ||S||_L2^2
    growth_rate: float            # B = 1 + M * sup |Psi_x|
    curvature_bound: float        # M over the attained range, padded
    worst_margin: float           # min over t > 0 of 1 - ||u||^2 / bound
    margin_time: float            # the sample time where it is attained


def l2_growth_monitor(traj: Trajectory, bg: Background,
                      nl: AnalyticNonlinearity) -> GrowthVerdict:
    """Check the exponential mass bound with reconstructed constants.

    Pointwise in time the monitor requires

        ||u(t)||^2 <= ( ||u(0)||^2 + t*A ) * exp(B*t),

    with A the worst forcing mass sup_t ||S||^2 and B = 1 + M*sup|Psi_x|,
    where M bounds |f''| over the attained range of u + Psi padded by 10%.
    The constants retrace the energy argument: Young's inequality on the
    forcing pairing and the second-order Taylor remainder of f.
    """
    grid = traj.grid
    jet = bg.jet(traj.times[:, None], grid.x)       # a row per sample time
    require_resolved_background(jet.psi_x, grid, TAIL_FLOOR)
    total = traj.samples.values + jet.psi
    lo, hi = float(np.min(total)), float(np.max(total))
    pad = 0.1 * max(abs(lo), abs(hi), 1e-30)
    M = nl.gwp_bound(lo - pad, hi + pad)
    B = 1.0 + M * float(np.max(np.abs(jet.psi_x)))
    # norms squared as Python floats (C pow), one per row
    A = float(np.max(l2_norm(PhysicalField(grid, forcing_S(jet, nl))))) ** 2
    masses = [v ** 2 for v in l2_norm(traj.samples).tolist()]

    worst, worst_t = np.inf, float("nan")
    holds = True
    for i, (t, mass) in enumerate(zip(traj.times.tolist(), masses)):
        bound = (masses[0] + t * A) * np.exp(B * t)
        if mass - bound > 1e-9 * max(bound, 1.0):
            holds = False
        # at t = 0 the bound is met with equality, which says nothing
        if i == 0:
            continue
        if bound > 0.0:
            rel = 1.0 - mass / bound
        else:
            rel = 0.0 if mass == 0.0 else -np.inf
        if rel < worst:
            worst, worst_t = rel, t
    return GrowthVerdict(holds, A, B, M, float(worst), worst_t)


@dataclass(frozen=True)
class LipschitzTable:
    deltas: tuple
    ratios: tuple                 # per delta: sup over samples, t = 0 included
    times: tuple                  # the sample times t > 0
    series: tuple                 # per delta: the separation ratio at `times`
    growth_exponents: tuple       # per delta: lambda of log(series) ~ lambda*t

    def bounded_by(self, limit: float) -> bool:
        return all(r <= limit for r in self.ratios)

    def spread(self) -> float:
        return max(self.ratios) / min(self.ratios) - 1.0


def flow_lipschitz_experiment(u0: PhysicalField, bg: Background,
                              nl: AnalyticNonlinearity, config: SolverConfig,
                              deltas, s: float = 1.0) -> LipschitzTable:
    """Growth ratio of solution separation against data separation.

    For each delta, runs the flow from u0 and from u0 + delta*g (g the
    bump exp(-((x + 3)/1.5)^2) scaled to unit H^(s-1)) and records

        R(delta) = sup_{t<=T} ||u - v||_{H^(s-1)} / ||u0 - v0||_{H^(s-1)}.

    A bounded, delta-stable table is the quantitative trace of Lipschitz
    continuity of the flow map at the difference regularity.  The t = 0
    sample alone makes R at least 1, so the table also keeps the ratio at
    each later sample and its growth exponent, the least-squares lambda of
    log(ratio) = lambda*t; the fit runs through the origin, where the
    ratio is 1 by construction.  A run's separations are one row-wise
    `sobolev_norm` of its sample matrix minus the base run's.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("perturbation sizes must be positive")
    grid = u0.grid
    profile = PhysicalField(grid, np.exp(-((grid.x + 3.0) / 1.5) ** 2))
    g = PhysicalField(grid, profile.values / sobolev_norm(profile, s - 1.0))

    base = evolve(u0, bg, nl, config)
    times = base.times[1:]
    ratios, series, exponents = [], [], []
    for delta in deltas:
        shifted = PhysicalField(grid, u0.values + delta * g.values)
        run = evolve(shifted, bg, nl, config)
        denom = sobolev_norm(shifted - u0, s - 1.0)
        seps = sobolev_norm(run.samples - base.samples, s - 1.0) / denom
        ratios.append(float(np.max(seps)))
        series.append(tuple(seps[1:].tolist()))
        exponents.append(float(np.dot(times, np.log(seps[1:]))
                               / np.dot(times, times)))
    return LipschitzTable(tuple(deltas), tuple(ratios),
                          tuple(times.tolist()), tuple(series),
                          tuple(exponents))


@dataclass
class DiagnosticsReport:
    """Per-sample functional series plus experiment verdicts."""

    times: list = field(default_factory=list)
    i1: list = field(default_factory=list)
    i2: list = field(default_factory=list)
    i3: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    hs: list = field(default_factory=list)
    hs_enveloped: list = field(default_factory=list)
    boundary: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def validate(self):
        ts = np.asarray(self.times)
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("sample times must be strictly increasing")
        for series in (self.i1, self.i2, self.i3, self.energy, self.hs,
                       self.hs_enveloped, self.boundary):
            if not np.all(np.isfinite(series)):
                raise ValueError("report contains non-finite entries")

    def write_csv(self, path):
        self.validate()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "I1", "I2", "I3", "E", "Hs", "Hs_omega",
                             "boundary_mass"])
            for row in zip(self.times, self.i1, self.i2, self.i3, self.energy,
                           self.hs, self.hs_enveloped, self.boundary):
                writer.writerow([f"{v:.16e}" for v in row])

    def write_verdicts(self, path) -> str:
        """Write `name: PASS|FAIL (detail)` per verdict; return the text."""
        text = "".join(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n"
                       for name, (ok, detail) in sorted(self.verdicts.items()))
        with open(path, "w") as fh:
            fh.write(text)
        return text

    @property
    def all_pass(self) -> bool:
        return all(flag for flag, _ in self.verdicts.values())


def collect_report(traj: Trajectory, bg: Background, nl: AnalyticNonlinearity,
                   s: float, eps: float = 0.0,
                   buffer_fraction: float = 0.1) -> DiagnosticsReport:
    """Evaluate the standard functional series along a trajectory, each
    functional once on the stacked samples; the enveloped norm under the
    envelope of exponent `eps`."""
    samples, spectra = traj.samples, traj.spectra()
    i1, i2, i3 = invariants_I(samples, nl)
    report = DiagnosticsReport(
        times=traj.times.tolist(), i1=i1.tolist(), i2=i2.tolist(),
        i3=i3.tolist(),
        energy=modified_energy(samples, bg, nl, traj.times[:, None]).tolist(),
        hs=sobolev_norm(spectra, s).tolist(),
        hs_enveloped=enveloped_norm(spectra, s, eps).tolist(),
        boundary=boundary_mass_fraction(samples, buffer_fraction).tolist())
    report.validate()
    return report
