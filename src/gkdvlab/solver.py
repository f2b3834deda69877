"""Time integration of the perturbation equation on a background.

The evolved unknown u solves

    u_t = -u_xxx + mu*u_xx - d/dx( f(u + Psi) - f(Psi) ) - S(t, .),

with S the background forcing.  The linear symbol i*xi^3 - mu*xi^2 is
treated exactly by exponential integrators, so the vanishing-viscosity
family mu -> 0 runs through a single code path.  The ETDRK4 scheme follows
Cox & Matthews (J. Comput. Phys. 176, 2002); coefficient evaluation uses
the phi-function series below a safe threshold instead of the direct
formulas, which lose up to ten digits to cancellation near the origin
(cf. Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005).

Every path through the equation (`evolve` and `step`, `rhs`, the Picard
construction, signed-`dt` integration) evaluates its nonlinear term in one
:class:`SpectralCore` on the spectrum ``SpectralField.coeffs``.  It computes
run constants once and stage-time data once per time: one background jet
on the flux grid gives the flux tables (Taylor coefficients f^(k)(Psi)/k!
of a polynomial f) and, through its samples x_big[::p] = x, the forcing.
A step has two new stage times, t + dt/2 and t + dt, so two jets.  The
Nyquist bin is zeroed in the linear symbol, the derivative and the forcing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .background import Background, residual_S
from .nonlinearity import AnalyticNonlinearity, NonFiniteResultError
from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    flux_coefficients,
    flux_grid,
    flux_tables,
    inverse_transform,
    require_resolved,
    tail_fraction_of_spectrum,
    transform,
)

__all__ = [
    "SolverConfig",
    "SimulationState",
    "SolverError",
    "InstabilityError",
    "BoundaryContaminationError",
    "SpectralCore",
    "rhs",
    "step",
    "evolve",
    "picard_solve",
    "PicardReport",
    "vanishing_viscosity",
    "ViscosityStudy",
    "phi1",
    "phi2",
    "phi3",
    "default_dt",
    "boundary_mass_fraction",
]


class SolverError(RuntimeError):
    pass


class InstabilityError(SolverError):
    def __init__(self, step_index: int, message: str = ""):
        self.step_index = step_index
        super().__init__(message or f"non-finite field at step {step_index}")


class BoundaryContaminationError(SolverError):
    def __init__(self, step_index: int, fraction: float, threshold: float):
        self.step_index = step_index
        self.fraction = fraction
        super().__init__(
            f"boundary buffer holds {fraction:.3e} of the solution mass at "
            f"step {step_index} (threshold {threshold:.1e})"
        )


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "etdrk4"
    dt: float = 1e-3
    horizon: float = 1.0
    mu: float = 0.0
    dealias: str = "auto"
    boundary_buffer: float = 0.1
    boundary_threshold: float = 1e-3
    tail_threshold: float = 1e-6
    cadence: int = 1

    def __post_init__(self):
        if self.scheme not in ("etdrk4", "ifrk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dealias not in ("auto", "lowpass"):
            raise ValueError(f"unknown dealias rule {self.dealias!r}")
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("time step and horizon must be positive")
        if self.mu < 0:
            raise ValueError("viscosity must be non-negative")
        if not 0.0 < self.boundary_buffer < 0.5:
            raise ValueError("boundary buffer fraction must lie in (0, 0.5)")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")


def default_dt(grid: Grid) -> float:
    """Heuristic step for the desk scenarios; the exact linear treatment
    leaves only the nonlinear term to bound the step."""
    return 0.4 * grid.dx ** 3 / np.pi ** 2


def boundary_mass_fraction(u: PhysicalField, buffer_fraction: float) -> float:
    """Relative L^2 mass within the buffer strip at the domain ends.

    Solutions below L^2 norm 1e-10 are treated as empty; contamination is
    only meaningful against a non-negligible solution scale.
    """
    mask = np.abs(u.grid.x) >= (1.0 - buffer_fraction) * u.grid.half_length
    total = np.sum(u.values ** 2)
    if np.sqrt(total * u.grid.dx) < 1e-10:
        return 0.0
    return float(np.sqrt(np.sum(u.values[mask] ** 2) / total))


@dataclass
class SimulationState:
    t: float
    spectrum: SpectralField
    step_index: int = 0

    @property
    def u(self) -> PhysicalField:
        return inverse_transform(self.spectrum)

    @classmethod
    def from_field(cls, u0: PhysicalField, t0: float = 0.0) -> "SimulationState":
        return cls(t=t0, spectrum=transform(u0))


# ----------------------------------------------------------------------
# phi functions

_PHI_SERIES_RADIUS = 0.5
_PHI_SERIES_TERMS = 20


def _phi(z, k: int):
    """phi_k(z) = sum_m z^m / (m + k)!: the truncated series for |z| below
    the radius, the direct formula, which cancels near 0, elsewhere."""
    from math import factorial

    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    zs, zl = z[small], z[~small]
    acc = np.zeros_like(zs)
    for m in range(_PHI_SERIES_TERMS, -1, -1):
        acc = acc * zs + 1.0 / factorial(m + k)
    out[small] = acc
    direct = np.expm1(zl)
    for j in range(1, k):
        direct = direct - zl ** j / factorial(j)
    out[~small] = direct / zl ** k
    return out


def phi1(z):
    return _phi(z, 1)


def phi2(z):
    return _phi(z, 2)


def phi3(z):
    return _phi(z, 3)


# ----------------------------------------------------------------------
# the spectral core

class Stage(NamedTuple):
    """Background data of one stage time."""

    tables: list            # flux_tables of Psi on the flux grid
    forcing: np.ndarray     # half spectrum of S, Nyquist bin zeroed


def _without_nyquist(symbol: np.ndarray) -> np.ndarray:
    symbol[-1] = 0.0
    return symbol


class SpectralCore:
    """Nonlinear term -d/dx(f(u+Psi) - f(Psi)) - S of one (grid, bg, nl, dealias).

    Spectra are ``SpectralField.coeffs`` arrays, bins 0..n/2.  Stage data
    are kept for the last three stage times: the distinct times of a step,
    the last of which opens the next step.
    """

    def __init__(self, grid: Grid, bg: Background, nl: AnalyticNonlinearity,
                 dealias: str = "auto"):
        self.grid, self.bg, self.nl, self.dealias = grid, bg, nl, dealias
        self.flux_grid = flux_grid(grid, nl, dealias)
        self._derivative = _without_nyquist(-1j * grid.xi)
        self._stages: dict[float, Stage] = {}
        self._tables: dict[tuple, tuple] = {}

    def check_background(self, t: float, tail_threshold: float = 1e-10):
        """Raise UnresolvedFieldError unless the grid resolves Psi(t).

        The stage at t is sampled here too, so a background that cannot
        be sampled on the flux grid fails before any step.
        """
        residual_S(self.bg, self.nl, t, self.grid,
                   tail_threshold=max(tail_threshold, 1e-10))
        self.stage(t)

    def linear_symbol(self, mu: float = 0.0) -> np.ndarray:
        """i*xi^3 - mu*xi^2 with the Nyquist bin zeroed."""
        xi = self.grid.xi
        return _without_nyquist(1j * xi ** 3 - mu * xi ** 2)

    def stage(self, t: float) -> Stage:
        """Background data at time t, from one jet per new time."""
        if t not in self._stages:
            jet = self.bg.jet(t, self.flux_grid.x)
            p = self.flux_grid.n // self.grid.n
            tables = flux_tables(self.nl, jet.psi)
            fp = (tables[1][::p] if self.nl.polynomial_degree()
                  else self.nl.fp(jet.psi[::p]))
            forcing = jet.psi_t[::p] + jet.psi_xxx[::p] + fp * jet.psi_x[::p]
            forcing_hat = transform(PhysicalField(self.grid, forcing)).coeffs
            if len(self._stages) == 3:
                del self._stages[next(iter(self._stages))]
            self._stages[t] = Stage(tables, _without_nyquist(forcing_hat))
        return self._stages[t]

    def flux_term(self, spec: np.ndarray, stage: Stage) -> np.ndarray:
        """Spectrum of -d/dx(f(u+Psi) - f(Psi)) for the spectrum `spec`;
        a non-finite flux is an InstabilityError."""
        try:
            return self._derivative * flux_coefficients(
                spec, self.nl, stage.tables, self.dealias)
        except NonFiniteResultError as err:
            raise InstabilityError(-1, "non-finite nonlinear flux") from err

    def n_hat(self, spec: np.ndarray, stage: Stage) -> np.ndarray:
        """Spectrum of the nonlinear term for the spectrum `spec`."""
        return self.flux_term(spec, stage) - stage.forcing

    def advance(self, spec: np.ndarray, t: float, dt: float,
                scheme: str = "etdrk4", mu: float = 0.0) -> np.ndarray:
        """One step of signed size dt from time t; dt < 0 needs mu = 0."""
        key = (scheme, dt, mu)
        if key not in self._tables:
            if scheme not in ("etdrk4", "ifrk4"):
                raise ValueError(f"unknown scheme {scheme!r}")
            if mu < 0:
                raise ValueError("viscosity must be non-negative")
            if mu > 0 and dt < 0:
                raise ValueError(
                    "dissipative propagation is forward-only for mu > 0")
            z = dt * self.linear_symbol(mu)
            p1, p2, p3 = phi1(z), phi2(z), phi3(z)
            self._tables[key] = (
                np.exp(z), np.exp(z / 2.0), 0.5 * dt * phi1(z / 2.0),
                dt * (p1 - 3.0 * p2 + 4.0 * p3), dt * (p2 - 2.0 * p3),
                dt * (4.0 * p3 - p2))
        e_full, e_half, q_half, w1, w2, w3 = self._tables[key]
        h = dt
        s0, s_mid, s_end = self.stage(t), self.stage(t + h / 2.0), self.stage(t + h)
        if scheme == "etdrk4":
            n0 = self.n_hat(spec, s0)
            a = e_half * spec + q_half * n0
            na = self.n_hat(a, s_mid)
            b = e_half * spec + q_half * na
            nb = self.n_hat(b, s_mid)
            c = e_half * a + q_half * (2.0 * nb - n0)
            nc = self.n_hat(c, s_end)
            return e_full * spec + w1 * n0 + 2.0 * w2 * (na + nb) + w3 * nc
        k1 = self.n_hat(spec, s0)
        k2 = self.n_hat(e_half * (spec + 0.5 * h * k1), s_mid)
        k3 = self.n_hat(e_half * spec + 0.5 * h * k2, s_mid)
        k4 = self.n_hat(e_full * spec + e_half * h * k3, s_end)
        return e_full * spec + h / 6.0 * (
            e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def rhs(u: PhysicalField, bg: Background, nl: AnalyticNonlinearity, t: float,
        mu: float = 0.0, tail_threshold: float = 1e-6) -> PhysicalField:
    """Full right side, including the dispersive and viscous linear part.

    The tail threshold is the scenario's resolution budget; it gates both
    the evolving field and the sampled background.  S enters as sampled,
    Nyquist content included, which the stepper's spectral forcing drops.
    """
    spec = transform(u)
    require_resolved(spec, tail_threshold)
    forcing = residual_S(bg, nl, t, u.grid,
                         tail_threshold=max(tail_threshold, 1e-10))
    core = SpectralCore(u.grid, bg, nl)
    coeffs = (core.linear_symbol(mu) * spec.coeffs
              + core.flux_term(spec.coeffs, core.stage(t)))
    if not np.all(np.isfinite(coeffs)):
        raise InstabilityError(-1, "non-finite right-hand side")
    return PhysicalField(u.grid, inverse_transform(
        SpectralField(u.grid, coeffs)).values - forcing.values)


def step(state: SimulationState, config: SolverConfig, bg: Background,
         nl: AnalyticNonlinearity,
         core: SpectralCore | None = None) -> SimulationState:
    """Advance one time step; deterministic for identical inputs.

    `core` carries the tables and stage data of an ongoing run; without
    one, a core is built and the background checked at state.t.
    """
    grid = state.spectrum.grid
    if core is None:
        core = SpectralCore(grid, bg, nl, config.dealias)
        core.check_background(state.t, config.tail_threshold)
    tail = tail_fraction_of_spectrum(grid, state.spectrum.coeffs)
    if not tail <= config.tail_threshold:
        raise InstabilityError(state.step_index, (
            f"spectral tail {tail:.2e} exceeds threshold "
            f"{config.tail_threshold:.2e} at step {state.step_index}"))
    try:
        coeffs = core.advance(state.spectrum.coeffs, state.t, config.dt,
                              config.scheme, config.mu)
    except InstabilityError as err:
        raise InstabilityError(state.step_index + 1) from err
    if not np.all(np.isfinite(coeffs)):
        raise InstabilityError(state.step_index + 1)
    new = SimulationState(state.t + config.dt, SpectralField(grid, coeffs),
                          state.step_index + 1)
    frac = boundary_mass_fraction(new.u, config.boundary_buffer)
    if frac > config.boundary_threshold:
        raise BoundaryContaminationError(new.step_index, frac,
                                         config.boundary_threshold)
    return new


def evolve(u0: PhysicalField, bg: Background, nl: AnalyticNonlinearity,
           config: SolverConfig, raise_on_failure: bool = True) -> Trajectory:
    """Integrate to the horizon, sampling every `cadence` steps.

    On instability the partial trajectory is flagged (or the error is
    raised, per `raise_on_failure`).
    """
    grid = u0.grid
    n_steps = int(round(config.horizon / config.dt))
    if abs(n_steps * config.dt - config.horizon) > 1e-9 * config.horizon:
        raise ValueError("horizon must be an integer number of steps")
    if n_steps % config.cadence != 0:
        raise ValueError("cadence must divide the number of steps")
    core = SpectralCore(grid, bg, nl, config.dealias)
    core.check_background(0.0, config.tail_threshold)
    state = SimulationState.from_field(u0)
    fields = [u0]
    try:
        for _ in range(n_steps):
            state = step(state, config, bg, nl, core=core)
            if state.step_index % config.cadence == 0:
                fields.append(state.u)
    except SolverError as err:
        if raise_on_failure:
            raise
        # pad nothing; report the truncated sampling
        return Trajectory(grid, 0.0, config.dt * config.cadence, fields,
                          completed=False, abort_reason=str(err))
    return Trajectory(grid, 0.0, config.dt * config.cadence, fields)


# ----------------------------------------------------------------------
# Duhamel fixed-point construction for the regularized equation

class PicardReport(NamedTuple):
    iterations: int
    contraction_factors: tuple
    final_update: float


def _prefix_weights(m: int, h: float) -> np.ndarray:
    """Closed Newton-Cotes weights for the integral over [t_0, t_m].

    Composite Simpson pairs, with a 3/8 block leading odd prefixes; the
    two-node prefix falls back to the trapezoid, whose local O(h^3) error
    is negligible at the lattice spacings used here.
    """
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


def picard_solve(u0: PhysicalField, bg: Background, nl: AnalyticNonlinearity,
                 mu: float, t_small: float, n_nodes: int = 65, s: float = 1.0,
                 tol: float = 1e-10, max_iter: int = 50):
    """Fixed-point iteration of the Duhamel map for the regularized flow.

    Iterates  u <- W_mu(t) u0 + int_0^t W_mu(t - t') [ -d/dx(f(u+Psi)-f(Psi))
    - S ](t') dt'  on a uniform lattice over [0, t_small], with fourth-order
    prefix quadrature, until successive iterates differ by at most `tol` in
    sup-in-time H^(s-1).  Returns the fixed-point trajectory and the
    per-iteration contraction report.
    """
    if mu <= 0:
        raise ValueError("the regularized construction requires mu > 0")
    grid = u0.grid
    h = t_small / (n_nodes - 1)
    core = SpectralCore(grid, bg, nl)
    symbol = core.linear_symbol(mu)
    prop = np.array([np.exp(symbol * (g * h)) for g in range(n_nodes)])
    weight_table = [_prefix_weights(m, h)[:, None] for m in range(n_nodes)]
    u0_hat = transform(u0).coeffs
    # node times are fixed across sweeps: check and sample Psi once per node
    stages = []
    for m in range(n_nodes):
        core.check_background(m * h)
        stages.append(core.stage(m * h))

    def duhamel_map(iterate: list[np.ndarray]) -> list[np.ndarray]:
        for spec in iterate:
            require_resolved(SpectralField(grid, spec), 1e-6)
        integrand = np.array([core.n_hat(spec, stage)
                              for spec, stage in zip(iterate, stages)])
        # node m sums w_l * W(t_m - t_l) N(t_l) over the nodes l <= m
        return [prop[m] * u0_hat
                + np.sum(w * prop[m::-1] * integrand[:m + 1], axis=0)
                for m, w in enumerate(weight_table)]

    # sup-in-time H^(s-1) distance by Parseval; interior bins count twice
    weights = (1.0 + grid.xi ** 2) ** (s - 1.0) * grid.multiplicity

    def sup_diff(a, b):
        mass = np.sum(weights * np.abs(np.asarray(a) - np.asarray(b)) ** 2,
                      axis=1)
        return float(np.sqrt(2.0 * grid.half_length * np.max(mass)))

    iterate = [np.zeros_like(u0_hat) for _ in range(n_nodes)]
    updates = []
    for _ in range(max_iter):
        new = duhamel_map(iterate)
        upd = sup_diff(new, iterate)
        updates.append(upd)
        iterate = new
        if upd <= tol:
            break
    else:
        raise SolverError(
            f"no contraction within {max_iter} iterations; the window is "
            f"too long for this viscosity (last update {updates[-1]:.3e})"
        )
    factors = tuple(
        updates[i + 1] / updates[i] for i in range(len(updates) - 1)
        if updates[i] > 0
    )
    fields = [inverse_transform(SpectralField(grid, c)) for c in iterate]
    return (Trajectory(grid, 0.0, h, fields),
            PicardReport(len(updates), factors, updates[-1]))


# ----------------------------------------------------------------------
# vanishing viscosity

class ViscosityStudy(NamedTuple):
    mus: tuple
    differences: tuple
    fitted_rate: float


def vanishing_viscosity(u0: PhysicalField, bg: Background,
                        nl: AnalyticNonlinearity, mus, config: SolverConfig,
                        s: float = 1.0) -> ViscosityStudy:
    """Distance of each viscous run to the inviscid limit in sup-t H^(s-1).

    The mu list must decrease and end at zero; the rate is fitted from the
    last three positive-mu points by log-log regression.
    """
    from .norms import sobolev_norm

    mus = [float(m) for m in mus]
    if mus[-1] != 0.0 or any(a <= b for a, b in zip(mus, mus[1:])):
        raise ValueError("viscosity list must decrease and terminate at 0")
    runs = [evolve(u0, bg, nl, replace(config, mu=mu)) for mu in mus]
    diffs = [float(max(sobolev_norm(a - b, s - 1.0)
                       for a, b in zip(run.fields, runs[-1].fields)))
             for run in runs[:-1]]
    pos = [(mu, d) for mu, d in zip(mus[:-1], diffs) if d > 0]
    tail = pos[-3:]
    if len(tail) >= 2:
        lm, ld = np.log([p[0] for p in tail]), np.log([p[1] for p in tail])
        rate = float(np.polyfit(lm, ld, 1)[0])
    else:
        rate = float("nan")
    return ViscosityStudy(tuple(mus[:-1]), tuple(diffs), rate)
