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

Every path through the equation (`evolve` and `step`, the Picard
construction, signed-`dt` integration) evaluates its nonlinear term in one
:class:`SpectralCore` on the spectrum ``SpectralField.coeffs``: the right
side is ``_linear_symbol(grid, mu) * spec + n_hat(spec, stage(t))``.  It
computes run constants once and stage-time data once per time: one jet
``bg.jet(t, x_big, p)`` gives Psi on the flux grid, for the flux tables
(Taylor coefficients f^(k)(Psi)/k! of a polynomial f), and Psi_t, Psi_x,
Psi_xxx on its samples x_big[::p] = x only, for the forcing.  A step has
two new stage times, t + dt/2 and t + dt, so two jets; the Picard lattice
takes one jet over all its node times.  The Nyquist bin is zeroed in the
linear symbol, the derivative and the forcing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .background import Background, Jet, forcing_S, residual_S
from .nonlinearity import AnalyticNonlinearity, NonFiniteResultError
from .norms import sobolev_norm
from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    UnresolvedFieldError,
    flux_coefficients,
    flux_grid,
    flux_tables,
    inverse_transform,
    require_resolved,
    transform,
)

__all__ = [
    "SolverConfig",
    "SimulationState",
    "SolverError",
    "InstabilityError",
    "BoundaryContaminationError",
    "SpectralCore",
    "step",
    "evolve",
    "picard_solve",
    "PicardReport",
    "vanishing_viscosity",
    "ViscosityStudy",
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
    boundary_buffer: float = 0.1
    boundary_threshold: float = 1e-3
    tail_threshold: float = 1e-6
    cadence: int = 1

    def __post_init__(self):
        if self.scheme != "etdrk4":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # each comparison is False for NaN, so NaN fails every check
        if not (0 < self.dt < np.inf and 0 < self.horizon < np.inf):
            raise ValueError("time step and horizon must be finite and "
                             "positive")
        if not 0 <= self.mu < np.inf:
            raise ValueError("viscosity must be finite and non-negative")
        if not (self.boundary_threshold >= 0 and self.tail_threshold >= 0):
            raise ValueError("monitor thresholds must be non-negative")
        if not 0.0 < self.boundary_buffer < 0.5:
            raise ValueError("boundary buffer fraction must lie in (0, 0.5)")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")


@lru_cache(maxsize=32)
def _edge_mask(grid: Grid, buffer_fraction: float) -> np.ndarray:
    mask = np.abs(grid.x) >= (1.0 - buffer_fraction) * grid.half_length
    mask.flags.writeable = False
    return mask


def boundary_mass_fraction(u: PhysicalField, buffer_fraction: float):
    """Relative L^2 mass within the buffer strip at the domain ends, as a
    float, or one value per row of a stacked field.

    Solutions below L^2 norm 1e-10 are treated as empty; contamination is
    only meaningful against a non-negligible solution scale.  A mass that
    overflows gives NaN, which no threshold passes.
    """
    sq = u.values ** 2
    total = sq.sum(axis=-1)
    edge = sq.compress(_edge_mask(u.grid, buffer_fraction),
                       axis=-1).sum(axis=-1)      # rows stay contiguous
    if np.ndim(total) == 0:     # one row, finished on floats
        total, edge = float(total), float(edge)
        empty = math.sqrt(total * u.grid.dx) < 1e-10
        return (math.sqrt(edge / (math.inf if empty else total))
                if math.isfinite(total) else math.nan)
    frac = np.sqrt(edge / np.where(np.sqrt(total * u.grid.dx) < 1e-10, np.inf,
                                   total))
    return np.where(np.isfinite(total), frac, np.nan)


@dataclass
class SimulationState:
    t: float
    spectrum: SpectralField
    step_index: int = 0

    @cached_property
    def u(self) -> PhysicalField:
        """The state's samples, from one inverse transform on first use."""
        return inverse_transform(self.spectrum)

    @classmethod
    def from_field(cls, u0: PhysicalField) -> "SimulationState":
        """The state of u0 at t = 0."""
        return cls(t=0.0, spectrum=transform(u0))


# ----------------------------------------------------------------------
# phi functions

_PHI_SERIES_RADIUS = 0.5
_PHI_SERIES_TERMS = 20


def _phi(z, k: int):
    """phi_k(z) = sum_m z^m / (m + k)!: the truncated series for |z| below
    the radius, the direct formula, which cancels near 0, elsewhere."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    zs, zl = z[small], z[~small]
    acc = np.zeros_like(zs)
    for m in range(_PHI_SERIES_TERMS, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(m + k)
    out[small] = acc
    direct = np.expm1(zl)
    for j in range(1, k):
        direct = direct - zl ** j / math.factorial(j)
    out[~small] = direct / zl ** k
    return out


# ----------------------------------------------------------------------
# the spectral core

class Stage(NamedTuple):
    """Background data of one stage time, or of several stacked row by row
    (tables (times, n_big), forcing (times, n/2+1); a static background's
    one row, broadcast) for spectra that carry the same leading axis."""

    tables: list            # flux_tables of Psi on the flux grid
    forcing: np.ndarray     # half spectrum of S, Nyquist bin zeroed


def _without_nyquist(symbol: np.ndarray) -> np.ndarray:
    symbol[..., -1] = 0.0
    return symbol


def _linear_symbol(grid: Grid, mu: float) -> np.ndarray:
    xi = grid.xi
    return _without_nyquist(1j * xi ** 3 - mu * xi ** 2)


@lru_cache(maxsize=32)
def _etd_tables(grid: Grid, dt: float, mu: float) -> tuple:
    """The ETDRK4 coefficients of a step dt at viscosity mu, read-only:
    constants of the run, built once per (grid, dt, mu)."""
    z = dt * _linear_symbol(grid, mu)
    p1, p2, p3 = _phi(z, 1), _phi(z, 2), _phi(z, 3)
    tables = (np.exp(z), np.exp(z / 2.0), 0.5 * dt * _phi(z / 2.0, 1),
              dt * (p1 - 3.0 * p2 + 4.0 * p3), 2.0 * (dt * (p2 - 2.0 * p3)),
              dt * (4.0 * p3 - p2))
    for table in tables:
        table.flags.writeable = False
    return tables


class SpectralCore:
    """Nonlinear term -d/dx(f(u+Psi) - f(Psi)) - S of one (grid, bg, nl).

    Spectra are ``SpectralField.coeffs`` arrays, bins 0..n/2 on the last
    axis; a leading axis is a batch of spectra, each row evaluated as alone.
    Stage data are kept for the last three stage times: the distinct times
    of a step, the last of which opens the next step.
    """

    def __init__(self, grid: Grid, bg: Background, nl: AnalyticNonlinearity):
        self.grid, self.bg, self.nl = grid, bg, nl
        self.flux_grid = flux_grid(grid, nl)
        self._stride = self.flux_grid.n // grid.n     # x_big[::p] = x
        self._derivative = _without_nyquist(-1j * grid.xi)
        self._stages: dict[float, Stage] = {}
        self._degree = nl.polynomial_degree()

    def check_background(self, t, tail_threshold: float = 1e-10) -> Stage:
        """Raise UnresolvedFieldError unless the grid resolves Psi at t.

        Returns the stage at t, so a background that cannot be sampled on
        the flux grid fails before any step; for a 1-d array of times, one
        `residual_S` and one jet over the (times, 1) column, with the stages
        stacked row by row (a static background's one row broadcast)."""
        times = t if np.ndim(t) == 0 else np.asarray(t, dtype=float)[:, None]
        residual_S(self.bg, self.nl, times, self.grid,
                   max(tail_threshold, 1e-10))
        if np.ndim(t) == 0:
            return self.stage(t)
        return self._stage(self.bg.jet(times, self.flux_grid.x, self._stride))

    def stage(self, t: float) -> Stage:
        """Background data at time t, from one jet per new time."""
        if t not in self._stages:
            stage = self._stage(self.bg.jet(t, self.flux_grid.x, self._stride))
            if len(self._stages) == 3:
                del self._stages[next(iter(self._stages))]
            self._stages[t] = stage
        return self._stages[t]

    def _stage(self, jet: Jet) -> Stage:
        """Stage data of a stride-p jet on the flux grid, row by row; a
        polynomial flux's Taylor table c_1 is f'(Psi), any other has p = 1."""
        p, tables = self._stride, flux_tables(self.nl, jet.psi)
        forcing = forcing_S(jet, self.nl, fp=(
            tables[1][..., ::p] if self._degree else None))
        forcing_hat = transform(PhysicalField(self.grid, forcing)).coeffs
        return Stage(tables, _without_nyquist(forcing_hat))

    def n_hat(self, spec: np.ndarray, stage: Stage) -> np.ndarray:
        """Spectrum of the nonlinear term for the spectra `spec`,
        (..., n/2+1); a non-finite flux is an InstabilityError."""
        try:
            flux = flux_coefficients(spec, self.nl, stage.tables)
        except NonFiniteResultError as err:
            raise InstabilityError(-1, "non-finite nonlinear flux") from err
        return self._derivative * flux - stage.forcing

    def advance(self, spec: np.ndarray, t: float, dt: float,
                mu: float = 0.0) -> np.ndarray:
        """One ETDRK4 step of signed size dt from time t; dt < 0 needs mu = 0."""
        if mu < 0:
            raise ValueError("viscosity must be non-negative")
        if mu > 0 and dt < 0:
            raise ValueError("dissipative propagation is forward-only for mu > 0")
        e_full, e_half, q_half, w1, w2x2, w3 = _etd_tables(self.grid, dt, mu)
        s0, s_mid, s_end = self.stage(t), self.stage(t + dt / 2.0), self.stage(t + dt)
        half = e_half * spec
        n0 = self.n_hat(spec, s0)
        a = half + q_half * n0
        na = self.n_hat(a, s_mid)
        b = half + q_half * na
        nb = self.n_hat(b, s_mid)
        c = e_half * a + q_half * (2.0 * nb - n0)
        nc = self.n_hat(c, s_end)
        return e_full * spec + w1 * n0 + w2x2 * (na + nb) + w3 * nc


def _require_tail(state: SimulationState, tail_threshold: float) -> None:
    """The tail monitor: an InstabilityError at the state's step."""
    try:
        require_resolved(state.spectrum, tail_threshold)
    except UnresolvedFieldError as err:
        raise InstabilityError(state.step_index,
                               f"{err} at step {state.step_index}") from err


def step(state: SimulationState, config: SolverConfig,
         core: SpectralCore) -> SimulationState:
    """Advance one time step on `core`, which holds the run's background,
    nonlinearity, tables and stage data; deterministic.  The new state
    passes the finiteness, boundary (on its `u`, sampled once) and tail
    monitors, in that order."""
    grid = state.spectrum.grid
    try:
        coeffs = core.advance(state.spectrum.coeffs, state.t, config.dt,
                              config.mu)
    except InstabilityError as err:
        raise InstabilityError(state.step_index + 1) from err
    if not np.isfinite(coeffs).all():
        raise InstabilityError(state.step_index + 1)
    new = SimulationState(state.t + config.dt, SpectralField(grid, coeffs),
                          state.step_index + 1)
    frac = boundary_mass_fraction(new.u, config.boundary_buffer)
    if not frac <= config.boundary_threshold:     # a NaN fraction fails
        raise BoundaryContaminationError(new.step_index, frac,
                                         config.boundary_threshold)
    _require_tail(new, config.tail_threshold)
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
    core = SpectralCore(grid, bg, nl)
    core.check_background(0.0, config.tail_threshold)
    # one store, a row per cadence sample, handed over uncopied
    store = np.empty((n_steps // config.cadence + 1, grid.n))
    store[0] = u0.values
    state, filled, error = SimulationState.from_field(u0), 1, None
    try:
        # an overflow surfaces as a non-finite state, which the finiteness
        # and tail checks report as an instability
        with np.errstate(over="ignore", invalid="ignore"):
            _require_tail(state, config.tail_threshold)
            for _ in range(n_steps):
                state = step(state, config, core)
                if state.step_index % config.cadence == 0:
                    store[filled] = state.u.values
                    filled += 1
    except SolverError as err:
        if raise_on_failure:
            raise
        error = err
    # on failure, the rows filled before it; each row passed the finiteness
    # check when sampled, so the store takes row 0's place unscanned
    samples = PhysicalField(grid, store[:1])
    object.__setattr__(samples, "values", store[:filled])
    return Trajectory._adopt(samples, 0.0, config.dt * config.cadence,
                             completed=error is None,
                             abort_reason=None if error is None else str(error))


# ----------------------------------------------------------------------
# Duhamel fixed-point construction for the regularized equation

class PicardReport(NamedTuple):
    iterations: int
    contraction_factors: tuple
    final_update: float


def _duhamel_quadrature(integrand: np.ndarray, E: np.ndarray,
                        h: float) -> np.ndarray:
    """Prefix integrals int_0^{t_m} W(t_m - t') N(t') dt' on a uniform
    lattice t_m = m h, from the (nodes, bins) samples N(t_m) and the
    one-step propagator E = W(h).

    The rule is closed Newton-Cotes per prefix: composite Simpson panels,
    a leading 3/8 block on odd prefixes, and on [t_0, t_1] the trapezoid,
    whose local O(h^3) error is negligible at the lattice spacings used
    here.  Prefix m >= 2 (m != 3) is prefix m-2 carried forward by E^2 =
    W(2h) plus the Simpson panel on [t_{m-2}, t_m], which in exact
    arithmetic is that rule, at one panel per node.
    """
    N, E2 = integrand, E * E
    out = np.empty_like(N)
    out[0] = 0.0
    out[1] = h / 2.0 * (E * N[0] + N[1])
    if len(N) > 3:
        out[3] = 3.0 * h / 8.0 * (E2 * E * N[0] + 3.0 * E2 * N[1]
                                  + 3.0 * E * N[2] + N[3])
    panels = h / 3.0 * (E2 * N[:-2] + 4.0 * E * N[1:-1] + N[2:])
    for m in range(2, len(N)):
        if m != 3:
            out[m] = E2 * out[m - 2] + panels[m - 2]
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow is an instability
def picard_solve(u0: PhysicalField, bg: Background, nl: AnalyticNonlinearity,
                 mu: float, t_small: float, n_nodes: int = 65,
                 tol: float = 1e-10, max_iter: int = 50):
    """Fixed-point iteration of the Duhamel map for the regularized flow.

    Iterates  u <- W_mu(t) u0 + int_0^t W_mu(t - t') [ -d/dx(f(u+Psi)-f(Psi))
    - S ](t') dt'  on a uniform lattice over [0, t_small], with fourth-order
    prefix quadrature, until successive iterates differ by at most `tol` in
    sup-in-time L^2.  Returns the fixed-point trajectory and the
    per-iteration contraction report.

    The iterate is one (n_nodes, n/2+1) array of half spectra; one batched
    :meth:`SpectralCore.check_background` runs `residual_S` on the node
    times and stacks their stages row by row.  A sweep checks the tails of
    all nodes at once, makes one :meth:`SpectralCore.n_hat` call on the
    lattice, and sums the quadrature panel by panel
    (:func:`_duhamel_quadrature`, the prefix rule in exact arithmetic).
    """
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError(f"the regularized construction requires finite "
                         f"mu > 0, got mu = {mu}")
    if not (np.isfinite(t_small) and t_small > 0):
        raise ValueError(f"t_small must be positive and finite, got {t_small}")
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 2:
        raise ValueError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    grid = u0.grid
    h = t_small / (n_nodes - 1)
    core = SpectralCore(grid, bg, nl)
    symbol = _linear_symbol(grid, mu)
    E = np.exp(symbol * h)
    times = h * np.arange(n_nodes)
    free = np.exp(symbol * times[:, None]) * transform(u0).coeffs  # W(t) u0
    lattice = core.check_background(times)

    iterate, updates = np.zeros_like(free), []
    for _ in range(max_iter):
        require_resolved(SpectralField(grid, iterate), 1e-6)
        new = free + _duhamel_quadrature(core.n_hat(iterate, lattice), E, h)
        updates.append(float(np.max(sobolev_norm(    # sup-in-time L^2
            SpectralField(grid, new - iterate), 0.0))))
        iterate = new
        if updates[-1] <= tol:
            break
    else:
        raise SolverError(
            f"no contraction within {max_iter} iterations; the window is "
            f"too long for this viscosity (last update {updates[-1]:.3e})"
        )
    factors = tuple(b / a for a, b in zip(updates, updates[1:]) if a > 0)
    samples = inverse_transform(SpectralField(grid, iterate))
    return (Trajectory._adopt(samples, 0.0, h),
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
    """Distance of each viscous run to the inviscid limit in sup-t H^(s-1),
    one row-wise `sobolev_norm` of the run's samples minus the limit's.

    The mu list must decrease and end at zero; the rate is the
    :func:`loglog_slope` of the last three points with a positive distance.
    """
    mus = [float(m) for m in mus]
    if mus[-1] != 0.0 or any(a <= b for a, b in zip(mus, mus[1:])):
        raise ValueError("viscosity list must decrease and terminate at 0")
    runs = [evolve(u0, bg, nl, replace(config, mu=mu)) for mu in mus]
    diffs = [float(np.max(sobolev_norm(run.samples - runs[-1].samples, s - 1.0)))
             for run in runs[:-1]]
    rate = loglog_slope([(mu, d) for mu, d in zip(mus, diffs) if d > 0][-3:])
    return ViscosityStudy(tuple(mus[:-1]), tuple(diffs), rate)


def loglog_slope(rows) -> float:
    """Least-squares slope of log error against log level over the
    (level, error) rows with a positive error; nan below two of them."""
    pairs = [(lv, er) for lv, er in rows if er > 0]
    if len(pairs) < 2:
        return float("nan")
    lv, er = np.log([p[0] for p in pairs]), np.log([p[1] for p in pairs])
    return float(np.polyfit(lv, er, 1)[0])
