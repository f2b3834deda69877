"""Periodic grid, discrete Fourier machinery and frequency-space operators.

The domain is the symmetric interval [-L, L) sampled at n equispaced points
(n a power of two).  Fourier coefficients follow the plane-wave convention

    u(x) = sum_j  u_hat[j] * exp(i * xi_j * x),      xi_j = pi * j / L,

so a unit-amplitude plane wave exp(i*xi_j*x) carries coefficient exactly 1
in bin j.  Fields are real, so u_hat[-j] = conj(u_hat[j]), and a spectrum
holds only the bins j = 0..n/2 of ``numpy.fft.rfft``.  Parseval counts the
interior bins, which stand for +-j, twice (``Grid.multiplicity``):

    ||u||_{L^2}^2 = dx * sum |u_m|^2 = 2L * sum_j mult_j |u_hat[j]|^2.

The left end x_0 = -L contributes the phase exp(i*xi_j*L) = (-1)^j, which
the transforms apply exactly by negating the odd bins; other modules reach
samples only through them, stacked spectra included.  Only the real part
of the Nyquist bin, which stands for both modes +-n/2, reaches a field.

All operators in this module are Fourier multipliers except the nonlinear
flux (:func:`flux_coefficients`, its one entry), which is pointwise and
dealiased; polynomial fluxes run in Taylor form on a zero-padded grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .nonlinearity import NonFiniteResultError

__all__ = [
    "Grid",
    "PhysicalField",
    "SpectralField",
    "Trajectory",
    "SizeMismatchError",
    "UnresolvedFieldError",
    "transform",
    "inverse_transform",
    "l2_norm",
    "spatial_derivative",
    "bessel_potential",
    "smooth_cutoff",
    "dyadic_bump",
    "dyadic_band",
    "lp_project",
    "lp_low_block",
    "airy_propagate",
    "smoothing_constant",
    "flux_grid",
    "flux_tables",
    "flux_coefficients",
    "require_resolved",
    "tail_fraction_of_spectrum",
    "trajectory_transform",
]


class SizeMismatchError(ValueError):
    """Fields on different grids were combined."""


class UnresolvedFieldError(ValueError):
    """A field whose spectral tail exceeds the resolution threshold."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_length, half_length)."""

    half_length: float
    n: int

    def __post_init__(self):
        if self.n <= 0 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two, got {self.n}")
        if not np.isfinite(self.half_length) or self.half_length <= 0:
            raise ValueError(f"invalid half length {self.half_length}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.half_length + self.dx * np.arange(self.n)
        x.flags.writeable = False       # a jet knows it by identity
        return x

    def __getstate__(self):     # fields only: x comes back read-only
        return {"half_length": self.half_length, "n": self.n}

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers pi*j/L of the bins j = 0..n/2.  The Nyquist bin
        also stands for -xi_max: even symbols agree there, odd ones zero it
        where realness matters, and a field sees only its real part."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Modes per bin in a Parseval sum: 1 for bins 0 and n/2, 2 for the
        interior bins, which stand for +-j."""
        mult = np.full_like(self.xi, 2.0)
        mult[0] = mult[-1] = 1.0
        return mult

    @property
    def xi_max(self) -> float:
        return np.pi * (self.n // 2) / self.half_length

    def refine(self) -> "Grid":
        """The grid of twice the points on the same interval."""
        return Grid(self.half_length, 2 * self.n)


@dataclass(frozen=True)
class PhysicalField:
    """Real samples of a function on a grid, or of several stacked on
    leading axes, which the transforms treat row by row."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[-1:] != (self.grid.n,):
            raise SizeMismatchError(
                f"field shape {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", vals)

    def __add__(self, other):
        self._check(other)
        return PhysicalField(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return PhysicalField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return PhysicalField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, PhysicalField) or other.grid != self.grid:
            raise SizeMismatchError("fields live on different grids")

    @classmethod
    def zero(cls, grid: Grid) -> "PhysicalField":
        return cls(grid, np.zeros(grid.n))

    @classmethod
    def sample(cls, grid: Grid, fn) -> "PhysicalField":
        return cls(grid, np.asarray(fn(grid.x), dtype=float))


@dataclass(frozen=True)
class SpectralField:
    """Plane-wave coefficients of a real field, bins 0..n/2 (``Grid.xi``)
    on the last axis; leading axes stack several fields."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape[-1:] != self.grid.xi.shape:
            raise SizeMismatchError(
                f"coefficient shape {c.shape} does not match grid size "
                f"{self.grid.n}, which has {self.grid.xi.size} bins")
        object.__setattr__(self, "coeffs", c)

    def apply_multiplier(self, symbol: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * symbol)


class Trajectory:
    """Uniformly time-sampled fields on a shared grid, held in one store,
    ``samples``: a stacked (n_times, n) :class:`PhysicalField` that owns
    its read-only array, checked once on entry.  `fields` is a sequence
    of fields on `grid` or a sample matrix; either is copied in, as a
    completed sampling (a builder that can stop early hands over its
    store and flags through `_adopt`)."""

    def __init__(self, grid: Grid, t0: float, dt: float, fields):
        if not isinstance(fields, np.ndarray):
            if any(f.grid != grid for f in fields):
                raise SizeMismatchError("trajectory fields live on different grids")
            fields = [f.values for f in fields]
        self._keep(PhysicalField(grid, np.array(fields, dtype=float)), t0, dt,
                   True, None)

    @classmethod
    def _adopt(cls, samples, t0, dt, completed=True, abort_reason=None):
        """The trajectory whose store is `samples`, neither copied nor
        checked again: a stacked field an in-package builder hands over."""
        traj = cls.__new__(cls)
        traj._keep(samples, t0, dt, completed, abort_reason)
        return traj

    def _keep(self, samples, t0, dt, completed, abort_reason):
        if not (np.isfinite(t0) and np.isfinite(dt) and dt > 0):
            raise ValueError(f"sample spacing must be finite and positive and "
                             f"the start time finite, got dt = {dt}, t0 = {t0}")
        if samples.values.ndim != 2:
            raise SizeMismatchError(
                f"sample matrix shape {samples.values.shape} does not match "
                f"grid size {samples.grid.n}")
        samples.values.flags.writeable = False
        self.grid, self.t0, self.dt = samples.grid, t0, dt
        self.samples = samples
        self.completed, self.abort_reason = completed, abort_reason
        self._spectra = None

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def duration(self) -> float:
        return self.dt * (len(self) - 1)

    def spectra(self) -> SpectralField:
        """The stacked (n_times, n/2+1) half spectra of the samples, the
        twin of ``samples``: one :func:`transform`, made on the first call
        and then returned, read-only, by every later one."""
        if self._spectra is None:
            self._spectra = transform(self.samples)
            self._spectra.coeffs.flags.writeable = False
        return self._spectra

    def __len__(self):
        return len(self.samples.values)


# ----------------------------------------------------------------------
# transforms

def _left_end_phase(c: np.ndarray) -> np.ndarray:
    """Multiply bin j of the last axis by (-1)^j, the phase of -L, in place."""
    c[..., 1::2] *= -1.0
    return c


def transform(f: PhysicalField) -> SpectralField:
    """Forward transform to the plane-wave coefficients of bins 0..n/2."""
    return SpectralField(f.grid, _left_end_phase(
        np.fft.rfft(f.values, norm="forward")))


def inverse_transform(F: SpectralField) -> PhysicalField:
    """Inverse of :func:`transform`; the imaginary parts of bins 0 and
    n/2 are discarded."""
    return PhysicalField(F.grid, np.fft.irfft(
        _left_end_phase(F.coeffs.copy()), F.grid.n, norm="forward"))


def l2_norm(f: PhysicalField):
    """L^2 norm, a float for one field and one per row of a stacked one."""
    norms = np.sqrt(f.grid.dx * np.sum(f.values ** 2, axis=-1))
    return norms if norms.ndim else float(norms)


# ----------------------------------------------------------------------
# multiplier operators

def spatial_derivative(F: SpectralField, order: int) -> SpectralField:
    """d^k/dx^k as the multiplier (i*xi)^k, k in {1,2,3}.

    The Nyquist bin of odd derivatives is zeroed: it stands for both
    modes +-n/2, whose odd symbols differ, so keeping it breaks realness.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    symbol = (1j * F.grid.xi) ** order
    if order % 2 == 1:
        symbol[-1] = 0.0
    return F.apply_multiplier(symbol)


def bessel_potential(F: SpectralField, s: float) -> SpectralField:
    """Multiplier (1 + xi^2)^(s/2)."""
    return F.apply_multiplier((1.0 + F.grid.xi ** 2) ** (s / 2.0))


# ----------------------------------------------------------------------
# Littlewood-Paley machinery

def smooth_cutoff(x) -> np.ndarray:
    """Even bump: 1 on |x|<=1, glued to 0 across 1<|x|<2, 0 beyond; only C^1
    at |x| = 1, where eta'' jumps from 0 to -2, as are the bumps built on it."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    out[ax <= 1.0] = 1.0
    mid = (ax > 1.0) & (ax < 2.0)
    y = ax[mid] - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - y * y))
    return out


def dyadic_bump(x) -> np.ndarray:
    """phi(x) = eta(x) - eta(2x), supported on 1/2 <= |x| <= 2."""
    return smooth_cutoff(x) - smooth_cutoff(2.0 * np.asarray(x, dtype=float))


def dyadic_band(grid: Grid) -> np.ndarray:
    """Dyadic blocks N = 2^l resolvable on the grid.

    The band runs from the smallest power of two at or above the
    fundamental wavenumber pi/L up to the smallest one at or above the
    Nyquist wavenumber, so that the blocks plus one residual low block
    partition unity exactly on every grid frequency.  A one-point grid,
    whose only frequency is 0, gets the lowest block alone.
    """
    xi_min = np.pi / grid.half_length
    l_lo = int(np.ceil(np.log2(xi_min) - 1e-12))
    l_hi = int(np.ceil(np.log2(max(grid.xi_max, xi_min)) - 1e-12))
    return 2.0 ** np.arange(l_lo, l_hi + 1)


def lp_project(F: SpectralField, N: float) -> SpectralField:
    """Dyadic block projector with symbol phi(xi/N)."""
    band = dyadic_band(F.grid)
    if not np.any(np.isclose(band, N)):
        raise ValueError(f"block {N} outside resolvable band {band[0]}..{band[-1]}")
    return F.apply_multiplier(dyadic_bump(F.grid.xi / N))


def lp_low_block(F: SpectralField) -> SpectralField:
    """Residual low block completing the dyadic partition on the grid."""
    nmin = dyadic_band(F.grid)[0]
    return F.apply_multiplier(smooth_cutoff(2.0 * F.grid.xi / nmin))


# ----------------------------------------------------------------------
# propagators

def airy_propagate(F: SpectralField, t: float) -> SpectralField:
    """Exact solution operator of u_t + u_xxx = 0: multiplier e^{i t xi^3}."""
    return F.apply_multiplier(np.exp(1j * t * F.grid.xi ** 3))


def smoothing_constant(r: float) -> float:
    """Uniform constant C_r with sup_xi <xi>^r e^{-a xi^2} <= C_r (1 + a^-r)^(1/2),
    a = mu*t, obtained by one-dimensional maximization over xi and over a
    in [1e-6, 1e3]."""
    if r < 0:
        raise ValueError("smoothing order must be non-negative")

    a = np.logspace(-6.0, 3.0, 4001)
    # maximize (r/2) log(1+y) - a*y over y >= 0; critical y = r/(2a) - 1
    y_star = np.maximum(r / (2.0 * a) - 1.0, 0.0)
    symbol_sup = np.exp(0.5 * r * np.log1p(y_star) - a * y_star)
    return float(np.max(symbol_sup / np.sqrt(1.0 + (2.0 * a) ** (-r))))


# ----------------------------------------------------------------------
# resolution monitors and the nonlinear flux

def tail_fraction_of_spectrum(grid: Grid, coeffs: np.ndarray):
    """Top-quarter share of the L^2 mass of each spectrum on the last axis."""
    # fields below amplitude ~1e-10 are roundoff noise and count as
    # resolved; a genuine resolution breach happens at O(1) amplitudes
    mass = grid.multiplicity * np.abs(coeffs) ** 2
    tail = mass[..., (3 * (grid.n // 2)) // 4:].sum(axis=-1)
    total = mass.sum(axis=-1)
    if np.ndim(total) == 0:     # one row, finished on floats; max keeps NaN
        return math.sqrt(float(tail) / max(float(total), 1e-20))
    return np.sqrt(tail / np.maximum(total, 1e-20))


def require_resolved(spec: SpectralField, tail_threshold: float) -> None:
    """Raise UnresolvedFieldError unless every row's tail fraction is at
    most the threshold (a NaN is not); the error names the first row in
    breach."""
    tails = tail_fraction_of_spectrum(spec.grid, spec.coeffs)
    for tail in tails.ravel().tolist() if np.ndim(tails) else [tails]:
        if not tail <= tail_threshold:
            raise UnresolvedFieldError(f"spectral tail {tail:.2e} exceeds "
                                       f"threshold {tail_threshold:.2e}")


@lru_cache(maxsize=32)
def flux_grid(grid: Grid, nl) -> Grid:
    """Grid, one object per size, on which the flux of `nl` is evaluated:
    a polynomial flux of degree d >= 2 is padded to the power of two at or
    above n*(d+1)/2; any other flux uses `grid`."""
    degree = nl.polynomial_degree()
    if degree is None or degree < 2:
        return grid
    pad = 1 << int(np.ceil(np.log2(grid.n * (degree + 1) / 2.0)))
    return Grid(grid.half_length, pad)


def flux_tables(nl, psi: np.ndarray) -> list:
    """What :func:`flux_coefficients` needs of Psi: Psi, then f(Psi) or,
    for a polynomial f, its Taylor coefficients f^(k)(Psi)/k!, k >= 1."""
    return ([psi, nl.f(psi)] if nl.polynomial_degree() is None
            else [psi] + nl.taylor(psi))


def flux_coefficients(half: np.ndarray, nl, tables: list) -> np.ndarray:
    """Half spectrum of the dealiased flux f(u+Psi) - f(Psi).

    `half` holds bins 0..n/2 of real spectra on its last axis; `tables` are
    ``flux_tables(nl, psi)`` for Psi sampled on ``flux_grid(grid, nl)``,
    broadcast against the leading axes, and each row is bit for bit the
    call on that row alone.  A polynomial flux is sum_k c_k u^k by Horner
    in u, free of the cancellation in f(u+Psi) - f(Psi).  A padded flux
    drops the Nyquist bin on input and output; an unpadded transcendental
    or series one is cut at 2/3 of the band.  A non-finite flux raises
    NonFiniteResultError.
    """
    m, n_big = half.shape[-1] - 1, tables[0].shape[-1]
    kept = half[..., :m if n_big > 2 * m else m + 1].copy()
    u = np.fft.irfft(_left_end_phase(kept), n_big, norm="forward")  # padded
    degree = nl.polynomial_degree()
    if degree is None:
        raw = nl.f(u + tables[0]) - tables[1]
    else:
        raw = u * tables[-1] if len(tables) > 1 else np.zeros_like(u)
        for c in tables[-2:0:-1]:
            raw += c
            raw *= u
    if not np.isfinite(raw).all():
        raise NonFiniteResultError("non-finite nonlinear flux")
    out = _left_end_phase(np.fft.rfft(raw, norm="forward")[..., :m + 1])
    if n_big > 2 * m:
        out[..., m] = 0.0
    elif degree is None:
        out[..., 2 * m // 3 + 1:] = 0.0
    return out


# ----------------------------------------------------------------------
# space-time transform of a trajectory

def trajectory_transform(traj: Trajectory):
    """Space-time plane-wave coefficients of a trajectory.

    The stored window is treated as one temporal period of length
    W = dt * n_times.  Returns (coeffs, taus, xis) with coeffs indexed
    as [temporal bin, spatial bin]: FFT ordering in time and the half
    spectrum, bins 0..n/2, in space.
    """
    mat = traj.samples.values
    nt, nx = mat.shape
    taus = 2.0 * np.pi * np.fft.fftfreq(nt, d=traj.dt)
    # rfft2(mat) / (nt * nx) bit for bit, in one array
    coeffs = np.fft.rfft(mat, axis=1)
    np.fft.fft(coeffs, axis=0, out=coeffs)
    coeffs /= nt * nx
    _left_end_phase(coeffs)
    coeffs *= np.exp(-1j * taus * traj.t0)[:, None]
    return coeffs, taus, traj.grid.xi

