"""Periodic grid, discrete Fourier machinery and frequency-space operators.

The domain is the symmetric interval [-L, L) sampled at n equispaced points
(n a power of two).  Fourier coefficients follow the plane-wave convention

    u(x) = sum_j  u_hat[j] * exp(i * xi_j * x),      xi_j = pi * j / L,

so a unit-amplitude plane wave exp(i*xi_j*x) carries coefficient exactly 1
in bin j, and the discrete Parseval identity reads

    ||u||_{L^2}^2 = dx * sum |u_m|^2 = 2L * sum_j |u_hat[j]|^2.

The left end x_0 = -L contributes the phase exp(i*xi_j*L) = (-1)^j, which
the transforms apply as the exact sign vector ``Grid.sign``, cached per
grid.  The forward transform completes the real half spectrum by
conjugation, so a real field's spectrum is exactly Hermitian; odd
multipliers zero the unpaired Nyquist bin so that real fields stay real.

All operators in this module are Fourier multipliers except the
pseudoproduct and the nonlinear flux, which are genuinely bilinear or
pointwise and are dealiased; polynomial fluxes run on the real half
spectrum (rfft/irfft) of a zero-padded grid, see :func:`flux_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    "riesz_potential",
    "smooth_cutoff",
    "dyadic_bump",
    "dyadic_band",
    "lp_project",
    "lp_project_below",
    "lp_low_block",
    "airy_propagate",
    "dissipative_propagate",
    "smoothing_constant",
    "pseudoproduct",
    "nonlinear_flux",
    "flux_grid",
    "flux_coefficients",
    "require_resolved",
    "spectral_tail_fraction",
    "tail_fraction_of_spectrum",
    "trajectory_transform",
    "trajectory_from_spacetime",
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
        return -self.half_length + self.dx * np.arange(self.n)

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers pi*j/L in FFT (wrap-around) ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def mode_index(self) -> np.ndarray:
        """Signed integer mode index j in FFT ordering."""
        return np.rint(self.xi * self.half_length / np.pi).astype(int)

    @cached_property
    def sign(self) -> np.ndarray:
        """(-1)^j in FFT ordering: exactly the phase exp(i*xi_j*L) of -L."""
        # mode j at FFT index k is k or k - n, and n is even
        return np.where(np.arange(self.n) % 2, -1.0, 1.0)

    @property
    def xi_max(self) -> float:
        return np.pi * (self.n // 2) / self.half_length

    def refine(self, factor: int = 2) -> "Grid":
        return Grid(self.half_length, self.n * factor)


@dataclass(frozen=True)
class PhysicalField:
    """Real samples of a function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise SizeMismatchError(
                f"field shape {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
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
    """Complex plane-wave coefficients per wavenumber bin (FFT ordering)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.grid.n,):
            raise SizeMismatchError(
                f"coefficient shape {c.shape} does not match grid size {self.grid.n}"
            )
        object.__setattr__(self, "coeffs", c)

    def hermitian_defect(self) -> float:
        """Max deviation from u_hat(-xi) == conj(u_hat(xi)), relative."""
        c = self.coeffs
        n = self.grid.n
        idx = (-np.arange(n)) % n
        defect = np.max(np.abs(c[idx] - np.conj(c)))
        scale = max(np.max(np.abs(c)), 1e-300)
        return float(defect / scale)

    def apply_multiplier(self, symbol: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * symbol)


@dataclass
class Trajectory:
    """Uniformly time-sampled sequence of fields on a shared grid."""

    grid: Grid
    t0: float
    dt: float
    fields: list
    completed: bool = True
    abort_reason: str | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("sample spacing must be positive")
        for f in self.fields:
            if f.grid != self.grid:
                raise SizeMismatchError("trajectory fields live on different grids")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.fields))

    @property
    def duration(self) -> float:
        return self.dt * (len(self.fields) - 1)

    def values_matrix(self) -> np.ndarray:
        """(n_times, n_space) array of samples."""
        return np.stack([f.values for f in self.fields])

    def __len__(self):
        return len(self.fields)


# ----------------------------------------------------------------------
# transforms

def _hermitian_fill(half: np.ndarray, n: int) -> np.ndarray:
    """FFT-ordered spectrum of n bins from bins 0..n/2 of a real field's."""
    m = n // 2 + 1
    out = np.empty(n, dtype=complex)
    out[:m] = half[:m]
    np.conjugate(half[n - m:0:-1], out=out[m:])
    return out


def transform(f: PhysicalField) -> SpectralField:
    """Forward transform to plane-wave coefficients (exactly Hermitian)."""
    coeffs = _hermitian_fill(np.fft.rfft(f.values, norm="forward"), f.grid.n)
    coeffs *= f.grid.sign
    return SpectralField(f.grid, coeffs)


def inverse_transform(F: SpectralField) -> PhysicalField:
    """Inverse of :func:`transform`; imaginary residue is discarded."""
    vals = np.fft.ifft(F.coeffs * F.grid.sign, norm="forward")
    return PhysicalField(F.grid, vals.real)


def l2_norm(f: PhysicalField) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(f.values ** 2)))


# ----------------------------------------------------------------------
# multiplier operators

def spatial_derivative(F: SpectralField, order: int) -> SpectralField:
    """d^k/dx^k as the multiplier (i*xi)^k, k in {1,2,3}.

    The Nyquist bin of odd derivatives is zeroed; it has no conjugate
    partner on an even grid so keeping it breaks realness.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    symbol = (1j * F.grid.xi) ** order
    if order % 2 == 1:
        symbol = symbol.copy()
        symbol[F.grid.n // 2] = 0.0
    return F.apply_multiplier(symbol)


def bessel_potential(F: SpectralField, s: float) -> SpectralField:
    """Multiplier (1 + xi^2)^(s/2)."""
    return F.apply_multiplier((1.0 + F.grid.xi ** 2) ** (s / 2.0))


def riesz_potential(F: SpectralField, s: float) -> SpectralField:
    """Multiplier |xi|^s; the zero mode is annihilated for every s."""
    xi = F.grid.xi
    symbol = np.zeros(F.grid.n)
    nz = xi != 0
    symbol[nz] = np.abs(xi[nz]) ** s
    return F.apply_multiplier(symbol)


# ----------------------------------------------------------------------
# Littlewood-Paley machinery

def smooth_cutoff(x) -> np.ndarray:
    """Even bump: 1 on |x|<=1, glued to 0 across 1<|x|<2, 0 beyond."""
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
    partition unity exactly on every grid frequency.
    """
    xi_min = np.pi / grid.half_length
    l_lo = int(np.ceil(np.log2(xi_min) - 1e-12))
    l_hi = int(np.ceil(np.log2(grid.xi_max) - 1e-12))
    return 2.0 ** np.arange(l_lo, l_hi + 1)


def lp_project(F: SpectralField, N: float) -> SpectralField:
    """Dyadic block projector with symbol phi(xi/N)."""
    band = dyadic_band(F.grid)
    if not np.any(np.isclose(band, N)):
        raise ValueError(f"block {N} outside resolvable band {band[0]}..{band[-1]}")
    return F.apply_multiplier(dyadic_bump(F.grid.xi / N))


def lp_project_below(F: SpectralField, N: float) -> SpectralField:
    """Projector onto frequencies below the block N, symbol eta(xi/N)."""
    return F.apply_multiplier(smooth_cutoff(F.grid.xi / N))


def lp_low_block(F: SpectralField) -> SpectralField:
    """Residual low block completing the dyadic partition on the grid."""
    nmin = dyadic_band(F.grid)[0]
    return F.apply_multiplier(smooth_cutoff(2.0 * F.grid.xi / nmin))


# ----------------------------------------------------------------------
# propagators

def airy_propagate(F: SpectralField, t: float) -> SpectralField:
    """Exact solution operator of u_t + u_xxx = 0: multiplier e^{i t xi^3}."""
    return F.apply_multiplier(np.exp(1j * t * F.grid.xi ** 3))


def dissipative_propagate(F: SpectralField, t: float, mu: float) -> SpectralField:
    """Multiplier e^{(i xi^3 - mu xi^2) t}; mu=0 recovers the Airy group."""
    if mu < 0:
        raise ValueError("viscosity must be non-negative")
    if mu > 0 and t < 0:
        raise ValueError("dissipative propagation is forward-only for mu > 0")
    xi = F.grid.xi
    return F.apply_multiplier(np.exp((1j * xi ** 3 - mu * xi ** 2) * t))


def smoothing_constant(r: float, a_lo: float = 1e-6, a_hi: float = 1e3) -> float:
    """Uniform constant C_r with sup_xi <xi>^r e^{-a xi^2} <= C_r (1 + a^-r)^(1/2),
    a = mu*t, obtained by one-dimensional maximization over xi and a."""
    if r < 0:
        raise ValueError("smoothing order must be non-negative")

    a = np.logspace(np.log10(a_lo), np.log10(a_hi), 4001)
    # maximize (r/2) log(1+y) - a*y over y >= 0; critical y = r/(2a) - 1
    y_star = np.maximum(r / (2.0 * a) - 1.0, 0.0)
    symbol_sup = np.exp(0.5 * r * np.log1p(y_star) - a * y_star)
    return float(np.max(symbol_sup / np.sqrt(1.0 + (2.0 * a) ** (-r))))


# ----------------------------------------------------------------------
# bilinear machinery

def pseudoproduct(f: SpectralField, g: SpectralField, chi=None) -> SpectralField:
    """Bilinear operator with spectral symbol chi(xi, xi1).

    Output bin xi holds sum_{xi1} f_hat(xi1) g_hat(xi - xi1) chi(xi, xi1),
    the plane-wave coefficient convolution of the defining integral.  The
    sum runs over true (unwrapped) frequencies, so the result is free of
    aliasing; contributions beyond the grid band are dropped.  With
    chi identically 1 this is the dealiased pointwise product f*g.
    """
    if f.grid != g.grid:
        raise SizeMismatchError("pseudoproduct factors live on different grids")
    grid = f.grid
    j = grid.mode_index
    diff = j[:, None] - j[None, :]              # mode of g_hat(xi - xi1)
    inside = (diff >= -(grid.n // 2)) & (diff < grid.n // 2)
    terms = np.where(inside, g.coeffs[diff % grid.n], 0.0)
    if chi is not None:
        xi = np.pi * j / grid.half_length
        terms = terms * chi(xi[:, None], xi[None, :])
    return SpectralField(grid, terms @ f.coeffs)


def tail_fraction_of_spectrum(grid: Grid, coeffs: np.ndarray,
                              floor: float = 1e-20) -> float:
    # fields below amplitude ~sqrt(floor) are roundoff noise and count as
    # resolved; a genuine resolution breach happens at O(1) amplitudes
    j = np.abs(grid.mode_index)
    total = np.sum(np.abs(coeffs) ** 2)
    tail = np.sum(np.abs(coeffs[j >= (3 * (grid.n // 2)) // 4]) ** 2)
    return float(np.sqrt(tail / max(total, floor)))


def spectral_tail_fraction(f: PhysicalField) -> float:
    """Fraction of spectral l2 mass in the top quarter of the band."""
    return tail_fraction_of_spectrum(f.grid, transform(f).coeffs)


def require_resolved(spec: SpectralField, tail_threshold: float) -> None:
    """Raise UnresolvedFieldError if the tail fraction exceeds the threshold."""
    tail = tail_fraction_of_spectrum(spec.grid, spec.coeffs)
    if tail > tail_threshold:
        raise UnresolvedFieldError(f"spectral tail {tail:.2e} exceeds "
                                   f"threshold {tail_threshold:.2e}")


@lru_cache(maxsize=32)
def flux_grid(grid: Grid, nl, rule: str = "auto") -> Grid:
    """Grid, one object per size, on which the flux of `nl` is evaluated:
    under rule "auto" a polynomial flux of degree d >= 2 is padded to the
    power of two at or above n*(d+1)/2; any other flux uses `grid`."""
    if rule not in ("auto", "lowpass"):
        raise ValueError(f"unknown dealias rule {rule!r}")
    degree = nl.polynomial_degree()
    if rule == "lowpass" or degree is None or degree < 2:
        return grid
    pad = 1 << int(np.ceil(np.log2(grid.n * (degree + 1) / 2.0)))
    return Grid(grid.half_length, pad)


def flux_coefficients(spec: SpectralField, nl, psi: np.ndarray,
                      f_psi: np.ndarray | None = None,
                      rule: str = "auto") -> np.ndarray:
    """Spectral coefficients of the dealiased flux f(u+Psi) - f(Psi).

    `psi` samples Psi on ``flux_grid(spec.grid, nl, rule)``; `f_psi`, if
    given, is nl.f(psi).  `spec` is read as a real field's spectrum, bins
    0..n/2 only.  A padded flux drops the Nyquist bin on input and output;
    an unpadded transcendental or "lowpass" one is cut at 2/3 of the band.
    """
    grid = spec.grid
    big = flux_grid(grid, nl, rule)
    m = grid.n // 2
    keep = m if big.n > grid.n else m + 1
    half = np.zeros(big.n // 2 + 1, dtype=complex)
    half[:keep] = spec.coeffs[:keep] * grid.sign[:keep]
    u_big = np.fft.irfft(half, big.n, norm="forward")
    raw = nl.f(u_big + psi) - (nl.f(psi) if f_psi is None else f_psi)
    out = _hermitian_fill(np.fft.rfft(raw, norm="forward"), grid.n)
    out *= grid.sign
    if big.n > grid.n:
        out[m] = 0.0
    elif rule == "lowpass" or nl.polynomial_degree() is None:
        out[np.abs(grid.xi) > 2.0 * grid.xi_max / 3.0] = 0.0
    return out


def nonlinear_flux(u: PhysicalField, bg, nl, t: float,
                   tail_threshold: float = 1e-6,
                   rule: str = "auto") -> PhysicalField:
    """Pointwise difference f(u + Psi(t)) - f(Psi(t)), dealiased.

    Polynomial nonlinearities of degree d are evaluated on a grid padded
    by the factor (d+1)/2, which removes every aliased image from the
    retained band.  Transcendental nonlinearities are evaluated pointwise
    on the native grid and low-passed at two thirds of the Nyquist band.
    """
    spec = transform(u)
    require_resolved(spec, tail_threshold)
    psi = bg.profile(t, flux_grid(u.grid, nl, rule).x)
    return inverse_transform(
        SpectralField(u.grid, flux_coefficients(spec, nl, psi, rule=rule)))


# ----------------------------------------------------------------------
# space-time transforms for trajectories

def trajectory_transform(traj: Trajectory):
    """Space-time plane-wave coefficients of a trajectory.

    The stored window is treated as one temporal period of length
    W = dt * n_times.  Returns (coeffs, taus, xis) with coeffs indexed
    as [temporal bin, spatial bin] in FFT ordering on both axes.
    """
    mat = traj.values_matrix()
    nt, nx = mat.shape
    taus = 2.0 * np.pi * np.fft.fftfreq(nt, d=traj.dt)
    xis = traj.grid.xi
    coeffs = np.fft.fft2(mat) / (nt * nx)
    phase_t = np.exp(-1j * taus * traj.t0)
    coeffs *= phase_t[:, None] * traj.grid.sign[None, :]
    return coeffs, taus, xis


def trajectory_from_spacetime(coeffs: np.ndarray, traj_like: Trajectory) -> Trajectory:
    """Inverse of :func:`trajectory_transform` onto the same lattice."""
    nt, nx = coeffs.shape
    taus = 2.0 * np.pi * np.fft.fftfreq(nt, d=traj_like.dt)
    phase_t = np.exp(-1j * taus * traj_like.t0)
    mat = np.fft.ifft2(coeffs / (phase_t[:, None] * traj_like.grid.sign[None, :])
                       * (nt * nx))
    fields = [PhysicalField(traj_like.grid, row.real) for row in mat]
    return Trajectory(traj_like.grid, traj_like.t0, traj_like.dt, fields)
