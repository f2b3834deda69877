"""Catalog of background fields and their pointwise jets.

Each background knows its jet (value, time derivative and the first and
third space derivatives) in closed form, so the traveling-wave forcing

    S(t, x) = Psi_t + Psi_xxx + f'(Psi) Psi_x

is evaluated pointwise without any grid differentiation.  Exact traveling
waves make S vanish to rounding; the synthetic example is bounded, smooth,
asymmetric and deliberately not a solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import complete_elliptic_k, jacobi_sn_cn_dn
from .nonlinearity import AnalyticNonlinearity
from .spectral import (
    Grid,
    PhysicalField,
    UnresolvedFieldError,
    bessel_potential,
    inverse_transform,
    l2_norm,
    tail_fraction_of_spectrum,
    transform,
)

__all__ = [
    "Jet",
    "Background",
    "ZeroBackground",
    "MKdVKink",
    "GardnerKink",
    "KdVCnoidal",
    "MKdVDnoidal",
    "SyntheticBackground",
    "TabulatedBackground",
    "BACKGROUNDS",
    "CnoidalParameters",
    "ParameterResolutionError",
    "residual_S",
    "forcing_S",
    "require_resolved_background",
    "check_hypotheses",
    "HypothesesReport",
    "zhidkov_split",
    "resolve_cnoidal",
    "smooth_window",
]


class Jet(NamedTuple):
    psi: np.ndarray
    psi_t: np.ndarray
    psi_x: np.ndarray
    psi_xxx: np.ndarray


class ParameterResolutionError(RuntimeError):
    """No admissible traveling-wave parameters."""


def _tanh_jet(x, t, amplitude, steepness, drift, offset, stride=1):
    """Jet of offset + A*tanh(k*(x + v*t))."""
    T = np.tanh(steepness * (np.asarray(x, dtype=float) + drift * t))
    psi = offset + amplitude * T
    T = T[..., ::stride]
    S2 = 1.0 - T * T
    psi_x = amplitude * steepness * S2
    psi_xxx = 2.0 * amplitude * steepness ** 3 * S2 * (2.0 * T * T - S2)
    psi_t = drift * psi_x
    return Jet(psi, psi_t, psi_x, psi_xxx)


class Background:
    """Base interface: closed-form jets.  ``jet(t, x, stride)``, which every
    subclass must accept, gives Psi on x and Psi_t, Psi_x, Psi_xxx on
    x[..., ::stride] only, each bit for bit its value at stride 1; t is a
    scalar or a column against x."""

    variant = "abstract"
    wave_speed: float | None = None

    def jet(self, t: float, x, stride: int = 1) -> Jet:
        raise NotImplementedError

    def profile(self, t: float, x) -> np.ndarray:
        return self.jet(t, x).psi

    def associated_nonlinearity(self) -> AnalyticNonlinearity | None:
        """The nonlinearity this background solves exactly, if any."""
        return None


@dataclass(frozen=True)
class ZeroBackground(Background):
    variant = "zero"

    def jet(self, t, x, stride=1):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return Jet(z, *(z[..., ::stride].copy() for _ in range(3)))

    def profile(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class MKdVKink(Background):
    """Kink of the defocusing modified KdV, sqrt(c)*tanh(sqrt(c/2)(x+ct))."""

    c: float
    sign: int = 1
    variant = "mkdv_kink"

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("kink speed must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def wave_speed(self):
        return -self.c

    def jet(self, t, x, stride=1):
        return _tanh_jet(x, t, self.sign * np.sqrt(self.c),
                         np.sqrt(self.c / 2.0), self.c, 0.0, stride)

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.mkdv_defocusing()


@dataclass(frozen=True)
class GardnerKink(Background):
    """Gardner kink: pedestal 1/(3 beta) plus a rescaled, drifting mKdV kink."""

    c: float
    beta: float
    sign: int = 1
    variant = "gardner_kink"

    def __post_init__(self):
        if self.c <= 0 or self.beta <= 0:
            raise ValueError("speed and beta must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def wave_speed(self):
        return 1.0 / (3.0 * self.beta) - self.c

    def jet(self, t, x, stride=1):
        pedestal = 1.0 / (3.0 * self.beta)
        return _tanh_jet(x, t, self.sign * np.sqrt(self.c / self.beta),
                         np.sqrt(self.c / 2.0), self.c - pedestal, pedestal,
                         stride)

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.gardner(self.beta)


class CnoidalParameters(NamedTuple):
    alpha: float
    beta: float
    gamma: float


def _cn2_derivatives(s, c_, d, kappa):
    """cn^2 and its first and third derivatives from the triple (sn, cn, dn)."""
    scd = s * c_ * d
    cn2 = c_ * c_
    d1 = -2.0 * scd
    d3 = 8.0 * scd * (kappa ** 2 * (c_ ** 2 - s ** 2) + d ** 2)
    return cn2, d1, d3


def _dn_derivatives(s, c_, d, kappa):
    """dn and its first and third derivatives from the triple (sn, cn, dn)."""
    k2 = kappa ** 2
    d1 = -k2 * s * c_
    d3 = k2 * s * c_ * (k2 * (c_ ** 2 - s ** 2) + 4.0 * d ** 2)
    return d, d1, d3


def resolve_cnoidal(c: float, kappa: float, nl: AnalyticNonlinearity,
                    tolerance: float = 1e-8) -> CnoidalParameters:
    """Closed-form traveling-wave parameters for the periodic catalog profiles.

    With f = a0 + a1 u + a2 u^2 + a3 u^3, a profile q(x - c t) solves
    q'' = (c - a1) q - a2 q^2 - a3 q^3 + const.  The quadratic flux takes
    alpha + beta*cn^2(gamma y) with gamma = sqrt(c)/2, so that kappa -> 1
    recovers the sech^2 solitary wave on a zero pedestal; matching powers
    of cn^2 gives beta = 6 kappa^2 gamma^2 / a2 and
    alpha = (c - a1 - 4 gamma^2 (2 kappa^2 - 1)) / (2 a2).  The focusing
    cubic takes beta*dn(gamma y), and dn'' = (2 - kappa^2) dn - 2 dn^3
    (DLMF 22.13) gives gamma = sqrt((c - a1)/(2 - kappa^2)) and
    beta = gamma sqrt(2/a3).  The parameters are accepted only if the
    pointwise traveling-wave residual over one period meets the relative
    tolerance.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError("modulus must lie strictly inside (0, 1)")
    if c <= 0:
        raise ValueError("speed must be positive")
    a1, a2, a3 = (nl.coeffs + (0.0,) * 3)[1:4]
    k2 = kappa ** 2
    if nl.polynomial_degree() == 2:
        gamma = np.sqrt(c) / 2.0
        beta = 6.0 * k2 * gamma ** 2 / a2
        alpha = (c - a1 - 4.0 * gamma ** 2 * (2.0 * k2 - 1.0)) / (2.0 * a2)
        derivatives = _cn2_derivatives
    elif nl.polynomial_degree() == 3 and a3 > 0 and a2 == 0.0:
        if c <= a1:
            raise ParameterResolutionError(
                f"no dnoidal wave for c={c}, kappa={kappa}: the speed must "
                f"exceed the linear flux coefficient {a1}")
        gamma = np.sqrt((c - a1) / (2.0 - k2))
        alpha, beta = 0.0, gamma * np.sqrt(2.0 / a3)
        derivatives = _dn_derivatives
    else:
        raise ParameterResolutionError(
            "periodic profiles are implemented for the quadratic and the "
            "focusing cubic nonlinearity only"
        )

    ys = np.linspace(0.0, 2.0 * complete_elliptic_k(kappa) / gamma, 257)
    p0, p1, p3 = derivatives(*jacobi_sn_cn_dn(gamma * ys, kappa), kappa)
    q = alpha + beta * p0
    qp = beta * gamma * p1
    residual = -c * qp + beta * gamma ** 3 * p3 + nl.fp(q) * qp
    achieved = float(np.max(np.abs(residual)))
    scale = float(np.sqrt(np.mean(q ** 2)))
    if achieved > tolerance * max(scale, 1e-300):
        raise ParameterResolutionError(
            f"no admissible parameters for c={c}, kappa={kappa}; "
            f"residual {achieved:.3e} (scale {scale:.3e})"
        )
    return CnoidalParameters(float(alpha), float(beta), float(gamma))


@dataclass(frozen=True)
class _PeriodicWave(Background):
    """Periodic wave alpha + beta*phi(gamma*(x - c*t)) of modulus kappa.

    A subclass names its associated nonlinearity, for which the parameters
    are resolved, the index `jacobi` in (sn, cn, dn) of the function phi
    is built from (cn^2 or dn), and the function that gives phi and its
    first and third derivatives from the triple.
    """

    c: float
    kappa: float

    def __post_init__(self):
        params = resolve_cnoidal(self.c, self.kappa,
                                 self.associated_nonlinearity())
        object.__setattr__(self, "_params", params)

    @property
    def parameters(self) -> CnoidalParameters:
        return self._params

    @property
    def wave_speed(self):
        return self.c

    def _triple(self, t, x, stride):
        """The profile's Jacobi function at gamma*(x - c*t) on all of x,
        and the triple (sn, cn, dn) there on x[..., ::stride].

        The triple at gamma*x is evaluated once per sample array and kept
        on the wave, keyed by a copy of the array's content, so a new array
        or one changed in place is evaluated afresh.  Each time t then
        costs one scalar triple at v = -gamma*c*t and the addition theorem
        (DLMF 22.8.1-22.8.3), whose denominator
        1 - kappa^2 sn^2(gamma*x) sn^2(v) is at least 1 - kappa^2 > 0.
        """
        x = np.asarray(x, dtype=float)
        gamma, kappa = self._params.gamma, self.kappa
        cached = getattr(self, "_grid_triple", None)
        if cached is None or not np.array_equal(cached[0], x):
            s, c_, d = jacobi_sn_cn_dn(gamma * x, kappa)
            cached = (x.copy(), s, c_, d, c_ * d, s * d, s * c_, s * s)
            object.__setattr__(self, "_grid_triple", cached)
        _, s1, c1, d1, cd1, sd1, sc1, ss1 = cached
        s2, c2, d2 = jacobi_sn_cn_dn(-gamma * self.c * t, kappa)
        k2s2 = kappa * kappa * s2
        den = 1.0 / (1.0 - (k2s2 * s2) * ss1)
        shifted = (lambda i: (s1[i] * (c2 * d2) + cd1[i] * s2) * den[i],
                   lambda i: (c1[i] * c2 - sd1[i] * (s2 * d2)) * den[i],
                   lambda i: (d1[i] * d2 - sc1[i] * (k2s2 * c2)) * den[i])
        phi, every = shifted[self.jacobi](...), (..., slice(None, None, stride))
        return phi, [phi[every] if k == self.jacobi else shifted[k](every)
                     for k in range(3)]

    def jet(self, t, x, stride=1):
        alpha, beta, gamma = self._params
        phi, triple = self._triple(t, x, stride)
        _, p1, p3 = self.derivatives(*triple, self.kappa)
        psi_x = beta * gamma * p1
        return Jet(alpha + beta * (phi * phi if self.jacobi == 1 else phi),
                   -self.c * psi_x, psi_x, beta * gamma ** 3 * p3)


class KdVCnoidal(_PeriodicWave):
    """Periodic cnoidal wave of the quadratic nonlinearity."""

    variant = "kdv_cnoidal"
    jacobi = 1
    derivatives = staticmethod(_cn2_derivatives)

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.kdv()


class MKdVDnoidal(_PeriodicWave):
    """Periodic dnoidal wave of the focusing cubic nonlinearity."""

    variant = "mkdv_dnoidal"
    jacobi = 2
    derivatives = staticmethod(_dn_derivatives)

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.mkdv_focusing()


@dataclass(frozen=True)
class SyntheticBackground(Background):
    """Bounded, asymmetric, non-solution example 1 + 4 tanh(x+t) + cos(log(1+x^2+t^2))."""

    variant = "synthetic"

    def jet(self, t, x, stride=1):
        x = np.asarray(x, dtype=float)
        kink = _tanh_jet(x, t, 4.0, 1.0, 1.0, 1.0, stride)
        w = 1.0 + x * x + t * t
        g = np.log(w)
        cos_g = np.cos(g)
        psi = kink.psi + cos_g
        # contiguous as at stride 1, so a vectorized pow or sin rounds alike
        x, w, g, cos_g = (np.ascontiguousarray(a[..., ::stride])
                          for a in (x, w, g, cos_g))
        g_x = 2.0 * x / w
        g_xx = 2.0 / w - 4.0 * x * x / w ** 2
        g_xxx = (-12.0 * x * w + 16.0 * x ** 3) / w ** 3
        g_t = 2.0 * t / w
        sin_g = np.sin(g)
        h_x = -sin_g * g_x
        h_xxx = sin_g * g_x ** 3 - 3.0 * cos_g * g_x * g_xx - sin_g * g_xxx
        h_t = -sin_g * g_t
        return Jet(psi, kink.psi_t + h_t, kink.psi_x + h_x,
                   kink.psi_xxx + h_xxx)


class TabulatedBackground(Background):
    """Static background interpolated from a two-column (x, psi) sample."""

    variant = "tabulated"

    def __init__(self, x_samples, psi_samples):
        from scipy.interpolate import CubicSpline
        x_samples = np.asarray(x_samples, dtype=float)
        psi_samples = np.asarray(psi_samples, dtype=float)
        if x_samples.ndim != 1 or x_samples.shape != psi_samples.shape:
            raise ValueError("tabulated data must be two equal-length columns")
        if not np.all(np.diff(x_samples) > 0):
            raise ValueError("tabulated abscissae must be strictly increasing")
        self._x = x_samples
        self._spline = CubicSpline(x_samples, psi_samples)

    @classmethod
    def from_file(cls, file):
        with open(file) as fh:
            header = [line.lstrip("#").partition(":") for line in fh
                      if line.startswith("#")]
        if not any(key.strip() == "t-dependence" and value.strip() == "static"
                   for key, _, value in header):
            raise ValueError(
                "tabulated background file must declare 't-dependence: static' "
                "in a comment header"
            )
        data = np.loadtxt(file)
        return cls(data[:, 0], data[:, 1])

    def _check_range(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = np.min(x), np.max(x)
        if lo < self._x[0] or hi > self._x[-1]:
            raise ValueError(
                f"query [{lo:.10g}, {hi:.10g}] outside the tabulated sample "
                f"range [{self._x[0]:.10g}, {self._x[-1]:.10g}]; a padded "
                "flux samples up to x = L, so the table must reach it")
        return x

    def jet(self, t, x, stride=1):
        x = self._check_range(x)
        psi, x = self._spline(x), x[..., ::stride]
        return Jet(psi, np.zeros_like(x), self._spline(x, 1),
                   self._spline(x, 3))


# variant -> (constructor, {parameter: default}), None marking a required
# parameter: the catalog as a scenario config names it
BACKGROUNDS = {
    "zero": (ZeroBackground, {}),
    "mkdv_kink": (MKdVKink, {"c": 1.0, "sign": 1}),
    "gardner_kink": (GardnerKink, {"c": 1.0, "beta": 1.0, "sign": 1}),
    "kdv_cnoidal": (KdVCnoidal, {"c": 1.0, "kappa": 0.8}),
    "mkdv_dnoidal": (MKdVDnoidal, {"c": 1.0, "kappa": 0.5}),
    "synthetic": (SyntheticBackground, {}),
    "tabulated": (TabulatedBackground.from_file, {"file": None}),
}


# ----------------------------------------------------------------------
# operations

def smooth_window(grid: Grid) -> np.ndarray:
    """Flat-at-ends C-infinity window: 1 on |x| <= L/2, 0 at the boundary."""
    s = (np.abs(grid.x) / grid.half_length - 0.5) * 2.0

    def glue(y):
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = np.exp(-1.0 / y[pos])
        return out

    up = glue(1.0 - s)
    down = glue(s)
    return up / (up + down + 1e-300)


def forcing_S(jet: Jet, nl: AnalyticNonlinearity, *, fp=None,
              magnitude: bool = False) -> np.ndarray:
    """S = Psi_t + Psi_xxx + f'(Psi) Psi_x at a jet's samples, any shape,
    with f'(Psi) = `fp` where the caller has it, else nl.fp(Psi); with
    `magnitude`, the scale |Psi_t| + |Psi_xxx| + |f'(Psi) Psi_x|."""
    fp = nl.fp(jet.psi) if fp is None else fp
    terms = (jet.psi_t, jet.psi_xxx, fp * jet.psi_x)
    a, b, c = map(np.abs, terms) if magnitude else terms
    return a + b + c


def require_resolved_background(psi_x: np.ndarray, grid: Grid,
                                tail_threshold: float) -> None:
    """Raise UnresolvedFieldError unless every row of Psi_x, windowed,
    resolves on the grid; the error names the first row in breach."""
    tails = np.atleast_1d(tail_fraction_of_spectrum(grid, transform(
        PhysicalField(grid, psi_x * smooth_window(grid))).coeffs))
    tail = tails[np.argmax(tails > tail_threshold)]
    if tail > tail_threshold:
        raise UnresolvedFieldError(
            f"background derivative tail {tail:.2e} exceeds "
            f"{tail_threshold:.2e}; grid does not resolve the background")


def residual_S(bg: Background, nl: AnalyticNonlinearity, t: float,
               grid: Grid, tail_threshold: float = 1e-10) -> PhysicalField:
    """Forcing S(t,.) = Psi_t + Psi_xxx + f'(Psi) Psi_x sampled on the grid."""
    jet = bg.jet(t, grid.x)
    require_resolved_background(jet.psi_x, grid, tail_threshold)
    return PhysicalField(grid, forcing_S(jet, nl))


@dataclass(frozen=True)
class HypothesesReport:
    sup_dt_psi: float
    smoothness_proxy: float
    forcing_norm: float
    sup_dt_psi_stable: bool
    smoothness_stable: bool
    forcing_stable: bool

    @property
    def all_finite(self) -> bool:
        return (self.sup_dt_psi_stable and self.smoothness_stable
                and self.forcing_stable)


def check_hypotheses(bg: Background, nl: AnalyticNonlinearity, grid: Grid,
                     s: float, eps: float = 0.1) -> HypothesesReport:
    """Numerical proxies for the boundedness hypotheses on the background.

    Each proxy is recomputed on a refined grid; a proxy is flagged stable
    when refinement does not grow it beyond a fixed factor, the numerical
    stand-in for finiteness of the continuum quantity.
    """
    if s <= 0.5:
        raise ValueError("regularity must exceed 1/2")

    def proxies(g: Grid):
        jet = bg.jet(0.0, g.x)
        window = smooth_window(g)
        sup_dt = float(np.max(np.abs(jet.psi_t)))
        windowed = PhysicalField(g, jet.psi * window)
        smooth = float(np.max(np.abs(
            inverse_transform(bessel_potential(transform(windowed),
                                               s + 1.0 + eps)).values)))
        forcing_w = PhysicalField(g, forcing_S(jet, nl) * window)
        forcing_norm = l2_norm(
            inverse_transform(bessel_potential(transform(forcing_w), s + eps)))
        return sup_dt, smooth, forcing_norm

    coarse = proxies(grid)
    fine = proxies(grid.refine())

    def stable(a, b):
        return b <= 1.25 * a + 1e-12

    return HypothesesReport(
        sup_dt_psi=coarse[0],
        smoothness_proxy=coarse[1],
        forcing_norm=coarse[2],
        sup_dt_psi_stable=stable(coarse[0], fine[0]),
        smoothness_stable=stable(coarse[1], fine[1]),
        forcing_stable=stable(coarse[2], fine[2]),
    )


def zhidkov_split(phi: PhysicalField):
    """Split a bounded field into a smooth bounded part plus a decaying part.

    The smooth part is the Gaussian convolution k*phi with kernel
    k(x) = (4 pi)^(-1/2) exp(-x^2/4), realized spectrally as the multiplier
    exp(-xi^2); the remainder carries the multiplier 1 - exp(-xi^2).  The
    two parts sum back to the input exactly.
    """
    psi0 = inverse_transform(
        transform(phi).apply_multiplier(np.exp(-phi.grid.xi ** 2)))
    u0 = PhysicalField(phi.grid, phi.values - psi0.values)
    return psi0, u0
