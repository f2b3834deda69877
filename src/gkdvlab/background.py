"""Catalog of background fields and their pointwise jets.

Each background knows its full jet (value, time derivative and the first
three space derivatives) in closed form, so the traveling-wave forcing

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
    "CnoidalParameters",
    "ParameterResolutionError",
    "residual_S",
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
    psi_xx: np.ndarray
    psi_xxx: np.ndarray


class ParameterResolutionError(RuntimeError):
    """No admissible traveling-wave parameters; carries the best residual."""


def _tanh_jet(x, t, amplitude, steepness, drift, offset):
    """Jet of offset + A*tanh(k*(x + v*t))."""
    theta = steepness * (np.asarray(x, dtype=float) + drift * t)
    T = np.tanh(theta)
    S2 = 1.0 - T * T
    psi = offset + amplitude * T
    psi_x = amplitude * steepness * S2
    psi_xx = -2.0 * amplitude * steepness ** 2 * S2 * T
    psi_xxx = 2.0 * amplitude * steepness ** 3 * S2 * (2.0 * T * T - S2)
    psi_t = drift * psi_x
    return Jet(psi, psi_t, psi_x, psi_xx, psi_xxx)


class Background:
    """Base interface: closed-form jet evaluation at (t, x)."""

    variant = "abstract"
    wave_speed: float | None = None

    def jet(self, t: float, x) -> Jet:
        raise NotImplementedError

    def profile(self, t: float, x) -> np.ndarray:
        return self.jet(t, x).psi

    def associated_nonlinearity(self) -> AnalyticNonlinearity | None:
        """The nonlinearity this background solves exactly, if any."""
        return None

    def describe(self) -> str:
        return self.variant


@dataclass(frozen=True)
class ZeroBackground(Background):
    variant = "zero"

    def jet(self, t, x):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return Jet(z, z.copy(), z.copy(), z.copy(), z.copy())

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

    def jet(self, t, x):
        return _tanh_jet(x, t, self.sign * np.sqrt(self.c),
                         np.sqrt(self.c / 2.0), self.c, 0.0)

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

    def jet(self, t, x):
        return _tanh_jet(
            x, t,
            self.sign * np.sqrt(self.c / self.beta),
            np.sqrt(self.c / 2.0),
            self.c - 1.0 / (3.0 * self.beta),
            1.0 / (3.0 * self.beta),
        )

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.gardner(self.beta)


class CnoidalParameters(NamedTuple):
    alpha: float
    beta: float
    gamma: float


def _cn2_derivatives(s, c_, d, kappa):
    """cn^2 and its first three derivatives from the triple (sn, cn, dn)."""
    scd = s * c_ * d
    cn2 = c_ * c_
    d1 = -2.0 * scd
    d2 = -2.0 * (c_ ** 2 * d ** 2 - s ** 2 * d ** 2 - kappa ** 2 * s ** 2 * c_ ** 2)
    d3 = 8.0 * scd * (kappa ** 2 * (c_ ** 2 - s ** 2) + d ** 2)
    return cn2, d1, d2, d3


def _dn_derivatives(s, c_, d, kappa):
    """dn and its first three derivatives from the triple (sn, cn, dn)."""
    k2 = kappa ** 2
    d1 = -k2 * s * c_
    d2 = -k2 * d * (c_ ** 2 - s ** 2)
    d3 = k2 * s * c_ * (k2 * (c_ ** 2 - s ** 2) + 4.0 * d ** 2)
    return d, d1, d2, d3


def _wave_triple(bg, t, x):
    """(sn, cn, dn) at gamma*(x - c*t) for a KdVCnoidal or MKdVDnoidal bg.

    The triple at gamma*x is evaluated once per sample array and kept on
    bg, keyed by a copy of the array's content, so a new array or one
    changed in place is evaluated afresh.  Each time t then costs one
    scalar triple at v = -gamma*c*t and the addition theorem (DLMF
    22.8.1-22.8.3), whose denominator 1 - kappa^2 sn^2(gamma*x) sn^2(v) is
    at least 1 - kappa^2 > 0.
    """
    x = np.asarray(x, dtype=float)
    gamma, kappa = bg.parameters.gamma, bg.kappa
    cached = getattr(bg, "_grid_triple", None)
    if cached is None or not np.array_equal(cached[0], x):
        s, c_, d = jacobi_sn_cn_dn(gamma * x, kappa)
        cached = (x.copy(), s, c_, d, c_ * d, s * d, s * c_, s * s)
        object.__setattr__(bg, "_grid_triple", cached)
    _, s1, c1, d1, cd1, sd1, sc1, ss1 = cached
    s2, c2, d2 = jacobi_sn_cn_dn(-gamma * bg.c * t, kappa)
    k2s2 = kappa * kappa * s2
    den = 1.0 / (1.0 - (k2s2 * s2) * ss1)
    return ((s1 * (c2 * d2) + cd1 * s2) * den,
            (c1 * c2 - sd1 * (s2 * d2)) * den,
            (d1 * d2 - sc1 * (k2s2 * c2)) * den)


def resolve_cnoidal(c: float, kappa: float, nl: AnalyticNonlinearity,
                    tolerance: float = 1e-8) -> CnoidalParameters:
    """Fit traveling-wave parameters for the periodic catalog profiles.

    For the quadratic nonlinearity the ansatz is alpha + beta*cn^2(gamma y),
    with the steepness normalized to gamma = sqrt(c)/2 so that kappa -> 1
    recovers the classical sech^2 solitary wave on a zero pedestal.  For the
    focusing cubic nonlinearity the ansatz is beta*dn(gamma y) and both
    remaining parameters are fitted.  Parameters come from a least-squares
    solve of the pointwise traveling-wave residual over one period; the fit
    is accepted only if the relative residual meets the tolerance.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError("modulus must lie strictly inside (0, 1)")
    if c <= 0:
        raise ValueError("speed must be positive")
    from scipy.optimize import least_squares    # slow import, fits only

    coeffs = nl.coeffs + (0.0,) * (4 - len(nl.coeffs))
    is_kdv = nl.polynomial_degree() == 2
    is_focusing_cubic = (
        nl.polynomial_degree() == 3
        and coeffs[3] > 0
        and coeffs[2] == 0.0
    )

    if is_kdv:
        gamma = np.sqrt(c) / 2.0
        period = 2.0 * complete_elliptic_k(kappa) / gamma
        ys = np.linspace(0.0, period, 257)

        def resid(params):
            alpha, beta = params
            cn2, d1, _, d3 = _cn2_derivatives(
                *jacobi_sn_cn_dn(gamma * ys, kappa), kappa)
            q = alpha + beta * cn2
            qp = beta * gamma * d1
            qppp = beta * gamma ** 3 * d3
            return -c * qp + qppp + nl.fp(q) * qp

        best = least_squares(resid, x0=[0.5 * c, c], method="lm",
                             xtol=1e-15, ftol=1e-15, gtol=1e-15)
        best = least_squares(resid, x0=best.x, method="lm",
                             xtol=1e-15, ftol=1e-15, gtol=1e-15)
        alpha, beta = best.x
        params = CnoidalParameters(float(alpha), float(beta), float(gamma))
        scale = float(np.sqrt(np.mean(
            (alpha + beta * jacobi_sn_cn_dn(gamma * ys, kappa)[1] ** 2) ** 2)))
    elif is_focusing_cubic:
        cubic = coeffs[3]

        def resid(params):
            beta, gamma = params
            period = 2.0 * complete_elliptic_k(kappa) / abs(gamma)
            ys = np.linspace(0.0, period, 257)
            d0, d1, _, d3 = _dn_derivatives(
                *jacobi_sn_cn_dn(gamma * ys, kappa), kappa)
            q = beta * d0
            qp = beta * gamma * d1
            qppp = beta * gamma ** 3 * d3
            return -c * qp + qppp + nl.fp(q) * qp

        best = least_squares(resid, x0=[np.sqrt(2.0 * c / cubic), np.sqrt(c)],
                             method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        best = least_squares(resid, x0=best.x, method="lm",
                             xtol=1e-15, ftol=1e-15, gtol=1e-15)
        beta, gamma = best.x
        params = CnoidalParameters(0.0, float(beta), float(abs(gamma)))
        period = 2.0 * complete_elliptic_k(kappa) / params.gamma
        ys = np.linspace(0.0, period, 257)
        scale = float(np.sqrt(np.mean((beta * jacobi_sn_cn_dn(
            params.gamma * ys, kappa)[2]) ** 2)))
    else:
        raise ParameterResolutionError(
            "periodic profiles are implemented for the quadratic and the "
            "focusing cubic nonlinearity only"
        )

    achieved = float(np.max(np.abs(best.fun)))
    if not best.success or achieved > tolerance * max(scale, 1e-300):
        raise ParameterResolutionError(
            f"no admissible parameters for c={c}, kappa={kappa}; "
            f"best residual {achieved:.3e} (scale {scale:.3e})"
        )
    return params


@dataclass(frozen=True)
class KdVCnoidal(Background):
    """Periodic cnoidal wave of the quadratic nonlinearity."""

    c: float
    kappa: float
    variant = "kdv_cnoidal"

    def __post_init__(self):
        params = resolve_cnoidal(self.c, self.kappa, AnalyticNonlinearity.kdv())
        object.__setattr__(self, "_params", params)

    @property
    def parameters(self) -> CnoidalParameters:
        return self._params

    @property
    def wave_speed(self):
        return self.c

    def jet(self, t, x):
        alpha, beta, gamma = self._params
        cn2, d1, d2, d3 = _cn2_derivatives(*_wave_triple(self, t, x),
                                           self.kappa)
        psi = alpha + beta * cn2
        psi_x = beta * gamma * d1
        psi_xx = beta * gamma ** 2 * d2
        psi_xxx = beta * gamma ** 3 * d3
        psi_t = -self.c * psi_x
        return Jet(psi, psi_t, psi_x, psi_xx, psi_xxx)

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.kdv()


@dataclass(frozen=True)
class MKdVDnoidal(Background):
    """Periodic dnoidal wave of the focusing cubic nonlinearity."""

    c: float
    kappa: float
    variant = "mkdv_dnoidal"

    def __post_init__(self):
        params = resolve_cnoidal(self.c, self.kappa,
                                 AnalyticNonlinearity.mkdv_focusing())
        object.__setattr__(self, "_params", params)

    @property
    def parameters(self) -> CnoidalParameters:
        return self._params

    @property
    def wave_speed(self):
        return self.c

    def jet(self, t, x):
        _, beta, gamma = self._params
        d0, d1, d2, d3 = _dn_derivatives(*_wave_triple(self, t, x),
                                         self.kappa)
        psi = beta * d0
        psi_x = beta * gamma * d1
        psi_xx = beta * gamma ** 2 * d2
        psi_xxx = beta * gamma ** 3 * d3
        psi_t = -self.c * psi_x
        return Jet(psi, psi_t, psi_x, psi_xx, psi_xxx)

    def associated_nonlinearity(self):
        return AnalyticNonlinearity.mkdv_focusing()


@dataclass(frozen=True)
class SyntheticBackground(Background):
    """Bounded, asymmetric, non-solution example 1 + 4 tanh(x+t) + cos(log(1+x^2+t^2))."""

    variant = "synthetic"

    def jet(self, t, x):
        x = np.asarray(x, dtype=float)
        kink = _tanh_jet(x, t, 4.0, 1.0, 1.0, 1.0)

        w = 1.0 + x * x + t * t
        g = np.log(w)
        g_x = 2.0 * x / w
        g_xx = 2.0 / w - 4.0 * x * x / w ** 2
        g_xxx = (-12.0 * x * w + 16.0 * x ** 3) / w ** 3
        g_t = 2.0 * t / w
        sin_g, cos_g = np.sin(g), np.cos(g)
        h = cos_g
        h_x = -sin_g * g_x
        h_xx = -cos_g * g_x ** 2 - sin_g * g_xx
        h_xxx = sin_g * g_x ** 3 - 3.0 * cos_g * g_x * g_xx - sin_g * g_xxx
        h_t = -sin_g * g_t

        return Jet(kink.psi + h, kink.psi_t + h_t, kink.psi_x + h_x,
                   kink.psi_xx + h_xx, kink.psi_xxx + h_xxx)


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
    def from_file(cls, path):
        header_static = False
        with open(path) as fh:
            for line in fh:
                if line.startswith("#") and "static" in line:
                    header_static = True
        if not header_static:
            raise ValueError(
                "tabulated background file must declare 't-dependence: static' "
                "in a comment header"
            )
        data = np.loadtxt(path)
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

    def jet(self, t, x):
        x = self._check_range(x)
        psi = self._spline(x)
        return Jet(
            psi,
            np.zeros_like(psi),
            self._spline(x, 1),
            self._spline(x, 2),
            self._spline(x, 3),
        )


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


def _windowed_tail(values: np.ndarray, grid: Grid) -> float:
    windowed = PhysicalField(grid, values * smooth_window(grid))
    return tail_fraction_of_spectrum(grid, transform(windowed).coeffs)


def residual_S(bg: Background, nl: AnalyticNonlinearity, t: float,
               grid: Grid, tail_threshold: float = 1e-10) -> PhysicalField:
    """Forcing S(t,.) = Psi_t + Psi_xxx + f'(Psi) Psi_x sampled on the grid."""
    jet = bg.jet(t, grid.x)
    tail = _windowed_tail(jet.psi_x, grid)
    if tail > tail_threshold:
        raise UnresolvedFieldError(
            f"background derivative tail {tail:.2e} exceeds {tail_threshold:.2e}; "
            "grid does not resolve the background"
        )
    values = jet.psi_t + jet.psi_xxx + nl.fp(jet.psi) * jet.psi_x
    return PhysicalField(grid, values)


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
        forcing = jet.psi_t + jet.psi_xxx + nl.fp(jet.psi) * jet.psi_x
        forcing_w = PhysicalField(g, forcing * window)
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
