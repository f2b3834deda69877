"""Real-analytic nonlinearities with entire Taylor expansions.

Closed-form kinds (polynomial, exponential, sine, cosine) evaluate their
closed forms directly; a custom series kind evaluates the truncated Taylor
sum in Horner form.  Every kind carries its coefficient list so diagnostics
can inspect growth and the stored-series invariants are checkable; the
exponential, sine and cosine lists stop at SERIES_ORDER_DEFAULT and are
never summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["AnalyticNonlinearity", "GwpBound", "NonFiniteResultError"]

SERIES_ORDER_DEFAULT = 30


class NonFiniteResultError(ArithmeticError):
    """Evaluation overflowed to inf or nan."""


class GwpBound(NamedTuple):
    M: float
    hypothesis_holds: bool


def _checked(value):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteResultError("nonlinearity evaluation produced a non-finite value")
    return value


def _horner(coeffs, x):
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


@dataclass(frozen=True)
class AnalyticNonlinearity:
    """The map x -> f(x) together with f', f'' and the primitive F."""

    kind: str
    coeffs: tuple
    order: int
    label: str = ""

    KINDS = ("polynomial", "exponential", "sine", "cosine", "series")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if self.order != len(self.coeffs) - 1:
            raise ValueError("truncation order inconsistent with coefficient list")
        if self.order >= 20:
            a_top = abs(self.coeffs[-1])
            if a_top > 0 and a_top ** (1.0 / self.order) > 0.1:
                raise ValueError(
                    "coefficient tail decays too slowly for an entire series"
                )

    # -- constructors ---------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs, label="") -> "AnalyticNonlinearity":
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return cls("polynomial", tuple(coeffs), len(coeffs) - 1, label)

    @classmethod
    def kdv(cls) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 1.0], label="kdv")

    @classmethod
    def mkdv_defocusing(cls) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 0.0, -1.0], label="mkdv-defocusing")

    @classmethod
    def mkdv_focusing(cls) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 0.0, 1.0], label="mkdv-focusing")

    @classmethod
    def gardner(cls, beta: float) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 1.0, -float(beta)], label="gardner")

    @classmethod
    def exponential(cls) -> "AnalyticNonlinearity":
        order = SERIES_ORDER_DEFAULT
        coeffs = [1.0 / math.factorial(k) for k in range(order + 1)]
        return cls("exponential", tuple(coeffs), order, "exponential")

    @classmethod
    def sine(cls) -> "AnalyticNonlinearity":
        order = SERIES_ORDER_DEFAULT
        coeffs = [
            0.0 if k % 2 == 0 else (-1.0) ** ((k - 1) // 2) / math.factorial(k)
            for k in range(order + 1)
        ]
        return cls("sine", tuple(coeffs), order, "sine")

    @classmethod
    def cosine(cls) -> "AnalyticNonlinearity":
        order = SERIES_ORDER_DEFAULT
        coeffs = [
            (-1.0) ** (k // 2) / math.factorial(k) if k % 2 == 0 else 0.0
            for k in range(order + 1)
        ]
        return cls("cosine", tuple(coeffs), order, "cosine")

    @classmethod
    def from_series(cls, coeffs) -> "AnalyticNonlinearity":
        coeffs = tuple(float(a) for a in coeffs)
        return cls("series", coeffs, len(coeffs) - 1, "series")

    # -- evaluation ------------------------------------------------------

    def polynomial_degree(self):
        """Degree for polynomial kind, None for transcendental kinds."""
        if self.kind == "polynomial":
            return self.order
        return None

    def f(self, x):
        if self.kind == "polynomial":
            return _checked(_horner(self.coeffs, x))
        if self.kind == "exponential":
            return _checked(np.exp(x))
        if self.kind == "sine":
            return _checked(np.sin(x))
        if self.kind == "cosine":
            return _checked(np.cos(x))
        return _checked(_horner(self.coeffs, x))

    def fp(self, x):
        if self.kind == "exponential":
            return _checked(np.exp(x))
        if self.kind == "sine":
            return _checked(np.cos(x))
        if self.kind == "cosine":
            return _checked(-np.sin(x))
        dcoeffs = [k * a for k, a in enumerate(self.coeffs)][1:] or [0.0]
        return _checked(_horner(dcoeffs, x))

    def fpp(self, x):
        if self.kind == "exponential":
            return _checked(np.exp(x))
        if self.kind == "sine":
            return _checked(-np.sin(x))
        if self.kind == "cosine":
            return _checked(-np.cos(x))
        ddcoeffs = [k * (k - 1) * a for k, a in enumerate(self.coeffs)][2:] or [0.0]
        return _checked(_horner(ddcoeffs, x))

    def taylor(self, x) -> list:
        """[c_1(x), ..., c_d(x)] with f(x + u) - f(x) = sum_k c_k(x) u^k, of
        the polynomial kind: c_k = f^(k)/k! = sum_j C(j, k) a_j x^(j-k)."""
        a, d, out = self.coeffs, self.order, []
        for k in range(1, d + 1):   # Horner from the first product c*x
            acc = (math.comb(d, k) * a[d] * x if k < d
                   else np.full(np.shape(x), a[d]))
            for j in range(d - 1, k - 1, -1):
                acc += math.comb(j, k) * a[j]
                if j > k:
                    acc *= x
            out.append(acc)
        return out

    def F(self, x):
        """Primitive with F(0) = 0."""
        if self.kind == "exponential":
            return _checked(np.expm1(x))
        if self.kind == "sine":
            return _checked(1.0 - np.cos(x))
        if self.kind == "cosine":
            return _checked(np.sin(x))
        icoeffs = [0.0] + [a / (k + 1) for k, a in enumerate(self.coeffs)]
        return _checked(_horner(icoeffs, x))

    # -- diagnostics -----------------------------------------------------

    def gwp_bound(self, lo: float, hi: float) -> GwpBound:
        """sup |f''| over 4097 equispaced samples of [lo, hi].

        The flag records whether |f''| is bounded on all of R, which for
        stored-series data means no coefficient beyond the quadratic one.
        """
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError("range must be a bounded interval")
        xs = np.linspace(lo, hi, 4097)
        M = float(np.max(np.abs(self.fpp(xs))))
        if self.kind in ("sine", "cosine"):
            globally_bounded = True
        else:
            globally_bounded = all(a == 0.0 for a in self.coeffs[3:])
        return GwpBound(M, globally_bounded)
