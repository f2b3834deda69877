"""Real-analytic nonlinearities with entire Taylor expansions.

Closed-form kinds (exponential, sine, cosine) take f, f', f'' and F from
one table of closed forms and carry no coefficients; the polynomial and
custom series kinds sum their coefficient lists in Horner form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

__all__ = ["AnalyticNonlinearity", "NonFiniteResultError"]


class NonFiniteResultError(ArithmeticError):
    """Evaluation overflowed to inf or nan."""


def _checked(value):
    if not np.all(np.isfinite(value)):
        raise NonFiniteResultError("nonlinearity evaluation produced a non-finite value")
    return value


def _horner(coeffs, x):
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


# closed kind -> (f, f', f'', F with F(0) = 0)
_CLOSED_FORMS = {
    "exponential": (np.exp, np.exp, np.exp, np.expm1),
    "sine": (np.sin, np.cos, lambda x: -np.sin(x), lambda x: 1.0 - np.cos(x)),
    "cosine": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin),
}


@dataclass(frozen=True)
class AnalyticNonlinearity:
    """The map x -> f(x) together with f', f'' and the primitive F."""

    kind: str
    coeffs: tuple

    def __post_init__(self):
        if self.kind not in ("polynomial", "series", *_CLOSED_FORMS):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if self.kind in _CLOSED_FORMS and self.coeffs:
            raise ValueError(f"the {self.kind} kind takes no coefficients")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError(f"coefficients must be finite, got {self.coeffs}")
        if self.order >= 20:
            a_top = abs(self.coeffs[-1])
            if a_top > 0 and a_top ** (1.0 / self.order) > 0.1:
                raise ValueError(
                    "coefficient tail decays too slowly for an entire series"
                )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getstate__(self):     # fields only: cached tables come back read-only
        return {"kind": self.kind, "coeffs": self.coeffs}

    # -- constructors ---------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "AnalyticNonlinearity":
        """Trailing zeros trimmed; no coefficients is the zero polynomial."""
        coeffs = list(coeffs) or [0.0]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return cls("polynomial", coeffs)

    @classmethod
    def kdv(cls) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 1.0])

    @classmethod
    def mkdv_defocusing(cls) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 0.0, -1.0])

    @classmethod
    def mkdv_focusing(cls) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 0.0, 1.0])

    @classmethod
    def gardner(cls, beta: float) -> "AnalyticNonlinearity":
        return cls.polynomial([0.0, 0.0, 1.0, -float(beta)])

    @classmethod
    def exponential(cls) -> "AnalyticNonlinearity":
        return cls("exponential", ())

    @classmethod
    def sine(cls) -> "AnalyticNonlinearity":
        return cls("sine", ())

    @classmethod
    def cosine(cls) -> "AnalyticNonlinearity":
        return cls("cosine", ())

    @classmethod
    def from_series(cls, coeffs) -> "AnalyticNonlinearity":
        return cls("series", coeffs)

    # -- evaluation ------------------------------------------------------

    def polynomial_degree(self):
        """Degree for polynomial kind, None for transcendental kinds."""
        return self.order if self.kind == "polynomial" else None

    @property
    def _forms(self) -> tuple:
        return _CLOSED_FORMS.get(self.kind) or self._series_forms

    @cached_property
    def _series_forms(self) -> tuple:
        """(f, f', f'', F with F(0) = 0) of the coefficient list, each the
        Horner sum of its own list, built on first use."""
        terms = list(enumerate(self.coeffs))
        return tuple(partial(_horner, c) for c in (
            self.coeffs, [k * a for k, a in terms][1:] or [0.0],
            [k * (k - 1) * a for k, a in terms][2:] or [0.0],
            [0.0] + [a / (k + 1) for k, a in terms]))

    def f(self, x):
        return _checked(self._forms[0](x))

    def fp(self, x):
        return _checked(self._forms[1](x))

    def fpp(self, x):
        return _checked(self._forms[2](x))

    @cached_property
    def _taylor_plan(self) -> tuple:
        """taylor's Horner scalars C(j, k) a_j, j = d..k, one list per
        k < d, and its read-only tables of c_d = a_d, one per shape."""
        a, d = self.coeffs, self.order
        return [[math.comb(j, k) * a[j] for j in range(d, k - 1, -1)]
                for k in range(1, d)], {}

    def taylor(self, x) -> list:
        """[c_1(x), ..., c_d(x)] with f(x + u) - f(x) = sum_k c_k(x) u^k, of
        the polynomial kind: c_k = f^(k)/k! = sum_j C(j, k) a_j x^(j-k)."""
        (chains, tops), shape, out = self._taylor_plan, np.shape(x), []
        for top, *rest in chains:   # Horner from the first product c*x
            acc = top * x
            for b in rest[:-1]:
                acc += b
                acc *= x
            acc += rest[-1]
            out.append(acc)
        if self.order and shape not in tops:
            tops[shape] = np.full(shape, self.coeffs[-1])
            tops[shape].flags.writeable = False
        return out + [tops[shape]] if self.order else out

    def F(self, x):
        """Primitive with F(0) = 0."""
        return _checked(self._forms[3](x))

    # -- diagnostics -----------------------------------------------------

    def gwp_bound(self, lo: float, hi: float) -> float:
        """M = sup |f''| over 4097 equispaced samples of [lo, hi]."""
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError("range must be a bounded interval")
        return float(np.max(np.abs(self.fpp(np.linspace(lo, hi, 4097)))))
