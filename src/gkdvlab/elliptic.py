"""Jacobi elliptic functions via the arithmetic-geometric mean.

Implements the descending Landen recursion of DLMF 22.20(ii): run the AGM
ladder a_{m+1} = (a_m + b_m)/2, b_{m+1} = sqrt(a_m b_m), c_{m+1} =
(a_m - b_m)/2 from (1, kp, k), seed phi_M = 2^M a_M u at the top, descend
with phi_{m-1} = (phi_m + asin(c_m/a_m * sin phi_m)) / 2, and read off

    sn = sin(phi_0),  cn = cos(phi_0),  dn = sqrt(1 - kappa^2 sn^2).

The descent needs no clipping: |c_m/a_m sin phi_m| <= c_m/a_m < 1.  The
ladder depends on the modulus only and is kept per modulus.  dn is not
taken as cos(phi_0)/cos(phi_1 - phi_0), which is 0/0 where cn vanishes.

The complete elliptic integral of the first kind is K = pi / (2 AGM(1, kp)).
Valid for modulus kappa in [0, 1); the degenerate ends are special-cased.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["jacobi_sn_cn_dn", "complete_elliptic_k"]

_AGM_TOL = 1e-15
_AGM_MAX_ITER = 32


@lru_cache(maxsize=64)
def _agm_ladder(kappa: float):
    a = [1.0]
    b = [np.sqrt(1.0 - kappa * kappa)]
    c = [kappa]
    while c[-1] > _AGM_TOL and len(a) < _AGM_MAX_ITER:
        a_next = 0.5 * (a[-1] + b[-1])
        b_next = np.sqrt(a[-1] * b[-1])
        c_next = 0.5 * (a[-1] - b[-1])
        a.append(a_next)
        b.append(b_next)
        c.append(c_next)
    return tuple(a), tuple(b), tuple(c)


def complete_elliptic_k(kappa: float) -> float:
    """Quarter period K(kappa), by the AGM of 1 and the complementary modulus."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {kappa}")
    a, _, _ = _agm_ladder(kappa)
    return float(np.pi / (2.0 * a[-1]))


def jacobi_sn_cn_dn(u, kappa: float):
    """(sn, cn, dn) at argument u for modulus kappa in [0, 1]."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"modulus must lie in [0, 1], got {kappa}")
    u = np.asarray(u, dtype=float)
    if kappa < 1e-12:
        return np.sin(u), np.cos(u), np.ones_like(u)
    if kappa > 1.0 - 1e-12:
        sech = 1.0 / np.cosh(u)
        return np.tanh(u), sech, sech

    a, _, c = _agm_ladder(kappa)
    m_top = len(a) - 1
    phi = (2.0 ** m_top) * a[m_top] * u
    for m in range(m_top, 0, -1):
        phi = 0.5 * (phi + np.arcsin(c[m] / a[m] * np.sin(phi)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - kappa * kappa * (sn * sn))
    return sn, cn, dn
