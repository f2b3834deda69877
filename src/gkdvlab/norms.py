"""Sobolev, frequency-enveloped and space-time (modulation-weighted) norms.

Space-time norms treat the stored trajectory window as one temporal period;
trajectories must decay at both window ends (extend them compactly first if
they do not), which makes the periodization exact to rounding.  Modulation
machinery weights space-time Fourier mass by its distance |tau - xi^3| to
the dispersive characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    dyadic_band,
    dyadic_bump,
    inverse_transform,
    smooth_cutoff,
    trajectory_transform,
    transform,
)

__all__ = [
    "WeightSequence",
    "sobolev_norm",
    "enveloped_norm",
    "bourgain_norm",
    "decays_at_ends",
    "modulation_band",
    "modulation_partition_defect",
    "extend_trajectory",
    "resonance_vanishing_check",
    "ResonanceCheck",
    "trajectory_sup_sobolev",
    "trajectory_l2_sobolev",
]


# ----------------------------------------------------------------------
# spatial norms

def _parseval(f: PhysicalField | SpectralField, weight: np.ndarray,
              scale: float = 1.0):
    """sqrt(scale * sum_j weight_j |u_hat_j|^2) of a field as a float, or
    one value per row of a SpectralField of stacked spectra, such as
    ``traj.spectra()``."""
    spec = f if isinstance(f, SpectralField) else transform(f)
    norms = np.sqrt(scale * np.sum(weight * np.abs(spec.coeffs) ** 2, axis=-1))
    return norms if norms.ndim else float(norms)


def sobolev_norm(f: PhysicalField | SpectralField, s: float):
    """H^s norm via the Bessel multiplier and discrete Parseval, per row
    of stacked spectra (see :func:`_parseval`)."""
    return _parseval(f, (1.0 + f.grid.xi ** 2) ** s * f.grid.multiplicity,
                     2.0 * f.grid.half_length)


@dataclass(frozen=True)
class WeightSequence:
    """Slowly varying dyadic weights {w_N} with growth exponent eps."""

    blocks: tuple
    weights: tuple
    eps: float

    def __post_init__(self):
        blocks = tuple(float(b) for b in self.blocks)
        weights = tuple(float(w) for w in self.weights)
        if len(blocks) != len(weights):
            raise ValueError("one weight per dyadic block required")
        if not all(0 < w < math.inf for w in weights):
            raise ValueError("weights must be positive and finite")
        growth = 2.0 ** self.eps
        for w0, w1 in zip(weights, weights[1:]):
            if not (w0 <= w1 * (1 + 1e-12) and w1 <= growth * w0 * (1 + 1e-12)):
                raise ValueError("weights must be nondecreasing with ratio <= 2^eps")
        if abs(weights[0] - 1.0) > 1e-6:
            raise ValueError("weights must approach 1 at the low edge")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def ones(cls, grid: Grid) -> "WeightSequence":
        blocks = dyadic_band(grid)
        return cls(tuple(blocks), (1.0,) * len(blocks), eps=0.0)

    @classmethod
    def bracket_power(cls, grid: Grid, eps: float) -> "WeightSequence":
        """w_N = (1 + N^2)^(eps/2), strictly increasing, ratio below 2^eps;
        a ValueError when a weight overflows."""
        blocks = dyadic_band(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            low = (1.0 + blocks[0] ** 2) ** (eps / 2.0)
            weights = ((1.0 + blocks ** 2) ** (eps / 2.0)) / low
        return cls(tuple(blocks), tuple(weights), eps=eps)


@lru_cache(maxsize=32)
def _block_masses(grid: Grid, blocks: tuple) -> np.ndarray:
    """Read-only (blocks x bins) table 2L mult_j phi(xi_j/N)^2: by Parseval
    a row dotted with |u_hat|^2 is ||P_N u||_L2^2."""
    band = dyadic_band(grid)
    for N in blocks:
        if not np.any(np.isclose(band, N)):
            raise ValueError(f"block {N} outside resolvable band {band[0]}..{band[-1]}")
    table = (2.0 * grid.half_length * grid.multiplicity *
             dyadic_bump(grid.xi / np.asarray(blocks)[:, None]) ** 2)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _envelope_weight(grid: Grid, s: float, omega: WeightSequence) -> np.ndarray:
    """Read-only Parseval weight of :func:`enveloped_norm` per bin."""
    low = smooth_cutoff(2.0 * grid.xi / dyadic_band(grid)[0]) ** 2
    dyadic = np.asarray(omega.weights) ** 2 @ _block_masses(grid, omega.blocks)
    weight = (1.0 + grid.xi ** 2) ** s * (
        2.0 * grid.half_length * grid.multiplicity * low + dyadic)
    weight.flags.writeable = False
    return weight


def enveloped_norm(f: PhysicalField | SpectralField, s: float,
                   omega: WeightSequence):
    """Dyadic-block weighted H^s norm; the residual low block has weight 1.

    Every block is a Fourier multiplier, so by Parseval the norm squared
    is  2L sum_j mult_j <xi_j>^2s [eta(2 xi_j/N_min)^2 + sum_N w_N^2
    phi(xi_j/N)^2] |u_hat_j|^2,  one sum against a weight built once per
    (grid, s, omega), per row of stacked spectra (see :func:`_parseval`).
    A block outside ``dyadic_band(grid)`` raises ValueError."""
    return _parseval(f, _envelope_weight(f.grid, s, omega))


# ----------------------------------------------------------------------
# trajectory norms

def decays_at_ends(traj: Trajectory) -> bool:
    """Whether both end samples are at most 1e-10 times the peak."""
    mat = np.abs(traj.samples.values)
    return bool(max(np.max(mat[0]), np.max(mat[-1])) <= 1e-10 * np.max(mat))


def _check_decaying_ends(traj: Trajectory):
    if not decays_at_ends(traj):
        raise ValueError("trajectory does not decay at its window ends; "
                         "extend it compactly before taking space-time norms")


def bourgain_norm(traj: Trajectory, s: float, b: float) -> float:
    """Dispersive-modulation weighted space-time norm.

    Weights each space-time Fourier coefficient by
    (1 + |tau - xi^3|)^(2b) <xi>^(2s); b = 0 collapses to the L^2_t H^s
    norm of the stored window.  The temporal lattice must reach beyond
    max |xi|^3 for b > 0 to be meaningful.  Each interior spatial bin
    stands for +-xi, whose weights agree under (tau, xi) -> (-tau, -xi).
    """
    _check_decaying_ends(traj)
    coeffs, _, xis = trajectory_transform(traj)
    modulation = 1.0 + np.abs(_modulation(traj))
    spatial = (1.0 + xis ** 2) ** s * traj.grid.multiplicity
    window = traj.dt * len(traj)
    mass = np.sum(modulation ** (2.0 * b) * spatial[None, :] *
                  np.abs(coeffs) ** 2)
    return float(np.sqrt(2.0 * traj.grid.half_length * window * mass))


def trajectory_l2_sobolev(traj: Trajectory, s: float) -> float:
    """L^2 in time of the spatial H^s norm over the stored window."""
    h_s = sobolev_norm(traj.spectra(), s).tolist()
    return float(np.sqrt(traj.dt * np.sum([v ** 2 for v in h_s])))


def trajectory_sup_sobolev(traj: Trajectory, s: float) -> float:
    return float(np.max(sobolev_norm(traj.spectra(), s)))


# ----------------------------------------------------------------------
# modulation blocks

def _modulation(traj: Trajectory) -> np.ndarray:
    """tau - xi^3 on the space-time lattice of :func:`trajectory_transform`."""
    taus = 2.0 * np.pi * np.fft.fftfreq(len(traj), d=traj.dt)
    return taus[:, None] - traj.grid.xi[None, :] ** 3


def modulation_band(traj: Trajectory) -> np.ndarray:
    """Nonhomogeneous dyadic blocks 1, 2, 4, ... covering the lattice."""
    m_max = np.max(np.abs(_modulation(traj)))
    l_hi = max(int(np.ceil(np.log2(max(m_max, 2.0)))), 1)
    return 2.0 ** np.arange(0, l_hi + 1)


def _modulation_cut(m: np.ndarray, L: float) -> np.ndarray:
    """Symbol of the modulation block L: eta(m) for L = 1, else phi(m/L)."""
    return smooth_cutoff(m) if L == 1.0 else dyadic_bump(m / L)


def modulation_partition_defect(traj: Trajectory) -> float:
    """Max deviation of the summed modulation symbols from 1 on the lattice."""
    band = modulation_band(traj)
    m = _modulation(traj)
    total = sum(_modulation_cut(m, L) for L in band)
    return float(np.max(np.abs(total - 1.0)))


# ----------------------------------------------------------------------
# compact extension of a time-restricted trajectory

def extend_trajectory(traj: Trajectory, window_half: float = 2.0) -> Trajectory:
    """Extend a trajectory on [0, T] to a compactly supported window.

    Implements  t -> U(t) eta(t) U(-clamp(t)) u(clamp(t))  on the lattice
    containing the input samples: inside [0, T] this restores the input
    exactly (for T <= 1 where the cutoff is flat), beyond it the last and
    first fields are propagated freely and damped by the smooth cutoff, so
    the output vanishes identically for |t| >= 2.
    """
    T = traj.duration
    if not 0.0 < T < 2.0:
        raise ValueError("extension requires a window duration in (0, 2)")
    if abs(traj.t0) > 1e-14:
        raise ValueError("extension expects a trajectory starting at t = 0")
    # a coarse dt leaves the last sample where the cutoff is not yet
    # negligible; grow the window to the level decays_at_ends uses
    k_half = int(np.ceil(window_half / traj.dt))
    while smooth_cutoff(np.array([(k_half - 1) * traj.dt]))[0] > 1e-10:
        k_half += 1
    grid, n_in = traj.grid, len(traj) - 1
    k = np.arange(-k_half, k_half)
    times = k * traj.dt
    cut = smooth_cutoff(times)
    mat = np.zeros((times.size, grid.n))
    inside = slice(k_half, k_half + n_in + 1)
    mat[inside] = cut[inside, None] * traj.samples.values
    # the first and the last field propagate freely to every outside time
    # where the cutoff has not yet vanished, one spectrum row per time
    u_hat = traj.spectra().coeffs
    for rows, end, shift in (((k < 0) & (cut > 0.0), u_hat[0], 0.0),
                             ((k > n_in) & (cut > 0.0), u_hat[-1], T)):
        prop = end * np.exp(1j * (times[rows] - shift)[:, None] * grid.xi ** 3)
        mat[rows] = cut[rows, None] * inverse_transform(
            SpectralField(grid, prop)).values
    return Trajectory(grid, -k_half * traj.dt, traj.dt, mat)


# ----------------------------------------------------------------------
# resonance-forced vanishing

class ResonanceCheck(NamedTuple):
    magnitude: float
    scale: float
    vanishing_expected: bool
    n_terms: int


def _block_support(N: float, L: float, dxi: float, dtau: float):
    """Lattice points (j, k) where the block multipliers can be nonzero."""
    j_lo = int(np.floor(N / 2.0 / dxi))
    j_hi = int(np.ceil(2.0 * N / dxi))
    js = np.concatenate([np.arange(j_lo, j_hi + 1),
                         -np.arange(j_lo, j_hi + 1)])
    width = 2.0 if L == 1.0 else 2.0 * L
    center = (js * dxi) ** 3
    k_lo = np.floor((center - width) / dtau).astype(np.int64)
    counts = np.ceil((center + width) / dtau).astype(np.int64) - k_lo + 1
    # each j carries the run k_lo(j), ..., k_hi(j)
    first = np.repeat(k_lo - np.cumsum(counts) + counts, counts)
    return (np.repeat(js, counts).astype(np.int64),
            first + np.arange(counts.sum(), dtype=np.int64))


def _runs(j, k):
    """(j, min k, max k, first index, length) per run of equal j."""
    first = np.flatnonzero(np.r_[True, j[1:] != j[:-1]])
    return (j[first], np.minimum.reduceat(k, first),
            np.maximum.reduceat(k, first), first, np.diff(np.r_[first, j.size]))


def _synthetic_coeff(j, k, N, L, dxi, dtau, phase_t, phase_x):
    """Closed-form spectrum of a real field on the prescribed block."""
    xi = j * dxi
    tau = k * dtau
    return (dyadic_bump(xi / N) * _modulation_cut(tau - xi ** 3, L) *
            np.exp(1j * (phase_t * tau + phase_x * xi)))


def resonance_vanishing_check(space_blocks, modulation_blocks, chi=None,
                              domain_half_length: float = 8.0 * np.pi,
                              window_half_length: float = np.pi,
                              seed: int = 0) -> ResonanceCheck:
    """Multilinear space-time integral over prescribed frequency blocks.

    Synthesizes one real space-time field per block pair (space block N_i,
    modulation block L_i) with an analytic spectrum supported exactly where
    the block multipliers are nonzero, and evaluates the k-linear integral
    of their product (the first pair weighted by chi) as an exact lattice
    convolution, for any k >= 3.  Support arithmetic makes the integral
    vanish identically whenever every achievable resonance level exceeds
    the combined modulation budget: then no k-tuple of support points sums
    to zero in space and time, which `vanishing_expected` reports.

    Each block is tabulated once on its nonzero support.  The block with
    the largest support (lowest index on ties) is gathered from a sorted
    key table at (-sum j, -sum k); a lattice point outside the table is an
    exact zero.  The sum ranges over the `n_terms` = prod_{i != largest}
    |supp_i| k-tuples of the others, but looks up only those in a tuple of
    runs of equal j that can close: the cost is one integer interval test
    per run tuple and one lookup per k-tuple formed, 2e6 at most at once.
    """
    Ns = [float(N) for N in space_blocks]
    Ls = [float(L) for L in modulation_blocks]
    if len(Ns) != len(Ls) or len(Ns) < 3:
        raise ValueError("need matching block lists of length at least 3")
    k_factors = len(Ns)
    dxi = np.pi / domain_half_length
    dtau = np.pi / window_half_length
    phases = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                 size=(k_factors, 2))

    js, ks, vals = [], [], []
    for N, L, (phase_t, phase_x) in zip(Ns, Ls, phases):
        j, k = _block_support(N, L, dxi, dtau)
        v = _synthetic_coeff(j, k, N, L, dxi, dtau, phase_t, phase_x)
        keep = np.abs(v) > 0.0
        if not np.any(keep):
            raise ValueError(
                f"block (N={N}, L={L}) has empty support on this lattice")
        js.append(j[keep])
        ks.append(k[keep])
        vals.append(v[keep])

    # key(j, k) = j * stride + k is linear and, with |sum k| < stride / 2
    # for every k-tuple, injective on the sums it is applied to
    stride = 2 * sum(int(np.max(np.abs(k))) for k in ks) + 1
    if (sum(int(np.max(np.abs(j))) for j in js) + 1) * stride >= 2 ** 62:
        raise ValueError("lattice too large for 64-bit support keys")
    keys = [j * stride + k for j, k in zip(js, ks)]

    sizes = [v.size for v in vals]
    g = int(np.argmax(sizes))
    order = np.argsort(keys[g])
    table_keys, table_vals = keys[g][order], vals[g][order]
    free = [i for i in range(k_factors) if i != g]
    col = max(free, key=lambda i: sizes[i])
    rows = [i for i in free if i != col]
    summed = rows + [col]       # a k-tuple's flat index: rows, then column
    chunk = 2_000_000           # run tuples or k-tuples formed at a time
    shape = tuple(sizes[i] for i in summed)

    runs = [_runs(js[i], ks[i]) for i in summed]
    run_shape = tuple(r[0].size for r in runs)
    # [lo, hi] spans -k of the gathered block at j = -J, in slot J - J_min
    # for each reachable J; lo > hi where the block has no support
    J_min = min(sum(int(r[0].min()) for r in runs), -int(js[g].max()))
    at = -js[g] - J_min
    lo, hi = np.full((2, max(sum(int(r[0].max()) for r in runs) - J_min,
                             int(at.max())) + 1), [[stride], [-stride]])
    np.minimum.at(lo, at, -ks[g])
    np.maximum.at(hi, at, -ks[g])

    # run tuples in a rows x column matrix, at most 2e6 at a time
    last = (runs[-1][0] - J_min,) + runs[-1][1:3]
    n_outer, step = math.prod(run_shape[:-1]), max(1, chunk // run_shape[-1])
    found = [np.zeros((2, 0), np.int64)]
    for start in range(0, n_outer, step):
        tup = np.unravel_index(
            np.arange(start, min(start + step, n_outer)), run_shape[:-1])
        at, k_lo, k_hi = (
            np.add.outer(sum(r[q][t] for r, t in zip(runs, tup)), last[q])
            for q in range(3))
        # necessary for any k-tuple of the run tuple to close: no match lost
        o, c = np.nonzero((k_lo <= hi[at]) & (lo[at] <= k_hi))
        tup = [t[o] for t in tup] + [c]
        # the k-tuples of the surviving run tuples, each row-major over its
        # runs: formed k-tuple e is number e - (ends - counts)[t] of tuple t
        counts = math.prod(r[4][t] for r, t in zip(runs, tup))
        ends, n_formed = np.cumsum(counts), int(np.sum(counts))
        for e0 in range(0, n_formed, chunk):
            e = np.arange(e0, min(e0 + chunk, n_formed))
            owner = np.searchsorted(ends, e, side="right")
            rest, elem = e - (ends - counts)[owner], []
            for r, t in zip(runs[::-1], tup[::-1]):
                length = r[4][t[owner]]
                elem.insert(0, r[3][t[owner]] + rest % length)
                rest //= length
            target = -sum(keys[i][ix] for i, ix in zip(summed, elem))
            pos = np.minimum(np.searchsorted(table_keys, target),
                             table_keys.size - 1)
            hit = table_keys[pos] == target
            found.append([np.ravel_multi_index([ix[hit] for ix in elem],
                                               shape), pos[hit]])

    # the closing k-tuples in (row, column) order and per row chunk of at
    # most 2e6 k-tuples: each np.sum, so every bit, is a full loop's
    found = np.concatenate(found, axis=1)
    flat, pos = found[:, np.argsort(found[0])]
    bounds = np.flatnonzero(np.diff(
        flat // sizes[col] // max(1, chunk // sizes[col]))) + 1
    total = 0.0 + 0.0j
    abs_total = 0.0
    for part, p in zip(np.split(flat, bounds), np.split(pos, bounds)):
        picked = dict(zip(summed, np.unravel_index(part, shape)))
        term = table_vals[p]
        for i in free:
            term = term * vals[i][picked[i]]
        if chi is not None:
            j_of = {i: js[i][picked[i]] for i in free}
            j_of[g] = -sum(j_of.values())
            term = term * chi((j_of[0] + j_of[1]) * dxi, j_of[0] * dxi)
        total += np.sum(term)
        abs_total += np.sum(np.abs(term))
    closed = flat.size

    measure = (2.0 * domain_half_length) * (2.0 * window_half_length)
    magnitude = float(np.abs(total)) * measure
    scale = float(abs_total) * measure
    if scale == 0.0:
        block_norms = [float(np.sqrt(np.sum(np.abs(v) ** 2))) for v in vals]
        scale = float(np.prod(block_norms)) * measure

    return ResonanceCheck(
        magnitude=magnitude,
        scale=scale,
        vanishing_expected=closed == 0,
        n_terms=math.prod(shape),
    )
