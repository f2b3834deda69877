import os

import numpy as np
import pytest

from gkdvlab.background import (
    GardnerKink,
    KdVCnoidal,
    MKdVDnoidal,
    MKdVKink,
    ParameterResolutionError,
    SyntheticBackground,
    TabulatedBackground,
    ZeroBackground,
    _cn2_derivatives,
    _dn_derivatives,
    check_hypotheses,
    residual_S,
    resolve_cnoidal,
    zhidkov_split,
)
from gkdvlab.elliptic import jacobi_sn_cn_dn
from gkdvlab.nonlinearity import AnalyticNonlinearity
from gkdvlab.spectral import (
    Grid,
    PhysicalField,
    UnresolvedFieldError,
    transform,
)
from gkdvlab.norms import sobolev_norm

ALL_ANALYTIC = [
    MKdVKink(c=2.0),
    MKdVKink(c=0.7, sign=-1),
    GardnerKink(c=1.0, beta=0.5),
    KdVCnoidal(c=1.0, kappa=0.8),
    MKdVDnoidal(c=1.0, kappa=0.5),
    SyntheticBackground(),
]


# ----------------------------------------------------------------------
# jets

@pytest.mark.parametrize("bg", ALL_ANALYTIC, ids=lambda b: b.variant)
def test_jet_matches_finite_differences(bg):
    rng = np.random.default_rng(11)
    h = 1e-4
    stencil = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)

    def fd(samples):
        # samples: (4, npts) fourth-order central difference
        return weights @ samples

    def close(a, b):
        return np.all(np.abs(a - b) <= 1e-6 * np.maximum(1.0, np.abs(b)))

    for t in rng.uniform(-1.0, 1.0, size=8):
        xs = rng.uniform(-8.0, 8.0, size=200)
        jet = bg.jet(t, xs)
        psi_stack = np.stack([bg.jet(t, xs + s).psi for s in stencil])
        psix_stack = np.stack([bg.jet(t, xs + s).psi_x for s in stencil])
        psixx_stack = np.stack([bg.jet(t, xs + s).psi_xx for s in stencil])
        psit_stack = np.stack([bg.jet(t + s, xs).psi for s in stencil])
        assert close(fd(psi_stack), jet.psi_x)
        assert close(fd(psix_stack), jet.psi_xx)
        assert close(fd(psixx_stack), jet.psi_xxx)
        assert close(fd(psit_stack), jet.psi_t)


def test_mkdv_kink_center_and_limits():
    c = 2.0
    bg = MKdVKink(c=c)
    t = 0.37
    assert abs(bg.jet(t, np.array([-c * t])).psi[0]) < 1e-14
    grid = Grid(20.0 / np.sqrt(c) + 5.0, 512)
    psi = bg.profile(0.0, grid.x)
    assert abs(psi[-1] - np.sqrt(c)) < 1e-10
    assert abs(psi[0] + np.sqrt(c)) < 1e-10


def test_synthetic_value_at_origin():
    bg = SyntheticBackground()
    assert abs(bg.jet(0.0, np.array([0.0])).psi[0] - 2.0) < 1e-15


@pytest.mark.parametrize("bg", [b for b in ALL_ANALYTIC
                                if b.wave_speed is not None],
                         ids=lambda b: b.variant)
def test_traveling_wave_identity(bg):
    rng = np.random.default_rng(5)
    ts = rng.uniform(-1.0, 1.0, size=16)
    xs = rng.uniform(-5.0, 5.0, size=64)
    for t in ts:
        jet = bg.jet(t, xs)
        lhs = jet.psi_t
        rhs = -bg.wave_speed * jet.psi_x
        scale = max(np.max(np.abs(rhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def _direct_jet(bg, t, x):
    """Jet components of a cnoidal or dnoidal wave, Jacobi functions taken
    at gamma*(x - c*t) directly."""
    alpha, beta, gamma = bg.parameters
    triple = jacobi_sn_cn_dn(gamma * (x - bg.c * t), bg.kappa)
    if isinstance(bg, KdVCnoidal):
        q, d1, d2, d3 = _cn2_derivatives(*triple, bg.kappa)
    else:
        q, d1, d2, d3 = _dn_derivatives(*triple, bg.kappa)
    psi_x = beta * gamma * d1
    return (alpha + beta * q, -bg.c * psi_x, psi_x, beta * gamma ** 2 * d2,
            beta * gamma ** 3 * d3)


def _assert_jet_is_direct(bg, t, x, rel=1e-12):
    jet = bg.jet(t, x)
    for got, want in zip(jet, _direct_jet(bg, t, x)):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("cls", [KdVCnoidal, MKdVDnoidal])
@pytest.mark.parametrize("kappa", [0.3, 0.8, 0.99])
def test_periodic_jet_matches_direct_evaluation(cls, kappa):
    # the jet shifts one cached grid triple by the addition theorem; it
    # must agree with the Jacobi functions at gamma*(x - c*t) themselves
    bg = cls(c=1.0, kappa=kappa)
    x = Grid(50.0, 2048).x
    for t in (0.0, 1e-4, 0.37, 5.0, 123.4):
        _assert_jet_is_direct(bg, t, x)


@pytest.mark.parametrize("cls", [KdVCnoidal, MKdVDnoidal])
def test_periodic_jet_cache_is_never_stale(cls):
    bg = cls(c=1.0, kappa=0.8)
    x = Grid(20.0, 256).x.copy()
    _assert_jet_is_direct(bg, 0.5, x)
    # another array of the same size, then a shorter one
    _assert_jet_is_direct(bg, 0.5, x + 0.3)
    _assert_jet_is_direct(bg, 0.5, x[:100])
    # the cached array itself, changed in place
    _assert_jet_is_direct(bg, 0.7, x)
    x[::3] += 1.25
    _assert_jet_is_direct(bg, 0.7, x)
    x[:] = x[::-1]
    _assert_jet_is_direct(bg, 0.7, x)


# ----------------------------------------------------------------------
# residual of the traveling-wave equation

def test_zero_background_residual():
    grid = Grid(30.0, 512)
    out = residual_S(ZeroBackground(), AnalyticNonlinearity.kdv(), 0.0, grid)
    assert np.all(out.values == 0.0)


def test_mkdv_kink_residual_vanishes():
    c = 2.0
    grid = Grid(50.0, 1024)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    bg = MKdVKink(c=c)
    out = residual_S(bg, nl, 0.3, grid)
    assert np.max(np.abs(out.values)) < 1e-10 * c ** 1.5


def test_gardner_kink_residual_vanishes():
    grid = Grid(50.0, 1024)
    bg = GardnerKink(c=1.0, beta=0.5)
    nl = AnalyticNonlinearity.gardner(0.5)
    out = residual_S(bg, nl, 0.1, grid)
    assert np.max(np.abs(out.values)) < 1e-12


def test_synthetic_residual_finite_richardson_stable():
    nl = AnalyticNonlinearity.kdv()
    bg = SyntheticBackground()
    coarse = residual_S(bg, nl, 0.0, Grid(50.0, 1024), tail_threshold=1e-3)
    fine = residual_S(bg, nl, 0.0, Grid(50.0, 2048), tail_threshold=1e-3)
    sup_c = np.max(np.abs(coarse.values))
    sup_f = np.max(np.abs(fine.values))
    assert 0.0 < sup_c < np.inf
    assert abs(sup_f - sup_c) < 0.02 * sup_c


def test_unresolved_background_rejected():
    # a coarse grid cannot resolve a steep kink
    grid = Grid(50.0, 64)
    bg = MKdVKink(c=64.0)
    nl = AnalyticNonlinearity.mkdv_defocusing()
    with pytest.raises(UnresolvedFieldError):
        residual_S(bg, nl, 0.0, grid)


# ----------------------------------------------------------------------
# hypotheses report

def test_hypotheses_zero_background():
    rep = check_hypotheses(ZeroBackground(), AnalyticNonlinearity.kdv(),
                           Grid(30.0, 256), s=1.0)
    assert rep.sup_dt_psi == 0.0
    assert rep.smoothness_proxy == 0.0
    assert rep.forcing_norm == 0.0
    assert rep.all_finite


@pytest.mark.parametrize("bg,nl", [
    (MKdVKink(c=2.0), AnalyticNonlinearity.mkdv_defocusing()),
    (SyntheticBackground(), AnalyticNonlinearity.kdv()),
], ids=["kink", "synthetic"])
def test_hypotheses_finite_and_stable(bg, nl):
    rep = check_hypotheses(bg, nl, Grid(50.0, 1024), s=1.0)
    assert np.isfinite(rep.sup_dt_psi)
    assert np.isfinite(rep.smoothness_proxy)
    assert np.isfinite(rep.forcing_norm)
    assert rep.all_finite


def test_hypotheses_require_supercritical_s():
    with pytest.raises(ValueError):
        check_hypotheses(ZeroBackground(), AnalyticNonlinearity.kdv(),
                         Grid(30.0, 256), s=0.4)


# ----------------------------------------------------------------------
# smooth/decaying split

def test_split_constant_field():
    grid = Grid(30.0, 256)
    phi = PhysicalField(grid, np.full(grid.n, 4.25))
    smooth, rem = zhidkov_split(phi)
    assert np.max(np.abs(smooth.values - 4.25)) < 1e-12
    assert np.max(np.abs(rem.values)) < 1e-12


def test_split_spectral_identity():
    grid = Grid(40.0, 2048)
    rng = np.random.default_rng(2)
    phi = PhysicalField(grid, np.tanh(grid.x) + 0.1 * rng.standard_normal(grid.n))
    smooth, rem = zhidkov_split(phi)
    # the decaying part is the literal float difference, so recombination
    # recovers the input to one rounding of the input scale
    assert np.array_equal(rem.values, phi.values - smooth.values)
    recon = smooth.values + rem.values
    assert np.max(np.abs(recon - phi.values)) <= 4 * np.finfo(float).eps * \
        np.max(np.abs(phi.values))
    lhs = transform(rem).coeffs
    rhs = (1.0 - np.exp(-grid.xi ** 2)) * transform(phi).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_split_tanh_bounds():
    grid = Grid(40.0, 2048)
    phi = PhysicalField.sample(grid, np.tanh)
    smooth, rem = zhidkov_split(phi)
    assert np.max(np.abs(smooth.values)) <= np.max(np.abs(phi.values)) * (1 + 1e-12)
    # H^1 of the remainder against the derivative mass, constant from the
    # multiplier sup (1+xi^2)(1-exp(-xi^2))^2/xi^2 which stays below 4
    from gkdvlab.spectral import inverse_transform, spatial_derivative

    phi_x = inverse_transform(spatial_derivative(transform(phi), 1))
    assert sobolev_norm(rem, 1.0) <= 2.0 * sobolev_norm(phi_x, 0.0)


def test_split_linearity():
    grid = Grid(30.0, 512)
    rng = np.random.default_rng(8)
    a, b = 1.7, -0.4
    f1 = PhysicalField(grid, rng.standard_normal(grid.n))
    f2 = PhysicalField(grid, rng.standard_normal(grid.n))
    combo = PhysicalField(grid, a * f1.values + b * f2.values)
    s_c, r_c = zhidkov_split(combo)
    s_1, r_1 = zhidkov_split(f1)
    s_2, r_2 = zhidkov_split(f2)
    assert np.max(np.abs(s_c.values - a * s_1.values - b * s_2.values)) < 1e-12
    assert np.max(np.abs(r_c.values - a * r_1.values - b * r_2.values)) < 1e-12


# ----------------------------------------------------------------------
# periodic traveling-wave parameters

def test_resolve_cnoidal_kdv():
    params = resolve_cnoidal(1.0, 0.8, AnalyticNonlinearity.kdv())
    bg = KdVCnoidal(1.0, 0.8)
    grid = Grid(50.0, 1024)
    nl = AnalyticNonlinearity.kdv()
    out = residual_S(bg, nl, 0.0, grid)
    scale = sobolev_norm(PhysicalField(grid, bg.profile(0.0, grid.x)), 0.0)
    assert np.max(np.abs(out.values)) <= 1e-8 * scale
    assert params.beta > 0 and params.gamma > 0


def test_resolve_dnoidal_mkdv():
    bg = MKdVDnoidal(1.0, 0.5)
    grid = Grid(50.0, 1024)
    nl = AnalyticNonlinearity.mkdv_focusing()
    out = residual_S(bg, nl, 0.0, grid)
    scale = sobolev_norm(PhysicalField(grid, bg.profile(0.0, grid.x)), 0.0)
    assert np.max(np.abs(out.values)) <= 1e-8 * scale


def test_resolve_cnoidal_small_modulus():
    params = resolve_cnoidal(1.0, 0.05, AnalyticNonlinearity.kdv())
    # near-harmonic ripple on a pedestal: tiny oscillation amplitude
    assert 0.0 < params.beta < 0.01
    bg = KdVCnoidal(1.0, 0.05)
    grid = Grid(50.0, 1024)
    out = residual_S(bg, AnalyticNonlinearity.kdv(), 0.0, grid)
    scale = sobolev_norm(PhysicalField(grid, bg.profile(0.0, grid.x)), 0.0)
    assert np.max(np.abs(out.values)) <= 1e-8 * scale


def test_resolve_rejects_wrong_nonlinearity():
    with pytest.raises(ParameterResolutionError):
        resolve_cnoidal(1.0, 0.5, AnalyticNonlinearity.exponential())


# ----------------------------------------------------------------------
# tabulated backgrounds

def test_tabulated_round_trip(tmp_path):
    xs = np.linspace(-10.0, 10.0, 801)
    data = np.tanh(xs)
    path = tmp_path / "bg.txt"
    with open(path, "w") as fh:
        fh.write("# t-dependence: static\n")
        for x, v in zip(xs, data):
            fh.write(f"{float(x)!r} {float(v)!r}\n")
    bg = TabulatedBackground.from_file(str(path))
    jet = bg.jet(0.0, np.array([0.5]))
    assert abs(jet.psi[0] - np.tanh(0.5)) < 1e-8
    assert abs(jet.psi_x[0] - (1 - np.tanh(0.5) ** 2)) < 1e-6
    assert jet.psi_t[0] == 0.0
    with pytest.raises(ValueError):
        bg.jet(0.0, np.array([11.0]))


def test_tabulated_requires_static_header(tmp_path):
    path = tmp_path / "bad.txt"
    with open(path, "w") as fh:
        fh.write("0.0 1.0\n1.0 2.0\n")
    with pytest.raises(ValueError):
        TabulatedBackground.from_file(str(path))


def test_import_leaves_scipy_fitting_unloaded():
    # scipy.interpolate and scipy.optimize are imported where a tabulated
    # background or a cnoidal fit needs them, not by `import gkdvlab`
    import subprocess
    import sys

    code = ("import sys, gkdvlab; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.interpolate', 'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"
