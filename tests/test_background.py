import os

import numpy as np
import pytest

from gkdvlab.background import (
    BACKGROUNDS,
    CnoidalParameters,
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
from gkdvlab.config import INITIALS, NONLINEARITIES, ScenarioConfig
from gkdvlab.elliptic import complete_elliptic_k, jacobi_sn_cn_dn
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

    # Psi_xxx against the fourth-order second difference of Psi_x at
    # spacing h2: its truncation error is h2^4 |Psi^(7)| / 90, below 1e-10
    # for these O(1)-steep profiles, and its rounding error is the weights'
    # sum 64/12 times the few-ulp error of Psi_x (|Psi_x| <= 4) over h2^2,
    # at most about 1e-8; both lie far inside close()'s 1e-6.
    h2 = 1e-3
    stencil2 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h2
    weights2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h2 ** 2)

    def close(a, b):
        return np.all(np.abs(a - b) <= 1e-6 * np.maximum(1.0, np.abs(b)))

    for t in rng.uniform(-1.0, 1.0, size=8):
        xs = rng.uniform(-8.0, 8.0, size=200)
        jet = bg.jet(t, xs)
        psi_stack = np.stack([bg.jet(t, xs + s).psi for s in stencil])
        psix_stack = np.stack([bg.jet(t, xs + s).psi_x for s in stencil2])
        psit_stack = np.stack([bg.jet(t + s, xs).psi for s in stencil])
        assert close(fd(psi_stack), jet.psi_x)
        assert close(weights2 @ psix_stack, jet.psi_xxx)
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
        q, d1, d3 = _cn2_derivatives(*triple, bg.kappa)
    else:
        q, d1, d3 = _dn_derivatives(*triple, bg.kappa)
    psi_x = beta * gamma * d1
    return (alpha + beta * q, -bg.c * psi_x, psi_x, beta * gamma ** 3 * d3)


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


def catalog_backgrounds(tmp_path):
    """Every catalog variant at its defaults, the table reaching x = 50."""
    out = []
    for variant, (build, params) in sorted(BACKGROUNDS.items()):
        if variant == "tabulated":
            xs = np.linspace(-50.0, 50.0, 1001)
            path = tmp_path / "psi.txt"
            np.savetxt(path, np.c_[xs, 0.1 * np.tanh(xs / 4.0)],
                       header="t-dependence: static")
            params = {"file": str(path)}
        out.append(build(**params))
    return out


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_strided_jet_is_the_full_jet_sliced(stride, tmp_path):
    # the derivatives at stride p are the stride-1 jet's [..., ::p] bit for
    # bit, Psi stays on every point; at a scalar time and on a time column
    x = Grid(50.0, 2048).x
    for bg in catalog_backgrounds(tmp_path):
        for t in (0.37, np.array([[0.0], [1e-3], [0.25]])):
            full, lean = bg.jet(t, x), bg.jet(t, x, stride)
            assert np.array_equal(lean.psi, full.psi), bg.variant
            for name in ("psi_t", "psi_x", "psi_xxx"):
                want = getattr(full, name)[..., ::stride]
                got = getattr(lean, name)
                assert got.shape == want.shape, (bg.variant, name)
                assert np.array_equal(got, want), (bg.variant, name)


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


@pytest.mark.parametrize("nl", [AnalyticNonlinearity.kdv(),
                                AnalyticNonlinearity.mkdv_focusing()],
                         ids=lambda nl: nl.label)
def test_resolve_residual_check_can_fail(nl):
    # the closed-form parameters still pass through the residual check,
    # and a tolerance below rounding makes that check reject them
    with pytest.raises(ParameterResolutionError, match="residual"):
        resolve_cnoidal(1.0, 0.8, nl, tolerance=1e-30)


@pytest.mark.parametrize("a1", [1.0, 2.5])
def test_resolve_dnoidal_needs_speed_above_linear_flux(a1):
    nl = AnalyticNonlinearity.polynomial([0.0, a1, 0.0, 1.0])
    with pytest.raises(ParameterResolutionError, match=r"c=1\.0, kappa=0\.5"):
        resolve_cnoidal(1.0, 0.5, nl)


def _lm_fit(resid, x0):
    from scipy.optimize import least_squares

    best = least_squares(resid, x0=x0, method="lm",
                         xtol=1e-15, ftol=1e-15, gtol=1e-15)
    best = least_squares(resid, x0=best.x, method="lm",
                         xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert best.success
    return best.x


def fitted_cnoidal(c, kappa):
    """Least-squares oracle: alpha + beta*cn^2(gamma y) at gamma = sqrt(c)/2."""
    nl = AnalyticNonlinearity.kdv()
    gamma = np.sqrt(c) / 2.0
    ys = np.linspace(0.0, 2.0 * complete_elliptic_k(kappa) / gamma, 257)

    def resid(params):
        alpha, beta = params
        cn2, d1, d3 = _cn2_derivatives(
            *jacobi_sn_cn_dn(gamma * ys, kappa), kappa)
        qp = beta * gamma * d1
        return -c * qp + beta * gamma ** 3 * d3 + nl.fp(alpha + beta * cn2) * qp

    alpha, beta = _lm_fit(resid, [0.5 * c, c])
    return CnoidalParameters(alpha, beta, gamma)


def fitted_dnoidal(c, kappa):
    """Least-squares oracle: beta*dn(gamma y) with beta and gamma fitted."""
    nl = AnalyticNonlinearity.mkdv_focusing()

    def resid(params):
        beta, gamma = params
        ys = np.linspace(0.0, 2.0 * complete_elliptic_k(kappa) / abs(gamma),
                         257)
        d0, d1, d3 = _dn_derivatives(
            *jacobi_sn_cn_dn(gamma * ys, kappa), kappa)
        qp = beta * gamma * d1
        return -c * qp + beta * gamma ** 3 * d3 + nl.fp(beta * d0) * qp

    beta, gamma = _lm_fit(resid, [np.sqrt(2.0 * c), np.sqrt(c)])
    return CnoidalParameters(0.0, beta, abs(gamma))


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("nl, fitted", [
    (AnalyticNonlinearity.kdv(), fitted_cnoidal),
    (AnalyticNonlinearity.mkdv_focusing(), fitted_dnoidal),
], ids=["cnoidal", "dnoidal"])
def test_closed_form_matches_least_squares_fit(nl, fitted, kappa):
    np.testing.assert_allclose(resolve_cnoidal(1.0, kappa, nl),
                               fitted(1.0, kappa), rtol=1e-13, atol=0.0)


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


@pytest.mark.parametrize("header, static", [
    ("# t-dependence: static", True),
    ("#t-dependence:static", True),
    ("# x psi\n#  t-dependence :  static  ", True),
    # a comment that merely contains the word used to pass
    ("# t-dependence: not static, time dependent", False),
    ("# static", False),
    ("# t-dependence: static after t = 1", False),
    ("# time-dependence: static", False),
])
def test_tabulated_header_is_the_declaration(tmp_path, header, static):
    path = tmp_path / "bg.txt"
    xs = np.linspace(-2.0, 2.0, 9)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for x in xs:
            fh.write(f"{float(x)!r} {float(np.tanh(x))!r}\n")
    if static:
        assert TabulatedBackground.from_file(str(path)).profile(0.0, xs)[4] \
            == pytest.approx(0.0, abs=1e-15)
    else:
        with pytest.raises(ValueError, match="t-dependence: static"):
            TabulatedBackground.from_file(str(path))


# ----------------------------------------------------------------------
# the scenario catalog

@pytest.mark.parametrize("variant", sorted(set(BACKGROUNDS) - {"tabulated"}))
def test_background_registry_builds_from_defaults(variant):
    build, defaults = BACKGROUNDS[variant]
    bg = build(**defaults)
    assert bg.variant == variant
    assert ScenarioConfig(background_variant=variant).background() == bg
    assert np.all(np.isfinite(bg.jet(0.3, np.linspace(-5.0, 5.0, 64)).psi))


def test_catalog_registries_build_from_defaults():
    grid = Grid(10.0, 64)
    for kind in sorted(set(INITIALS) - {"file"}):
        u0 = ScenarioConfig(grid_half_length=10.0, grid_points=64,
                            initial_kind=kind).initial_data()
        assert u0.grid == grid and np.all(np.isfinite(u0.values)), kind
    for kind in NONLINEARITIES:
        cfg = ScenarioConfig(nonlinearity_kind=kind,
                             nonlinearity_coefficients=(0.0, 1.0))
        nl = cfg.nonlinearity()
        assert np.isfinite(nl.f(0.5)), kind


def test_import_leaves_scipy_fitting_unloaded():
    # scipy.interpolate is imported where a tabulated background needs it,
    # not by `import gkdvlab`; the periodic backgrounds need no scipy.optimize
    import subprocess
    import sys

    periodic = ("from gkdvlab.config import ScenarioConfig; "
                "gkdvlab.KdVCnoidal(1.0, 0.8); gkdvlab.MKdVDnoidal(1.0, 0.5); "
                "ScenarioConfig.parse('[background]\\nvariant = kdv_cnoidal')"
                ".background(); ")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for build in ("", periodic):
        code = ("import sys, gkdvlab; " + build +
                "print(sorted(m for m in sys.modules if "
                "m.startswith(('scipy.interpolate', 'scipy.optimize'))))")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env=env)
        assert done.stdout.strip() == "[]", build
