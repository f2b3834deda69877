import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gkdvlab import cli, norms, spectral
from gkdvlab.background import BACKGROUNDS, MKdVKink
from gkdvlab.cli import main
from gkdvlab.config import (INITIALS, NONLINEARITIES, ConfigError,
                            ScenarioConfig)
from gkdvlab.fieldio import (read_snapshot, read_trajectory, write_snapshot,
                             write_trajectory)
from gkdvlab.norms import _envelope_weight, sobolev_norm
from gkdvlab.spectral import (Grid, PhysicalField, Trajectory, airy_propagate,
                              inverse_transform, transform)


BASE_CFG = """
[grid]
half_length = 20
points = 256

[background]
variant = zero

[nonlinearity]
kind = kdv

[solver]
dt = 1e-3
horizon = 0.05
cadence = 10

[initial]
kind = gaussian
amplitude = 0.5
width = 1.0

[diagnostics]
s = 1.0

[output]
directory = PLACEHOLDER
"""


# the [initial] lines of BASE_CFG: the zero kind takes no parameters
GAUSSIAN = "kind = gaussian\namplitude = 0.5\nwidth = 1.0"


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------------
# config

def test_config_round_trip_idempotent(tmp_path):
    cfg = ScenarioConfig.parse(BASE_CFG.replace("PLACEHOLDER", "out"))
    text = cfg.serialize()
    again = ScenarioConfig.parse(text)
    assert again.serialize() == text
    assert again.grid_points == 256
    assert again.solver.dt == 1e-3


def _reals(lo, hi):
    # hypothesis floats, and thirds of integers, which need all 17
    # significant digits of repr to survive a text round trip
    return st.one_of(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        st.integers(1, 10 ** 6).map(lambda k: lo + (hi - lo) * k / 3e6))


def _paths():
    return st.text(st.sampled_from("abz09_-./ %;#=:"), min_size=1,
                   max_size=12)


BACKGROUND_PARAMS = {
    "mkdv_kink": ("c", "sign"), "gardner_kink": ("c", "beta", "sign"),
    "kdv_cnoidal": ("c", "kappa"), "mkdv_dnoidal": ("c", "kappa"),
    "tabulated": ("file",),
}
INITIAL_PARAMS = {"gaussian": ("amplitude", "width", "center"),
                  "soliton": ("speed",), "file": ("file",)}


@st.composite
def config_texts(draw):
    """A valid scenario config, every value written as text."""
    def value(key):
        if key == "file":
            return draw(_paths())
        if key == "sign":
            return draw(st.sampled_from(["+", "-", "+1", "-1", "1"]))
        return repr(draw(_reals(-10.0, 10.0)))

    dt = draw(_reals(1e-6, 1e-2))
    cadence = draw(st.integers(1, 20))
    steps = cadence * draw(st.integers(1, 50))
    variant = draw(st.sampled_from(tuple(BACKGROUNDS)))
    kind = draw(st.sampled_from(tuple(NONLINEARITIES)))
    initial = draw(st.sampled_from(tuple(INITIALS)))
    lines = [
        "[grid]",
        f"half_length = {draw(_reals(0.5, 500.0))!r}",
        f"points = {2 ** draw(st.integers(0, 16))}",
        "[background]",
        f"variant = {variant}",
        *(f"{key} = {value(key)}" for key in BACKGROUND_PARAMS.get(variant, ())),
        "[nonlinearity]",
        f"kind = {kind}",
    ]
    if kind in ("polynomial", "series"):
        coeffs = draw(st.lists(_reals(-5.0, 5.0), min_size=1, max_size=5))
        lines.append("coefficients = " + " ".join(map(repr, coeffs)))
    lines += [
        "[solver]",
        "scheme = etdrk4",
        f"dt = {dt!r}",
        f"horizon = {steps * dt!r}",
        f"cadence = {cadence}",
        f"viscosity = {draw(_reals(0.0, 1.0))!r}",
        f"boundary_buffer = {draw(_reals(1e-3, 0.499))!r}",
        f"boundary_threshold = {draw(_reals(1e-9, 1.0))!r}",
        f"tail_threshold = {draw(_reals(1e-12, 1.0))!r}",
        "[initial]",
        f"kind = {initial}",
        *(f"{key} = {value(key)}" for key in INITIAL_PARAMS.get(initial, ())),
        "[diagnostics]",
        f"s = {draw(_reals(-2.0, 3.0))!r}",
        f"omega_eps = {draw(_reals(0.0, 1.0))!r}",
        "[output]",
        f"directory = {draw(_paths())}",
    ]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=config_texts())
def test_config_text_round_trip(text):
    cfg = ScenarioConfig.parse(text)
    once = cfg.serialize()
    assert ScenarioConfig.parse(once) == cfg
    assert ScenarioConfig.parse(once).serialize() == once


def test_config_percent_sign_is_literal():
    # found by the round trip: under interpolation, one '%' raised an
    # uncaught configparser error and a parsed '%%' could not be written
    cfg = ScenarioConfig.parse("[output]\ndirectory = runs/50%_a\n")
    assert cfg.output_directory == "runs/50%_a"
    assert "directory = runs/50%_a" in cfg.serialize()


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = ScenarioConfig.parse(text)
    assert cfg.background_variant == "mkdv_kink"
    assert cfg.nonlinearity_kind == "mkdv_defocusing"
    assert cfg.solver.dt == 2e-4 and cfg.initial_kind == "gaussian"


def test_config_with_seed_is_rejected(tmp_path, capsys):
    # [output] seed was never read, and was accepted and ignored; the
    # retired [solver] dealias and [nonlinearity] order changed no result
    base = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    for section, line in (("output", "seed = 7"), ("solver", "dealias = auto"),
                          ("nonlinearity", "order = 30")):
        text = base.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = f"[{section}] {line.split()[0]}"
        with pytest.raises(ConfigError, match=re.escape(f"unknown key {key}")):
            ScenarioConfig.parse(text)
        assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_removed_jobs_option_and_ifrk4_scheme_exit_2(tmp_path, capsys):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    cfg = write_cfg(tmp_path, text)
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", cfg, "--jobs", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, text.replace("[solver]",
                                           "[solver]\nscheme = ifrk4"))
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("config error: invalid solver "
                                       "settings: unknown scheme 'ifrk4'\n")
    assert not (tmp_path / "out").exists()


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        ScenarioConfig.parse("[background]\nvariant = wavelet\n")


def test_config_rejects_bad_solver_values():
    with pytest.raises(ConfigError):
        ScenarioConfig.parse("[solver]\ndt = -1\n")


@pytest.mark.parametrize("key, value", [
    # an infinite horizon crashed on the step count; a NaN step or horizon
    # failed converting it; a NaN or infinite viscosity and a NaN tail
    # threshold exited 3 as an unstable run; a NaN boundary threshold
    # switched the contamination monitor off, a negative one aborted the
    # run at its first step
    ("horizon", "inf"), ("horizon", "nan"), ("dt", "nan"), ("dt", "inf"),
    ("viscosity", "nan"), ("viscosity", "inf"), ("tail_threshold", "nan"),
    ("boundary_threshold", "nan"), ("boundary_threshold", "-1e-3"),
    # a step that does not divide the horizon (0.05 / 3e-3) and a cadence
    # that does not divide the step count (3 of 50) wrote run_metadata.txt
    # and exited 2 naming no key; a subnormal step overflowed the step
    # count in a traceback
    ("dt", "3e-3"), ("cadence", "3"), ("dt", "1e-320"),
    # [diagnostics]: s = nan ran to the horizon and then failed on its
    # report, after run_metadata.txt; omega_eps = -1 or nan ran with unit
    # weights
    ("s", "nan"), ("s", "inf"), ("omega_eps", "nan"), ("omega_eps", "-1"),
    ("omega_eps", "inf"),
])
def test_run_rejects_invalid_solver_settings(tmp_path, capsys, key, value):
    section = "diagnostics" if key in ("s", "omega_eps") else "solver"
    text = "\n".join(line for line in BASE_CFG.splitlines()
                     if not line.startswith(f"{key} ="))
    text = text.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        f"[{section}]", f"[{section}]\n{key} = {value}")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: invalid solver settings: "
                          if section == "solver" else
                          f"config error: [diagnostics] {key} must be finite")
    assert not (tmp_path / "out" / "run_metadata.txt").exists()


README_SERIALIZED = """\
[grid]
half_length = 50.0
points = 1024

[background]
variant = mkdv_kink
c = 2.0
sign = 1

[nonlinearity]
kind = mkdv_defocusing

[solver]
scheme = etdrk4
dt = 0.0002
horizon = 0.2
viscosity = 0.0
boundary_buffer = 0.1
boundary_threshold = 0.001
tail_threshold = 1e-06
cadence = 500

[initial]
kind = gaussian
amplitude = 1.0
width = 1.0
center = 0.0

[diagnostics]
s = 1.0
omega_eps = 0.0

[output]
directory = out/kink_run

"""


def test_readme_python_blocks_run(capsys):
    # in order and in one namespace, as a reader would paste them
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = [part.split("```", 1)[0]
                  for part in fh.read().split("```python\n")[1:]]
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, readme, "exec"), namespace)
    assert "GrowthVerdict" in capsys.readouterr().out


def test_readme_example_serializes_to_pinned_bytes():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    assert ScenarioConfig.parse(text).serialize() == README_SERIALIZED


def test_readme_example_config_runs(tmp_path, capsys):
    # the example reads as a working scenario, so it must complete: at
    # horizon 1.0 it exited 3 at step 2086, with 1e-3 of the mass in the
    # boundary buffer
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    text = text.replace("directory = out/kink_run",
                        f"directory = {tmp_path / 'kink_run'}")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 0
    written = (tmp_path / "kink_run" / "verdicts.txt").read_text()
    lines = written.splitlines()
    assert len(lines) == 2 and all(": PASS " in line for line in lines)
    # the lines `run` prints are verdicts.txt byte for byte: one format
    assert capsys.readouterr().out == (
        f"{written}run complete: outputs in {tmp_path / 'kink_run'}\n")


@pytest.mark.parametrize("text, named", [
    # a misspelt key used to parse, and the run went inviscid
    ("[solver]\nviscocity = 0.5\n", "[solver] viscocity"),
    # a misspelt section used to leave dt at its default
    ("[solvr]\ndt = 5\n", "[solvr]"),
    ("[output]\ndirectory = out\nsead = 7\n", "[output] sead"),
    # catalog parameters are the chosen entry's: kapa used to run kappa = 0.8
    ("[background]\nvariant = kdv_cnoidal\nkapa = 0.3\n", "[background] kapa"),
    ("[background]\nvariant = mkdv_kink\nkappa = 0.3\n", "[background] kappa"),
    ("[initial]\nkind = soliton\namplitude = 2\n", "[initial] amplitude"),
    ("[initial]\nkind = zero\nwidth = 1\n", "[initial] width"),
    # beta belongs to [background] only for the gardner nonlinearity
    ("[background]\nvariant = zero\nbeta = 2\n", "[background] beta"),
    ("[nonlinearity]\nkind = kdv\nbeta = 2\n", "[nonlinearity] beta"),
    # only the polynomial and series kinds read coefficients; the others
    # ran with the key echoed into run_metadata.txt and ignored
    ("[nonlinearity]\nkind = sine\ncoefficients = 0 0 5\n",
     "[nonlinearity] coefficients"),
    # its keys used to reach every section, and were reported in the first
    ("[DEFAULT]\ndt = 5\n[grid]\npoints = 64\n", "[DEFAULT]"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, text, named):
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.parse(text)
    assert named in str(info.value)
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    assert named in capsys.readouterr().err


def test_config_gardner_beta_lives_in_background():
    cfg = ScenarioConfig.parse("[background]\nvariant = mkdv_kink\nbeta = 2\n"
                               "[nonlinearity]\nkind = gardner\n")
    assert cfg.nonlinearity().coeffs == (0.0, 0.0, 1.0, -2.0)
    assert cfg.background() == MKdVKink(c=1.0)
    cfg = ScenarioConfig.parse("[background]\nvariant = kdv_cnoidal\n"
                               "kappa = 0.3\n")
    assert cfg.background().kappa == 0.3


@pytest.mark.parametrize("sign, value", [
    ("+", 1), ("+1", 1), ("1", 1), ("-", -1), ("-1", -1),
    ("0", None), ("2", None), ("yes", None), ("--1", None)])
def test_config_sign_spellings(sign, value):
    text = f"[background]\nvariant = mkdv_kink\nsign = {sign}\n"
    if value is None:
        # these used to read as -1
        with pytest.raises(ConfigError, match=r"\[background\] sign"):
            ScenarioConfig.parse(text)
    else:
        assert ScenarioConfig.parse(text).background().sign == value


@pytest.mark.parametrize("text, named", [
    ("[background]\nvariant = mkdv_kink\nc = abc\n", "[background] c"),
    ("[initial]\nkind = gaussian\nwidth = wide\n", "[initial] width"),
    ("[grid]\npoints = 1024.5\n", "[grid] points"),
    ("[nonlinearity]\nkind = series\ncoefficients = 1 x\n",
     "[nonlinearity] coefficients"),
])
def test_config_bad_value_names_its_key(tmp_path, capsys, text, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        ScenarioConfig.parse(text)
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("text, build, named", [
    ("[background]\nvariant = tabulated\n", ScenarioConfig.background,
     "[background] file"),
    ("[initial]\nkind = file\n", ScenarioConfig.initial_data,
     "[initial] file"),
])
def test_config_required_parameter_is_named(text, build, named):
    with pytest.raises(ConfigError, match=re.escape(f"{named} is required")):
        build(ScenarioConfig.parse(text))


def test_run_missing_tabulated_file_names_its_key(tmp_path, capsys):
    # a bare FileNotFoundError used to reach stderr without the key
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "variant = zero",
        f"variant = tabulated\nfile = {tmp_path / 'missing.txt'}")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "[background] file" in err


def _run_with(tmp_path, background, nonlinearity="kind = kdv"):
    """main(["run"]) on BASE_CFG with these [background] and [nonlinearity]
    lines."""
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "variant = zero", background).replace("kind = kdv", nonlinearity)
    return main(["run", "--config", write_cfg(tmp_path, text)])


def test_run_rejects_an_s_that_overflows_the_weights(tmp_path, capsys,
                                                     recwarn):
    # s = 300 on Grid(20, 256) ran to the horizon after numpy overflow
    # warnings, then exited 2 on a non-finite report, naming no key
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "[diagnostics]\ns = 1.0", "[diagnostics]\ns = 300")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "config error: [diagnostics] s = 300.0 overflows the weights on this "
        "grid: weights must be finite\n")
    assert not (tmp_path / "out").exists()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("background, nonlinearity, section", [
    # a NaN or infinite periodic-wave speed, an infinite Gardner beta and a
    # non-finite coefficient ended in a NonFiniteResultError traceback (an
    # infinite beta under kdv ran, and aborted on its tail); a NaN Gardner
    # speed and a non-finite kink speed exited 2 naming no parameter
    ("variant = kdv_cnoidal\nc = nan", "kind = kdv", "background"),
    ("variant = kdv_cnoidal\nc = inf", "kind = kdv", "background"),
    ("variant = mkdv_dnoidal\nc = nan", "kind = mkdv_focusing", "background"),
    ("variant = mkdv_dnoidal\nc = inf", "kind = mkdv_focusing", "background"),
    ("variant = gardner_kink\nbeta = inf", "kind = gardner", "background"),
    ("variant = gardner_kink\nbeta = inf", "kind = kdv", "background"),
    ("variant = gardner_kink\nc = nan", "kind = gardner", "background"),
    ("variant = mkdv_kink\nc = nan", "kind = mkdv_defocusing", "background"),
    ("variant = mkdv_kink\nc = inf", "kind = mkdv_defocusing", "background"),
    ("variant = zero", "kind = polynomial\ncoefficients = 0 0 nan",
     "nonlinearity"),
    ("variant = zero", "kind = series\ncoefficients = 0 0 inf",
     "nonlinearity"),
], ids=lambda lines: lines.replace("variant = ", "").replace(
    "kind = ", "").replace(" = ", "=").replace("\n", "-"))
def test_run_rejects_non_finite_parameters(tmp_path, capsys, recwarn,
                                           background, nonlinearity, section):
    assert _run_with(tmp_path, background, nonlinearity) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: invalid {section}: ")
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("variant, nonlinearity, c", [
    # a NaN residual (1e150, 1e200) passed the check, and the run exited 3
    # at set-up; a failed check (1e100) ended in a traceback, as did the
    # OverflowError of a wave that passed it (1e300); at 1e308 f'(q)
    # overflowed before the check, a NonFiniteResultError traceback
    ("kdv_cnoidal", "kdv", "1e100"), ("kdv_cnoidal", "kdv", "1e150"),
    ("kdv_cnoidal", "kdv", "1e200"), ("kdv_cnoidal", "kdv", "1e300"),
    ("kdv_cnoidal", "kdv", "1e308"),
    ("mkdv_dnoidal", "mkdv_focusing", "1e150"),
    ("mkdv_dnoidal", "mkdv_focusing", "1e300"),
    ("mkdv_dnoidal", "mkdv_focusing", "1e308"),
])
def test_run_rejects_a_periodic_wave_off_its_residual(tmp_path, capsys,
                                                      recwarn, variant,
                                                      nonlinearity, c):
    assert _run_with(tmp_path, f"variant = {variant}\nc = {c}",
                     f"kind = {nonlinearity}") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: invalid background: no admissible "
                          f"parameters for c={float(c)!r}")
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("rows, named", [
    # one row, one column and the header alone indexed a 1-d table (an
    # IndexError traceback); a third column was ignored
    (["0.0 1.0"], "`x` must contain at least 2 elements"),
    ([f"{float(x)!r}" for x in np.linspace(-20.0, 20.0, 81)],
     "two columns (x, psi), got shape (81, 1)"),
    ([], "two columns (x, psi), got shape (0, 1)"),
    ([f"{float(x)!r} 0.0 7.0" for x in np.linspace(-20.0, 20.0, 81)],
     "two columns (x, psi), got shape (81, 3)"),
], ids=["one-row", "one-column", "header-only", "three-columns"])
def test_run_rejects_a_table_of_another_shape(tmp_path, capsys, recwarn,
                                              rows, named):
    table = tmp_path / "psi.txt"
    table.write_text("\n".join(["# t-dependence: static", *rows, ""]))
    assert _run_with(tmp_path, f"variant = tabulated\nfile = {table}") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: invalid background: ")
    assert named in err
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("initial, named", [
    # a NaN amplitude exited 2 naming no key, a zero width and a negative
    # speed did so after numpy warnings, and an infinite center ran on a
    # zero field
    ("kind = gaussian\namplitude = nan", "amplitude must be finite, got nan"),
    ("kind = gaussian\nwidth = 0", "width must be non-zero, got 0.0"),
    ("kind = gaussian\nwidth = -inf", "width must be finite, got -inf"),
    ("kind = gaussian\ncenter = inf", "center must be finite, got inf"),
    ("kind = soliton\nspeed = -1",
     "speed must be finite and non-negative, got -1.0"),
    ("kind = soliton\nspeed = nan",
     "speed must be finite and non-negative, got nan"),
    # 1.5 * speed overflowed: numpy warnings, then an exit 2 naming no key
    ("kind = soliton\nspeed = 1.2e308",
     "speed = 1.2e+308 gives a non-finite profile"),
], ids=["amplitude-nan", "width-0", "width-inf", "center-inf", "speed-neg",
        "speed-nan", "speed-1.2e308"])
def test_run_rejects_invalid_initial_parameters(tmp_path, capsys, recwarn,
                                                initial, named):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        GAUSSIAN, initial)
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"config error: invalid initial data: [initial] {named}\n")
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("kind, params", [
    ("soliton", {"speed": 1000.0}),     # cosh and its square overflow
    ("gaussian", {"center": 1e200}),    # the square overflows
    ("gaussian", {"width": 1e-300}),
], ids=["speed-1000", "center-1e200", "width-1e-300"])
def test_initial_profiles_take_their_limit_past_the_float_range(kind,
                                                                params):
    # each printed numpy overflow warnings; the limit, 0, was right
    grid = Grid(50.0, 1024)
    u0 = ScenarioConfig(initial_kind=kind, initial_params=params
                        ).initial_data().values
    far = np.abs(grid.x) >= 45.0
    assert np.all(u0[far] == 0.0)
    if kind == "soliton":           # the peak, 1.5 * speed, at x = 0
        assert u0.max() == u0[grid.n // 2] == 1500.0
    elif "width" in params:         # a spike of the amplitude at x = 0
        assert np.count_nonzero(u0) == 1 and u0[grid.n // 2] == 1.0
    else:
        assert not u0.any()


def test_run_keeps_a_negative_width_and_a_zero_speed(tmp_path):
    # width -1 is the profile of width 1, and speed 0 is zero data
    stored = {}
    for name, initial in (("plus", GAUSSIAN),
                          ("minus", GAUSSIAN.replace("1.0", "-1.0")),
                          ("still", "kind = soliton\nspeed = 0"),
                          ("zero", "kind = zero")):
        text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / name)).replace(
            GAUSSIAN, initial)
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--quiet"]) == 0
        stored[name] = (tmp_path / name / "trajectory" /
                        "samples.f64").read_bytes()
    assert stored["plus"] == stored["minus"]
    assert stored["still"] == stored["zero"]


def test_run_stacked_initial_file_names_it(tmp_path, capsys):
    # without the check, a stacked snapshot would reach `step` as a (2, n)
    # initial field
    snap = str(tmp_path / "stack.f64")
    write_snapshot(snap, PhysicalField(Grid(20.0, 256), np.zeros((2, 256))),
                   0.0)
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        GAUSSIAN, f"kind = file\nfile = {snap}")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: invalid initial data file: "
                          f"snapshot {snap}: a stack of 2 fields")


# ----------------------------------------------------------------------
# run

def test_run_polynomial_without_coefficients_is_the_zero_flux(tmp_path):
    # no coefficients indexed a Taylor table of the empty list (exit 1);
    # it is the zero polynomial, the run of `coefficients = 0`
    outputs = []
    for name, lines in (("none", "kind = polynomial"),
                        ("zero", "kind = polynomial\ncoefficients = 0")):
        text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / name)).replace(
            "half_length = 20\npoints = 256", "half_length = 50\npoints = 1024"
        ).replace("variant = zero", "variant = synthetic").replace(
            "kind = kdv", lines)
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--quiet"]) == 0
        outputs.append([(tmp_path / name / part).read_bytes() for part in (
            "diagnostics.csv", "verdicts.txt", "trajectory/samples.f64")])
    assert outputs[0] == outputs[1]


def test_run_zero_scenario(tmp_path, capsys):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace(GAUSSIAN, "kind = zero")
    status = main(["run", "--config", write_cfg(tmp_path, text), "--quiet"])
    assert status == 0
    rows = open(tmp_path / "out" / "diagnostics.csv").read().splitlines()
    data = np.loadtxt(rows[1:], delimiter=",")
    assert np.max(np.abs(data[:, 1:])) == 0.0


def test_run_kink_scenario_verdicts(tmp_path):
    text = """
[grid]
half_length = 50
points = 1024

[background]
variant = mkdv_kink
c = 2.0
sign = +

[nonlinearity]
kind = mkdv_defocusing

[solver]
dt = 5e-4
horizon = 0.05
cadence = 20

[initial]
kind = zero

[output]
directory = OUT
"""
    text = text.replace("OUT", str(tmp_path / "kink"))
    status = main(["run", "--config", write_cfg(tmp_path, text), "--quiet"])
    assert status == 0
    verdicts = open(tmp_path / "kink" / "verdicts.txt").read()
    assert "background-exactness: PASS" in verdicts
    assert "zero-perturbation-persistence: PASS" in verdicts
    traj = read_trajectory(str(tmp_path / "kink" / "trajectory"))
    assert len(traj) == 6


def test_run_unresolved_grid_fails_cleanly(tmp_path):
    text = """
[grid]
half_length = 50
points = 64

[background]
variant = mkdv_kink
c = 64.0

[nonlinearity]
kind = mkdv_defocusing

[solver]
dt = 1e-3
horizon = 0.01
cadence = 10

[initial]
kind = zero

[output]
directory = OUT
"""
    text = text.replace("OUT", str(tmp_path / "bad"))
    status = main(["run", "--config", write_cfg(tmp_path, text), "--quiet"])
    assert status == 3


@pytest.mark.parametrize("background, solver_lines, tail", [
    ("variant = mkdv_kink\nc = 2.0", "tail_threshold = 1e-3", "8.98e-04"),
    ("variant = synthetic", "tail_threshold = 1e-2\nboundary_threshold = 1.0",
     "2.20e-03"),
], ids=["kink-under-kdv", "synthetic"])
def test_run_refuses_a_background_unresolved_at_the_floor(
        tmp_path, capsys, monkeypatch, background, solver_lines, tail):
    # the background passed the run's own tail threshold, so the run went
    # to the horizon and then exited 2 on the growth verdict's 1e-10 floor
    # (only exact backgrounds were held to it at t = 0); now every run is,
    # before its first step
    monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: pytest.fail(
        "the run stepped"))
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "half_length = 20", "half_length = 50").replace(
        "variant = zero", background).replace(
        "cadence = 10", f"cadence = 10\n{solver_lines}")
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 3
    assert capsys.readouterr().out == (
        f"unresolved field: background derivative: spectral tail {tail} "
        "exceeds threshold 1.00e-10; grid does not resolve the background\n")
    assert os.listdir(tmp_path / "out") == ["run_metadata.txt"]


def test_run_overflow_exits_instability(tmp_path, capfd):
    # a fresh process, whose numpy warnings would reach stderr unfiltered:
    # the overflow is reported by exit status 3 alone
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace("amplitude = 0.5", "amplitude = 1e160")
    text = text.replace("cadence = 10", "cadence = 10\ntail_threshold = 1.0")
    code = "import sys; from gkdvlab.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, "run", "--config",
                           write_cfg(tmp_path, text), "--quiet"], env=env)
    assert done.returncode == 3
    assert "RuntimeWarning" not in capfd.readouterr().err


def test_run_overflowing_background_forcing_exits_instability(tmp_path,
                                                              capsys,
                                                              recwarn):
    # f'(800) = exp(800): the set-up check raised NonFiniteResultError, a
    # traceback after numpy's overflow warning
    table = tmp_path / "psi.txt"
    table.write_text("# t-dependence: static\n" + "".join(
        f"{float(x)!r} 800.0\n" for x in np.linspace(-20.0, 20.0, 81)))
    assert _run_with(tmp_path, f"variant = tabulated\nfile = {table}",
                     "kind = exponential") == 3
    out, err = capsys.readouterr()
    assert out == ("unresolved or unstable scenario: non-finite background "
                   "forcing\n")
    assert err == ""
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("background, nonlinearity", [
    # only the product f'(Psi) Psi_x overflows: e^Psi <= 1.65e308 while
    # e^Psi Psi_x reaches about 2e308, and the Gardner kink at beta =
    # 1e-300 overflows in the exactness verdict `run` takes first; the
    # infinite S was wrapped in a field, exit 2 naming nothing, the latter
    # after numpy's overflow warnings
    ("variant = tabulated\nfile = TABLE", "kind = exponential"),
    ("variant = gardner_kink\nbeta = 1e-300", "kind = gardner"),
], ids=["tabulated-exponential", "gardner-exactness"])
def test_run_overflowing_forcing_product_exits_instability(
        tmp_path, capsys, recwarn, background, nonlinearity):
    table = tmp_path / "psi.txt"
    xs = np.linspace(-60.0, 60.0, 24001)
    np.savetxt(table, np.c_[xs, 709.2 + 0.5 * np.tanh(4.0 * xs)],
               header="t-dependence: static")
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "half_length = 20\npoints = 256", "half_length = 50\npoints = 2048"
        ).replace("dt = 1e-3\nhorizon = 0.05", "dt = 1e-4\nhorizon = 1e-3"
        ).replace("variant = zero", background.replace("TABLE", str(table))
        ).replace("kind = kdv", nonlinearity)
    assert main(["run", "--config", write_cfg(tmp_path, text)]) == 3
    out, err = capsys.readouterr()
    assert out == ("unresolved or unstable scenario: non-finite background "
                   "forcing\n")
    assert err == ""
    assert [str(w.message) for w in recwarn] == []


def test_run_nan_boundary_fraction_exits_instability(tmp_path, recwarn):
    # the boundary fraction of overflowing data, NaN for three bumps and
    # finite/inf = 0 for one, used to pass the monitor, and the run exited
    # 2 on a non-finite report, after numpy's overflow warnings, instead
    grid = Grid(50.0, 1024)
    snap = str(tmp_path / "u0.f64")
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        GAUSSIAN, f"kind = file\nfile = {snap}").replace(
        "half_length = 20\npoints = 256", "half_length = 50\npoints = 1024"
        ).replace("kind = kdv", "kind = sine").replace(
        "horizon = 0.05", "horizon = 0.01")
    for centres in ((0.0, 50.0, -50.0), (0.0,)):
        write_snapshot(snap, PhysicalField(grid, 2e154 * sum(
            np.exp(-(grid.x + c) ** 2) for c in centres)), 0.0)
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--quiet"]) == 3
    assert [str(w.message) for w in recwarn] == []


def test_run_config_error_exit_code(tmp_path):
    status = main(["run", "--config",
                   write_cfg(tmp_path, "[background]\nvariant = bogus\n")])
    assert status == 2


def test_run_missing_config_exit_code(tmp_path):
    status = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert status == 2


# ----------------------------------------------------------------------
# split

def test_split_command(tmp_path, capsys):
    grid = Grid(40.0, 1024)
    field = PhysicalField.sample(grid, np.tanh)
    snap = str(tmp_path / "field.f64")
    write_snapshot(snap, field, 0.0)
    prefix = str(tmp_path / "parts")
    status = main(["split", "--input", snap, "--output-prefix", prefix])
    assert status == 0
    printed = capsys.readouterr().out
    assert "sup smooth part" in printed
    sup = float(printed.split("sup smooth part =")[1].split()[0])
    assert sup <= 1.0 + 1e-12
    smooth, _ = read_snapshot(prefix + "_smooth.f64")
    rem, _ = read_snapshot(prefix + "_remainder.f64")
    recon = smooth.values + rem.values
    assert np.max(np.abs(recon - field.values)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_split_rejects_non_finite_s(tmp_path, capsys, value):
    # it used to write both parts and print H^nan (or H^inf) remainder
    snap = str(tmp_path / "field.f64")
    write_snapshot(snap, PhysicalField.sample(Grid(40.0, 64), np.tanh), 0.0)
    prefix = str(tmp_path / "parts")
    assert main(["split", "--input", snap, "--output-prefix", prefix,
                 f"--s={value}"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --s must be finite")
    assert not os.path.exists(prefix + "_smooth.f64")


def test_split_rejects_a_stacked_snapshot(tmp_path, capsys):
    snap = str(tmp_path / "stack.f64")
    write_snapshot(snap, PhysicalField(Grid(40.0, 64), np.zeros((3, 64))), 0.0)
    assert main(["split", "--input", snap, "--output-prefix",
                 str(tmp_path / "parts")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: snapshot {snap}: a stack of 3 fields, "
                   "not one field\n")
    assert not os.path.exists(str(tmp_path / "parts_smooth.f64"))


def test_run_batch_jobs(tmp_path):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "ignored"))
    text = text.replace(GAUSSIAN, "kind = zero")
    cfg_a = write_cfg(tmp_path, text, "a.cfg")
    cfg_b = write_cfg(tmp_path, text, "b.cfg")
    status = main(["run", "--config", cfg_a, cfg_b,
                   "--output", str(tmp_path / "batch"), "--quiet"])
    assert status == 0
    assert (tmp_path / "batch" / "scenario00" / "diagnostics.csv").exists()
    assert (tmp_path / "batch" / "scenario01" / "diagnostics.csv").exists()


def test_catalog_lists_variants(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "mkdv_kink" in out and "synthetic" in out and "gardner_kink" in out
    lines = {line.split()[0]: line for line in out.splitlines()
             if line.startswith("  ")}
    for variant, params in BACKGROUND_PARAMS.items():
        assert all(name in lines[variant] for name in params), variant
    for kind, params in INITIAL_PARAMS.items():
        assert all(name in lines[kind] for name in params), kind
    assert set(BACKGROUNDS) | set(NONLINEARITIES) <= set(lines)
    # each listed parameter carries its registry default
    assert "kappa = 0.8" in lines["kdv_cnoidal"]
    assert "kappa = 0.5" in lines["mkdv_dnoidal"]
    assert "amplitude = 1.0" in lines["gaussian"]


# ----------------------------------------------------------------------
# norms and study

def test_norms_command(tmp_path):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "src"))
    assert main(["run", "--config", write_cfg(tmp_path, text), "--quiet"]) == 0
    out_csv = str(tmp_path / "norms.csv")
    status = main(["norms", "--trajectory", str(tmp_path / "src" / "trajectory"),
                   "--s", "1.0", "--b", "1.0", "--output", out_csv])
    assert status == 0
    rows = open(out_csv).read().splitlines()
    assert rows[0].startswith("name,s,b,value")
    table = {}
    for row in rows[1:]:
        name, s, b, value, _, _ = row.split(",")
        table[(name, b)] = float(value)
    # the b = 0 space-time norm collapses to the time-integrated H^s norm
    assert abs(table[("bourgain", "0.0")] - table[("l2_t_sobolev", "")]) \
        <= 1e-8 * table[("l2_t_sobolev", "")]


def test_norms_output_file_is_closed(tmp_path, monkeypatch, capsys):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "src"))
    assert main(["run", "--config", write_cfg(tmp_path, text), "--quiet"]) == 0
    opened = []

    def spy_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    args = ["norms", "--trajectory", str(tmp_path / "src" / "trajectory"),
            "--s", "1.0", "--b", "1.0", "--output"]
    assert main(args + [str(tmp_path / "norms.csv")]) == 0
    assert len(opened) == 1 and opened[0].closed
    # "-" writes to stdout and leaves it open
    capsys.readouterr()
    assert main(args + ["-"]) == 0
    assert len(opened) == 1 and not sys.stdout.closed
    assert capsys.readouterr().out.startswith("name,s,b,value")


@pytest.mark.parametrize("dt", [0.04, 0.1])
def test_norms_extends_coarse_trajectory(tmp_path, dt):
    # the stored window does not decay at its ends, and at a coarse dt the
    # cutoff is not negligible at t = 2 - dt: the extension must reach
    # further so that the space-time norms accept it
    grid = Grid(20.0, 64)
    fields = [PhysicalField.sample(grid, lambda x: (1 + k) * np.exp(-x ** 2))
              for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(grid, 0.0, dt, fields))
    out_csv = str(tmp_path / "norms.csv")
    assert main(["norms", "--trajectory", directory, "--output", out_csv]) == 0
    with open(out_csv) as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) == 5
    assert all(np.isfinite(float(row.split(",")[3])) for row in rows)


# the five values of `gkdvlab norms` on two stored trajectories, each at
# --omega-eps 0 and 0.5
NORMS_PINNED = {
    ("open", "0"): [1.5832334870861595, 1.1216995567728412,
                    1.4370910709242963, 4.9427315493130060,
                    1.1216995567728412],
    ("open", "0.5"): [1.5832334870861595, 1.1216995567728412,
                      1.7526362615175743, 4.9427315493130060,
                      1.1216995567728412],
    ("closed", "0"): [1.3029399867961680, 0.67283531591757439,
                      1.1900369568374367, 2.1892247669074330,
                      0.67283531591757439],
    ("closed", "0.5"): [1.3029399867961680, 0.67283531591757439,
                        1.3851856021994808, 2.1892247669074330,
                        0.67283531591757439],
}


def airy_window(tmp_path, shape):
    """The stored "open" or "closed" window of NORMS_PINNED: the free Airy
    evolution of exp(-x^2) on the benchmark's grid and lattice (n = 128,
    257 samples over [0, 0.5]), which does not decay, so the space-time
    rows read its compact extension; or the same fields times
    4k(m-k)/m^2, zero at both ends, read as stored."""
    grid, m = Grid(20.0, 128), 256
    spec = transform(PhysicalField.sample(grid, lambda x: np.exp(-x ** 2)))
    fields = [inverse_transform(airy_propagate(spec, 0.5 * k / m))
              for k in range(m + 1)]
    if shape == "closed":
        fields = [f * (4.0 * k * (m - k) / m ** 2)
                  for k, f in enumerate(fields)]
    directory = str(tmp_path / shape)
    write_trajectory(directory, Trajectory(grid, 0.0, 0.5 / m, fields))
    return directory


@pytest.mark.parametrize("shape, eps", sorted(NORMS_PINNED))
def test_norms_values_are_pinned(tmp_path, capsys, shape, eps):
    # Every value is a square root of a sum of positive terms: a random
    # +-1 ulp change in every stored sample moves each by at most 1 ulp
    # (2.2e-16), so FFT builds that round a few ulps apart stay far below
    # 1e-12, while a changed formula, e.g. a window one sample longer
    # (1/2048), moves a value by 1e-4 or more
    directory = airy_window(tmp_path, shape)
    s, b = ("1.0", "1.0") if shape == "open" else ("0.5", "0.7")
    assert main(["norms", "--trajectory", directory, "--s", s, "--b", b,
                 "--omega-eps", eps, "--output", "-"]) == 0
    rows = [row.split(",") for row in
            capsys.readouterr().out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        ["sup_t_sobolev", s, ""], ["l2_t_sobolev", s, ""],
        ["sup_t_enveloped", s, ""], ["bourgain", s, b],
        ["bourgain", s, "0.0"]]
    got = [float(row[3]) for row in rows]
    want = NORMS_PINNED[shape, eps]
    assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want)), got


def test_norms_takes_l2_sobolev_once(tmp_path, monkeypatch):
    # the sup_t and l2_t rows read one H^s series, one batched call with one
    # norm per stored field, and the b = 0 row is the l2_t row, adding none
    grid = Grid(20.0, 64)
    fields = [PhysicalField.sample(grid, lambda x: (1 + k) * np.exp(-x ** 2))
              for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(grid, 0.0, 0.01, fields))
    stored = read_trajectory(directory)
    calls = []

    def spy(f, s):
        calls.append((f.coeffs.shape, s))
        return sobolev_norm(f, s)

    for module in (cli, norms):
        monkeypatch.setattr(module, "sobolev_norm", spy)
    out_csv = str(tmp_path / "norms.csv")
    assert main(["norms", "--trajectory", directory, "--output", out_csv]) == 0
    with open(out_csv) as fh:
        rows = [row.split(",") for row in fh.read().splitlines()[1:]]
    assert calls == [((3, 33), 1.0)]
    # the former trajectory helpers' expressions, as the oracle
    h_s = sobolev_norm(stored.spectra(), 1.0)
    l2_t = float(np.sqrt(stored.dt * np.sum([v ** 2 for v in h_s.tolist()])))
    assert rows[0][0] == "sup_t_sobolev"
    assert rows[0][3] == f"{float(np.max(h_s)):.16e}"
    assert rows[1][0] == "l2_t_sobolev"
    assert rows[1][3] == f"{l2_t:.16e}"
    assert rows[4][:4] == ["bourgain", "1.0", "0.0", rows[1][3]]


def test_norms_b0_row_is_l2_t_on_a_decaying_window(tmp_path, capsys):
    # the "closed" window decays at its ends; at s = 1 bourgain_norm at
    # b = 0 prints ...691 where the l2_t_sobolev row prints ...680, and the
    # b = 0 row is that row on every window
    directory = airy_window(tmp_path, "closed")
    assert main(["norms", "--trajectory", directory, "--s", "1.0",
                 "--output", "-"]) == 0
    rows = [row.split(",") for row in
            capsys.readouterr().out.splitlines()[1:]]
    assert rows[1][:3] == ["l2_t_sobolev", "1.0", ""]
    assert rows[4][:4] == ["bourgain", "1.0", "0.0", rows[1][3]]


def test_norms_one_transform_for_the_hs_rows(tmp_path, monkeypatch):
    # the sup_t_sobolev, l2_t_sobolev and sup_t_enveloped rows read one
    # batched transform of the stored fields, and print what the per-field
    # formulas print; the window decays, so nothing else is transformed
    grid = Grid(20.0, 128)
    spec = transform(PhysicalField.sample(
        grid, lambda x: np.exp(-((x - 0.3) / 1.2) ** 2)))
    fields = [inverse_transform(airy_propagate(spec, 0.5 * k / 32))
              * (k * (32 - k) / 256.0) for k in range(33)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(grid, 0.0, 0.5 / 32, fields))
    stored = read_trajectory(directory)
    s = 0.8

    def per_field_hs(f):
        weights = (1.0 + grid.xi ** 2) ** s * grid.multiplicity
        return float(np.sqrt(2.0 * grid.half_length * np.sum(
            weights * np.abs(transform(f).coeffs) ** 2)))

    def per_field_enveloped(f):
        power = np.abs(transform(f).coeffs) ** 2
        return float(np.sqrt(np.sum(_envelope_weight(grid, s, 0.5) * power)))

    fields = [PhysicalField(grid, row) for row in stored.samples.values]
    h_s = [per_field_hs(f) for f in fields]
    want = [("sup_t_sobolev", max(h_s)),
            ("l2_t_sobolev",
             float(np.sqrt(stored.dt * np.sum([v ** 2 for v in h_s])))),
            ("sup_t_enveloped", max(per_field_enveloped(f) for f in fields))]
    calls = []
    for module in (spectral, norms):
        real = module.transform
        monkeypatch.setattr(module, "transform", lambda f, real=real: (
            calls.append(f.values.shape) or real(f)))
    out_csv = str(tmp_path / "norms.csv")
    assert main(["norms", "--trajectory", directory, "--s", str(s),
                 "--omega-eps", "0.5", "--output", out_csv]) == 0
    assert calls == [(33, grid.n)]
    with open(out_csv) as fh:
        rows = fh.read().splitlines()[1:4]
    assert rows == [f"{name},{s},,{value:.16e},L20.0_n128,[0.0;0.5]"
                    for name, value in want]


@settings(max_examples=40, deadline=None)
@given(values=st.sampled_from([8, 16, 64]).flatmap(lambda n: hnp.arrays(
           np.float64, st.tuples(st.integers(2, 6), st.just(n)),
           elements=st.floats(allow_nan=False, allow_infinity=False))),
       t0=st.floats(allow_nan=False, allow_infinity=False),
       dt=st.floats(min_value=1e-300, allow_infinity=False),
       completed=st.booleans(),
       reason=st.one_of(st.none(), st.text(
           st.characters(min_codepoint=32, max_codepoint=126),
           min_size=1).map(str.strip).filter(bool)))
def test_trajectory_store_round_trip(values, t0, dt, completed, reason):
    traj = Trajectory._adopt(PhysicalField(Grid(20.0, values.shape[1]),
                                           values.copy()), t0, dt,
                             completed=completed, abort_reason=reason)
    with tempfile.TemporaryDirectory() as directory:
        write_trajectory(directory, traj)
        back = read_trajectory(directory)
        with open(os.path.join(directory, "samples.f64"), "rb") as fh:
            stored = fh.read()
    assert back.samples.values.tobytes() == values.tobytes()
    assert (back.grid, back.t0, back.dt) == (traj.grid, t0, dt)
    assert (back.completed, back.abort_reason) == (completed, reason)
    assert not back.samples.values.flags.writeable
    # the bytes of the one-file-per-sample layout, concatenated in order
    assert stored == b"".join(row.astype("<f8").tobytes() for row in values)


# ----------------------------------------------------------------------
# malformed stored trajectories: exit 2 with one stderr line

MALFORMED_GRID = Grid(20.0, 64)


def _edit(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def _stored(d):
    return np.fromfile(os.path.join(d, "samples.f64"), dtype="<f8").reshape(
        -1, MALFORMED_GRID.n)


def _truncate(d):
    with open(os.path.join(d, "samples.f64"), "r+b") as fh:
        fh.truncate(100)


def _nan_sample(d):
    values = _stored(d).copy()
    values[1, 7] = np.nan
    values.tofile(os.path.join(d, "samples.f64"))


def _one_row(d):
    write_trajectory(d, Trajectory(MALFORMED_GRID, 0.0, 0.1, _stored(d)[:1]))


def _parent_layout(d):
    # one snapshot per sample, listed in the manifest, as gkdvlab wrote
    # trajectories before they were one store
    lines = ["# index time file", "# completed = True"]
    for k, row in enumerate(_stored(d)):
        name = f"snap_{k:06d}.f64"
        write_snapshot(os.path.join(d, name),
                       PhysicalField(MALFORMED_GRID, row), 0.1 * k)
        lines.append(f"{k} {0.1 * k!r} {name}")
    for name in ("samples.f64", "samples.f64.meta"):
        os.remove(os.path.join(d, name))
    with open(os.path.join(d, "trajectory.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dt(value):
    return (lambda d: _edit(os.path.join(d, "trajectory.txt"), "# dt = 0.1",
                            f"# dt = {value}"),
            "trajectory.txt: sample spacing must be finite and positive")


MALFORMED = {
    "truncated_f64": (_truncate,
                      "samples.f64: holds 12 samples, sidecar says 3 x 64"),
    "rows_disagree_with_size": (
        lambda d: _edit(os.path.join(d, "samples.f64.meta"), "rows = 3",
                        "rows = 4"),
        "samples.f64: holds 192 samples, sidecar says 4 x 64"),
    "missing_sidecar": (
        lambda d: os.remove(os.path.join(d, "samples.f64.meta")),
        "samples.f64.meta"),
    "empty_manifest": (
        lambda d: open(os.path.join(d, "trajectory.txt"), "w").close(),
        "trajectory.txt: no 'dt' entry"),
    "dt_zero": _dt("0"),
    "dt_negative": _dt("-0.1"),
    "dt_nan": _dt("nan"),
    "dt_inf": _dt("inf"),
    "one_row": (_one_row, "samples.f64: a trajectory needs a stack of at "
                          "least two samples, found shape (1, 64)"),
    "parent_layout": (_parent_layout,
                      "trajectory.txt, line 3: expected 'key = value', "
                      "got '0 0.0 snap_000000.f64'"),
    "n_not_power_of_two": (
        lambda d: _edit(os.path.join(d, "samples.f64.meta"), "n = 64",
                        "n = 48"),
        "samples.f64: grid size must be a power of two, got 48"),
    "nan_samples": (_nan_sample,
                    "samples.f64: field contains non-finite samples"),
    "garbage_line": (
        lambda d: _edit(os.path.join(d, "trajectory.txt"), "# dt ",
                        "garbage\n# dt "),
        "trajectory.txt, line 2: expected 'key = value', got 'garbage'"),
}


@pytest.mark.parametrize("option, value", [
    # each used to exit 0: nan and -1 weights read as unit weights, and
    # a nan s or b wrote nan rows
    ("--omega-eps", "nan"), ("--omega-eps", "-1"), ("--omega-eps", "inf"),
    ("--s", "nan"), ("--s", "-inf"), ("--b", "nan"), ("--b", "inf"),
])
def test_norms_rejects_non_finite_settings(tmp_path, capsys, option, value):
    fields = [PhysicalField.sample(
        MALFORMED_GRID, lambda x: k * (2 - k) * np.exp(-x ** 2))
        for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(MALFORMED_GRID, 0.0, 0.1, fields))
    out_csv = tmp_path / "norms.csv"
    assert main(["norms", "--trajectory", directory, f"{option}={value}",
                 "--output", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {option} must be finite")
    assert not out_csv.exists()


def test_norms_rejects_overflowing_omega_eps(tmp_path, capsys):
    # the weights overflowed: three numpy RuntimeWarnings, then a
    # sup_t_enveloped row of nan and exit 0
    fields = [PhysicalField.sample(
        MALFORMED_GRID, lambda x: k * (2 - k) * np.exp(-x ** 2))
        for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(MALFORMED_GRID, 0.0, 0.1, fields))
    out_csv = tmp_path / "norms.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norms", "--trajectory", directory, "--omega-eps", "400",
                     "--output", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: --omega-eps = 400.0 overflows")
    assert not out_csv.exists()


def test_norms_and_split_reject_an_overflowing_s(tmp_path, capsys):
    # norms wrote rows of nan after numpy warnings and exited 0; split
    # wrote both parts, then printed an H^300 remainder of inf
    field = PhysicalField.sample(MALFORMED_GRID, lambda x: np.exp(-x ** 2))
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(MALFORMED_GRID, 0.0, 0.1,
                                           [0.0 * field, field, 0.0 * field]))
    snap = str(tmp_path / "field.f64")
    write_snapshot(snap, field, 0.0)
    for argv in (["norms", "--trajectory", directory],
                 ["split", "--input", snap, "--output-prefix",
                  str(tmp_path / "parts")]):
        assert main(argv + ["--s", "300"]) == 2
        assert capsys.readouterr().err == (
            "config error: --s = 300.0 overflows the weights on this grid: "
            "weights must be finite\n")
    assert sorted(os.listdir(tmp_path)) == ["field.f64", "field.f64.meta",
                                            "traj"]


def test_run_rejects_overflowing_omega_eps(tmp_path, capsys):
    # the run evolved to the horizon with overflowing envelope weights
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "[diagnostics]", "[diagnostics]\nomega_eps = 400")
    with pytest.raises(ConfigError, match=r"^\[diagnostics\] omega_eps = 400"):
        ScenarioConfig.parse(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: [diagnostics] omega_eps = 400.0 overflows")
    assert not (tmp_path / "out").exists()


def test_read_trajectory_checks_the_samples_once(tmp_path, monkeypatch):
    # the snapshot's field is the store: one finiteness scan of the
    # samples, where the store once wrapped the checked matrix again
    fields = [PhysicalField.sample(MALFORMED_GRID,
                                   lambda x: k * np.exp(-x ** 2))
              for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(MALFORMED_GRID, 0.0, 0.1, fields))
    built, real = [], PhysicalField.__post_init__
    monkeypatch.setattr(PhysicalField, "__post_init__",
                        lambda self: built.append(self) or real(self))
    traj = read_trajectory(directory)
    assert len(built) == 1 and traj.samples is built[0]
    assert not traj.samples.values.flags.writeable


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_norms_malformed_trajectory_exits_2(tmp_path, capsys, case):
    # zero at both window ends, so the norms need no extension
    fields = [PhysicalField.sample(
        MALFORMED_GRID, lambda x: k * (2 - k) * np.exp(-x ** 2))
        for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(MALFORMED_GRID, 0.0, 0.1, fields))
    args = ["norms", "--trajectory", directory, "--output",
            str(tmp_path / "norms.csv")]
    assert main(args) == 0
    capsys.readouterr()
    damage, message = MALFORMED[case]
    damage(directory)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: ") and message in err


def test_study_temporal(tmp_path):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "study_out"))
    text = text.replace("horizon = 0.05", "horizon = 0.1")
    cfg_path = write_cfg(tmp_path, text)
    table_path = str(tmp_path / "table.txt")
    status = main(["study", "--kind", "temporal", "--config", cfg_path,
                   "--ladder", "0.002,0.001,0.0005,0.0000625",
                   "--output", table_path, "--quiet"])
    assert status == 0
    content = open(table_path).read()
    assert "fitted order" in content
    fitted = float(content.split("=")[-1].strip())
    assert 3.5 < fitted < 4.5


def test_study_viscosity_delegates(tmp_path):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "visc_out"))
    cfg_path = write_cfg(tmp_path, text)
    table_path = str(tmp_path / "visc.txt")
    status = main(["study", "--kind", "viscosity", "--config", cfg_path,
                   "--ladder", "0.1,0.05,0.025", "--output", table_path,
                   "--quiet"])
    assert status == 0
    rows = [r for r in open(table_path).read().splitlines()
            if r and not r.startswith("#")]
    assert len(rows) == 3
    diffs = [float(r.split()[1]) for r in rows]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


# tables written before the temporal and spatial ladders shared one rule;
# the refactor must reproduce them byte for byte
STUDY_TABLES = {
    "temporal": ("0.01,0.005,0.0025", "", 0, """\
# study kind = temporal
# level error
0.01 1.8600112197154905e-07
0.005 1.1322046309389724e-08
# fitted order/rate = 4.038104688992686
"""),
    "spatial": ("128,256,512", "tail_threshold = 1e-3", 0, """\
# study kind = spatial
# level error
128.0 5.626315020433245e-10
256.0 1.1102230246251565e-16
# fitted order/rate = 6.70481381508483
"""),
    "spatial_aborted": ("128,256", "", 3, """\
# study kind = spatial
# aborted = spectral tail 1.15e-06 exceeds threshold 1.00e-06 at step 1
# level error
# fitted order/rate = nan
"""),
    "viscosity": ("0.1,0.05,0.025", "", 0, """\
# study kind = viscosity
# level error
0.1 0.004750343690278552
0.05 0.0023895837872144154
0.025 0.001198431581891349
# fitted order/rate = 0.9934421743953109
"""),
}
# the viscosity levels are ordered coarse to fine (decreasing) by the study
STUDY_TABLES["viscosity_unsorted"] = ("0.025,0.05,0.1", "", 0,
                                      STUDY_TABLES["viscosity"][3])


@pytest.mark.parametrize("case", sorted(STUDY_TABLES))
def test_study_tables_are_pinned(tmp_path, case):
    ladder, solver_line, status, table = STUDY_TABLES[case]
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace("cadence = 10", f"cadence = 10\n{solver_line}")
    table_path = tmp_path / "table.txt"
    assert main(["study", "--kind", case.split("_")[0], "--config",
                 write_cfg(tmp_path, text), "--ladder", ladder,
                 "--output", str(table_path), "--quiet"]) == status
    assert table_path.read_text() == table


def test_study_spatial(tmp_path):
    # the finest grid's field, sampled at the coarse points, is the
    # reference; the error falls by decades per grid doubling
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace("cadence = 10", "cadence = 10\ntail_threshold = 1e-3")
    table_path = tmp_path / "table.txt"
    assert main(["study", "--kind", "spatial", "--config",
                 write_cfg(tmp_path, text), "--ladder", "256,128,512",
                 "--output", str(table_path), "--quiet"]) == 0
    rows = [r.split() for r in table_path.read_text().splitlines()
            if not r.startswith("#")]
    assert [r[0] for r in rows] == ["128.0", "256.0"]
    errors = [float(r[1]) for r in rows]
    assert errors[0] < 1e-8 and errors[1] < 1e-4 * errors[0]
    fitted = float(table_path.read_text().split("=")[-1])
    assert fitted > 5.0


@pytest.mark.parametrize("kind, ladder", [
    ("spatial", "256.5,512"),           # a grid size that is not whole
    ("temporal", "0.01,,0.005"),        # an empty level
    ("temporal", "0.01,0"),             # a zero step
    ("temporal", "3e-3,1e-3"),          # a step that does not divide 0.05
    ("viscosity", "0.1,x"),
    ("viscosity", "0.1,-0.05"),         # a negative viscosity
    ("viscosity", "0.1,0.05,0.1"),      # a repeated level
    ("viscosity", "0.1,inf"),
    ("viscosity", "0.1,nan"),
])
def test_study_bad_ladder_names_the_option(tmp_path, capsys, kind, ladder):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    table_path = tmp_path / "table.txt"
    assert main(["study", "--kind", kind, "--config", write_cfg(tmp_path, text),
                 "--ladder", ladder, "--output", str(table_path),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "--ladder" in err and "Traceback" not in err
    assert not table_path.exists()


@pytest.mark.parametrize("kind, ladder", [("temporal", "1e-3,5e-4"),
                                          ("viscosity", "0.1,0.05")])
def test_study_set_up_failure_writes_the_aborted_table(tmp_path, kind,
                                                       ladder):
    # a background the grid does not resolve exited 2 with "error:
    # background derivative: ...", and no table; a run's set-up failure
    # ends a study as its instability does
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "half_length = 20\npoints = 256", "half_length = 50\npoints = 64"
        ).replace("variant = zero", "variant = mkdv_kink\nc = 200").replace(
        "kind = kdv", "kind = mkdv_defocusing")
    table_path = tmp_path / "table.txt"
    assert main(["study", "--kind", kind, "--config", write_cfg(tmp_path, text),
                 "--ladder", ladder, "--output", str(table_path),
                 "--quiet"]) == 3
    assert table_path.read_text() == (
        f"# study kind = {kind}\n# aborted = background derivative: spectral "
        "tail 5.15e-01 exceeds threshold 1.00e-06; grid does not resolve the "
        "background\n# level error\n# fitted order/rate = nan\n")
