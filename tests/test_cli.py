import os
import sys

import numpy as np
import pytest

from gkdvlab import cli
from gkdvlab.cli import main
from gkdvlab.config import ConfigError, ScenarioConfig
from gkdvlab.fieldio import (read_snapshot, read_trajectory, write_snapshot,
                             write_trajectory)
from gkdvlab.spectral import Grid, PhysicalField, Trajectory


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


def test_config_with_retired_seed_parses():
    # [output] seed was never read; configs that still carry it must load
    text = BASE_CFG.replace("PLACEHOLDER", "out") + "seed = 7\n"
    cfg = ScenarioConfig.parse(text)
    assert cfg.output_directory == "out"
    assert "seed" not in cfg.serialize()


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        ScenarioConfig.parse("[background]\nvariant = wavelet\n")


def test_config_rejects_bad_solver_values():
    with pytest.raises(ConfigError):
        ScenarioConfig.parse("[solver]\ndt = -1\n")


# ----------------------------------------------------------------------
# run

def test_run_zero_scenario(tmp_path, capsys):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace("kind = gaussian", "kind = zero")
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
    assert len(traj.fields) == 6


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


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_run_overflow_exits_instability(tmp_path):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace("amplitude = 0.5", "amplitude = 1e160")
    text = text.replace("cadence = 10", "cadence = 10\ntail_threshold = 1.0")
    status = main(["run", "--config", write_cfg(tmp_path, text), "--quiet"])
    assert status == 3


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


def test_run_batch_jobs(tmp_path):
    text = BASE_CFG.replace("PLACEHOLDER", str(tmp_path / "ignored"))
    text = text.replace("kind = gaussian", "kind = zero")
    cfg_a = write_cfg(tmp_path, text, "a.cfg")
    cfg_b = write_cfg(tmp_path, text, "b.cfg")
    status = main(["run", "--config", cfg_a, cfg_b, "--jobs", "2",
                   "--output", str(tmp_path / "batch"), "--quiet"])
    assert status == 0
    assert (tmp_path / "batch" / "scenario00" / "diagnostics.csv").exists()
    assert (tmp_path / "batch" / "scenario01" / "diagnostics.csv").exists()


def test_catalog_lists_variants(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "mkdv_kink" in out and "synthetic" in out and "gardner_kink" in out


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


# ----------------------------------------------------------------------
# malformed stored trajectories: exit 2 with one stderr line


def _edit(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def _truncate(d):
    with open(os.path.join(d, "snap_000001.f64"), "r+b") as fh:
        fh.truncate(100)


def _nan_sample(d):
    path = os.path.join(d, "snap_000001.f64")
    values = np.fromfile(path, dtype="<f8")
    values[7] = np.nan
    values.astype("<f8").tofile(path)


def _non_uniform(d):
    _edit(os.path.join(d, "trajectory.txt"), "2 0.2 ", "2 0.25 ")
    _edit(os.path.join(d, "snap_000002.f64.meta"), "t = 0.2", "t = 0.25")


MALFORMED = {
    "truncated_f64": (_truncate, "holds 12 samples, sidecar says 64"),
    "missing_sidecar": (
        lambda d: os.remove(os.path.join(d, "snap_000001.f64.meta")),
        "snap_000001.f64.meta"),
    "empty_manifest": (
        lambda d: open(os.path.join(d, "trajectory.txt"), "w").close(),
        "trajectory.txt: a trajectory needs at least two snapshots, found 0"),
    "non_uniform": (_non_uniform, "trajectory.txt: sampling is not uniform"),
    "time_mismatch": (
        lambda d: _edit(os.path.join(d, "trajectory.txt"), "1 0.1 ", "1 0.15 "),
        "disagree on time for snap_000001.f64"),
    "n_not_power_of_two": (
        lambda d: _edit(os.path.join(d, "snap_000000.f64.meta"), "n = 64",
                        "n = 48"),
        "snap_000000.f64: grid size must be a power of two, got 48"),
    "nan_samples": (_nan_sample,
                    "snap_000001.f64: field contains non-finite samples"),
    "garbage_line": (
        lambda d: _edit(os.path.join(d, "trajectory.txt"), "1 0.1 ",
                        "garbage\n1 0.1 "),
        "trajectory.txt, line 4: expected 'index time file', got 'garbage'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_norms_malformed_trajectory_exits_2(tmp_path, capsys, case):
    grid = Grid(20.0, 64)
    # zero at both window ends, so the norms need no extension
    fields = [PhysicalField.sample(grid, lambda x: k * (2 - k) * np.exp(-x ** 2))
              for k in range(3)]
    directory = str(tmp_path / "traj")
    write_trajectory(directory, Trajectory(grid, 0.0, 0.1, fields))
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
