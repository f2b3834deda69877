"""The benchmark's workloads: inputs from a seed, one operation, its check.

Each workload writes its inputs (config files, a stored trajectory) into a
private work directory, so gkdvlab receives only generated configs and
fields.  The seed jitters the Gaussian initial data and the resonance
phase seed; every size below is fixed.

desk_kink           `gkdvlab run` on the desk mKdV-kink scenario.  The cubic
                    flux is padded to 2n points, so transforms and the padded
                    flux dominate a step; the tanh jet is cheap.  A single run,
                    so ensemble batching does nothing here.  It also covers
                    the report, verdict and snapshot-write path.
cnoidal_lipschitz   `flow_lipschitz_experiment` on the KdV cnoidal wave: four
                    evolves sharing one (grid, background, nonlinearity),
                    where Jacobi/AGM jets take about half of a step.  The
                    workload for jet caching and ensemble batching.
spacetime_analysis  No evolve: `gkdvlab norms` on a dense stored trajectory,
                    the three- and four-factor resonance lattice sums and the
                    Duhamel fixed point.  Covers norms, the fieldio read path
                    and the Duhamel quadrature, where the stepper and the
                    jets do no work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil

import numpy as np

# operations call through the module attributes, where the tracer patches
from gkdvlab import cli, diagnostics, norms, solver
from gkdvlab.config import ScenarioConfig
from gkdvlab.fieldio import read_trajectory, write_trajectory
from gkdvlab.spectral import (Grid, PhysicalField, Trajectory, airy_propagate,
                              inverse_transform, transform)

from tracer import Tracer

DESK = dict(half_length=50.0, points=1024, dt=2e-4)

# horizons and lattices are shrunk from the acceptance criteria so that one
# operation takes a few seconds; "toy" is the smoke-mode size
SIZES = {
    "desk_kink": {
        "full": dict(DESK, horizon=0.1, cadence=500),
        "toy": dict(DESK, horizon=0.004, cadence=10),
    },
    "cnoidal_lipschitz": {
        "full": dict(DESK, horizon=0.02, cadence=20),
        "toy": dict(DESK, points=512, horizon=0.004, cadence=10),
    },
    "spacetime_analysis": {
        "full": dict(dense_n=128, dense_samples=256, k3_domain=4.0,
                     k4_domain=1.5, picard_n=512, picard_nodes=65),
        "toy": dict(dense_n=64, dense_samples=32, k3_domain=2.0,
                    k4_domain=1.0, picard_n=512, picard_nodes=9),
    },
}

SCENARIO = """\
[grid]
half_length = {half_length!r}
points = {points}

[background]
variant = {variant}
{background}

[nonlinearity]
kind = {kind}

[solver]
scheme = etdrk4
dt = {dt!r}
horizon = {horizon!r}
viscosity = {viscosity!r}
boundary_threshold = {boundary_threshold!r}
tail_threshold = {tail_threshold!r}
cadence = {cadence}

[initial]
kind = gaussian
amplitude = {amplitude!r}
width = {width!r}
center = {center!r}

[diagnostics]
s = 1.0

[output]
directory = {output}
"""


def gaussian_jitter(seed: int, amplitude: float, width: float) -> dict:
    """Seeded Gaussian data: amplitude and width within 10%, centre in 1."""
    rng = np.random.default_rng(seed)
    return dict(amplitude=amplitude * rng.uniform(0.9, 1.1),
                width=width * rng.uniform(0.9, 1.1),
                center=rng.uniform(-1.0, 1.0))


def write_scenario(path: str, **fields) -> str:
    values = dict(viscosity=0.0, boundary_threshold=1e-3, tail_threshold=1e-6,
                  background="", output=os.path.dirname(path))
    values.update(fields)
    with open(path, "w") as fh:
        fh.write(SCENARIO.format(**values))
    return path


def load_scenario(path: str, timings: dict):
    """Parse a written config and build its objects, timing each part."""
    with Tracer() as tracer:
        tracer.install(names={"config.parse", "config.background"})
        cfg = ScenarioConfig.from_file(path)
        bg = cfg.background()
    timings["config.parse_s"] = tracer.total["config.parse"]
    timings["background.construct_s"] = tracer.total["config.background"]
    return cfg, cfg.grid(), bg, cfg.nonlinearity(), cfg.initial_data()


class Outcome:
    """What one operation returned; `status` is the CLI exit code."""

    def __init__(self, status=0, **values):
        self.status = status
        self.__dict__.update(values)


class DeskKink:
    name = "desk_kink"
    # per-layer metrics that must be non-zero when this workload is traced
    layers = ("spectral.transform.calls_per_step",
              "spectral.inverse_transform.calls_per_step",
              "spectral.flux_coefficients.calls_per_step",
              "spectral.fft_points_per_step", "background.jet.calls_per_step",
              "background.jet_points_per_step", "nonlinearity.f.us",
              "solver.evolve.calls", "background.residual_S.calls",
              "diagnostics.collect_report.s",
              "diagnostics.l2_growth_monitor.s",
              "fieldio.write_trajectory.s", "fieldio.bytes_written",
              "cli.run.self_s", "config.parse_s", "background.construct_s",
              "import_s")

    def setup(self, work, seed, size, timings, inject_failure=False):
        p = SIZES[self.name][size]
        self.work = work
        self.config = write_scenario(
            os.path.join(work, "kink.cfg"), variant="mkdv_kink",
            background="c = 2.0\nsign = +", kind="mkdv_defocusing",
            # an unresolvable tail budget: every run aborts with exit 3
            tail_threshold=1e-30 if inject_failure else 1e-6,
            **{k: p[k] for k in ("half_length", "points", "dt", "horizon",
                                 "cadence")},
            **gaussian_jitter(seed, 1.0, 1.0))
        load_scenario(self.config, timings)
        self.samples = round(p["horizon"] / p["dt"]) // p["cadence"] + 1

    def operation(self, index):
        out = os.path.join(self.work, f"run{index}")
        status = cli.main(["run", "--config", self.config, "--output", out,
                           "--quiet"])
        return Outcome(status, out=out)

    def check(self, outcome):
        try:
            if outcome.status != 0:
                return False, f"gkdvlab run exited {outcome.status}"
            with open(os.path.join(outcome.out, "verdicts.txt")) as fh:
                lines = fh.read().splitlines()
            if not lines or not all(": PASS (" in ln for ln in lines):
                return False, f"verdicts {lines}"
            traj = read_trajectory(os.path.join(outcome.out, "trajectory"))
            if not traj.completed or len(traj) != self.samples:
                return False, f"trajectory has {len(traj)} of {self.samples}"
            return True, ""
        finally:
            shutil.rmtree(outcome.out, ignore_errors=True)


class CnoidalLipschitz:
    name = "cnoidal_lipschitz"
    layers = ("spectral.transform.calls_per_step",
              "spectral.flux_coefficients.calls_per_step",
              "background.jet.calls_per_step",
              "elliptic.jacobi_sn_cn_dn.calls_per_step",
              "elliptic.jacobi_sn_cn_dn.us", "solver.evolve.calls",
              "background.residual_S.calls",
              "diagnostics.flow_lipschitz_experiment.self_s",
              "norms.sobolev_norm.calls", "config.parse_s",
              "background.construct_s", "import_s")
    deltas = (1e-2, 1e-3, 1e-4)

    def setup(self, work, seed, size, timings, inject_failure=False):
        p = SIZES[self.name][size]
        path = write_scenario(
            os.path.join(work, "cnoidal.cfg"), variant="kdv_cnoidal",
            background="c = 1.0\nkappa = 0.8", kind="kdv",
            boundary_threshold=0.05,
            **{k: p[k] for k in ("half_length", "points", "dt", "horizon",
                                 "cadence")},
            **gaussian_jitter(seed, 0.5, 1.5))
        cfg, grid, self.bg, self.nl, self.u0 = load_scenario(path, timings)
        self.solver = cfg.solver

    def operation(self, index):
        table = diagnostics.flow_lipschitz_experiment(
            self.u0, self.bg, self.nl, self.solver, self.deltas, s=1.0)
        return Outcome(table=table)

    def check(self, outcome):
        # the pass rule of acceptance criterion 7
        table = outcome.table
        ok = (all(math.isfinite(r) for r in table.ratios)
              and table.bounded_by(10.0) and table.spread() <= 0.2)
        return ok, f"ratios {table.ratios}"


class SpacetimeAnalysis:
    name = "spacetime_analysis"
    layers = ("solver.picard_solve.s", "solver.picard_solve.iterations",
              "norms.resonance_vanishing_check.k3_s",
              "norms.resonance_vanishing_check.k4_s",
              "norms.resonance_vanishing_check.n_terms",
              "norms.bourgain_norm.s", "norms.extend_trajectory.s",
              "norms.enveloped_norm.us", "norms.sobolev_norm.calls",
              "fieldio.read_trajectory.s", "fieldio.bytes_read",
              "spectral.transform.us", "config.parse_s", "import_s")

    def setup(self, work, seed, size, timings, inject_failure=False):
        p = SIZES[self.name][size]
        self.p = p
        self.seed = seed
        # a dense free-dispersive trajectory, stored the way `gkdvlab run`
        # stores one, for `gkdvlab norms` to read back
        grid = Grid(20.0, p["dense_n"])
        jitter = gaussian_jitter(seed, 1.0, 1.0)
        u0 = PhysicalField.sample(grid, lambda x: jitter["amplitude"] * np.exp(
            -((x - jitter["center"]) / jitter["width"]) ** 2))
        m = p["dense_samples"]
        spec = transform(u0)
        fields = [inverse_transform(airy_propagate(spec, 0.5 * k / m))
                  for k in range(m + 1)]
        self.dense = os.path.join(work, "dense")
        write_trajectory(self.dense, Trajectory(grid, 0.0, 0.5 / m, fields))
        # the regularized flow of acceptance criterion 14
        path = write_scenario(
            os.path.join(work, "picard.cfg"), variant="zero", kind="kdv",
            half_length=50.0, points=p["picard_n"], dt=0.05 / 1280,
            horizon=0.05, cadence=5, viscosity=0.1,
            **gaussian_jitter(seed + 1, 1.0, 1.0))
        cfg, grid, self.bg, self.nl, self.u0 = load_scenario(path, timings)
        self.mu, self.t_small = cfg.solver.mu, cfg.solver.horizon

    def operation(self, index):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["norms", "--trajectory", self.dense,
                                  "--s", "1.0", "--b", "1.0", "--output", "-"])
        # the block lists of acceptance criterion 11 on smaller lattices
        chk3 = norms.resonance_vanishing_check(
            [32, 32, 16], [1, 1, 1], seed=self.seed,
            domain_half_length=self.p["k3_domain"] * np.pi)
        chk4 = norms.resonance_vanishing_check(
            [32, 32, 16, 1], [1, 1, 1, 1], seed=self.seed,
            domain_half_length=self.p["k4_domain"] * np.pi,
            window_half_length=np.pi / 2.0)
        _, report = solver.picard_solve(
            self.u0, self.bg, self.nl, mu=self.mu, t_small=self.t_small,
            n_nodes=self.p["picard_nodes"])
        return Outcome(status, rows=list(csv.DictReader(io.StringIO(
            buf.getvalue()))), checks=(chk3, chk4), picard=report)

    def check(self, outcome):
        if outcome.status != 0:
            return False, f"gkdvlab norms exited {outcome.status}"
        values = [float(row["value"]) for row in outcome.rows]
        if len(values) != 5 or not all(math.isfinite(v) for v in values):
            return False, f"norm rows {outcome.rows}"
        ratios = [c.magnitude / c.scale for c in outcome.checks]
        if not all(r <= 1e-12 for r in ratios):
            return False, f"resonance ratios {ratios}"
        factors = outcome.picard.contraction_factors[1:]
        if not all(f < 1.0 for f in factors):
            return False, f"picard not contracting: {factors}"
        return True, ""


WORKLOADS = {w.name: w
             for w in (DeskKink, CnoidalLipschitz, SpacetimeAnalysis)}
