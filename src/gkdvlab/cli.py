"""Scenario-driven command line front end.

Subcommands: run, study, norms, split, catalog.  A run is defined entirely
by its config file; outputs are plot-ready CSV series, snapshot binaries
and a verdict summary.  Exit codes are a stable contract:

    0   success
    2   configuration error (also used by argument parsing)
    3   solver instability or contamination abort
    4   a verdict failed
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .background import BACKGROUNDS, zhidkov_split
from .config import INITIALS, NONLINEARITIES, ConfigError, ScenarioConfig, \
    require_envelope, require_finite, require_sobolev
from .diagnostics import background_exactness, collect_report, \
    l2_growth_monitor, zero_perturbation_persistence
from .fieldio import read_field, read_trajectory, write_snapshot, \
    write_trajectory
from .nonlinearity import NonFiniteResultError
from .norms import bourgain_norm, decays_at_ends, enveloped_norm, \
    extend_trajectory, sobolev_norm
from .solver import SolverError, evolve, loglog_slope, vanishing_viscosity
from .spectral import UnresolvedFieldError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_VERDICT = 4


def _say(quiet: bool, message: str):
    if not quiet:
        print(message)


def _write_metadata(directory: str, config: ScenarioConfig):
    with open(os.path.join(directory, "run_metadata.txt"), "w") as fh:
        fh.write(f"gkdvlab version = {__version__}\n")
        fh.write(f"numpy version = {np.__version__}\n")
        fh.write(f"grid id = L{config.grid_half_length!r}_n{config.grid_points}\n")
        fh.write("\n# config echo\n")
        fh.write(config.serialize())


def _run_one(config: ScenarioConfig, quiet: bool) -> int:
    grid = config.grid()
    bg = config.background()
    nl = config.nonlinearity()
    u0 = config.initial_data()
    outdir = config.output_directory
    os.makedirs(outdir, exist_ok=True)
    _write_metadata(outdir, config)

    # set-up, Psi resolved to the floor and S finite at t = 0, then the steps
    try:
        holds, worst, scale = background_exactness(bg, nl, 0.0, grid)
        traj = evolve(u0, bg, nl, config.solver, raise_on_failure=False)
    except UnresolvedFieldError as err:
        _say(quiet, f"unresolved field: {err}")
        return EXIT_INSTABILITY
    except (SolverError, NonFiniteResultError) as err:
        _say(quiet, f"unresolved or unstable scenario: {err}")
        return EXIT_INSTABILITY
    if len(traj) < 2:
        _say(quiet, f"run aborted immediately: {traj.abort_reason}")
        return EXIT_INSTABILITY

    verdicts = {}
    exact_nl = bg.associated_nonlinearity()
    on_exact = exact_nl is not None and exact_nl.coeffs == nl.coeffs
    if on_exact:
        verdicts["background-exactness"] = (
            holds, f"max|S| = {worst:.3e}, scale {scale:.3e}")

    report = collect_report(traj, bg, nl, config.diagnostics_s,
                            config.omega(), config.solver.boundary_buffer)

    growth = l2_growth_monitor(traj, bg, nl)
    verdicts["l2-growth-bound"] = (
        growth.holds,
        f"A={growth.forcing_level:.3e} B={growth.growth_rate:.3f} "
        f"margin={growth.worst_margin:.3e} at t={growth.margin_time:.4g}",
    )
    if config.initial_kind == "zero" and on_exact:
        holds, sup_l2 = zero_perturbation_persistence(traj)
        verdicts["zero-perturbation-persistence"] = (
            holds, f"sup L2 = {sup_l2:.3e}")

    report.verdicts = verdicts
    write_trajectory(os.path.join(outdir, "trajectory"), traj)
    report.write_csv(os.path.join(outdir, "diagnostics.csv"))
    _say(quiet, report.write_verdicts(
        os.path.join(outdir, "verdicts.txt")).rstrip("\n"))
    if not traj.completed:
        _say(quiet, f"run aborted: {traj.abort_reason}")
        return EXIT_INSTABILITY
    if not report.all_pass:
        return EXIT_VERDICT
    _say(quiet, f"run complete: outputs in {outdir}")
    return EXIT_OK


def cmd_run(args) -> int:
    configs = [ScenarioConfig.from_file(p) for p in args.config]
    status = EXIT_OK
    for i, cfg in enumerate(configs):
        if args.output:
            cfg.output_directory = (
                args.output if len(configs) == 1
                else os.path.join(args.output, f"scenario{i:02d}")
            )
        status = max(status, _run_one(cfg, args.quiet))
    return status


def cmd_study(args) -> int:
    """Tabulate each level's error: against the inviscid run for the
    viscosity ladder; otherwise the max-abs difference of the final field
    from the finest level's, sampled at the coarse level's points."""
    config = ScenarioConfig.from_file(args.config)
    bg, nl, solver = config.background(), config.nonlinearity(), config.solver
    try:            # a spatial ladder lists whole point counts
        ladder = [(int if args.kind == "spatial" else float)(tok)
                  for tok in args.ladder.split(",")]
        # (level, scenario, solver settings), coarse to fine
        if args.kind == "temporal":
            runs = [(dt, config, replace(solver, dt=dt, cadence=int(round(
                solver.horizon / dt)))) for dt in sorted(ladder, reverse=True)]
        elif args.kind == "spatial":
            runs = [(float(n), replace(config, grid_points=n), solver)
                    for n in sorted(ladder)]
        elif len(set(ladder)) < len(ladder) or not all(
                np.isfinite(mu) and mu >= 0.0 for mu in ladder):
            raise ValueError("viscosities must be distinct, finite and "
                             "non-negative")
        else:           # decreasing, ending at the inviscid run
            mus = sorted(set(ladder) | {0.0}, reverse=True)
    except (ArithmeticError, ValueError) as err:    # a zero step included
        raise ConfigError(f"--ladder: {err}") from err

    rows, aborted, fitted = [], None, float("nan")
    try:
        if args.kind == "viscosity":
            study = vanishing_viscosity(config.initial_data(), bg, nl, mus,
                                        solver, s=config.diagnostics_s)
            rows = list(zip(study.mus, study.differences))
            fitted = study.fitted_rate
        else:
            finals = [evolve(cfg.initial_data(), bg, nl,
                             slv).samples.values[-1] for _, cfg, slv in runs]
            finest = finals[-1]
            rows = [(level, float(np.max(np.abs(
                        final - finest[::finest.size // final.size]))))
                    for (level, _, _), final in zip(runs, finals[:-1])]
            if args.kind == "temporal":
                fitted = loglog_slope(rows)
            else:
                # spectral convergence has no power-law order: the mean
                # number of decades the error drops per level
                drops = [np.log10(a[1] / b[1])
                         for a, b in zip(rows, rows[1:]) if b[1] > 0]
                fitted = float(np.mean(drops)) if drops else fitted
    except (SolverError, UnresolvedFieldError, NonFiniteResultError) as err:
        aborted = str(err)      # what ends a run's set-up or steps

    with open(args.output, "w") as fh:
        fh.write(f"# study kind = {args.kind}\n")
        if aborted:
            fh.write(f"# aborted = {aborted}\n")
        fh.write("# level error\n")
        for level, err in rows:
            fh.write(f"{level!r} {err!r}\n")
        fh.write(f"# fitted order/rate = {fitted!r}\n")
    _say(args.quiet, f"study table written to {args.output}")
    return EXIT_INSTABILITY if aborted else EXIT_OK


def cmd_norms(args) -> int:
    require_finite("--b", args.b)
    traj = read_trajectory(args.trajectory)
    grid = traj.grid
    s = require_sobolev("--s", grid, args.s)
    eps = require_envelope("--omega-eps", grid, args.omega_eps)
    b = args.b

    work = traj if decays_at_ends(traj) else extend_trajectory(traj)

    # the three H^s rows read one spectrum per stored field, the sup_t and
    # l2_t rows one H^s series; at b = 0 the modulation weight drops out
    # and the space-time norm is, by Parseval in time, the l2_t row
    h_s = sobolev_norm(traj.spectra(), s).tolist()
    l2_t = float(np.sqrt(traj.dt * np.sum([v ** 2 for v in h_s])))
    rows = [
        ("sup_t_sobolev", s, "", max(h_s)),
        ("l2_t_sobolev", s, "", l2_t),
        ("sup_t_enveloped", s, "",
         max(enveloped_norm(traj.spectra(), s, eps).tolist())),
        ("bourgain", s, b, bourgain_norm(work, s, b)),
        ("bourgain", s, 0.0, l2_t),
    ]
    grid_id = f"L{grid.half_length!r}_n{grid.n}"
    window = f"[{traj.t0!r};{traj.t0 + traj.dt * (len(traj) - 1)!r}]"
    with contextlib.ExitStack() as stack:
        out = (sys.stdout if args.output == "-" else
               stack.enter_context(open(args.output, "w", newline="")))
        writer = csv.writer(out)
        writer.writerow(["name", "s", "b", "value", "grid", "window"])
        for name, s_val, b_val, value in rows:
            writer.writerow([name, s_val, b_val, f"{value:.16e}", grid_id,
                             window])
    return EXIT_OK


def cmd_split(args) -> int:
    fld, t = read_field(args.input)
    require_sobolev("--s", fld.grid, args.s)
    smooth, remainder = zhidkov_split(fld)
    write_snapshot(args.output_prefix + "_smooth.f64", smooth, t)
    write_snapshot(args.output_prefix + "_remainder.f64", remainder, t)
    sup = float(np.max(np.abs(smooth.values)))
    hs = sobolev_norm(remainder, args.s)
    print(f"sup smooth part = {sup:.12e}")
    print(f"H^{args.s} remainder = {hs:.12e}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    for title, registry in (("backgrounds", BACKGROUNDS),
                            ("initial data", INITIALS)):
        print(f"{title}:")
        for name, (_, params) in registry.items():
            listed = ", ".join(key if default is None else f"{key} = {default}"
                               for key, default in params.items())
            print(f"  {name}  ({listed})" if listed else f"  {name}")
    print("nonlinearities:")
    for kind in NONLINEARITIES:
        print(f"  {kind}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkdvlab",
        description="numerical laboratory for generalized KdV dynamics "
                    "on bounded backgrounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute scenarios from config files")
    p_run.add_argument("--config", required=True, nargs="+",
                       help="scenario config path(s)")
    p_run.add_argument("--output", default=None, help="output directory override")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="convergence ladders")
    p_study.add_argument("--kind", required=True,
                         choices=("spatial", "temporal", "viscosity"))
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--ladder", required=True,
                         help="comma-separated levels, coarse to fine")
    p_study.add_argument("--output", default="study.txt")
    p_study.add_argument("--quiet", action="store_true")
    p_study.set_defaults(func=cmd_study)

    p_norms = sub.add_parser("norms", help="norm table for a stored trajectory")
    p_norms.add_argument("--trajectory", required=True,
                         help="trajectory directory")
    p_norms.add_argument("--s", type=float, default=1.0)
    p_norms.add_argument("--b", type=float, default=1.0)
    p_norms.add_argument("--omega-eps", type=float, default=0.0)
    p_norms.add_argument("--output", default="-")
    p_norms.set_defaults(func=cmd_norms)

    p_split = sub.add_parser("split",
                             help="smooth/decaying split of a field snapshot")
    p_split.add_argument("--input", required=True)
    p_split.add_argument("--output-prefix", required=True)
    p_split.add_argument("--s", type=float, default=1.0)
    p_split.set_defaults(func=cmd_split)

    p_cat = sub.add_parser(
        "catalog", help="list backgrounds, initial data and nonlinearities")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
