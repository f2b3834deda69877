#!/usr/bin/env python3
"""gkdvlab benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

A run sets the workload up from its seed, then repeats the workload's
operation (a closed loop, one operation at a time in this one process)
until the next one would end after `--seconds`, and checks every output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, medians over the
operations of the run (setup_s over several fresh-process set-ups).  Each
time is scaled to a reference machine speed by a fixed numpy kernel that a
helper process of its own times beside it (see `at_reference_speed`).
With `--trace 1` operations alternate between untraced and traced; the
traced ones give the per-layer metrics, in plain wall time.  The line
before it is a summary with sample counts, the unscaled wall times, the
fail ratio and the versions used.

`--smoke` runs every workload at toy size in fresh processes and checks
that every metric named in BENCHMARK.json is reported with its unit, that
each layer a workload should reach has a non-zero count, and that an
injected unresolved scenario is counted as failed.
"""

from __future__ import annotations

import os

# pinned before anything loads numpy; child processes inherit them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("desk_kink", "cnoidal_lipschitz", "spacetime_analysis")
# fresh-process set-ups per run besides the measuring process's own
SETUP_PROBES = {"full": 8, "toy": 1}
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "step_ms": "ms",
              "peak_rss_mb": "MB"}
# median wall time of reference_s() on the machine the benchmark was tuned
# on (2-vCPU Intel Xeon VM); times are reported at this reference speed
REF_NOMINAL_S = 0.018


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the smoke mode")
    parser.add_argument("--inject-failure", action="store_true",
                        help="desk_kink only: make every run abort (exit 3)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference-helper", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (args.smoke or args.reference_helper) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject_failure and args.workload != "desk_kink":
        parser.error("--inject-failure applies to desk_kink only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.reference_helper:
        return serve_reference()
    if not (SRC / "gkdvlab" / "__init__.py").is_file():
        print(f"gkdvlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            print(json.dumps(set_up(args, work)[1]))
            return 0
        with Reference() as reference:
            return measure(args, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # absent, or still in use by another run
            pass


# ----------------------------------------------------------------------
# set-up

def set_up(args, work):
    """Import gkdvlab from this checkout and set the workload up.

    Returns the workload and the set-up timings; setup_s runs from before
    `import gkdvlab` until the first operation could start.
    """
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import gkdvlab

    import_s = perf_counter() - start
    if Path(gkdvlab.__file__).resolve().parent != SRC / "gkdvlab":
        raise RuntimeError(f"imported gkdvlab from {gkdvlab.__file__}")
    from workloads import WORKLOADS as CLASSES

    work.mkdir(parents=True)
    timings = {"import_s": import_s}
    workload = CLASSES[args.workload]()
    workload.setup(str(work), args.seed, args.size, timings,
                   inject_failure=args.inject_failure)
    timings["setup_s"] = perf_counter() - start
    return workload, timings


def probe_setups(args, reference):
    """Set-up timings from fresh processes, one sample each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        ref_before = reference.time()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        sample = json.loads(done.stdout.splitlines()[-1])
        sample["ref_s"] = 0.5 * (ref_before + reference.time())
        samples.append(sample)
    return samples


# ----------------------------------------------------------------------
# measurement

def measure(args, work, reference) -> int:
    ref_before = reference.time()
    workload, timings = set_up(args, work)
    timings["ref_s"] = 0.5 * (ref_before + reference.time())
    setups = [timings] + probe_setups(args, reference)

    from tracer import Tracer

    layer_tracer = Tracer()
    ops = []           # one dict per operation
    failures = []
    deadline = perf_counter() + args.seconds
    while True:
        index = len(ops)
        traced = args.trace == 1 and index % 2 == 1
        tracer = layer_tracer if traced else Tracer()
        before = integrator_totals(tracer)
        tracer.install(None if traced else {"solver.evolve",
                                            "solver.picard_solve"})
        ref_before = reference.time()
        t0 = perf_counter()
        try:
            outcome = workload.operation(index)
        except Exception as err:  # an operation that raises has failed
            outcome = err
        op_s = perf_counter() - t0
        ref_s = 0.5 * (ref_before + reference.time())
        tracer.uninstall()
        error = check(workload, outcome)
        if error is not None:
            failures.append(error)
        ops.append({"traced": traced, "run_s": op_s, "ref_s": ref_s,
                    "step_ms": step_ms(before, integrator_totals(tracer))})
        # a traced run needs one traced operation, however short the window
        if (perf_counter() + op_s > deadline
                and (args.trace == 0 or len(ops) >= 2)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [op for op in ops if not op["traced"]]
    wall = {
        "setup_s": [s["setup_s"] for s in setups],
        "run_s": [op["run_s"] for op in plain],
        "step_ms": [op["step_ms"] for op in plain if op["step_ms"]],
        "ref_s": [op["ref_s"] for op in plain]
                 + [s["ref_s"] for s in setups],
    }
    samples = {
        "setup_s": at_reference_speed(setups, "setup_s"),
        "run_s": at_reference_speed(plain, "run_s"),
        "step_ms": at_reference_speed(plain, "step_ms"),
        "peak_rss_mb": [peak_rss_mb],
    }
    if args.trace == 0:
        metrics = {name: (median(samples[name]), unit)
                   for name, unit in END_TO_END.items()}
    else:
        traced_ops = [op for op in ops if op["traced"]]
        metrics = layer_metrics(layer_tracer, traced_ops, plain, setups)
    summary = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "fail_ratio": {"value": len(failures) / len(ops), "unit": "ratio"},
        "failures": failures[:3],
        "samples": {name: describe(v) for name, v in samples.items()},
        "wall": {name: describe(v) for name, v in wall.items()},
        "stamp": stamp(),
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def at_reference_speed(samples, key):
    """Each sample's time scaled by REF_NOMINAL_S / its reference time.

    The host's speed drifts by tens of percent over minutes, and the
    reference kernel, timed just before and just after each sample, drifts
    with it.  The kernel runs in a helper process, so a change to gkdvlab
    (its heap, its memory) moves the sample and not the reference.
    """
    return [s[key] * REF_NOMINAL_S / s["ref_s"] for s in samples if s[key]]


def reference_s():
    """Wall time of a fixed numpy kernel that does not use gkdvlab.

    FFTs, transcendental ufuncs on 2048 points and one pass over 2 MB: the
    kinds of work the workloads do.
    """
    import numpy as np

    x = np.linspace(-0.9, 0.9, 2048)
    z = np.exp(3j * x)
    big = np.linspace(0.0, 1.0, 1 << 18)
    start = perf_counter()
    for _ in range(120):
        np.fft.ifft(np.fft.fft(z) * 0.5)
        np.tanh(x) * np.sin(x) + np.arcsin(x)
    np.sum(np.abs(big * 1.0001 - 0.5))
    return perf_counter() - start


def serve_reference() -> int:
    """Helper process: time reference_s() once per line read from stdin."""
    reference_s()  # warm numpy up before the first timing
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(reference_s()), flush=True)
    return 0


class Reference:
    """The helper process that times the reference kernel on request.

    The measuring process waits while the helper runs, so the two never
    compete for a CPU.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--reference-helper"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("reference helper did not start")
        return self

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check(workload, outcome):
    """None if the operation's output passed its check, else why not."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    try:
        ok, detail = workload.check(outcome)
    except Exception as err:  # output that cannot be read back has failed
        return f"check raised {type(err).__name__}: {err}"
    return None if ok else detail


def integrator_totals(tracer):
    return (tracer.total["solver.evolve"], tracer.amount["solver.steps"],
            tracer.total["solver.picard_solve"],
            tracer.amount["solver.picard_sweeps"])


def step_ms(before, after):
    """Wall time per time step inside the solver's integrators.

    evolve: per ETDRK4 step.  picard_solve, where no evolve runs: per
    lattice node per fixed-point sweep.
    """
    evolve_s, steps, picard_s, sweeps = (b - a for a, b in zip(before, after))
    if steps:
        return 1e3 * evolve_s / steps
    if sweeps:
        return 1e3 * picard_s / sweeps
    return 0.0


def median(values):
    return float(statistics.median(values)) if values else 0.0


def describe(values):
    return {"median": median(values), "n": len(values), "values": values}


def layer_metrics(t, traced_ops, plain_ops, setups):
    """Per-layer metrics from the traced operations of one run."""
    n_ops = max(len(traced_ops), 1)
    op_s = sum(op["run_s"] for op in traced_ops) or 1.0
    steps = t.steps

    def per_call_us(name):
        return 1e6 * t.total[name] / t.calls[name] if t.calls[name] else 0.0

    def per_op(value):
        return value / n_ops

    def per_step(value):
        return value / steps if steps else 0.0

    traced_step = median(at_reference_speed(traced_ops, "step_ms"))
    plain_step = median(at_reference_speed(plain_ops, "step_ms"))
    picard = "solver.picard_solve"
    k3 = "norms.resonance_vanishing_check.k3"
    k4 = "norms.resonance_vanishing_check.k4"
    return {
        "spectral.transform.calls_per_step":
            (t.step_median("spectral.transform"), "count"),
        "spectral.inverse_transform.calls_per_step":
            (t.step_median("spectral.inverse_transform"), "count"),
        "spectral.flux_coefficients.calls_per_step":
            (t.step_median("spectral.flux_coefficients"), "count"),
        "spectral.fft_points_per_step":
            (t.step_median("spectral.fft_points"), "count"),
        "spectral.transform.us": (per_call_us("spectral.transform"), "us"),
        "spectral.inverse_transform.us":
            (per_call_us("spectral.inverse_transform"), "us"),
        "spectral.flux_coefficients.self_share":
            (t.self_time["spectral.flux_coefficients"] / op_s, "ratio"),
        "background.jet.calls_per_step":
            (t.step_median("background.jet"), "count"),
        "background.jet_points_per_step":
            (t.step_median("background.jet_points"), "count"),
        "background.jet.distinct_time_ratio":
            (t.step_median("background.jet.distinct_time_ratio"), "ratio"),
        "background.jet.us": (per_call_us("background.jet"), "us"),
        "background.jet.share": (t.total["background.jet"] / op_s, "ratio"),
        "elliptic.jacobi_sn_cn_dn.calls_per_step":
            (t.step_median("elliptic.jacobi_sn_cn_dn"), "count"),
        "elliptic.jacobi_sn_cn_dn.us":
            (per_call_us("elliptic.jacobi_sn_cn_dn"), "us"),
        "nonlinearity.f.us": (per_call_us("nonlinearity.f"), "us"),
        "solver.evolve.calls": (per_op(t.calls["solver.evolve"]), "count"),
        "solver.evolve.self_ms_per_step":
            (1e3 * per_step(t.self_time["solver.evolve"]), "ms"),
        "solver.step.self_us": (1e6 * per_step(t.self_time["solver.step"]),
                                "us"),
        "background.residual_S.calls":
            (per_op(t.calls["background.residual_S"]), "count"),
        "solver.picard_solve.s": (per_op(t.total[picard]), "s"),
        "solver.picard_solve.iterations":
            (t.amount["solver.picard_iterations"] / t.calls[picard]
             if t.calls[picard] else 0.0, "count"),
        "norms.resonance_vanishing_check.k3_s": (per_op(t.total[k3]), "s"),
        "norms.resonance_vanishing_check.k4_s": (per_op(t.total[k4]), "s"),
        "norms.resonance_vanishing_check.n_terms":
            (per_op(t.amount["norms.resonance_n_terms"]), "count"),
        "norms.bourgain_norm.s": (per_op(t.total["norms.bourgain_norm"]), "s"),
        "norms.extend_trajectory.s":
            (per_op(t.total["norms.extend_trajectory"]), "s"),
        "norms.enveloped_norm.us": (per_call_us("norms.enveloped_norm"), "us"),
        "fieldio.read_trajectory.s":
            (per_op(t.total["fieldio.read_trajectory"]), "s"),
        "fieldio.bytes_read": (per_op(t.amount["fieldio.bytes_read"]), "B"),
        "diagnostics.collect_report.s":
            (per_op(t.total["diagnostics.collect_report"]), "s"),
        "diagnostics.l2_growth_monitor.s":
            (per_op(t.total["diagnostics.l2_growth_monitor"]), "s"),
        "fieldio.write_trajectory.s":
            (per_op(t.total["fieldio.write_trajectory"]), "s"),
        "fieldio.bytes_written":
            (per_op(t.amount["fieldio.bytes_written"]), "B"),
        "cli.run.self_s": (per_op(t.self_time["cli.cmd_run"]), "s"),
        "diagnostics.flow_lipschitz_experiment.self_s":
            (per_op(t.self_time["diagnostics.flow_lipschitz_experiment"]),
             "s"),
        "norms.sobolev_norm.calls":
            (per_op(t.calls["norms.sobolev_norm"]), "count"),
        "config.parse_s": (median([s["config.parse_s"] for s in setups]), "s"),
        "background.construct_s":
            (median([s["background.construct_s"] for s in setups]), "s"),
        "import_s": (median([s["import_s"] for s in setups]), "s"),
        "trace.overhead_ratio":
            (traced_step / plain_step if plain_step else 0.0, "ratio"),
    }


def stamp():
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "git_rev": git_rev(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# smoke mode

def run_child(*extra):
    """One benchmark run in a fresh process; returns (summary, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--size", "toy",
           "--seconds", "1", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(extra)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def smoke() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as CLASSES

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            summary, result = run_child("--workload", name, "--seed", "0",
                                        "--trace", str(trace))
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: failed {summary['failures']}")
            for entry in spec[kind]:
                got = metrics.get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{name}: {entry['name']} missing or "
                                    f"not in {entry['unit']}: {got}")
            if trace == 1:
                for layer in CLASSES[name].layers:
                    if not metrics.get(layer, {}).get("value"):
                        problems.append(f"{name}: layer metric {layer} is 0")
        print(f"smoke {name}: {len(problems)} problems so far", flush=True)
    summary, result = run_child("--workload", "desk_kink", "--seed", "0",
                                "--trace", "0", "--inject-failure")
    if (result["correct"] or result["failed"] != result["attempted"]
            or summary["fail_ratio"]["value"] != 1.0):
        problems.append(f"injected failure not counted: {result}")
    print("smoke failure injection: fail_ratio "
          f"{summary['fail_ratio']['value']} "
          f"over {result['attempted']} operations ({summary['failures'][:1]})")
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
