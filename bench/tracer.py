"""Span and counter recording around gkdvlab's public functions.

The tracer wraps functions from the benchmark side; gkdvlab itself is not
modified.  A wrapped name is replaced wherever it is looked up: in the
module that defines it, in every gkdvlab module that imported it with
``from .x import name``, and, for methods, on each class that defines it.

Each call records one span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.  Calls made inside a
``solver.step`` span are also counted per step, so per-step ratios are
medians over steps and repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("config", "cli", "solver", "spectral", "background", "elliptic",
          "nonlinearity", "diagnostics", "norms", "fieldio")

# public methods wrapped besides each module's public functions
METHODS = {
    "config": {"ScenarioConfig": ("parse", "from_file", "grid", "background",
                                  "nonlinearity", "initial_data")},
    "nonlinearity": {"AnalyticNonlinearity": ("f", "fp", "fpp", "F")},
    "diagnostics": {"DiagnosticsReport": ("write_csv", "write_verdicts")},
}

# spans whose name depends on the call: (args, kwargs) -> span name
RENAME = {
    "norms.resonance_vanishing_check":
        lambda a, k: "norms.resonance_vanishing_check.k%d"
                     % len(a[0] if a else k["space_blocks"]),
}


# per-call quantities derived from arguments or results, summed per key:
# span name -> ((key, (args, kwargs, result) -> amount), ...)
AMOUNTS = {
    "spectral.transform": (("spectral.fft_points",
                            lambda a, k, r: a[0].values.size),),
    "spectral.inverse_transform": (("spectral.fft_points",
                                    lambda a, k, r: a[0].coeffs.size),),
    "background.jet": (("background.jet_points", lambda a, k, r: r.psi.size),),
    "fieldio.read_snapshot": (("fieldio.bytes_read",
                               lambda a, k, r: r[0].values.nbytes),),
    "fieldio.write_snapshot": (("fieldio.bytes_written",
                                lambda a, k, r: a[1].values.nbytes),),
    "norms.resonance_vanishing_check.k3": (("norms.resonance_n_terms",
                                            lambda a, k, r: r.n_terms),),
    "norms.resonance_vanishing_check.k4": (("norms.resonance_n_terms",
                                            lambda a, k, r: r.n_terms),),
    "solver.evolve": (("solver.steps", lambda a, k, r: (len(r) - 1) * (
        a[3] if len(a) > 3 else k["config"]).cadence),),
    "solver.picard_solve": (
        ("solver.picard_iterations", lambda a, k, r: r[1].iterations),
        ("solver.picard_sweeps",
         lambda a, k, r: (len(r[0]) - 1) * r[1].iterations)),
}

STEP = "solver.step"
JET = "background.jet"


class Tracer:
    """Aggregated spans and counts for the calls made while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.amount = Counter()
        self.steps = 0
        # histograms over steps: name -> Counter(value -> number of steps)
        self.per_step = defaultdict(Counter)
        self._stack = []
        self._step_counts = None
        self._step_times = set()
        self._prev_step_times = set()
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        rename = RENAME.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rename(args, kwargs) if rename else name
            is_step = span == STEP
            if is_step:
                tracer._step_counts = Counter()
                tracer._step_times = set()
            elif span == JET and tracer._step_counts is not None:
                tracer._step_times.add(args[1])
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if is_step:
                    tracer._step_counts = None
                raise
            finally:
                duration = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                tracer.calls[span] += 1
                tracer.total[span] += duration
                tracer.self_time[span] += duration - frame[0]
            counts = tracer._step_counts
            for key, amount in AMOUNTS.get(span, ()):
                value = amount(args, kwargs, result)
                tracer.amount[key] += value
                if counts is not None:
                    counts[key] += value
            if counts is not None:
                counts[span] += 1
            if is_step:
                tracer._close_step()
            return result

        return traced

    def _close_step(self):
        counts = self._step_counts
        del counts[STEP]
        self.steps += 1
        for key, value in counts.items():
            self.per_step[key][value] += 1
        jets = counts.get(JET, 0)
        if jets:
            new = len(self._step_times - self._prev_step_times)
            ratio = self.per_step["background.jet.distinct_time_ratio"]
            ratio[new / jets] += 1
        self._prev_step_times = self._step_times
        self._step_counts = None

    def step_median(self, key):
        """Median over all steps of a per-step count; steps without the
        name count as zero."""
        hist = self.per_step.get(key, Counter())
        zeros = self.steps - sum(hist.values())
        values = [0] * zeros
        for value, n in hist.items():
            values.extend([value] * n)
        return float(statistics.median(values)) if values else 0.0

    # -- installation ----------------------------------------------------

    def install(self, names=None):
        """Wrap every public function and listed method of the layers.

        With `names`, only the span names given are wrapped.
        """
        modules = [m for key, m in sys.modules.items()
                   if key == "gkdvlab" or key.startswith("gkdvlab.")]
        for layer in LAYERS:
            module = sys.modules["gkdvlab." + layer]
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                if names is not None and name not in names:
                    continue
                wrapped = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)
            for cls, attr, raw in _public_methods(module, layer):
                name = f"{layer}.{attr}"
                if names is not None and name not in names:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for attr in names:
        fn = getattr(module, attr)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield attr, fn


def _public_methods(module, layer):
    """(class, attribute, raw descriptor) for each wrapped method.

    Every Background subclass defining its own `jet` is included, so a
    jet evaluation is recorded whichever background the workload uses.
    """
    if layer == "background":
        base = module.Background
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, base)
                    and obj is not base and "jet" in vars(obj)):
                yield obj, "jet", vars(obj)["jet"]
    for cls_name, attrs in METHODS.get(layer, {}).items():
        cls = getattr(module, cls_name)
        for attr in attrs:
            yield cls, attr, vars(cls)[attr]
