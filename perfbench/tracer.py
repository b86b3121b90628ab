"""Outside-in span recorder for the traced benchmark run.

The library has no tracing of its own, so the recorder wraps public
functions from the outside:

* A module-level function is replaced in *every* ``persuasion_lab``
  namespace that binds it.  ``response`` does ``from .model import
  scheme_stats``, so patching ``model`` alone would miss the calls made
  from ``response``, ``sampling`` and ``robustify``; ``repro`` and ``cli``
  likewise hold their own ``run_replications`` and ``solve_classic``.
  Bindings are found by identity, so a new import site is covered without
  editing this file.
* A method is replaced on its class.

Each call becomes a span ``[name, start, end, parent]`` kept in memory;
``Recorder.write`` saves them once the run is over.  A span's self time is
its duration minus the part of it covered by its child spans.  The recorder
keeps one call stack, so it assumes the single thread the benchmark pins.

A recorder made with ``memory=True`` also runs ``tracemalloc`` inside each
``learning.simulate`` span and keeps the peak of what the span allocated.
``tracemalloc`` slows Python loops several times over, so the benchmark
takes timings from a recorder without it and peaks from a separate pass.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import time
import tracemalloc
from collections import Counter, defaultdict

PACKAGE = "persuasion_lab"

# (module, function) pairs wrapped wherever they are bound
FUNCTIONS = (
    ("simplex", "solve_standard_form"),
    ("classic", "build_obedience_lp"),
    ("classic", "solve_classic"),
    ("model", "scheme_stats"),
    ("model", "make_scheme"),
    ("model", "profile_instance"),
    ("response", "evaluate_objective"),
    ("response", "bounds_report"),
    ("robustify", "robustify"),
    ("robustify", "choose_alpha_lower"),
    ("sampling", "satisfied_instance"),
    ("learning", "simulate"),
    ("learning", "run_replications"),
    ("learning", "convergence_report"),
    ("repro", "reproduce"),
    ("cli", "main"),
)

# (module, class, method) triples wrapped on the class
METHODS = (
    ("learning", "AlternatingSignalPolicy", "signals_for_states"),
    ("learning", "SimulationTrace", "to_csv"),
    ("learning", "SimulationTrace", "checkpoints_to_csv"),
)

RECEIVER_KINDS = ("exp-weights", "empirical-br", "exp3")

# The per-layer metrics and their units are listed in ``BENCHMARK.json``.
# ``self_s`` sums self time over a label's spans; ``us_per_*`` divides their
# whole duration, children included, by calls, rounds or rows.  A layer a
# workload does not reach reports zero.  Counts (unit "count" or "bytes",
# and the accept ratio) repeat exactly between runs of the same workload
# and seed; the rest are timings or memory.
EXACT_UNITS = ("count", "bytes")
EXACT_EXTRA = ("sampling.accept_ratio",)


def is_exact(name: str, unit: str) -> bool:
    """True for the per-layer metrics that must repeat exactly."""
    return unit in EXACT_UNITS or name in EXACT_EXTRA


def _modules() -> list:
    package = importlib.import_module(PACKAGE)
    names = [info.name for info in pkgutil.iter_modules(package.__path__)]
    return [package] + [importlib.import_module(f"{PACKAGE}.{n}") for n in names]


class Recorder:
    """Patches the traced layers, records spans, and undoes the patches."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            label = f"{mod_name}.{fn_name}"
            for ns in modules:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        via = ns.__name__.rpartition(".")[2]
                        self._patch(ns, attr, self._wrap(label, original, via))
        for mod_name, cls_name, meth_name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            original = vars(cls)[meth_name]
            label = f"{mod_name}.{cls_name}.{meth_name}"
            self._patch(cls, meth_name, self._wrap(label, original, mod_name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, label: str, fn, via: str):
        if label == "learning.simulate":
            sig = inspect.signature(fn)

            def simulate(*args, **kwargs):
                kind = sig.bind(*args, **kwargs).arguments["receiver"].kind
                name = f"{label}.{kind}"
                if not self.memory:
                    trace = self._call(name, fn, args, kwargs)
                    self.counts[f"{name}.rounds"] += trace.rounds
                    return trace
                tracemalloc.start()
                try:
                    trace = self._call(name, fn, args, kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
                return trace

            return simulate
        if label == "simplex.solve_standard_form":

            def solve(*args, **kwargs):
                result = self._call(label, fn, args, kwargs)
                self.counts["simplex.pivots"] += result.iterations
                return result

            return solve
        if label == "learning.SimulationTrace.to_csv":

            def to_csv(trace, path):
                out = self._call(label, fn, (trace, path), {})
                self.counts[f"{label}.rows"] += trace.rounds
                self.counts[f"{label}.bytes"] += os.path.getsize(path)
                return out

            return to_csv
        if label == "model.profile_instance" and via == "sampling":

            def profile(*args, **kwargs):
                self.counts["sampling.profile_instance.calls"] += 1
                return self._call(label, fn, args, kwargs)

            return profile

        def plain(*args, **kwargs):
            return self._call(label, fn, args, kwargs)

        return plain

    def _call(self, name: str, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- reduction ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the union of direct-child intervals, per span."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def metrics(
        self,
        names,
        untraced_s: float,
        traced_s: float,
        overhead: float,
        peak_bytes: dict[str, int],
    ) -> dict[str, float]:
        """The per-layer metrics ``names`` from this recorder's spans and
        counts, with the simulate peaks taken from a ``memory=True``
        recorder."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start

        def per(total: float, count: float) -> float:
            return 1e6 * total / count if count else 0.0

        values: dict[str, float] = {}
        for metric in names:
            label, _, measure = metric.rpartition(".")
            if measure == "calls":
                values[metric] = calls[label]
            elif measure == "self_s":
                values[metric] = self_s[label]
        values["response.evaluate_objective.us_per_call"] = per(
            total_s["response.evaluate_objective"], calls["response.evaluate_objective"]
        )
        values["simplex.pivots"] = self.counts["simplex.pivots"]
        profiled = self.counts["sampling.profile_instance.calls"]
        accepted = calls["sampling.satisfied_instance"]
        values["sampling.accept_ratio"] = accepted / profiled if profiled else 0.0
        for kind in RECEIVER_KINDS:
            label = f"learning.simulate.{kind}"
            rounds = self.counts[f"{label}.rounds"]
            values[f"{label}.rounds"] = rounds
            values[f"{label}.us_per_round"] = per(total_s[label], rounds)
            values[f"{label}.peak_mb"] = peak_bytes.get(label, 0) / 2**20
        csv_label = "learning.SimulationTrace.to_csv"
        rows = self.counts[f"{csv_label}.rows"]
        values[f"{csv_label}.rows"] = rows
        values[f"{csv_label}.bytes"] = self.counts[f"{csv_label}.bytes"]
        values[f"{csv_label}.us_per_row"] = per(total_s[csv_label], rows)
        values["trace.untraced_s"] = untraced_s
        values["trace.traced_s"] = traced_s
        values["trace.overhead_ratio"] = overhead
        missing = set(names) - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        return {name: values[name] for name in names}

    def write(self, path, record: dict) -> None:
        """Save the run record and every span as one JSON document."""
        fields = ("name", "start", "end", "parent")
        payload = {"record": record, "fields": fields, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
