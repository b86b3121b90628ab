"""Benchmark for persuasion-lab.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all [--trace 1]

``--workload all`` runs every workload in a fresh process of its own and
prints each metric by name and unit; ``perfbench/check_counters.py``
checks that the exact per-layer counters repeat between traced runs.

An untraced run (``--trace 0``) measures the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time from
  process start to the start of the timed phase, that is, importing the
  library and building the workload's inputs;
* ``items_per_cal``: median over the timed passes of items processed per
  "cal", where an item is a sweep instance (``sweep``), a simulated round
  summed over seeds (``learn``, ``bandit``) or a trace row written, timed
  over the whole CLI command (``simulate-csv``), and a cal is the time the
  machine takes for the fixed ``Calibration`` kernel, run before and after
  each pass.  On a shared host items per second swing by a fifth or more
  from minute to minute; dividing by the cal removes most of that swing.
  Only passes whose operations all passed count.  Items per second are in
  the run record;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's own process.

One pass runs first untimed so lazy set-up is done, then passes repeat
until ``--seconds`` have gone by and the passes cover the workload's inputs
a whole number of times (``Workload.cycle``).  The inputs of every pass are
made from ``--seed`` and the pass index (see ``workloads``).

A traced run (``--trace 1``) does a fixed amount of work whatever
``--seconds`` says, so its counts repeat exactly.  All its passes use pass
index 0: one untimed pass; three pairs of an untraced pass and a pass under
``tracer.Recorder``, whose median ratio in cals is the tracing overhead;
and one pass with ``tracemalloc`` inside the simulate spans for their
memory peaks.  It reports the per-layer metrics listed in
``BENCHMARK.json`` from the last recorded pass and writes that pass's
spans under ``perfbench/out/``.

Both kinds of run count operations attempted and failed.  An operation
fails if it raises, if the CLI exits non-zero, if a ``reproduce`` check
fails, or if its output digest differs from the one pinned for its
operation key (``workloads.PINNED``) or from the first digest the run saw
for the same key.  At a seed in ``workloads.PINNED_SEEDS`` every key must
be pinned.  Threads are pinned to one (``threads=1``,
``PERSUASION_LAB_THREADS=1`` and the BLAS thread variables) before numpy is
imported, so the ambient environment cannot change them.

The last line of standard output is the result as one JSON object; the
line before it is the run record: versions, machine, commit, thread
setting, seed, sizes, why the workload was chosen (from ``BENCHMARK.json``),
every sample and the digests seen.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

THREAD_ENV = {
    "PERSUASION_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
OVERHEAD_PAIRS = 3

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load():
    """Import the library from this checkout's ``src`` and the workloads."""
    if not (SRC / "persuasion_lab" / "__init__.py").is_file():
        _die(f"no persuasion_lab sources under {SRC}; run from a repository checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import persuasion_lab
    import workloads

    if Path(persuasion_lab.__file__).resolve().parent != SRC / "persuasion_lab":
        _die(f"imported persuasion_lab from {persuasion_lab.__file__}, not from {SRC}")
    return workloads


# -- run record -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _why(name: str) -> str:
    return {w["name"]: w["why"] for w in BENCHMARK["workloads"]}[name]


def _record(wl, args) -> dict:
    import numpy

    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": wl.name,
        "why": _why(wl.name),
        "item": wl.item,
        "sizes": wl.sizes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {"threads": 1, **THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# -- output gate --------------------------------------------------------------


class Gate:
    """Counts operations and fails those whose outputs are wrong."""

    def __init__(self, pinned: dict[str, str], require_pin: bool):
        self.pinned = pinned
        self.require_pin = require_pin
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ops) -> bool:
        """Count ``ops``; True when none of them failed."""
        failed_before = self.failed
        for op in ops:
            self.attempted += 1
            first = self.first.setdefault(op.key, op.digest)
            problems = []
            if not op.ok:
                problems.append("raised or failed its own checks")
            if op.digest != first:
                problems.append(f"digest {op.digest} differs from the first pass {first}")
            if op.key in self.pinned and op.digest != self.pinned[op.key]:
                problems.append(f"digest {op.digest} differs from the pinned {self.pinned[op.key]}")
            elif op.key not in self.pinned and self.require_pin:
                problems.append("no digest is pinned for it")
            if problems:
                self.failed += 1
                print(f"perfbench: operation {op.key} failed: {'; '.join(problems)}", file=sys.stderr)
        return self.failed == failed_before


# -- measurement ----------------------------------------------------------------


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to
        # 50 ms and the measured time snaps to that grid
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Calibration:
    """Times a fixed mix of interpreter work, small-array numpy calls, CSV
    rows of numpy scalars written to the file ``path``, and a cache-sized
    numpy pass, the kinds of work the workloads do: one "cal" is how long
    this machine takes for it right now.  The arrays are made once, so the
    peak RSS barely moves."""

    ROWS = 4000

    def __init__(self, path: Path):
        import numpy as np

        self.path = path
        rng = np.random.default_rng(0)
        self.codes = rng.integers(0, 3, self.ROWS)
        self.values = rng.random(self.ROWS)
        self.small = np.arange(256.0)
        self.big = np.ones(65_536)
        self.out = np.empty_like(self.big)

    def __call__(self) -> float:
        names = ("a0", "a1", "a2")
        start = time.perf_counter()
        acc = 0.0
        with open(self.path, "w", newline="", encoding="utf-8") as fh:
            rows = csv.writer(fh)
            for i in range(self.ROWS):
                acc += float((self.small * i).sum())
                value = repr(float(self.values[i]))
                rows.writerow([i, names[self.codes[i]], value, repr(i / 7.0), repr(acc)])
        for _ in range(160):
            acc += float(self.big.cumsum(out=self.out)[-1])
        return time.perf_counter() - start


def _untraced(wl, inputs, gate: Gate, calibrate: Calibration, seconds: float, setup, record):
    gate.check(wl.run(inputs, 0).ops)  # warm-up pass, not timed
    clean, failed = [], []  # (items per second, items per cal) of each pass
    cal_before = calibrate()
    deadline = time.perf_counter() + seconds
    passes = 0
    while not passes or time.perf_counter() < deadline or passes % wl.cycle:
        passes += 1
        p = wl.run(inputs, passes)
        cal_after = calibrate()
        rate = p.items / p.seconds
        # a pass that failed may have stopped early, so its rate means nothing
        (clean if gate.check(p.ops) else failed).append(
            (rate, rate * (cal_before + cal_after) / 2)
        )
        cal_before = cal_after
    per_s, per_cal = (list(col) for col in zip(*(clean or failed)))
    record["samples"] = {"setup_s": setup, "items_per_s": per_s, "items_per_cal": per_cal}
    record["items_per_s"] = statistics.median(per_s)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_cal": statistics.median(per_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _timed_pass(wl, inputs, gate: Gate, calibrate: Calibration, recorder=None):
    """Wall seconds of one pass at index 0, and the same in cals."""
    cal_before = calibrate()
    if recorder is not None:
        recorder.install()
    try:
        start = time.perf_counter()
        p = wl.run(inputs, 0)
        seconds = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()
    gate.check(p.ops)
    return seconds, seconds / ((cal_before + calibrate()) / 2)


def _traced(wl, inputs, gate: Gate, calibrate: Calibration, record: dict) -> dict[str, dict]:
    import tracer

    gate.check(wl.run(inputs, 0).ops)  # warm-up pass, not timed
    untraced, traced, ratios = [], [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced_s, untraced_cal = _timed_pass(wl, inputs, gate, calibrate)
        timing = tracer.Recorder()  # every pass records the same spans and counts
        traced_s, traced_cal = _timed_pass(wl, inputs, gate, calibrate, timing)
        untraced.append(untraced_s)
        traced.append(traced_s)
        ratios.append(traced_cal / untraced_cal)
    memory = tracer.Recorder(memory=True)
    _timed_pass(wl, inputs, gate, calibrate, memory)

    spans = OUT / f"spans-{wl.name}-seed{record['seed']}.json"
    timing.write(spans, record)
    record["spans_file"] = str(spans.relative_to(ROOT))
    record["samples"] = {"untraced_s": untraced, "traced_s": traced, "overhead_ratio": ratios}
    values = timing.metrics(
        PER_LAYER,
        statistics.median(untraced),
        statistics.median(traced),
        statistics.median(ratios),
        memory.peak_bytes,
    )
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def run_one(args) -> None:
    workloads = _load()
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        wl.setup(args.seed, workdir)
        return

    setup = None if args.trace else _setup_seconds(args)
    OUT.mkdir(parents=True, exist_ok=True)
    record = _record(wl, args)
    inputs = wl.setup(args.seed, workdir)
    gate = Gate(workloads.PINNED[wl.name], args.seed in workloads.PINNED_SEEDS)

    try:
        workdir.mkdir(parents=True, exist_ok=True)
        calibrate = Calibration(workdir / "calibration.csv")
        if args.trace:
            metrics = _traced(wl, inputs, gate, calibrate, record)
        else:
            metrics = _untraced(wl, inputs, gate, calibrate, args.seconds, setup, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["digests"] = gate.first

    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in a fresh process; one table of every metric."""
    _load()
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in workloads.WORKLOADS.items():
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].removeprefix("record "))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{name}: {record['why']}")
        print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
        print(f"  item: {wl.item}; sizes: {record['sizes']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<58} {m['value']:>16.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
        if "items_per_s" in record:
            print(f"  {'(uncalibrated) items_per_s':<58} {record['items_per_s']:>16.6g} items/s")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
