"""Check that two traced runs of every workload agree exactly.

    python3 perfbench/check_counters.py

Runs ``run.py --trace 1`` twice for each workload in ``BENCHMARK.json`` at
the default seed, each time in a fresh process, and fails unless both runs

* report every per-layer metric listed in ``BENCHMARK.json``,
* count zero failed operations,
* agree exactly on every counter: ``simplex.pivots``, each ``*.calls``,
  ``learning.simulate.*.rounds``, ``to_csv.rows``, ``to_csv.bytes`` and
  ``sampling.accept_ratio``, and
* saw the same output digest for every operation, so outputs are compared
  across processes and not only within one.

It also prints the tracing overhead of each run.  Exit status 0 means
every check held.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import tracer


def traced_run(workload: str) -> tuple[dict, dict]:
    """The run record and the result of one traced run."""
    cmd = [
        sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
        "--seconds", "1", "--trace", "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record.removeprefix("record ")), json.loads(result)


def main() -> int:
    exact = sorted(name for name, unit in run.PER_LAYER.items() if tracer.is_exact(name, unit))
    problems = []
    for workload in (w["name"] for w in run.BENCHMARK["workloads"]):
        (record1, first), (record2, second) = traced_run(workload), traced_run(workload)
        for n, result in enumerate((first, second), 1):
            missing = set(run.PER_LAYER) - set(result["metrics"])
            if missing:
                problems.append(f"{workload} run {n}: missing {sorted(missing)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} run {n}: {result['failed']} failed operations")
        for name in exact:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a} != {b}")
        if record1["digests"] != record2["digests"]:
            problems.append(
                f"{workload}: digests differ between runs: "
                f"{record1['digests']} != {record2['digests']}"
            )
        overhead = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (first, second)]
        nonzero = sum(1 for name in exact if first["metrics"][name]["value"])
        print(
            f"{workload}: {nonzero} of {len(exact)} counters non-zero, all compared; "
            f"{len(record1['digests'])} digests compared; "
            f"tracing overhead {overhead[0]:.3f}x and {overhead[1]:.3f}x"
        )
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
