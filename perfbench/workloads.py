"""The four benchmark workloads and the output gate they report to.

Each workload makes a different layer do most of the work, so a later
optimisation has one workload that exercises it and others that bypass it:

* ``sweep``: the Theorem 3.1 bound sweep; response/model/LP stack.
* ``learn``: Theorem 4.1 and Example 4.3; full-feedback fast path.
* ``bandit``: Exp3 replications; the per-round generic loop.
* ``simulate-csv``: the ``simulate`` CLI command; CSV trace export.

Every workload calls the library through ``repro.reproduce``,
``learning.run_replications`` or ``cli.main`` and looks those names up on
the module at call time, so a change inside them shows in the benchmark
and the traced run sees the calls.

A pass is one execution of a workload's operations on the inputs made from
the workload seed; ``run`` takes the pass index.  An operation is one
``reproduce`` call, one ``run_replications`` seed, or one CLI command; each
yields a digest of its outputs that the gate in ``run.py`` compares.  An
operation's key names its inputs (target and seed), so the same key always
means the same inputs and the same expected digest.

Only ``sweep`` uses the pass index.  Its instances differ in size, so its
passes cycle through ``SWEEP_CYCLE`` sweep seeds, ``seed * SWEEP_CYCLE + k %
SWEEP_CYCLE``, and a timed phase is a whole number of cycles
(``Workload.cycle``): every sweep seed is measured equally often, however
many passes fit.  The other workloads do the same work per round whatever
the seed.

``PINNED`` holds the digests today's code gives for workload seeds
``PINNED_SEEDS``; they are the ``digests`` of run records at those seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from persuasion_lab import cli, learning, repro
from persuasion_lab.classic import solve_classic
from persuasion_lab.fixtures import builtin_instance
from persuasion_lab.robustify import robustify

# The seed a run uses when none is given.
DEFAULT_SEED = 0
PINNED_SEEDS = range(0, 21)

# Sizes are fixed: throughput is only comparable at a stated input size.
SWEEP_INSTANCES = 25
SWEEP_CYCLE = 8
LEARN_ROUNDS = 500_000
LEARN_SEEDS = 2
BANDIT_ROUNDS = 4_000
BANDIT_SEEDS = 10
BANDIT_CONSTANT = 0.2
CSV_ROUNDS = 100_000
CSV_SEEDS = 2


@dataclass(frozen=True)
class Op:
    """Outcome of one operation: its key within a pass, whether it ran and
    passed its own checks, and a digest of what it produced."""

    key: str
    ok: bool
    digest: str


@dataclass(frozen=True)
class Pass:
    seconds: float
    items: int
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what ``items_per_s`` counts for this workload
    sizes: dict
    setup: Callable[[int, Path], object]
    run: Callable[[object, int], Pass]  # (inputs, pass index)
    cycle: int = 1  # passes that cover every input once


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _failed(key: str) -> Op:
    traceback.print_exc()
    return Op(key, False, "")


def _reproduce(target: str, **overrides) -> tuple[float, Op]:
    start = time.perf_counter()
    try:
        result = repro.reproduce(target, **overrides)
    except Exception:
        return time.perf_counter() - start, _failed(target)
    elapsed = time.perf_counter() - start
    digest = _sha256(json.dumps(result, sort_keys=True).encode())
    return elapsed, Op(target, bool(result["ok"]), digest)


# -- sweep ----------------------------------------------------------------


def _sweep_run(seed: int, k: int) -> Pass:
    sweep_seed = seed * SWEEP_CYCLE + k % SWEEP_CYCLE
    elapsed, op = _reproduce(
        "theorem-3-1-sweep", n_instances=SWEEP_INSTANCES, seed=sweep_seed
    )
    return Pass(elapsed, SWEEP_INSTANCES, (Op(f"{op.key}/seed{sweep_seed}", op.ok, op.digest),))


# -- learn ----------------------------------------------------------------


def _learn_run(seed: int, k: int) -> Pass:
    ops, total = [], 0.0
    for target in ("theorem-4-1", "example-4-3"):
        elapsed, op = _reproduce(
            target, rounds=LEARN_ROUNDS, n_seeds=LEARN_SEEDS, base_seed=seed, threads=1
        )
        ops.append(Op(f"{op.key}/seed{seed}", op.ok, op.digest))
        total += elapsed
    return Pass(total, 2 * LEARN_ROUNDS * LEARN_SEEDS, tuple(ops))


# -- bandit ---------------------------------------------------------------


@dataclass(frozen=True)
class _BanditInputs:
    instance: object
    scheme: object
    seeds: tuple[int, ...]


def _bandit_setup(seed: int, workdir: Path) -> _BanditInputs:
    instance = builtin_instance("judge")
    base, _ = solve_classic(instance)
    # the CLI's robustified:C sender mixes with weight C/2
    scheme = robustify(instance, base, BANDIT_CONSTANT / 2.0)
    return _BanditInputs(instance, scheme, tuple(range(seed, seed + BANDIT_SEEDS)))


def _actions_digest(trace) -> tuple[int, str]:
    actions = np.ascontiguousarray(trace.actions, dtype="<i8").tobytes()
    return trace.seed, _sha256(actions, repr(trace.final_average).encode())


def _bandit_run(inputs: _BanditInputs, k: int) -> Pass:
    start = time.perf_counter()
    try:
        summaries = learning.run_replications(
            inputs.instance,
            lambda: learning.FixedSchemePolicy(inputs.scheme),
            lambda: learning.Exp3(),
            BANDIT_ROUNDS,
            list(inputs.seeds),
            _actions_digest,
            threads=1,
        )
    except Exception:
        elapsed = time.perf_counter() - start
        ops = tuple(_failed(f"exp3/seed{s}") for s in inputs.seeds)
        return Pass(elapsed, BANDIT_ROUNDS * BANDIT_SEEDS, ops)
    elapsed = time.perf_counter() - start
    by_seed = dict(summaries)
    ops = tuple(
        Op(f"exp3/seed{s}", s in by_seed, by_seed.get(s, "")) for s in inputs.seeds
    )
    return Pass(elapsed, BANDIT_ROUNDS * BANDIT_SEEDS, ops)


# -- simulate-csv -----------------------------------------------------------


@dataclass(frozen=True)
class _CsvInputs:
    seed: int
    out: Path


def _csv_setup(seed: int, workdir: Path) -> _CsvInputs:
    return _CsvInputs(seed, workdir / "simulate-csv")


# Only these files are compared, so a later extra artifact (a run manifest,
# say) does not trip the gate.
def _csv_digest(out: Path, seed: int) -> tuple[bool, str]:
    expected = [f"trace-seed{s}.csv" for s in range(seed, seed + CSV_SEEDS)]
    names = sorted(
        ["simulate.json"]
        + [p.name for p in out.glob("trace-seed*.csv")]
        + [p.name for p in out.glob("diagnostics-seed*.csv")]
    )
    present = all((out / n).is_file() for n in ["simulate.json", *expected])
    chunks = []
    for name in names:
        path = out / name
        chunks += [name.encode(), b"\0", path.read_bytes() if path.is_file() else b""]
    return present, _sha256(*chunks)


def _csv_run(inputs: _CsvInputs, k: int) -> Pass:
    shutil.rmtree(inputs.out, ignore_errors=True)
    argv = [
        "simulate",
        "--instance", "judge",
        "--sender", f"robustified:{BANDIT_CONSTANT}",
        "--receiver", "exp-weights",
        "--rounds", str(CSV_ROUNDS),
        "--seeds", str(CSV_SEEDS),
        "--seed", str(inputs.seed),
        "--output-dir", str(inputs.out),
    ]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        op = _failed(f"simulate/seed{inputs.seed}")
        return Pass(time.perf_counter() - start, CSV_ROUNDS * CSV_SEEDS, (op,))
    elapsed = time.perf_counter() - start
    present, digest = _csv_digest(inputs.out, inputs.seed)
    shutil.rmtree(inputs.out, ignore_errors=True)
    op = Op(f"simulate/seed{inputs.seed}", code == 0 and present, digest)
    return Pass(elapsed, CSV_ROUNDS * CSV_SEEDS, (op,))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "sweep instance",
            {"n_instances": SWEEP_INSTANCES, "cycle": SWEEP_CYCLE},
            lambda seed, workdir: seed,
            _sweep_run,
            cycle=SWEEP_CYCLE,
        ),
        Workload(
            "learn",
            "simulated round",
            {"rounds": LEARN_ROUNDS, "n_seeds": LEARN_SEEDS},
            lambda seed, workdir: seed,
            _learn_run,
        ),
        Workload(
            "bandit",
            "simulated round",
            {"rounds": BANDIT_ROUNDS, "n_seeds": BANDIT_SEEDS, "constant": BANDIT_CONSTANT},
            _bandit_setup,
            _bandit_run,
        ),
        Workload(
            "simulate-csv",
            "trace row written",
            {"rounds": CSV_ROUNDS, "n_seeds": CSV_SEEDS},
            _csv_setup,
            _csv_run,
        ),
    )
}

# Expected digests by workload and operation key.  The bandit digests come
# from the per-seed Exp3 loop, so a seed-batched Exp3 is held to the same
# actions.
PINNED: dict[str, dict[str, str]] = json.loads(
    (Path(__file__).resolve().parent / "pinned.json").read_text(encoding="utf-8")
)
