"""Command-line front end.

Every command records the values it reads as its configuration, runs the
corresponding library call, writes deterministic JSON (and CSV traces for
simulations) under --output-dir, and prints a short human summary.  An
option given to a run that does not read it is a validation error.  Exit
codes: 0 success, 1 validation error, 2 assumption/hypothesis violation,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .classic import solve_classic
from .errors import (
    AssumptionViolatedError,
    HypothesisViolatedError,
    LPError,
    NoMassOnApproxSetError,
    ParseError,
    PersuasionError,
    ValidationError,
)
from .fixtures import BUILTIN_INSTANCES, builtin_instance
from .learning import (
    AlternatingSignalPolicy,
    FixedSchemePolicy,
    checkpoint_marks,
    make_receiver,
    run_replications,
)
from .model import (
    DEFAULT_EPS,
    advantage,
    check_direct,
    expected_utility,
    load_instance,
    load_scheme,
    obedient_strategy,
    profile_instance,
    scheme_stats,
    scheme_to_json,
)
from .repro import TARGETS, driver, reproduce
from .response import (
    DEFAULT_N_SCHEMES,
    approx_membership_mass,
    bounds_report,
    evaluate_objective,
    perturbed_posterior_certificate,
    perturbed_posterior_strategy,
    quantal_certificate,
    quantal_strategy,
)
from .robustify import (
    response_window,
    robustified_optimum,
    robustify,
    verify_robustification,
)

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_ASSUMPTION = 2
_EXIT_NUMERICAL = 3


def _exit_code(exc: PersuasionError) -> int:
    if isinstance(exc, (AssumptionViolatedError, HypothesisViolatedError)):
        return _EXIT_ASSUMPTION
    if isinstance(exc, (LPError, NoMassOnApproxSetError)):
        return _EXIT_NUMERICAL
    return _EXIT_VALIDATION


def _threads() -> int:
    """The ``PERSUASION_LAB_THREADS`` cap on replication threads (default 1)."""
    raw = os.environ.get("PERSUASION_LAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0  # rejected below, with the values under 1
    if threads < 1:
        raise ValidationError(
            f"PERSUASION_LAB_THREADS must be an integer of at least 1, got {raw!r}"
        )
    return threads


def _resolve_instance(ref: str):
    if ref in BUILTIN_INSTANCES:
        return builtin_instance(ref)
    path = Path(ref)
    if not path.exists():
        raise ParseError(
            f"instance {ref!r} is neither a builtin name {BUILTIN_INSTANCES} nor an existing file"
        )
    return load_instance(path)


def _write_text(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _write_json(outdir: Path, name: str, payload: dict) -> Path:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return _write_text(outdir, name, text + "\n")


def _finite_or_none(x: float):
    return x if x == x and abs(x) != float("inf") else None


def _default(value, default):
    """``value``, or ``default`` for an option left out; 0 is a given value."""
    return default if value is None else value


def _config(args: argparse.Namespace, *names: str, **resolved) -> dict:
    """The command and the values it read, for its report.

    ``names`` are options read as parsed; ``resolved`` holds the values the
    command worked out, defaults included.  An option the run does not read
    parses to ``None`` when left out, so any other parsed value outside these
    was given for nothing: that raises ``ValidationError``.  Call this before
    writing any file.
    """
    read = {**{name: getattr(args, name) for name in names}, **resolved}
    unread = [
        "--" + name.replace("_", "-")
        for name, value in vars(args).items()
        if value is not None and name not in read and name not in ("command", "func", "output_dir")
    ]
    if unread:
        raise ValidationError(f"this {args.command} run does not read {', '.join(unread)}")
    return {"command": args.command, **read}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_assumptions(args) -> int:
    config = _config(args, "instance", "eps_num")
    inst = _resolve_instance(args.instance)
    prof = profile_instance(inst, args.eps_num)
    per_state = prof.per_state_optimal
    report = {
        "config": config,
        "satisfied": prof.assumption_satisfied,
        "reasons": list(prof.reasons),
        "gap": _finite_or_none(prof.gap),
        "mu_min": prof.mu_min,
        "per_state_optimal": per_state,
        "optimal_regions": {a: sorted(w for w, b in per_state.items() if b == a) for a in inst.actions},
        "region_masses": dict(zip(inst.actions, prof.region_masses.tolist())),
    }
    path = _write_json(args.output_dir, "check-assumptions.json", report)
    status = "satisfied" if prof.assumption_satisfied else "violated"
    print(f"assumption {status}; gap={prof.gap:g} mu_min={prof.mu_min:g} -> {path}")
    for r in prof.reasons:
        print(f"  {r}")
    return _EXIT_OK if prof.assumption_satisfied else _EXIT_ASSUMPTION


def _cmd_solve_classic(args) -> int:
    config = _config(args, "instance")
    inst = _resolve_instance(args.instance)
    scheme, opt = solve_classic(inst)
    scheme_path = _write_text(args.output_dir, "optimal-scheme.json", scheme_to_json(scheme))
    stats = scheme_stats(inst, scheme)
    report = {
        "config": config,
        "opt": opt,
        "scheme_file": scheme_path.name,
        "signal_marginals": dict(zip(scheme.signals, stats.marginals.tolist())),
        "advantage": _finite_or_none(advantage(inst, scheme)),
    }
    path = _write_json(args.output_dir, "solve-classic.json", report)
    print(f"OPT = {opt:.9f} -> {path}")
    return _EXIT_OK


def _cmd_robustify(args) -> int:
    if args.alpha is not None and args.gamma is not None:
        raise ValidationError("robustify takes --alpha or --gamma, not both")
    inst = _resolve_instance(args.instance)
    if args.alpha is not None:
        weight = {"alpha": args.alpha}
    elif args.gamma is not None:
        rule = _default(args.rule, "lower")
        window = response_window(inst, args.gamma, args.eps_num)
        alpha = window.alpha if rule == "lower" else window.ratio
        weight = {"gamma": args.gamma, "rule": rule, "alpha": alpha}
    else:
        raise ValidationError("robustify needs either --alpha or --gamma")
    config = _config(args, "instance", "scheme", "eps_num", **weight)
    alpha = weight["alpha"]
    if args.scheme is not None:
        scheme = load_scheme(Path(args.scheme), inst)
    else:
        scheme, _ = solve_classic(inst)
    robust = robustify(inst, scheme, alpha, args.eps_num)
    report = verify_robustification(inst, scheme, robust, alpha, args.eps_num)
    scheme_path = _write_text(
        args.output_dir, "robustified-scheme.json", scheme_to_json(robust)
    )
    # with one action no margin exists and the slack is +inf, which JSON cannot hold
    slack = _finite_or_none(report.advantage_bound_slack)
    payload = {
        "config": config,
        "report": {**report.to_dict(), "advantage_bound_slack": slack},
        "ok": report.ok(),
        "scheme_file": scheme_path.name,
    }
    path = _write_json(args.output_dir, "robustify.json", payload)
    print(
        f"alpha = {alpha:.9g}; residual={report.marginal_identity_residual:.3g} "
        f"slack={report.advantage_bound_slack:.3g} tv={report.tv_distance:.3g} "
        f"ok={report.ok()} -> {path}"
    )
    return _EXIT_OK if report.ok() else _EXIT_NUMERICAL


def _kind_param(ref: str, option: str) -> float:
    """The finite number after ``kind:`` in a ``--mode`` or ``--sender`` value."""
    try:
        value = float(ref.split(":", 1)[1])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"bad numeric parameter in {option} {ref!r}")
    return value


def _parse_mode(mode: str) -> tuple[str, float | None]:
    if mode in ("worst", "best", "obedient"):
        return mode, None
    for prefix in ("quantal", "perturbed"):
        if mode.startswith(prefix + ":"):
            return prefix, _kind_param(mode, "mode")
    raise ValidationError(
        f"mode must be worst|best|obedient|quantal:LAM|perturbed:EPS, got {mode!r}"
    )


def _cmd_evaluate(args) -> int:
    kind, param = _parse_mode(args.mode)
    read = {}
    if kind in ("worst", "best"):
        read.update(gamma=_default(args.gamma, 0.0), delta=_default(args.delta, 0.0))
    if kind == "perturbed":
        read.update(seed=_default(args.seed, 0))
    config = _config(args, "instance", "scheme", "mode", **read)
    inst = _resolve_instance(args.instance)
    scheme = load_scheme(Path(args.scheme), inst)
    report = {"config": config}
    if kind in ("worst", "best"):
        est = evaluate_objective(inst, scheme, config["gamma"], config["delta"], kind)
        report.update(
            value=est.value,
            knife_edge_signals=list(est.knife_edge_signals),
            witness=est.witness_strategy.action_distribution.tolist(),
        )
        value = est.value
    elif kind == "obedient":
        check_direct(inst, scheme)
        value = expected_utility(inst, scheme, obedient_strategy(inst))
        report.update(value=value)
    else:
        if kind == "quantal":
            strat = quantal_strategy(inst, scheme, param)
            name, cert = "lam", quantal_certificate(inst, param)
        else:
            rng = np.random.default_rng(config["seed"])
            strat = perturbed_posterior_strategy(inst, scheme, param, rng)
            name, cert = "epsilon", perturbed_posterior_certificate(param)
        value = expected_utility(inst, scheme, strat)
        report.update(
            {name: param},
            value=value,
            certificate={"gamma": _finite_or_none(cert[0]), "delta": _finite_or_none(cert[1])},
            membership_mass=approx_membership_mass(inst, scheme, strat, cert[0]),
            strategy=strat.action_distribution.tolist(),
        )
    path = _write_json(args.output_dir, "evaluate.json", report)
    print(f"value = {value:.9f} ({args.mode}) -> {path}")
    return _EXIT_OK


def _cmd_bounds(args) -> int:
    config = _config(args, "instance", "gamma", "delta", "samples", "seed", "eps_num")
    inst = _resolve_instance(args.instance)
    rep = bounds_report(
        inst,
        args.gamma,
        args.delta,
        n_schemes=args.samples,
        seed=args.seed,
        eps_num=args.eps_num,
    )
    payload = {"config": config, "report": rep.to_dict()}
    path = _write_json(args.output_dir, "bounds.json", payload)
    print(
        f"opt = {rep.opt:.9f}; window = [{rep.lower_bound:.9f}, {rep.upper_bound:.9f}]; "
        f"certificate = {rep.lower_certificate:.9f}; ok={rep.ok} -> {path}"
    )
    return _EXIT_OK if rep.ok else _EXIT_NUMERICAL


def _make_policy_factory(args, inst):
    """The sender's policy factory and the config values it read."""
    ref = args.sender
    if ref == "alternating":
        return lambda: AlternatingSignalPolicy(inst), {}
    if ref.startswith("fixed:"):
        scheme = load_scheme(Path(ref.split(":", 1)[1]), inst)
        return lambda: FixedSchemePolicy(scheme), {}
    if ref.startswith("robustified:"):
        eps_num = _default(args.eps_num, DEFAULT_EPS)
        scheme, alpha, _ = robustified_optimum(inst, _kind_param(ref, "sender"), eps_num)
        return lambda: FixedSchemePolicy(scheme), {"alpha": alpha, "eps_num": eps_num}
    raise ValidationError(
        f"sender must be fixed:<scheme.json>|robustified:<C>|alternating, got {ref!r}"
    )


def _cmd_simulate(args) -> int:
    inst = _resolve_instance(args.instance)
    policy_factory, sender_cfg = _make_policy_factory(args, inst)
    receiver_factory = lambda: make_receiver(args.receiver)
    feedback = receiver_factory().feedback_mode
    seeds = list(range(args.seed, args.seed + args.seeds))
    # the default interval is the first default mark
    checkpoint_every = _default(args.checkpoint_every, checkpoint_marks(args.rounds)[0])
    threads = min(_threads(), len(seeds))
    # checked here, as the seeds below write their files as they finish
    config = _config(
        args,
        "instance",
        "sender",
        "receiver",
        "rounds",
        "seed",
        seeds=seeds,
        checkpoint_every=checkpoint_every,
        feedback=feedback,
        threads=threads,
        **sender_cfg,
    )
    out = args.output_dir

    def write_seed(trace) -> dict:
        """Write one seed's files as it finishes; keep only its report row."""
        out.mkdir(parents=True, exist_ok=True)
        trace.to_csv(out / f"trace-seed{trace.seed}.csv")
        diagnostics = out / f"diagnostics-seed{trace.seed}.csv"
        last = trace.checkpoints_to_csv(diagnostics, checkpoint_every)[-1]  # at t = rounds
        return {
            "seed": trace.seed,
            "final_average": last.running_avg,
            "obedience_last_decile": trace.last_decile_obedience,
        }

    per_seed = run_replications(
        inst, policy_factory, receiver_factory, args.rounds, seeds, write_seed, threads=threads
    )
    finals = [p["final_average"] for p in per_seed]
    payload = {
        "config": config,
        "per_seed": per_seed,
        "mean_final_average": float(np.mean(finals)),
    }
    path = _write_json(args.output_dir, "simulate.json", payload)
    print(
        f"{len(seeds)} runs x {args.rounds} rounds; mean final average = "
        f"{payload['mean_final_average']:.6f} -> {path}"
    )
    return _EXIT_OK


def _cmd_reproduce(args) -> int:
    # a driver takes the overrides its signature names
    params = inspect.signature(driver(args.target)).parameters
    given = {
        "--rounds": ("rounds", args.rounds),
        "--seeds": ("n_seeds", args.seeds),
        "--instances": ("n_instances", args.instances),
        # the first replication seed, or the sweep's instance seed
        "--seed": ("seed" if "seed" in params else "base_seed", args.seed),
    }
    given = {flag: pair for flag, pair in given.items() if pair[1] is not None}
    untaken = [flag for flag, (keyword, _) in given.items() if keyword not in params]
    if untaken:
        raise ValidationError(f"target {args.target!r} does not take {', '.join(untaken)}")
    overrides = dict(given.values())
    if "threads" in params:
        # the pool starts no more threads than there are seeds
        overrides["threads"] = _threads()
    result = reproduce(args.target, **overrides)
    path = _write_json(args.output_dir, f"reproduce-{args.target}.json", result)
    for check in result["checks"]:
        mark = "PASS" if check["ok"] else "FAIL"
        print(f"{mark}  {check['name']} = {check['value']}  (expect {check['expect']})")
    print(f"{'ok' if result['ok'] else 'FAILED'} -> {path}")
    return _EXIT_OK if result["ok"] else _EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    out = _option(
        "--output-dir", type=Path, default=Path("out"), help="artifact directory (default: ./out)"
    )
    seed = _option("--seed", type=int, default=0, help="base RNG seed (default: 0)")
    eps_help = "tie tolerance of the instance profile; at least 0 (default: 1e-9)"
    eps = _option("--eps-num", type=float, default=DEFAULT_EPS, help=eps_help)
    parser = argparse.ArgumentParser(
        prog="persuasion-lab",
        description="Optimal persuasion schemes, robustification, bound checks, and learning simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-assumptions", parents=[out, eps], help="profile per-state optima")
    p.add_argument("--instance", required=True, help="instance file or builtin name")
    p.set_defaults(func=_cmd_check_assumptions)

    p = sub.add_parser("solve-classic", parents=[out], help="solve the obedience LP")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_solve_classic)

    p = sub.add_parser("robustify", parents=[out, eps], help="mix a scheme toward full disclosure")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", help="direct scheme file (default: solve the instance first)")
    p.add_argument("--alpha", type=float, help="explicit mixing weight")
    p.add_argument("--gamma", type=float, help="derive the weight from a margin target")
    p.add_argument(
        "--rule", choices=("lower", "upper"), help="weight rule, read with --gamma (default: lower)"
    )
    p.set_defaults(func=_cmd_robustify)

    # where a mode or sender may not read an option, it parses to None when
    # left out, and the command resolves its default (see _config)
    p = sub.add_parser("evaluate", parents=[out], help="sender value under a response model")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--seed", type=int, help="RNG seed of perturbed:EPS (default: 0)")
    p.add_argument("--gamma", type=float, help="read by worst and best (default: 0)")
    p.add_argument("--delta", type=float, help="read by worst and best (default: 0)")
    p.add_argument(
        "--mode",
        required=True,
        help="worst|best|obedient|quantal:LAM|perturbed:EPS",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bounds", parents=[out, seed, eps], help="two-sided utility window check")
    p.add_argument("--instance", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument(
        "--samples", type=int, default=DEFAULT_N_SCHEMES, help="random schemes for the upper side"
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", parents=[out, seed], help="repeated play against a learner")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--sender",
        required=True,
        help="fixed:<scheme.json>|robustified:<C>|alternating",
    )
    p.add_argument("--eps-num", type=float, help=eps_help + "; read by robustified:<C> only")
    p.add_argument("--receiver", required=True, help="empirical-br|exp-weights|exp3")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of replications")
    p.add_argument("--checkpoint-every", type=int, help="diagnostic interval (default: rounds/10)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", parents=[out], help="run a pinned end-to-end bundle")
    p.add_argument("target", help="|".join(TARGETS))
    # without --seed each target keeps its own pinned seed
    seed_help = "first replication seed, or the sweep's instance seed (default: the target's own)"
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--rounds", type=int, help="override the bundled horizon")
    p.add_argument("--seeds", type=int, help="override the bundled seed count")
    p.add_argument("--instances", type=int, help="override the sweep size")
    p.set_defaults(func=_cmd_reproduce)

    return parser


# Count options; each must be at least 1 where the command takes it.
_POSITIVE_OPTIONS = ("rounds", "seeds", "samples", "checkpoint_every", "instances")
# Real options; each must be finite where the command takes it.
_FINITE_OPTIONS = ("gamma", "delta", "alpha", "eps_num")
# Options that must be at least 0.
_NONNEGATIVE_OPTIONS = ("eps_num", "seed")


def _check_options(args: argparse.Namespace) -> None:
    for name in dict.fromkeys(_POSITIVE_OPTIONS + _FINITE_OPTIONS + _NONNEGATIVE_OPTIONS):
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name in _POSITIVE_OPTIONS and value < 1:
            raise ValidationError(f"{flag} must be at least 1, got {value}")
        if name in _FINITE_OPTIONS and not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")
        if name in _NONNEGATIVE_OPTIONS and value < 0:
            raise ValidationError(f"{flag} must be at least 0, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except PersuasionError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
