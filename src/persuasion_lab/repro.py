"""Named end-to-end reproduction bundles with frozen thresholds.

Each driver returns a JSON-ready dict: resolved configuration, a list of
checks (name, value, bounds, ok), and an overall flag.  The acceptance test
suite runs the same drivers, so CLI output and test verdicts cannot drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classic import solve_classic
from .errors import UnknownTargetError, ValidationError
from .fixtures import builtin_instance
from .learning import (
    AlternatingSignalPolicy,
    EmpiricalBestResponse,
    SimulationTrace,
    confidence_radius,
    convergence_report,
    empirical_conditional_utilities,
    run_replications,
)
from .model import (
    PersuasionInstance,
    full_revelation_scheme,
    posterior,
    scheme_stats,
)
from .response import BOUNDS_TOLERANCE, bounds_grid, evaluate_objective
from .robustify import choose_alpha_lower, robustify
from .sampling import satisfied_instance

# The response-set width the judge target robustifies against.
JUDGE_GAMMA = 0.03
# The bound sweep's response-set widths and deviation masses.
SWEEP_GAMMAS = (0.01, 0.05)
SWEEP_DELTAS = (0.0, 0.02)
# What Theorem 4.1's sender may forfeit of the classic optimum.
CONVERGENCE_CONSTANT = 0.2


def _check(name: str, value, ok: bool, expect: str) -> dict:
    return {"name": name, "value": value, "expect": expect, "ok": bool(ok)}


def _finish(name: str, config: dict, checks: list[dict]) -> dict:
    return {
        "target": name,
        "config": config,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def reproduce_judge() -> dict:
    inst = builtin_instance("judge")
    scheme, opt = solve_classic(inst)
    post = posterior(inst, scheme, "convict")
    worst0 = evaluate_objective(inst, scheme, 0.0, 0.0, "worst").value
    alpha = choose_alpha_lower(inst, JUDGE_GAMMA)
    robust = robustify(inst, scheme, alpha)
    worst_r = evaluate_objective(inst, robust, JUDGE_GAMMA, 0.0, "worst").value
    checks = [
        _check("opt", opt, abs(opt - 0.6) <= 1e-8, "0.6 +/- 1e-8"),
        _check(
            "posterior_guilty_at_convict",
            float(post[0]),
            abs(float(post[0]) - 0.5) <= 1e-9,
            "0.5 +/- 1e-9",
        ),
        _check("worst_mode_at_exact_br", worst0, abs(worst0) <= 1e-9, "0 +/- 1e-9"),
        _check(
            "worst_mode_robustified",
            worst_r,
            worst_r >= 0.5,
            ">= 0.5 after mixing against gamma",
        ),
    ]
    return _finish("judge", {"instance": "judge", "gamma": JUDGE_GAMMA, "alpha": alpha}, checks)


def reproduce_example_1() -> dict:
    inst = builtin_instance("example-1")
    scheme, opt = solve_classic(inst)
    full = full_revelation_scheme(inst)
    worst_full = evaluate_objective(inst, full, 0.0, 0.0, "worst").value
    worst_opt = evaluate_objective(inst, scheme, 0.0, 0.0, "worst").value
    checks = [
        _check("opt", opt, abs(opt - 0.5) <= 1e-8, "0.5 +/- 1e-8"),
        _check(
            "worst_mode_full_revelation",
            worst_full,
            abs(worst_full) <= 1e-9,
            "0 +/- 1e-9",
        ),
        _check(
            "worst_mode_optimal_scheme", worst_opt, abs(worst_opt) <= 1e-9, "0 +/- 1e-9"
        ),
    ]
    return _finish("example-1", {"instance": "example-1"}, checks)


@dataclass(frozen=True)
class AlternatingStats:
    seed: int
    overall_avg: float
    s1_fraction: float
    s1_mean: float | None
    s2_mean: float | None
    alternation_ok: bool


def alternating_stats(trace: SimulationTrace) -> AlternatingStats:
    """Example 4.3's summary of one alternating-sender trace; an unsent signal's mean is None."""
    # each gather is freed before the next is made
    s1 = trace.signals == 0
    s1_states = trace.states[s1]
    alternation = bool(np.all(s1_states[0::2] == 0) and np.all(s1_states[1::2] == 1))
    del s1_states
    overall_avg, utils = trace.final_average, trace.sender_utils
    return AlternatingStats(
        seed=trace.seed,
        overall_avg=overall_avg,
        s1_fraction=float(s1.mean()),
        s1_mean=_mean_or_none(utils[s1]),
        s2_mean=_mean_or_none(utils[~s1]),
        alternation_ok=alternation,
    )


def _mean_or_none(values: np.ndarray) -> float | None:
    return float(values.mean()) if values.size else None


def _seed_mean(values: list) -> float | None:
    """The mean over seeds, ``None`` when some seed has no value."""
    return None if None in values else float(np.mean(values))


def reproduce_example_4_3(
    rounds: int = 2_000_000,
    n_seeds: int = 20,
    base_seed: int = 0,
    threads: int = 1,
) -> dict:
    inst = builtin_instance("example-4-3")
    _, opt = solve_classic(inst)
    seeds = list(range(base_seed, base_seed + n_seeds))

    stats = run_replications(
        inst,
        lambda: AlternatingSignalPolicy(inst),
        EmpiricalBestResponse,
        rounds,
        seeds,
        alternating_stats,
        threads=threads,
    )
    overall = float(np.mean([s.overall_avg for s in stats]))
    frac = float(np.mean([s.s1_fraction for s in stats]))
    s1m = _seed_mean([s.s1_mean for s in stats])
    s2m = _seed_mean([s.s2_mean for s in stats])
    altern = all(s.alternation_ok for s in stats)

    checks = [
        _check("opt", opt, abs(opt - 0.5) <= 1e-8, "0.5 +/- 1e-8"),
        _check("overall_average", overall, 0.615 <= overall <= 0.635, "[0.615, 0.635]"),
        _check("s1_fraction", frac, 0.49 <= frac <= 0.51, "[0.49, 0.51]"),
        _check("s1_mean_utility", s1m, s1m is not None and 0.74 <= s1m <= 0.76, "[0.74, 0.76]"),
        _check(
            "s2_mean_utility", s2m, s2m is not None and 0.485 <= s2m <= 0.515, "[0.485, 0.515]"
        ),
        _check("s1_state_alternation", altern, altern, "exact for every seed"),
    ]
    config = {
        "instance": "example-4-3",
        "rounds": rounds,
        "seeds": seeds,
        "receiver": "empirical-br",
    }
    return _finish("example-4-3", config, checks)


def sweep_instances(n_instances: int, seed: int, max_gamma: float):
    """The bound sweep's ``(instance, scheme seed)`` pairs, in sweep order.

    Instances satisfy the uniqueness assumption with ``mu_min * gap`` above
    ``1.3 * max_gamma``, so every gamma of the sweep admits a mixing weight.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        inst = satisfied_instance(rng, min_mu_delta=max_gamma * 1.3)
        yield inst, int(rng.integers(0, 2**31 - 1))


def reproduce_bounds_sweep(
    n_instances: int = 500,
    n_schemes: int = 50,
    seed: int = 2024,
) -> dict:
    """Two-sided bound check over seeded random satisfying instances."""
    if n_instances < 1 or n_schemes < 1:
        raise ValidationError("n_instances and n_schemes must be positive")
    lower_viol = 0
    upper_viol = 0
    worst_lower_margin = np.inf
    worst_upper_margin = np.inf
    for inst, scheme_seed in sweep_instances(n_instances, seed, max(SWEEP_GAMMAS)):
        for rep in bounds_grid(
            inst,
            SWEEP_GAMMAS,
            SWEEP_DELTAS,
            n_schemes=n_schemes,
            seed=scheme_seed,
        ):
            if not rep.lower_ok:
                lower_viol += 1
            if not rep.upper_ok:
                upper_viol += rep.n_upper_violations
            worst_lower_margin = min(worst_lower_margin, rep.lower_certificate - rep.lower_bound)
            worst_upper_margin = min(worst_upper_margin, rep.upper_bound - max(rep.upper_values))
    checks = [
        _check("lower_violations", lower_viol, lower_viol == 0, "0"),
        _check("upper_violations", upper_viol, upper_viol == 0, "0"),
        _check(
            "worst_lower_margin",
            float(worst_lower_margin),
            worst_lower_margin >= -BOUNDS_TOLERANCE,
            f">= -{BOUNDS_TOLERANCE:g}",
        ),
        _check(
            "worst_upper_margin",
            float(worst_upper_margin),
            worst_upper_margin >= -BOUNDS_TOLERANCE,
            f">= -{BOUNDS_TOLERANCE:g}",
        ),
    ]
    config = {
        "n_instances": n_instances,
        "gammas": list(SWEEP_GAMMAS),
        "deltas": list(SWEEP_DELTAS),
        "n_schemes": n_schemes,
        "seed": seed,
        "tolerance": BOUNDS_TOLERANCE,
    }
    return _finish("theorem-3-1-sweep", config, checks)


def reproduce_convergence(
    rounds: int = 500_000,
    n_seeds: int = 10,
    base_seed: int = 0,
    threads: int = 1,
) -> dict:
    inst = builtin_instance("judge")
    seeds = list(range(base_seed, base_seed + n_seeds))
    rep = convergence_report(inst, CONVERGENCE_CONSTANT, rounds, seeds, threads=threads)
    checks = [
        _check(
            "mean_final_average",
            rep.mean_final_average,
            rep.mean_final_average >= 0.4,
            ">= 0.4 (expected near 0.5+)",
        ),
        _check(
            "last_decile_obedience",
            rep.last_decile_obedience,
            rep.last_decile_obedience >= 0.95,
            ">= 0.95",
        ),
    ]
    config = {
        "instance": "judge",
        "constant": CONVERGENCE_CONSTANT,
        "alpha": rep.alpha,
        "rounds": rounds,
        "seeds": seeds,
        "receiver": "exp-weights",
    }
    out = _finish("theorem-4-1", config, checks)
    out["report"] = rep.to_dict()
    return out


def concentration_coverage(
    instance: PersuasionInstance,
    scheme,
    t: int,
    n_runs: int,
) -> float:
    """Fraction of runs, seeded 0 to ``n_runs - 1``, where every sent
    signal's empirical values are in-radius."""
    if n_runs < 1:
        raise ValidationError(f"n_runs must be at least 1, got {n_runs}")
    stats = scheme_stats(instance, scheme)
    sent = np.flatnonzero(stats.marginals > 0.0)
    radii = {int(s): confidence_radius(instance, scheme, t, int(s)) for s in sent}
    true_vals = stats.receiver_values
    hits = 0
    for k in range(n_runs):
        visited, vhat = empirical_conditional_utilities(instance, scheme, t, k)
        ok = True
        for s in sent:
            if not visited[s]:
                ok = False
                break
            if np.any(np.abs(vhat[s] - true_vals[s]) > radii[int(s)]):
                ok = False
                break
        hits += ok
    return hits / n_runs


DRIVERS = {
    "example-1": reproduce_example_1,
    "judge": reproduce_judge,
    "example-4-3": reproduce_example_4_3,
    "theorem-3-1-sweep": reproduce_bounds_sweep,
    "theorem-4-1": reproduce_convergence,
}
TARGETS = tuple(DRIVERS)


def reproduce(name: str, **overrides) -> dict:
    if name not in DRIVERS:
        raise UnknownTargetError(f"unknown target {name!r}; available: {TARGETS}")
    return DRIVERS[name](**overrides)
