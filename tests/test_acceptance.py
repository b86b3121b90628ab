"""End-to-end checks with pinned tolerances and wall-clock budgets.

Each test is one verdict line under ``pytest -v``.  The sweeps freeze their
seeds so reruns are bit-identical; budgets are asserted, not just hoped for.
"""

import time

import numpy as np
import pytest

from persuasion_lab import (
    approx_membership_mass,
    direct_scheme,
    evaluate_objective,
    expected_utility,
    full_revelation_scheme,
    is_approx_best_responding,
    obedient_strategy,
    posterior,
    project_strategy,
    quantal_certificate,
    quantal_strategy,
    robustify,
    scheme_stats,
    solve_classic,
    to_direct_revelation,
    verify_robustification,
)
from persuasion_lab import learning
from persuasion_lab.repro import (
    reproduce_bounds_sweep,
    reproduce_convergence,
    reproduce_example_4_3,
)
from persuasion_lab.sampling import satisfied_instance
from support import (
    approx_responding_strategy,
    deterministic_responding_strategy,
    empirical_conditional_utilities,
    random_instance,
    random_scheme,
)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, f"took {self.elapsed:.1f}s"
        return False


def test_01_judge_optimum_and_posterior(judge):
    with Budget(1.0):
        scheme, opt = solve_classic(judge)
        assert opt == pytest.approx(0.6, abs=1e-8)
        mu = posterior(judge, scheme, "convict")
        assert mu[0] == pytest.approx(0.5, abs=1e-9)
        assert mu[1] == pytest.approx(0.5, abs=1e-9)


def test_02_tied_receiver_worst_case_collapses(example1):
    with Budget(1.0):
        scheme, opt = solve_classic(example1)
        assert opt == pytest.approx(0.5, abs=1e-8)
        for candidate in (full_revelation_scheme(example1), scheme):
            est = evaluate_objective(example1, candidate, 0.0, 0.0, "worst")
            assert est.value == pytest.approx(0.0, abs=1e-9)


def test_03_robustification_audit_sweep():
    rng = np.random.default_rng(31)
    with Budget(30.0):
        for _ in range(1000):
            inst = satisfied_instance(rng)
            scheme = direct_scheme(inst, rng.dirichlet(np.ones(inst.n_actions), size=inst.n_states))
            for alpha in (0.01, 0.1, 0.5):
                rep = verify_robustification(inst, scheme, robustify(inst, scheme, alpha), alpha)
                assert rep.marginal_identity_residual <= 1e-12
                assert rep.advantage_bound_slack >= -1e-10
                assert rep.tv_distance <= alpha + 1e-12
                assert rep.utility_gap <= alpha + 1e-12


def test_04_two_sided_bound_sweep():
    with Budget(300.0):
        result = reproduce_bounds_sweep(n_instances=500, seed=2024)
    failures = [c for c in result["checks"] if not c["ok"]]
    assert result["ok"], failures


def test_05_direct_conversion_preserves_value():
    rng = np.random.default_rng(57)
    with Budget(30.0):
        for _ in range(500):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst)
            gamma = float(rng.uniform(0.0, 0.3))
            strat = deterministic_responding_strategy(rng, inst, scheme, gamma)
            direct = to_direct_revelation(inst, scheme, strat)
            gap = abs(
                expected_utility(inst, scheme, strat)
                - expected_utility(inst, direct, obedient_strategy(inst))
            )
            assert gap <= 1e-12
            assert is_approx_best_responding(
                inst, direct, obedient_strategy(inst), gamma
            )


def test_06_quantal_mass_certificate():
    rng = np.random.default_rng(61)
    with Budget(30.0):
        for _ in range(200):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst)
            for lam in (2.0, 10.0, 100.0):
                strat = quantal_strategy(inst, scheme, lam)
                gamma, delta = quantal_certificate(inst, lam)
                mass = approx_membership_mass(inst, scheme, strat, gamma)
                assert mass >= 1.0 - 1.0 / lam
                assert delta == 1.0 / lam


def test_07_projection_stays_close():
    rng = np.random.default_rng(73)
    with Budget(30.0):
        for _ in range(1000):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst)
            gamma = float(rng.uniform(0.0, 0.4))
            delta = float(rng.uniform(0.0, 0.5))
            strat = approx_responding_strategy(rng, inst, scheme, gamma, delta)
            proj = project_strategy(inst, scheme, strat, gamma)
            assert is_approx_best_responding(inst, scheme, proj, gamma)
            gap = abs(
                expected_utility(inst, scheme, strat)
                - expected_utility(inst, scheme, proj)
            )
            assert gap <= delta + 1e-10


def test_08_alternating_sender_beats_commitment(mismatch):
    with Budget(300.0):
        result = reproduce_example_4_3(rounds=2_000_000, n_seeds=20, threads=2)
    failures = [c for c in result["checks"] if not c["ok"]]
    assert result["ok"], failures
    by_name = {c["name"]: c["value"] for c in result["checks"]}
    assert 0.615 <= by_name["overall_average"] <= 0.635
    assert 0.49 <= by_name["s1_fraction"] <= 0.51
    assert 0.74 <= by_name["s1_mean_utility"] <= 0.76
    assert 0.485 <= by_name["s2_mean_utility"] <= 0.515
    assert by_name["s1_state_alternation"] is True
    assert by_name["opt"] == pytest.approx(0.5, abs=1e-8)


def test_09_learning_converges_to_robust_value():
    with Budget(180.0):
        result = reproduce_convergence(rounds=500_000, n_seeds=10, threads=2)
    failures = [c for c in result["checks"] if not c["ok"]]
    assert result["ok"], failures
    report = result["report"]
    assert report["mean_final_average"] >= 0.4
    assert report["last_decile_obedience"] >= 0.95


def concentration_coverage(instance, scheme, t: int, n_runs: int) -> float:
    """Fraction of runs, seeded 0 to ``n_runs - 1``, where every sent
    signal's empirical values are in-radius."""
    stats = scheme_stats(instance, scheme)
    sent = np.flatnonzero(stats.marginals > 0.0)
    radii = learning._radii(stats.marginals, instance.n_actions, t)
    assert all(radii[s] is not None for s in sent)
    hits = 0
    for k in range(n_runs):
        visited, vhat = empirical_conditional_utilities(instance, scheme, t, k)
        hits += all(
            visited[s] and not np.any(np.abs(vhat[s] - stats.receiver_values[s]) > radii[s])
            for s in sent
        )
    return hits / n_runs


def test_10_confidence_radius_coverage(judge, judge_opt):
    with Budget(120.0):
        hit_rate = concentration_coverage(judge, judge_opt, t=100_000, n_runs=1000)
    assert hit_rate >= 0.99
