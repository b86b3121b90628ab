import importlib
import json
import math
import re
import sys

import numpy as np
import pytest

from persuasion_lab import (
    AssumptionViolatedError,
    HypothesisViolatedError,
    PersuasionInstance,
    ReceiverStrategy,
    StrategyNotDeterministicError,
    ValidationError,
    ZeroProbabilitySignalError,
    approx_membership_mass,
    approx_set,
    bounds_grid,
    bounds_report,
    choose_alpha_lower,
    direct_scheme,
    evaluate_objective,
    expected_utility,
    full_revelation_scheme,
    is_approx_best_responding,
    make_scheme,
    obedient_strategy,
    perturbed_posterior_certificate,
    perturbed_posterior_strategy,
    posterior,
    project_strategy,
    quantal_certificate,
    quantal_strategy,
    robustify,
    scheme_stats,
    solve_classic,
    to_direct_revelation,
)
from persuasion_lab import response
from persuasion_lab.repro import SWEEP_DELTAS, SWEEP_GAMMAS, sweep_instances
from persuasion_lab.response import _tv_step, softmax
from persuasion_lab.sampling import satisfied_instance
from support import (
    approx_responding_strategy,
    deterministic_responding_strategy,
    drawn_in_turn,
    random_instance,
    random_scheme,
    signal_margin,
)


class TestApproxSet:
    def test_judge_tie_at_convict(self, judge, judge_opt):
        aset = approx_set(judge, judge_opt, 0.0)
        assert aset.actions_for("convict") == ("convict", "acquit")
        assert aset.actions_for("acquit") == ("acquit",)

    def test_judge_acquit_immune_to_moderate_gamma(self, judge, judge_opt):
        aset = approx_set(judge, judge_opt, 0.5)
        assert aset.actions_for("acquit") == ("acquit",)

    def test_gamma_one_admits_everything(self, judge, judge_opt):
        aset = approx_set(judge, judge_opt, 1.0)
        assert aset.actions_for("convict") == judge.actions
        assert aset.actions_for("acquit") == judge.actions

    def test_robustified_margin_separates(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 0.1)
        # margin at convict is 1/19
        assert approx_set(judge, mixed, 0.01).actions_for("convict") == ("convict",)
        assert approx_set(judge, mixed, 0.06).actions_for("convict") == (
            "convict",
            "acquit",
        )

    def test_best_always_member_and_sets_nest(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            scheme = random_scheme(rng, inst)
            stats = scheme_stats(inst, scheme)
            small = approx_set(inst, scheme, 0.05)
            large = approx_set(inst, scheme, 0.2)
            for s in np.flatnonzero(stats.marginals > 0):
                best_action = inst.actions[int(np.argmax(stats.receiver_values[s]))]
                assert best_action in small.actions_for(s)
                assert set(small.actions_for(s)) <= set(large.actions_for(s))

    def test_unsent_signal_rejected(self, judge):
        never = make_scheme(judge, ("s0", "s1"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        aset = approx_set(judge, never, 0.1)
        with pytest.raises(ZeroProbabilitySignalError):
            aset.actions_for("s1")

    def test_negative_gamma_rejected(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            approx_set(judge, judge_opt, -0.01)

    @pytest.mark.parametrize(
        "lookup, message",
        [
            (lambda aset: aset.actions_for(-1), "signal index -1 out of range"),
            (lambda aset: aset.actions_for(5), "signal index 5 out of range"),
            (lambda aset: aset.actions_for("nope"), "unknown signal 'nope'"),
        ],
        ids=["negative-index", "index-past-end", "unknown-signal"],
    )
    def test_bad_lookup_rejected(self, judge, judge_opt, lookup, message):
        with pytest.raises(ValidationError, match=message):
            lookup(approx_set(judge, judge_opt, 0.1))


class TestEvaluateObjective:
    def test_judge_worst_at_zero(self, judge, judge_opt):
        est = evaluate_objective(judge, judge_opt, 0.0, 0.0, "worst")
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_judge_best_at_zero_recovers_classic(self, judge, judge_opt):
        est = evaluate_objective(judge, judge_opt, 0.0, 0.0, "best")
        assert est.value == pytest.approx(0.6, abs=1e-12)

    def test_judge_best_with_delta(self, judge, judge_opt):
        # acquit signal leaks delta mass to convict: 0.6 + 0.4*0.1*1
        est = evaluate_objective(judge, judge_opt, 0.0, 0.1, "best")
        assert est.value == pytest.approx(0.64, abs=1e-12)

    def test_judge_worst_robustified(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, choose_alpha_lower(judge, 0.03))
        est = evaluate_objective(judge, mixed, 0.03, 0.0, "worst")
        assert est.value == pytest.approx(0.57, abs=1e-5)
        assert est.value >= 0.5

    def test_huge_gamma_worst_is_global_min(self, judge, judge_opt):
        est = evaluate_objective(judge, judge_opt, 1.0, 0.0, "worst")
        stats = scheme_stats(judge, judge_opt)
        expect = float(
            (stats.marginals * stats.sender_values.min(axis=1)).sum()
        )
        assert est.value == pytest.approx(expect, abs=1e-12)

    def test_mode_and_delta_validation(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            evaluate_objective(judge, judge_opt, 0.0, 0.0, "middling")
        with pytest.raises(ValidationError):
            evaluate_objective(judge, judge_opt, 0.0, 1.0, "worst")
        with pytest.raises(ValidationError):
            evaluate_objective(judge, judge_opt, -0.1, 0.0, "worst")

    @pytest.mark.parametrize("mode", ["worst", "best"])
    @pytest.mark.parametrize("seed", range(12))
    def test_witness_realizes_value_and_is_member(self, seed, mode):
        rng = np.random.default_rng(4000 + seed)
        inst = random_instance(rng)
        scheme = random_scheme(rng, inst)
        gamma = float(rng.uniform(0, 0.3))
        delta = float(rng.uniform(0, 0.3))
        est = evaluate_objective(inst, scheme, gamma, delta, mode)
        realized = expected_utility(inst, scheme, est.witness_strategy)
        assert realized == pytest.approx(est.value, abs=1e-10)
        assert is_approx_best_responding(
            inst, scheme, est.witness_strategy, gamma, delta
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_monotonicity_and_sandwich(self, seed):
        rng = np.random.default_rng(5000 + seed)
        inst = random_instance(rng)
        scheme = random_scheme(rng, inst)
        worst_prev, best_prev = None, None
        for gamma in (0.0, 0.05, 0.2, 0.6):
            worst = evaluate_objective(inst, scheme, gamma, 0.0, "worst").value
            best = evaluate_objective(inst, scheme, gamma, 0.0, "best").value
            assert worst <= best + 1e-10
            if worst_prev is not None:
                assert worst <= worst_prev + 1e-10
                assert best >= best_prev - 1e-10
            worst_prev, best_prev = worst, best
        for delta in (0.0, 0.1, 0.4):
            worst = evaluate_objective(inst, scheme, 0.05, delta, "worst").value
            best = evaluate_objective(inst, scheme, 0.05, delta, "best").value
            assert worst <= best + 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_obedient_value_between_worst_and_best(self, seed):
        rng = np.random.default_rng(5500 + seed)
        inst = satisfied_instance(rng)
        scheme, opt = solve_classic(inst)
        worst = evaluate_objective(inst, scheme, 0.05, 0.02, "worst").value
        best = evaluate_objective(inst, scheme, 0.05, 0.02, "best").value
        assert worst <= opt + 1e-10
        assert best >= opt - 1e-10

    @pytest.mark.parametrize("seed", range(15))
    def test_best_at_zero_reproduces_optimum(self, seed):
        rng = np.random.default_rng(6000 + seed)
        inst = random_instance(rng)
        scheme, opt = solve_classic(inst)
        est = evaluate_objective(inst, scheme, 0.0, 0.0, "best")
        assert est.value == pytest.approx(opt, abs=1e-8)

    def test_knife_edge_flagging(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 0.1)
        margin = signal_margin(judge, mixed, "convict")
        on_edge = evaluate_objective(judge, mixed, margin, 0.0, "worst")
        assert "convict" in on_edge.knife_edge_signals
        interior = evaluate_objective(judge, mixed, margin / 2, 0.0, "worst")
        assert interior.knife_edge_signals == ()

    def test_margin_exactly_at_gamma(self):
        # at w0 the deviation a1 trails a0 by exactly 0.25; the sender wants
        # a0 at w0 and a1 at w1
        inst = PersuasionInstance(
            states=("w0", "w1"),
            actions=("a0", "a1"),
            prior=[0.5, 0.5],
            sender_utility=[[1.0, 0.0], [0.0, 1.0]],
            receiver_utility=[[0.75, 0.0], [0.5, 1.0]],
        )
        full = full_revelation_scheme(inst)
        on_edge = evaluate_objective(inst, full, 0.25, 0.0, "worst")
        assert approx_set(inst, full, 0.25).actions_for("w0") == ("a0", "a1")
        assert on_edge.value == 0.5
        assert on_edge.knife_edge_signals == ("w0",)
        inside = evaluate_objective(inst, full, 0.25 - 2e-9, 0.0, "worst")
        assert approx_set(inst, full, 0.25 - 2e-9).actions_for("w0") == ("a0",)
        assert inside.value == 1.0
        # still within 10 RESPONSE_SLACK of the cutoff
        assert inside.knife_edge_signals == ("w0",)


class TestMembership:
    def test_mass_is_min_over_sent_signals(self, judge, judge_opt):
        strat = ReceiverStrategy(np.array([[0.5, 0.5], [0.5, 0.5]]))
        mass = approx_membership_mass(judge, judge_opt, strat, 0.0)
        assert mass == pytest.approx(0.5, abs=1e-12)
        assert is_approx_best_responding(judge, judge_opt, strat, 0.0, delta=0.5)
        assert not is_approx_best_responding(judge, judge_opt, strat, 0.0, delta=0.4)

    def test_obedient_is_exact_member_of_optimum(self, judge, judge_opt):
        assert is_approx_best_responding(
            judge, judge_opt, obedient_strategy(judge), 0.0
        )


class TestQuantal:
    def test_lambda_zero_uniform(self, judge, judge_opt):
        strat = quantal_strategy(judge, judge_opt, 0.0)
        assert np.all(strat.action_distribution == 0.5)

    def test_tie_gives_exact_half(self, judge, judge_opt):
        for lam in (0.5, 2.0, 37.0):
            strat = quantal_strategy(judge, judge_opt, lam)
            assert strat.action_distribution[0, 0] == 0.5
            assert strat.action_distribution[0, 1] == 0.5

    def test_large_lambda_concentrates(self, judge, judge_opt):
        strat = quantal_strategy(judge, judge_opt, 1e6)
        assert strat.action_distribution[1, 1] >= 1 - 1e-6

    def test_certificate_values(self, judge):
        gamma, delta = quantal_certificate(judge, 2.0)
        assert gamma == pytest.approx(math.log(4) / 2, abs=1e-15)
        assert delta == 0.5

    def test_certificate_gamma_floor(self, judge):
        gamma, _ = quantal_certificate(judge, 0.4)  # log(2*0.4) < 0
        assert gamma == 0.0

    def test_certificate_requires_positive_lambda(self, judge):
        with pytest.raises(ValidationError):
            quantal_certificate(judge, 0.0)

    def test_negative_lambda_rejected(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            quantal_strategy(judge, judge_opt, -1.0)

    @pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_certified_membership(self, seed, lam):
        rng = np.random.default_rng(7000 + seed)
        inst = random_instance(rng)
        scheme = random_scheme(rng, inst)
        strat = quantal_strategy(inst, scheme, lam)
        gamma, delta = quantal_certificate(inst, lam)
        assert is_approx_best_responding(inst, scheme, strat, gamma, delta)


class TestPerturbedPosterior:
    def test_epsilon_zero_is_exact_best_response(self, judge, judge_opt, rng):
        strat = perturbed_posterior_strategy(judge, judge_opt, 0.0, rng)
        assert expected_utility(judge, judge_opt, strat) == pytest.approx(
            0.6, abs=1e-12
        )
        assert is_approx_best_responding(judge, judge_opt, strat, 0.0)

    def test_acquit_margin_survives_small_epsilon(self, judge, judge_opt):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            strat = perturbed_posterior_strategy(judge, judge_opt, 0.2, rng)
            assert strat.action_distribution[1].tolist() == [0.0, 1.0]

    def test_certificate(self):
        assert perturbed_posterior_certificate(0.2) == (0.4, 0.0)

    def test_unsent_signal_best_responds_to_the_prior(self, judge, rng):
        # every state sends s0, so s1 is never sent; the prior (0.3, 0.7)
        # makes acquit the receiver's best action
        scheme = make_scheme(judge, ("s0", "s1"), [[1.0, 0.0], [1.0, 0.0]])
        strat = perturbed_posterior_strategy(judge, scheme, 0.1, rng)
        assert strat.action_distribution[1].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.6])
    @pytest.mark.parametrize("seed", range(8))
    def test_certified_membership(self, seed, eps):
        rng = np.random.default_rng(8000 + seed)
        inst = random_instance(rng)
        scheme = random_scheme(rng, inst)
        strat = perturbed_posterior_strategy(inst, scheme, eps, rng)
        gamma, delta = perturbed_posterior_certificate(eps)
        assert is_approx_best_responding(inst, scheme, strat, gamma, delta)

    @pytest.mark.parametrize("seed", range(20))
    def test_tv_step_respects_radius(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        mu = rng.dirichlet(np.ones(k))
        eps = float(rng.uniform(0, 0.8))
        out = _tv_step(mu, eps, rng)
        assert np.all(out >= -1e-15)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.5 * np.abs(out - mu).sum() <= eps + 1e-12

    @pytest.mark.parametrize("eps", [1e308, math.inf])
    def test_overflowing_step_rejected(self, eps):
        # an infinite step would make a NaN belief, whose argmax is action 0
        with pytest.raises(ValidationError, match="overflows the perturbation step"):
            _tv_step(np.array([0.5, 0.5]), eps, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [1e308, math.inf])
    def test_overflowing_epsilon_rejected_by_strategy_and_certificate(self, eps, judge, judge_opt):
        # a certificate of gamma = inf would certify a strategy that cannot be built
        with pytest.raises(ValidationError, match="overflows the perturbation step"):
            perturbed_posterior_strategy(judge, judge_opt, eps, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="overflows the perturbation step"):
            perturbed_posterior_certificate(eps)

    def test_largest_finite_certificate(self):
        # half the largest float doubles back to it exactly
        eps = sys.float_info.max / 2.0
        assert perturbed_posterior_certificate(eps) == (sys.float_info.max, 0.0)


class TestDirectRevelationConversion:
    def test_identity_strategy_keeps_scheme(self, judge, judge_opt):
        ident = ReceiverStrategy(np.eye(2))
        direct = to_direct_revelation(judge, judge_opt, ident)
        assert direct.signals == judge.actions
        assert np.allclose(direct.conditional, judge_opt.conditional)
        assert expected_utility(
            judge, direct, obedient_strategy(judge)
        ) == pytest.approx(0.6, abs=1e-12)

    def test_merged_signals_sum_columns(self, judge, judge_opt):
        all_convict = ReceiverStrategy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        direct = to_direct_revelation(judge, judge_opt, all_convict)
        assert direct.conditional[:, 0] == pytest.approx([1.0, 1.0], abs=1e-15)
        assert direct.conditional[:, 1] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_randomized_strategy_rejected(self, judge, judge_opt):
        fuzzy = ReceiverStrategy(np.array([[0.7, 0.3], [0.0, 1.0]]))
        with pytest.raises(StrategyNotDeterministicError):
            to_direct_revelation(judge, judge_opt, fuzzy)

    @pytest.mark.parametrize("seed", range(25))
    def test_utility_preserved_and_membership_transfers(self, seed):
        rng = np.random.default_rng(9000 + seed)
        inst = random_instance(rng)
        scheme = random_scheme(rng, inst)
        gamma = float(rng.uniform(0, 0.25))
        strat = deterministic_responding_strategy(rng, inst, scheme, gamma)
        direct = to_direct_revelation(inst, scheme, strat)
        lhs = expected_utility(inst, scheme, strat)
        rhs = expected_utility(inst, direct, obedient_strategy(inst))
        assert abs(lhs - rhs) <= 1e-12
        assert is_approx_best_responding(
            inst, direct, obedient_strategy(inst), gamma
        )


class TestBoundsReport:
    def test_judge_window(self, judge):
        rep = bounds_report(judge, 0.03, 0.0, seed=11)
        assert rep.opt == pytest.approx(0.6, abs=1e-8)
        assert rep.ratio == pytest.approx(0.1, abs=1e-12)
        assert rep.slack == pytest.approx(0.1, abs=1e-12)
        assert rep.lower_certificate == pytest.approx(0.57, abs=1e-4)
        assert rep.lower_certificate >= rep.opt - rep.slack - 1e-8
        assert rep.lower_ok and rep.upper_ok and rep.ok
        assert rep.n_upper_violations == 0
        assert len(rep.upper_values) == 50
        assert max(rep.upper_values) <= rep.opt + rep.slack + 1e-8

    def test_gamma_zero_recovers_classic_within_eps_alpha(self, judge):
        rep = bounds_report(judge, 0.0, 0.0, seed=3)
        assert rep.slack == 0.0
        # certificate trails the optimum by an eps_alpha-order mixing cost
        assert rep.opt - 2e-6 <= rep.lower_certificate <= rep.opt + 1e-12
        assert max(rep.upper_values) <= rep.opt + 1e-8

    def test_deterministic_given_seed(self, judge):
        a = bounds_report(judge, 0.03, 0.01, seed=42)
        b = bounds_report(judge, 0.03, 0.01, seed=42)
        assert a.upper_values == b.upper_values
        assert a.lower_certificate == b.lower_certificate

    def test_knife_edge_schemes_counted_once(self, judge, judge_opt, monkeypatch):
        # split the convict signal of a robustified scheme in two: both halves
        # sit on the gamma cutoff, and the scheme counts once
        mixed = robustify(judge, judge_opt, 0.1)
        gamma = signal_margin(judge, mixed, "convict")
        convict = mixed.conditional[:, :1] / 2.0
        split = make_scheme(
            judge, ("c1", "c2", "acquit"), np.hstack([convict, convict, mixed.conditional[:, 1:]])
        )
        single = evaluate_objective(judge, split, gamma, 0.0, "best")
        assert single.knife_edge_signals == ("c1", "c2")
        assert evaluate_objective(judge, judge_opt, gamma, 0.0, "best").knife_edge_signals == ()
        monkeypatch.setattr(response, "random_conditional", drawn_in_turn([split, judge_opt, split]))
        rep = bounds_report(judge, gamma, 0.0, n_schemes=3)
        assert rep.upper_values == tuple(
            evaluate_objective(judge, c, gamma, 0.0, "best").value for c in (split, judge_opt, split)
        )
        # the certificate is robustified past gamma, so only the splits count
        assert rep.knife_edge_schemes == 2

    def test_hypothesis_violation(self, judge):
        with pytest.raises(HypothesisViolatedError):
            bounds_report(judge, 0.4, 0.0)

    def test_assumption_violation(self, example1):
        with pytest.raises(AssumptionViolatedError):
            bounds_report(example1, 0.01, 0.0)

    @pytest.mark.parametrize("delta", [1.0, 1.5, math.nan])
    def test_bad_delta_rejected_before_the_lp(self, judge, monkeypatch, delta):
        def spy(instance):
            pytest.fail("solve_classic ran before delta was checked")

        monkeypatch.setattr(response, "solve_classic", spy)
        with pytest.raises(ValidationError, match=r"delta must lie in \[0, 1\)"):
            bounds_report(judge, 0.01, delta)
        with pytest.raises(ValidationError, match=r"delta must lie in \[0, 1\)"):
            bounds_grid(judge, (0.01, 0.02), (0.0, delta))

    @pytest.mark.parametrize(
        "given",
        [{"n_schemes": -5}, {"n_schemes": -1}, {"seed": None}, {"seed": -1}],
        ids=["n_schemes-5", "n_schemes-1", "seed-None", "seed-1"],
    )
    def test_bad_candidate_draw_rejected_before_the_lp(self, judge, monkeypatch, given):
        # a negative count would certify over no candidates, and a None seed
        # draws from OS entropy, so no seed would reproduce the report
        def spy(instance):
            pytest.fail("solve_classic ran before the candidate draw was checked")

        monkeypatch.setattr(response, "solve_classic", spy)
        with pytest.raises(ValidationError, match=next(iter(given))):
            bounds_report(judge, 0.03, 0.0, **given)
        with pytest.raises(ValidationError, match=next(iter(given))):
            bounds_grid(judge, (0.01, 0.03), (0.0,), **given)

    def test_grid_profiles_once_per_gamma(self, monkeypatch):
        inst = satisfied_instance(np.random.default_rng(5), min_mu_delta=0.065)
        module = importlib.import_module("persuasion_lab.robustify")
        original = module.profile_instance
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "profile_instance", spy)
        bounds_grid(inst, (0.01, 0.05), (0.0, 0.02), n_schemes=3)
        assert len(calls) == 2

    def test_zero_candidates_accepted(self, judge):
        rep = bounds_report(judge, 0.03, 0.0, n_schemes=0)
        assert rep.upper_values == () and rep.upper_ok and rep.lower_ok

    @pytest.mark.parametrize("value", [None, True, -1, 1.5, "3"])
    @pytest.mark.parametrize("name", ["seed", "n_schemes"])
    @pytest.mark.parametrize("entry", [bounds_report, bounds_grid], ids=lambda f: f.__name__)
    def test_seed_and_count_must_be_integers_of_at_least_zero(
        self, judge, monkeypatch, entry, name, value
    ):
        solved = []
        monkeypatch.setattr(response, "solve_classic", lambda *a: solved.append(a))
        cells = (0.03, 0.0) if entry is bounds_report else ((0.03,), (0.0,))
        message = f"{name} must be an integer of at least 0, got {value!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            entry(judge, *cells, **{name: value})
        assert solved == []

    def test_numpy_integer_seed_and_count(self, judge):
        got = bounds_report(judge, 0.03, 0.01, n_schemes=np.int64(4), seed=np.int64(2))
        assert got.to_dict() == bounds_report(judge, 0.03, 0.01, n_schemes=4, seed=2).to_dict()

    def test_window_holds_at_every_eps_num(self, judge):
        # eps_num is the profile's tie tolerance only; below judge's gap of 1
        # it moves no response set, so the report is the default's
        want = bounds_report(judge, 0.01, 0.02, n_schemes=10).to_dict()
        assert want["ok"] and round(want["lower_certificate"], 9) == 0.578199706
        for eps_num in (1e-9, 1e-3, 1e-2, 1e-1, 0.15, 0.5, 0.9):
            rep = bounds_report(judge, 0.01, 0.02, n_schemes=10, eps_num=eps_num)
            assert rep.to_dict() == want, eps_num

    def test_sweep_window_holds_at_large_eps_num(self):
        # the first 60 sweep instances, 240 cells per tolerance, scored as the
        # sweep scores them; when eps_num also widened the response sets, the
        # lower side failed in 10, 65 and 93 cells and the upper side in 0, 0
        # and 4
        instances = list(sweep_instances(60, 2024))
        for eps_num in (0.01, 0.1, 0.3):
            lower = upper = 0
            for inst, scheme_seed in instances:
                for rep in bounds_grid(
                    inst, SWEEP_GAMMAS, SWEEP_DELTAS, seed=scheme_seed, eps_num=eps_num
                ):
                    lower += not rep.lower_ok
                    upper += not rep.upper_ok
            assert (lower, upper) == (0, 0), eps_num

    def test_report_serializes(self, judge):
        rep = bounds_report(judge, 0.02, 0.01, n_schemes=5, seed=1)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert "lower_certificate" in blob


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda inst, scheme: approx_set(inst, scheme, NAN),
        lambda inst, scheme: evaluate_objective(inst, scheme, NAN, 0.0, "worst"),
        lambda inst, scheme: evaluate_objective(inst, scheme, 0.0, NAN, "best"),
        lambda inst, scheme: project_strategy(inst, scheme, obedient_strategy(inst), NAN),
        lambda inst, scheme: choose_alpha_lower(inst, NAN),
        lambda inst, scheme: quantal_strategy(inst, scheme, NAN),
        lambda inst, scheme: quantal_certificate(inst, NAN),
        # the strategy's softmax has NaN rows at an infinite lam
        lambda inst, scheme: quantal_certificate(inst, math.inf),
        lambda inst, scheme: perturbed_posterior_strategy(
            inst, scheme, NAN, np.random.default_rng(0)
        ),
        lambda inst, scheme: perturbed_posterior_certificate(NAN),
        # a negative epsilon would certify a negative gamma
        lambda inst, scheme: perturbed_posterior_certificate(-1.0),
    ],
    ids=[
        "approx_set", "objective-gamma", "objective-delta", "project_strategy",
        "choose_alpha", "quantal", "quantal-certificate", "quantal-certificate-inf",
        "perturbed", "perturbed-certificate", "perturbed-certificate-negative",
    ],
)
def test_nan_parameters_rejected(judge, judge_opt, call):
    with pytest.raises(ValidationError):
        call(judge, judge_opt)


@pytest.mark.parametrize("eps_num", [-1.0, NAN, math.inf])
@pytest.mark.parametrize(
    "call",
    [lambda inst, eps: bounds_report(inst, 0.05, 0.0, eps_num=eps)],
    ids=["bounds"],
)
def test_bad_eps_num_rejected(judge, call, eps_num):
    # a negative tolerance would profile a tie as a unique optimum
    with pytest.raises(ValidationError, match="eps_num"):
        call(judge, eps_num)


def test_zero_eps_num_accepted(judge):
    # a zero tie tolerance profiles judge as the default does
    rep = bounds_report(judge, 0.03, 0.0, n_schemes=5, eps_num=0.0)
    assert rep.to_dict() == bounds_report(judge, 0.03, 0.0, n_schemes=5).to_dict()


@pytest.mark.parametrize("gamma", [NAN, -0.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda inst, scheme, g: approx_membership_mass(inst, scheme, obedient_strategy(inst), g),
        lambda inst, scheme, g: is_approx_best_responding(inst, scheme, obedient_strategy(inst), g),
        lambda inst, scheme, g: approx_responding_strategy(
            np.random.default_rng(0), inst, scheme, g, 0.0
        ),
        lambda inst, scheme, g: deterministic_responding_strategy(
            np.random.default_rng(0), inst, scheme, g
        ),
    ],
    ids=["membership", "is_responding", "approx_strategy", "deterministic_strategy"],
)
def test_bad_gamma_rejected_by_every_response_set(judge, judge_opt, call, gamma):
    # best_response_mask checks gamma, so no entry point reads an empty set
    with pytest.raises(ValidationError, match="gamma"):
        call(judge, judge_opt, gamma)


def exp_weights_softmax(logits):
    """The softmax ``exp_weights_probs`` wrote out before ``response.softmax``."""
    logits = logits.copy()
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def quantal_softmax(logits):
    """The softmax ``quantal_strategy`` wrote out before ``response.softmax``."""
    logits = logits.copy()
    logits -= logits.max(axis=1, keepdims=True)
    rho = np.exp(logits)
    rho /= rho.sum(axis=1, keepdims=True)
    return rho


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (5, 2)] + [(40, n) for n in range(1, 13)])
@pytest.mark.parametrize("scale", [0.0, 1.0, 50.0, 1e6])
@pytest.mark.parametrize("layout", ["C", "action-major"])
def test_softmax_is_both_formulas_in_place(shape, scale, layout):
    # from 8 entries numpy sums a row in unrolled partial sums, which a
    # column-by-column sum does not reproduce, nor does numpy's own sum over
    # the strided rows of an action-major array's transposed view
    logits = np.random.default_rng(shape[1]).standard_normal(shape) * scale
    if shape[0] > 1:
        logits[1] = logits[1, 0]  # an exact tie across the row
        logits[2, ::2] = -0.0
        logits[3, -1] = -np.inf
        logits[4, 0] = np.inf  # inf - inf: a NaN row
    with np.errstate(invalid="ignore"):
        want = exp_weights_softmax(logits)
        assert quantal_softmax(logits).tobytes() == want.tobytes()
        given = logits.copy() if layout == "C" else np.ascontiguousarray(logits.T).T
        assert given.flags.c_contiguous == (layout == "C" or shape[0] == 1 or shape[1] == 1)
        got = softmax(given)
    assert got is given
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda inst, scheme: posterior(inst, scheme, "acquit"),
        lambda inst, scheme: approx_set(inst, scheme, 0.1).actions_for("acquit"),
    ],
    ids=["posterior", "actions_for"],
)
def test_unsent_signal_rejected_with_its_name(judge, call):
    # a direct scheme that never recommends acquit
    never = direct_scheme(judge, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ZeroProbabilitySignalError, match="'acquit' has zero marginal") as err:
        call(judge, never)
    assert err.value.details["signal"] == "acquit"
