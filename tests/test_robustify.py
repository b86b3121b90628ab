import importlib

import numpy as np
import pytest

from persuasion_lab import (
    AssumptionViolatedError,
    HypothesisViolatedError,
    NotDirectRevelationError,
    PersuasionError,
    ValidationError,
    advantage,
    bounds_report,
    builtin_instance,
    choose_alpha_lower,
    direct_scheme,
    make_scheme,
    posterior,
    response_window,
    robustified_optimum,
    robustify,
    scheme_stats,
    solve_classic,
    verify_robustification,
)
from persuasion_lab import model
from persuasion_lab.sampling import satisfied_instance
from support import signal_margin


class TestJudgeArithmetic:
    def test_mixed_conditional(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 0.1)
        assert mixed.conditional[0] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert mixed.conditional[1, 0] == pytest.approx(0.9 * 3 / 7, abs=1e-15)
        assert mixed.conditional[1, 1] == pytest.approx(1 - 0.9 * 3 / 7, abs=1e-15)

    def test_marginal_identity(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 0.1)
        marg = scheme_stats(judge, mixed).marginals
        assert marg[0] == pytest.approx(0.57, abs=1e-12)
        assert marg[1] == pytest.approx(0.43, abs=1e-12)

    def test_advantage_after_mixing(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 0.1)
        post = posterior(judge, mixed, "convict")
        assert post[0] == pytest.approx(0.3 / 0.57, abs=1e-12)
        assert signal_margin(judge, mixed, "convict") == pytest.approx(1 / 19, abs=1e-12)

    def test_report_values(self, judge, judge_opt):
        rep = verify_robustification(judge, judge_opt, robustify(judge, judge_opt, 0.1), 0.1)
        assert rep.marginal_identity_residual <= 1e-12
        assert rep.advantage_bound_slack >= -1e-10
        assert rep.tv_distance == pytest.approx(0.03, abs=1e-12)
        assert rep.utility_gap == pytest.approx(0.03, abs=1e-12)
        assert rep.ok()

    @pytest.mark.parametrize("made_at, audited_at", [(0.2, 0.1), (0.0, 0.1)])
    def test_audit_fails_a_mixture_of_another_weight(self, judge, judge_opt, made_at, audited_at):
        # a mixture made at another weight, or the unmixed scheme, breaks the
        # marginal identity at the audited weight
        mixed = robustify(judge, judge_opt, made_at)
        rep = verify_robustification(judge, judge_opt, mixed, audited_at)
        assert rep.marginal_identity_residual > 1e-3
        assert rep.ok() is False

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_audit_weight_out_of_range(self, judge, judge_opt, alpha):
        with pytest.raises(ValidationError, match="alpha must lie in"):
            verify_robustification(judge, judge_opt, judge_opt, alpha)

    def test_report_round_trip(self, judge, judge_opt):
        rep = verify_robustification(judge, judge_opt, robustify(judge, judge_opt, 0.25), 0.25)
        d = rep.to_dict()
        assert d["alpha"] == 0.25
        assert set(d) >= {
            "alpha",
            "marginal_identity_residual",
            "advantage_bound_slack",
            "tv_distance",
            "utility_gap",
        }


class TestEdges:
    def test_alpha_zero_is_identity(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 0.0)
        assert np.array_equal(mixed.conditional, judge_opt.conditional)
        rep = verify_robustification(judge, judge_opt, mixed, 0.0)
        assert rep.tv_distance == 0.0
        assert rep.utility_gap == 0.0

    def test_alpha_one_is_full_disclosure(self, judge, judge_opt):
        mixed = robustify(judge, judge_opt, 1.0)
        assert np.array_equal(mixed.conditional, np.eye(2))

    def test_alpha_out_of_range(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            robustify(judge, judge_opt, -0.1)
        with pytest.raises(ValidationError):
            robustify(judge, judge_opt, 1.5)

    @pytest.mark.parametrize("constant", [-1.0, float("nan"), float("inf")])
    def test_constant_checked_before_the_lp(self, judge, monkeypatch, constant):
        # checked first, so the message names the constant, not the alpha it maps to
        module = importlib.import_module("persuasion_lab.robustify")
        solved, original = [], module.solve_classic

        def spy(instance):
            solved.append(instance)
            return original(instance)

        monkeypatch.setattr(module, "solve_classic", spy)
        with pytest.raises(ValidationError, match="constant must be finite and at least 0"):
            robustified_optimum(judge, constant)
        assert solved == []

    def test_requires_direct_revelation(self, judge):
        labeled = make_scheme(judge, ("s0", "s1"), np.eye(2))
        with pytest.raises(NotDirectRevelationError):
            robustify(judge, labeled, 0.1)

    def test_requires_unique_optima(self, example1):
        scheme = direct_scheme(example1, np.eye(2))
        with pytest.raises(AssumptionViolatedError):
            robustify(example1, scheme, 0.1)

    def test_composition_identity(self, judge, judge_opt):
        alpha, beta = 0.15, 0.3
        twice = robustify(judge, robustify(judge, judge_opt, alpha), beta)
        once = robustify(judge, judge_opt, 1.0 - (1.0 - alpha) * (1.0 - beta))
        assert np.max(np.abs(twice.conditional - once.conditional)) <= 1e-12


class TestAlphaSelection:
    def test_lower_rule_on_judge(self, judge):
        assert choose_alpha_lower(judge, 0.03) == pytest.approx(0.100001, abs=1e-12)

    def test_upper_rule_on_judge(self, judge):
        assert response_window(judge, 0.03).ratio == pytest.approx(0.1, abs=1e-12)

    def test_gamma_zero_gives_eps_only(self, judge):
        assert choose_alpha_lower(judge, 0.0) == pytest.approx(1e-6, abs=1e-18)
        assert response_window(judge, 0.0).ratio == 0.0

    def test_ratio_at_or_above_one_rejected(self, judge):
        # mu_min * gap = 0.3 on the judge instance
        with pytest.raises(HypothesisViolatedError):
            choose_alpha_lower(judge, 0.3)
        with pytest.raises(HypothesisViolatedError):
            response_window(judge, 0.5).ratio

    def test_negative_gamma_rejected(self, judge):
        with pytest.raises(ValidationError):
            choose_alpha_lower(judge, -0.01)

    def test_assumption_required(self, example1):
        with pytest.raises(AssumptionViolatedError):
            choose_alpha_lower(example1, 0.01)

    def test_lower_rule_caps_at_one(self, judge):
        assert choose_alpha_lower(judge, 0.2999999999) <= 1.0

    def test_lower_rule_makes_margin_strict(self, judge):
        gamma = 0.05
        star, _ = solve_classic(judge)
        mixed = robustify(judge, star, choose_alpha_lower(judge, gamma))
        assert advantage(judge, mixed) > gamma


@pytest.mark.parametrize(
    "call",
    [
        lambda inst, gamma: choose_alpha_lower(inst, gamma),
        lambda inst, gamma: response_window(inst, gamma),
        lambda inst, gamma: bounds_report(inst, gamma, 1.5),
    ],
    ids=["choose_alpha_lower", "response_window", "bounds_report"],
)
@pytest.mark.parametrize(
    "name, gamma, error",
    [
        ("example-1", -0.01, ValidationError),
        ("example-1", 0.01, AssumptionViolatedError),
        ("judge", 0.4, HypothesisViolatedError),
    ],
    ids=["gamma", "assumption", "hypothesis"],
)
def test_window_error_precedence(call, name, gamma, error):
    # gamma, then the assumption, then the ratio; bounds' bad delta comes last
    with pytest.raises(PersuasionError) as err:
        call(builtin_instance(name), gamma)
    assert type(err.value) is error


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("seed", range(15))
def test_verification_sweep(seed, alpha):
    rng = np.random.default_rng(1000 + seed)
    inst = satisfied_instance(rng)
    scheme = direct_scheme(inst, rng.dirichlet(np.ones(inst.n_actions), size=inst.n_states))
    rep = verify_robustification(inst, scheme, robustify(inst, scheme, alpha), alpha)
    assert rep.marginal_identity_residual <= 1e-12
    assert rep.advantage_bound_slack >= -1e-10
    assert rep.tv_distance <= alpha + 1e-12
    assert rep.utility_gap <= alpha + 1e-12
    assert rep.ok()


@pytest.mark.parametrize("seed", range(10))
def test_mixing_creates_positive_advantage(seed):
    rng = np.random.default_rng(2000 + seed)
    inst = satisfied_instance(rng)
    star, _ = solve_classic(inst)
    mixed = robustify(inst, star, 0.1)
    assert advantage(inst, mixed) > 0.0


def test_unsent_recommendations_get_mass_from_mixing(judge):
    # a constant scheme leaves one action unsent; mixing must revive it
    always_convict = direct_scheme(judge, np.array([[1.0, 0.0], [1.0, 0.0]]))
    mixed = robustify(judge, always_convict, 0.2)
    rep = verify_robustification(judge, always_convict, mixed, 0.2)
    assert scheme_stats(judge, mixed).marginals[1] == pytest.approx(0.2 * 0.7, abs=1e-12)
    assert rep.advantage_bound_slack >= -1e-10
    assert rep.ok()


def _first_five_action_draw():
    rng = np.random.default_rng(3)
    while (inst := satisfied_instance(rng)).n_actions != 5:
        pass
    return inst


@pytest.mark.parametrize("five_actions", [False, True], ids=["judge", "five-actions"])
def test_audit_reads_each_scheme_once(five_actions, judge, monkeypatch):
    # one scheme_stats per scheme, however many signals are sent
    inst = _first_five_action_draw() if five_actions else judge
    scheme, _ = solve_classic(inst)
    mixed = robustify(inst, scheme, 0.1)
    calls = []
    stats = model.scheme_stats

    def spy(*args):
        calls.append(args)
        return stats(*args)

    for module in (model, importlib.import_module("persuasion_lab.robustify")):
        monkeypatch.setattr(module, "scheme_stats", spy, raising=False)
    assert verify_robustification(inst, scheme, mixed, 0.1).ok()
    assert len(calls) == 2
    advantage(inst, mixed)
    assert len(calls) == 3
