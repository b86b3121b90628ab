import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from persuasion_lab import (
    DimensionMismatchError,
    NoMassOnApproxSetError,
    NotDirectRevelationError,
    ParseError,
    PersuasionInstance,
    ReceiverStrategy,
    SignalingScheme,
    ValidationError,
    ZeroProbabilitySignalError,
    advantage,
    best_response_mask,
    direct_scheme,
    expected_utility,
    full_revelation_scheme,
    instance_from_json,
    instance_to_json,
    make_scheme,
    obedient_strategy,
    posterior,
    profile_instance,
    project_strategy,
    robustify,
    scheme_from_json,
    scheme_stats,
    scheme_to_json,
    verify_robustification,
)
from persuasion_lab.model import index_of
from persuasion_lab.sampling import random_scheme
from support import random_instance, signal_margin


def make_instance(prior, u, v, states=None, actions=None):
    u = np.asarray(u, dtype=float)
    states = states or tuple(f"w{i}" for i in range(u.shape[1]))
    actions = actions or tuple(f"a{i}" for i in range(u.shape[0]))
    return PersuasionInstance(
        states=tuple(states),
        actions=tuple(actions),
        prior=np.asarray(prior, dtype=float),
        sender_utility=u,
        receiver_utility=np.asarray(v, dtype=float),
    )


class TestValidation:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            make_instance([0.4, 0.4], [[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_prior_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            make_instance([1.2, -0.2], [[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_utilities_must_be_in_unit_interval(self):
        with pytest.raises(ValidationError):
            make_instance([0.5, 0.5], [[2, 0], [0, 1]], [[1, 0], [0, 1]])
        with pytest.raises(ValidationError):
            make_instance([0.5, 0.5], [[1, 0], [0, 1]], [[1, -0.1], [0, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_instance(
                [0.5, 0.5],
                [[1, 0], [0, 1]],
                [[1, 0, 0], [0, 1, 0]],
                states=("x", "y"),
                actions=("a", "b"),
            )

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            make_instance(
                [0.5, 0.5], [[1, 0], [0, 1]], [[1, 0], [0, 1]], states=("w", "w")
            )

    def test_scheme_rows_must_be_distributions(self, judge):
        with pytest.raises(ValidationError):
            make_scheme(judge, ("s0", "s1"), np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_scheme_row_count_must_match_states(self, judge):
        with pytest.raises(DimensionMismatchError):
            make_scheme(judge, ("s0",), np.array([[1.0], [1.0], [1.0]]))

    def test_strategy_rows_must_be_distributions(self):
        with pytest.raises(ValidationError):
            ReceiverStrategy(np.array([[0.9, 0.2]]))

    @pytest.mark.parametrize("where", ["prior", "sender", "receiver"])
    def test_nan_instance_entries_rejected(self, where):
        nan = float("nan")
        prior = [nan, 0.5] if where == "prior" else [0.5, 0.5]
        u = [[nan, 0], [0, 1]] if where == "sender" else [[1, 0], [0, 1]]
        v = [[1, 0], [0, nan]] if where == "receiver" else [[1, 0], [0, 1]]
        with pytest.raises(ValidationError):
            make_instance(prior, u, v)

    def test_nan_distribution_rows_rejected(self, judge):
        with pytest.raises(ValidationError):
            make_scheme(judge, ("s0", "s1"), np.array([[float("nan"), 1.0], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            ReceiverStrategy(np.array([[float("nan"), 1.0]]))

    def test_arrays_are_frozen(self, judge, judge_opt):
        with pytest.raises(ValueError):
            judge.prior[0] = 0.9
        with pytest.raises(ValueError):
            judge_opt.conditional[0, 0] = 0.0

    def test_label_lookup(self, judge):
        assert index_of("state", judge.states, "innocent") == 1
        assert index_of("action", judge.actions, "acquit") == 1
        assert index_of("state", judge.states, 0) == 0
        with pytest.raises(ValidationError, match="unknown state 'unknown'"):
            index_of("state", judge.states, "unknown")
        with pytest.raises(ValidationError, match="action index 2 out of range"):
            index_of("action", judge.actions, 2)


class TestProfile:
    def test_judge_profile(self, judge):
        prof = profile_instance(judge)
        assert prof.assumption_satisfied
        assert prof.reasons == ()
        assert prof.gap == 1.0
        assert prof.mu_min == 0.3
        assert prof.per_state_optimal == {"guilty": "convict", "innocent": "acquit"}
        assert prof.region_masses.tolist() == [0.3, 0.7]
        assert prof.instance is judge
        assert prof.optimal.tolist() == [0, 1]
        with pytest.raises(ValueError):
            prof.optimal[0] = 1

    def test_mismatch_profile(self, mismatch):
        prof = profile_instance(mismatch)
        assert prof.assumption_satisfied
        assert prof.gap == 1.0
        assert prof.mu_min == 0.5
        assert prof.per_state_optimal == {"G": "a", "B": "b"}

    def test_example1_fails_assumption(self, example1):
        prof = profile_instance(example1)
        assert not prof.assumption_satisfied
        assert "TIE_AT_STATE(w1)" in prof.reasons
        assert "ACTION_NEVER_OPTIMAL(a1)" in prof.reasons

    def test_zero_prior_state_reported(self):
        inst = make_instance([1.0, 0.0], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
        prof = profile_instance(inst)
        assert not prof.assumption_satisfied
        assert any(r.startswith("ZERO_PRIOR_STATE") for r in prof.reasons)

    def test_single_action_gap_is_infinite(self):
        inst = make_instance([0.5, 0.5], [[1, 0]], [[1, 0]], actions=("only",))
        prof = profile_instance(inst)
        assert prof.gap == math.inf
        assert prof.assumption_satisfied

    def test_tie_threshold_follows_eps_num(self):
        # margin of 1e-6 at state w0: tie under a coarse tolerance only
        inst = make_instance(
            [0.5, 0.5], [[1, 0], [0, 1]], [[0.5 + 1e-6, 0], [0.5, 1]]
        )
        assert profile_instance(inst).assumption_satisfied
        assert not profile_instance(inst, 1e-5).assumption_satisfied

    @pytest.mark.parametrize("eps_num", [-1.0, float("nan"), math.inf])
    def test_bad_eps_num_rejected(self, example1, eps_num):
        # a negative tolerance would drop example 1's tie at w1
        with pytest.raises(ValidationError, match="eps_num"):
            profile_instance(example1, eps_num)


def profile_oracle(instance, eps_num):
    """The per-column loop that ``profile_instance`` replaced.

    Returns ``(per_state_optimal, reasons, gap, mu_min, region_masses)``.
    """
    v = instance.receiver_utility
    per_state, reasons, gap = {}, [], math.inf
    regions = {a: set() for a in instance.actions}
    for w in range(instance.n_states):
        col = v[:, w]
        order = np.argsort(col)
        best = int(order[-1])
        if instance.n_actions == 1:
            margin = math.inf
        else:
            margin = float(col[best] - col[int(order[-2])])
            gap = min(gap, margin)
        if margin > eps_num:
            per_state[instance.states[w]] = instance.actions[best]
            regions[instance.actions[best]].add(instance.states[w])
        else:
            reasons.append(f"TIE_AT_STATE({instance.states[w]})")
    reasons += [f"ACTION_NEVER_OPTIMAL({a})" for a in instance.actions if not regions[a]]
    mu_min = float(instance.prior.min())
    pairs = list(zip(instance.states, instance.prior))
    reasons += [f"ZERO_PRIOR_STATE({w})" for w, p in pairs if p <= 0.0]
    masses = [float(sum(p for w, p in pairs if w in regions[a])) for a in instance.actions]
    return per_state, tuple(reasons), float(gap), mu_min, np.array(masses)


def oracle_instance(rng):
    """A small random instance; coarse utility grids make exact ties common."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    levels = int(rng.choice([2, 3, 5, 11]))
    if rng.random() < 0.2:
        v = rng.random((n, m))
    else:
        v = rng.integers(0, levels, size=(n, m)) / (levels - 1)
    prior = rng.dirichlet(np.ones(m))
    prior[rng.random(m) < 0.2] = 0.0
    if prior.sum() == 0.0:
        prior[0] = 1.0
    return make_instance(prior / prior.sum(), rng.random((n, m)), v)


ORACLE_CASES = [
    ([0.5, 0.5], [[0.3, 0.7]]),  # one action
    ([0.2, 0.3, 0.5], [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]),  # every state a tie
    ([0.0, 1.0], [[1, 0], [0, 1]]),  # a zero-prior state
    ([0.25, 0.25, 0.5], [[1, 1, 0], [0, 0, 0], [0, 0, 1]]),  # a never-optimal action
]


class TestProfileOracle:
    @staticmethod
    def assert_matches_oracle(inst, eps_num):
        prof = profile_instance(inst, eps_num)
        per_state, reasons, gap, mu_min, masses = profile_oracle(inst, eps_num)
        assert prof.per_state_optimal == per_state
        assert prof.reasons == reasons
        assert np.float64(prof.gap).tobytes() == np.float64(gap).tobytes()
        assert prof.mu_min == mu_min
        assert prof.region_masses.dtype == np.float64
        assert prof.region_masses.tobytes() == masses.tobytes()
        assert not prof.optimal.flags.writeable

    @pytest.mark.parametrize("eps_num", [0.0, 1e-9, 0.1, 0.3])
    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_edge_cases(self, case, eps_num):
        prior, v = ORACLE_CASES[case]
        u = np.zeros((len(v), len(prior)))
        self.assert_matches_oracle(make_instance(prior, u, v), eps_num)

    @pytest.mark.parametrize("eps_num", [0.0, 1e-9, 0.1, 0.3])
    def test_random_instances(self, eps_num):
        rng = np.random.default_rng(20)
        for _ in range(500):
            self.assert_matches_oracle(oracle_instance(rng), eps_num)


class TestPosteriorsAndValues:
    def test_judge_posterior_at_convict_is_exactly_half(self, judge, judge_opt):
        post = posterior(judge, judge_opt, "convict")
        assert post[0] == 0.5
        assert post[1] == 0.5

    def test_judge_posterior_at_acquit_is_pure_innocent(self, judge, judge_opt):
        post = posterior(judge, judge_opt, "acquit")
        assert post[0] == 0.0
        assert post[1] == 1.0

    def test_judge_marginals(self, judge, judge_opt):
        marg = scheme_stats(judge, judge_opt).marginals
        assert marg == pytest.approx([0.6, 0.4], abs=1e-15)

    def test_marginals_and_posteriors_are_scheme_stats(self):
        # the single-signal reader returns scheme_stats' bits, not a second formula
        rng = np.random.default_rng(5)
        for _ in range(300):
            inst = random_instance(rng, max_states=12)
            scheme = random_scheme(rng, inst)
            stats = scheme_stats(inst, scheme)
            assert stats.marginals == pytest.approx(inst.prior @ scheme.conditional, abs=1e-15)
            for s in np.flatnonzero(stats.marginals > 0.0):
                assert np.array_equal(posterior(inst, scheme, int(s)), stats.posteriors[s])

    def test_posterior_of_unsent_signal_raises(self, judge):
        never = make_scheme(
            judge, ("s0", "s1"), np.array([[1.0, 0.0], [1.0, 0.0]])
        )
        with pytest.raises(ZeroProbabilitySignalError):
            posterior(judge, never, "s1")

    def test_judge_sender_value(self, judge, judge_opt):
        val = expected_utility(judge, judge_opt, obedient_strategy(judge))
        assert val == pytest.approx(0.6, abs=1e-15)

    def test_full_revelation_value(self, judge):
        full = full_revelation_scheme(judge)
        strat = ReceiverStrategy(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert expected_utility(judge, full, strat) == pytest.approx(0.3, abs=1e-15)

    def test_uninformative_scheme_has_prior_posterior(self, judge):
        flat = make_scheme(judge, ("s0",), np.ones((2, 1)))
        assert posterior(judge, flat, 0) == pytest.approx(judge.prior, abs=1e-15)

    def test_scheme_stats_zero_rows_for_unsent(self, judge):
        never = make_scheme(judge, ("s0", "s1"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        stats = scheme_stats(judge, never)
        assert stats.marginals[1] == 0.0
        assert np.all(stats.posteriors[1] == 0.0)


class TestAdvantage:
    def test_judge_optimal_scheme_has_zero_advantage(self, judge, judge_opt):
        assert advantage(judge, judge_opt) == pytest.approx(0.0, abs=1e-12)

    def test_judge_full_revelation_advantage_is_one(self, judge):
        full = make_scheme(judge, judge.actions, np.eye(2))
        assert advantage(judge, full) == pytest.approx(1.0, abs=1e-12)

    def test_per_signal_advantage(self, judge, judge_opt):
        assert signal_margin(judge, judge_opt, "acquit") == pytest.approx(1.0, abs=1e-12)

    def test_single_action_advantage_is_infinite(self):
        inst = make_instance([0.5, 0.5], [[1, 0]], [[1, 0]], actions=("only",))
        scheme = direct_scheme(inst, np.array([[1.0], [1.0]]))
        assert advantage(inst, scheme) == math.inf

    def test_requires_direct_revelation(self, judge):
        labeled = make_scheme(judge, ("s0", "s1"), np.eye(2))
        with pytest.raises(NotDirectRevelationError):
            advantage(judge, labeled)

    def test_margins_match_the_per_signal_oracle(self):
        from persuasion_lab.model import obedience_margins

        # quarter-grid utilities and one-hot rows make ties; some signals go unsent
        rng = np.random.default_rng(29)
        ties = unsent = 0
        for _ in range(400):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            u = rng.integers(0, 5, (n, m)) / 4
            inst = make_instance(rng.dirichlet(np.ones(m)), u, rng.integers(0, 5, (n, m)) / 4)
            sent = np.flatnonzero(rng.random(n) < 0.6)
            sent = sent if sent.size else np.array([int(rng.integers(n))])
            cond = np.zeros((m, n))
            if rng.random() < 0.5:
                cond[np.arange(m), rng.choice(sent, m)] = 1.0
            else:
                cond[:, sent] = rng.dirichlet(np.ones(sent.size), size=m)
            scheme = direct_scheme(inst, cond)
            stats = scheme_stats(inst, scheme)
            vals = stats.receiver_values
            want = np.array([vals[s, s] - max(np.delete(vals[s], s)) for s in range(n)])
            assert obedience_margins(vals).tobytes() == want.tobytes()
            sent = np.flatnonzero(stats.marginals > 0.0)
            assert advantage(inst, scheme) == min(want[sent])
            ties += int(np.count_nonzero(want[sent] == 0.0))
            unsent += n - sent.size
        assert ties > 0 and unsent > 0

    def test_single_action_margin_and_slack_are_infinite(self):
        from persuasion_lab.model import obedience_margins

        inst = make_instance([0.5, 0.5], [[1, 0]], [[1, 0]], actions=("only",))
        scheme = direct_scheme(inst, np.array([[1.0], [1.0]]))
        margins = obedience_margins(scheme_stats(inst, scheme).receiver_values)
        assert margins.tolist() == [math.inf]
        for alpha in (0.0, 0.5, 1.0):
            rep = verify_robustification(inst, scheme, robustify(inst, scheme, alpha), alpha)
            assert rep.advantage_bound_slack == math.inf


class TestProjection:
    def test_mask_judge_gamma_zero(self, judge, judge_opt):
        stats = scheme_stats(judge, judge_opt)
        mask = best_response_mask(stats.receiver_values, 0.0)
        assert mask.tolist() == [[True, True], [False, True]]

    def test_mask_widens_with_gamma(self, judge, judge_opt):
        stats = scheme_stats(judge, judge_opt)
        mask = best_response_mask(stats.receiver_values, 1.0)
        assert mask.all()

    def test_projection_renormalizes_onto_set(self, judge, judge_opt):
        strategy = ReceiverStrategy(np.array([[0.5, 0.5], [0.5, 0.5]]))
        proj = project_strategy(judge, judge_opt, strategy, gamma=0.0)
        # at convict both actions stay; at acquit only acquit survives
        assert proj.action_distribution[0] == pytest.approx([0.5, 0.5])
        assert proj.action_distribution[1] == pytest.approx([0.0, 1.0])

    def test_projection_without_mass_raises(self, judge, judge_opt):
        strategy = ReceiverStrategy(np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(NoMassOnApproxSetError):
            project_strategy(judge, judge_opt, strategy, gamma=0.0)

    def test_unsent_signal_rows_pass_through(self, judge):
        never = make_scheme(judge, ("s0", "s1"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        strategy = ReceiverStrategy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        proj = project_strategy(judge, never, strategy, gamma=0.5)
        assert proj.action_distribution[1] == pytest.approx([1.0, 0.0])


class TestJson:
    def test_instance_round_trip(self, judge):
        clone = instance_from_json(instance_to_json(judge))
        assert clone.states == judge.states
        assert clone.actions == judge.actions
        assert np.array_equal(clone.prior, judge.prior)
        assert np.array_equal(clone.sender_utility, judge.sender_utility)
        assert np.array_equal(clone.receiver_utility, judge.receiver_utility)

    def test_scheme_round_trip(self, judge, judge_opt):
        clone = scheme_from_json(scheme_to_json(judge_opt), judge)
        assert clone.signals == judge_opt.signals
        assert np.array_equal(clone.conditional, judge_opt.conditional)
        assert clone.signals == judge.actions

    def test_bad_json_raises_parse_error(self, judge):
        with pytest.raises(ParseError):
            instance_from_json("{not json")
        with pytest.raises(ParseError):
            scheme_from_json("[1, 2, 3]", judge)

    def test_missing_keys_raise_parse_error(self):
        with pytest.raises(ParseError) as err:
            instance_from_json(json.dumps({"states": ["a"], "actions": ["x"]}))
        assert "missing" in str(err.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("states", "gi"),
            ("states", {"guilty": 0, "innocent": 1}),
            ("states", 5),
            ("actions", ["convict", 1]),
            ("actions", ["convict", "acquit\udc80"]),
            ("prior", ["0.3", "0.7"]),
            ("prior", [True, False]),
            ("prior", [0.3, None]),
            ("prior", 1.0),
            ("prior", [10**400, 0]),
            ("receiver_utility", [[1.0, 0.0], [0.0]]),
            ("receiver_utility", [[1.0, 0.0], 1.0]),
            ("sender_utility", [1.0, [0.0, 1.0]]),
        ],
    )
    def test_malformed_instance_field_raises_parse_error(self, judge, key, value):
        doc = json.loads(instance_to_json(judge))
        doc[key] = value
        with pytest.raises(ParseError, match=key):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("signals", "ab"),
            ("signals", {"a": 0, "b": 1}),
            ("conditional", [[0.5, 0.5], [1.0]]),
            ("conditional", [["1", "0"], ["0", "1"]]),
            ("conditional", [[1, False], [0, True]]),
        ],
    )
    def test_malformed_scheme_field_raises_parse_error(self, judge, judge_opt, key, value):
        doc = json.loads(scheme_to_json(judge_opt))
        doc[key] = value
        for inst in (judge, None):
            with pytest.raises(ParseError, match=key):
                scheme_from_json(json.dumps(doc), inst)

    def test_too_deep_raises_parse_error(self, judge):
        doc = json.loads(instance_to_json(judge))
        doc["prior"] = json.loads("[" * 70 + "0.5" + "]" * 70)
        with pytest.raises(ParseError, match="prior"):
            instance_from_json(json.dumps(doc))
        with pytest.raises(ParseError, match="invalid JSON"):
            instance_from_json("[" * 100_000 + "]" * 100_000)

    def test_serialization_is_deterministic(self, judge):
        assert instance_to_json(judge) == instance_to_json(judge)


# ---------------------------------------------------------------------------
# property tests


def seeded_instance(seed: int) -> PersuasionInstance:
    return random_instance(np.random.default_rng(seed))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_posteriors_live_on_the_simplex(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    scheme = random_scheme(rng, inst)
    stats = scheme_stats(inst, scheme)
    sent = stats.marginals > 0
    assert np.all(stats.posteriors[sent] >= -1e-12)
    assert stats.posteriors[sent].sum(axis=1) == pytest.approx(
        np.ones(int(sent.sum())), abs=1e-9
    )


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_law_of_total_probability(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    scheme = random_scheme(rng, inst)
    stats = scheme_stats(inst, scheme)
    recovered = stats.marginals @ stats.posteriors
    assert recovered == pytest.approx(inst.prior, abs=1e-9)


@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_expected_utility_linear_in_strategy(seed, t):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    scheme = random_scheme(rng, inst)
    S, n = scheme.n_signals, inst.n_actions
    rho1 = rng.dirichlet(np.ones(n), size=S)
    rho2 = rng.dirichlet(np.ones(n), size=S)
    mixed = ReceiverStrategy(t * rho1 + (1 - t) * rho2)
    u1 = expected_utility(inst, scheme, ReceiverStrategy(rho1))
    u2 = expected_utility(inst, scheme, ReceiverStrategy(rho2))
    assert expected_utility(inst, scheme, mixed) == pytest.approx(
        t * u1 + (1 - t) * u2, abs=1e-9
    )


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_values_stay_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    scheme = random_scheme(rng, inst)
    stats = scheme_stats(inst, scheme)
    sent = stats.marginals > 0
    assert np.all(stats.receiver_values[sent] >= -1e-12)
    assert np.all(stats.receiver_values[sent] <= 1 + 1e-12)
    assert np.all(stats.sender_values[sent] >= -1e-12)
    assert np.all(stats.sender_values[sent] <= 1 + 1e-12)


# Entries a constructor must cope with: valid probabilities, negatives,
# NaN and both infinities.
ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5, math.nan, math.inf, -math.inf]),
    st.floats(-2.0, 2.0),
)
ANY_SHAPE = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


@st.composite
def arrays_near(draw, shape):
    """A float array of ``shape`` or of any small shape, a zero-length axis included."""
    shape = draw(st.one_of(st.just(shape), ANY_SHAPE))
    return draw(arrays(np.float64, shape, elements=ENTRIES))


def built_or_rejected(make):
    """The object ``make`` builds, or ``None`` when it raises ValidationError."""
    try:
        return make()
    except ValidationError:
        return None


@given(st.data(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_instance_builds_or_rejects(data, m, n):
    prior = data.draw(arrays_near((m,)))
    u = data.draw(arrays_near((n, m)))
    v = data.draw(arrays_near((n, m)))
    inst = built_or_rejected(
        lambda: PersuasionInstance(
            tuple(f"w{k}" for k in range(m)), tuple(f"a{k}" for k in range(n)), prior, u, v
        )
    )
    if inst is not None:
        assert abs(inst.prior.sum() - 1.0) <= 1e-12
        for mat in (inst.prior, inst.sender_utility, inst.receiver_utility):
            assert np.all((mat >= 0) & (mat <= 1))


@given(st.data(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_make_scheme_builds_or_rejects(data, k):
    inst = make_instance([0.5, 0.5], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    cond = data.draw(arrays_near((2, k)))
    scheme = built_or_rejected(lambda: make_scheme(inst, tuple(f"s{i}" for i in range(k)), cond))
    if scheme is not None:
        assert scheme.conditional.shape == (2, k)
        assert np.all(scheme.conditional >= 0)
        assert np.allclose(scheme.conditional.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@given(arrays(np.float64, ANY_SHAPE, elements=ENTRIES))
@settings(max_examples=200, deadline=None)
def test_receiver_strategy_builds_or_rejects(rho):
    strat = built_or_rejected(lambda: ReceiverStrategy(rho))
    if strat is not None:
        assert strat.n_signals >= 1
        assert np.all(strat.action_distribution >= 0)
        assert np.allclose(strat.action_distribution.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ReceiverStrategy(np.zeros((0, 2))),
        lambda: SignalingScheme(("s0",), np.zeros((0, 1))),
    ],
    ids=["strategy", "scheme"],
)
def test_no_rows_rejected(make):
    with pytest.raises(ValidationError, match="no rows"):
        make()
