import csv
import dataclasses
import gc
import hashlib
import itertools
import math
import re
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuasion_lab import (
    AlternatingSignalPolicy,
    EmpiricalBestResponse,
    Exp3,
    ExpWeights,
    FixedSchemePolicy,
    PersuasionInstance,
    SignalingScheme,
    SimulationTrace,
    ValidationError,
    WrongInstanceError,
    advantage,
    builtin_instance,
    convergence_report,
    empirical_br_probs,
    exp3_act,
    exp_weights_certificate,
    exp_weights_probs,
    make_receiver,
    make_scheme,
    robustified_optimum,
    robustify,
    run_replications,
    scheme_stats,
    simulate,
    solve_classic,
)
from persuasion_lab import cli, learning, repro
from persuasion_lab.model import best_response_mask
from persuasion_lab.repro import alternating_stats
from persuasion_lab.sampling import satisfied_instance
from support import (
    alternating_signals,
    empirical_conditional_utilities,
    exp3_oracle,
    fixed_signals,
    judge_optimal_scheme,
    per_round,
    random_instance,
    whole_alternating_stats,
    whole_running_avg,
    whole_sender_utils,
)


class FirstActionExpWeights(ExpWeights):
    """Overrides ``act``, which the bulk path never calls."""

    def act(self, signal, t, u):
        return 0


class MirroredExp3(Exp3):
    """Overrides ``act``, which the bulk path never calls."""

    def act(self, signal, t, u):
        return super().act(signal, t, 1.0 - u)


class FlippedPolicy(FixedSchemePolicy):
    """Sends the scheme's signals in reverse order, through its own ``signals_for_states``."""

    def signals_for_states(self, states, u_signals):
        return len(self.signals) - 1 - super().signals_for_states(states, u_signals)


class EvenOddSender:
    """A sender written to the protocol alone: ``signals``, ``reset`` and
    ``signals_for_states``, and no built-in class.  It sends ``odd`` on the
    first, third, ... state-0 rounds and whenever the uniform is below 0.2."""

    signals = ("even", "odd")

    def reset(self):
        self.zeros = 0

    def signals_for_states(self, states, u_signals):
        zeros = self.zeros + np.cumsum(states == 0)
        self.zeros = int(zeros[-1])
        return ((zeros % 2 == 1) & (states == 0) | (u_signals < 0.2)).astype(np.int64)


def sender_case(sender, judge, judge_opt, mismatch):
    """The instance and a policy factory for the fixed, flipped or alternating sender."""
    if sender == "fixed":
        return judge, lambda: FixedSchemePolicy(judge_opt)
    if sender == "flipped":
        return judge, lambda: FlippedPolicy(judge_opt)
    return mismatch, lambda: AlternatingSignalPolicy(mismatch)


# a trace stores the index arrays; the utilities and running average are
# read chunk by chunk, and ``support`` gathers them whole as oracles
STORED_ARRAYS = ("states", "signals", "actions")


def exp3_row(cumulative, exploration, learning_rate):
    """Every action's probability, read off ``exp3_act`` one CDF step at a time."""
    probs, running = [], 0.0
    for expect in range(len(cumulative)):
        a, p = exp3_act(cumulative, exploration, learning_rate, running)
        assert a == expect
        probs.append(p)
        running += p
    return np.array(probs)


def sample_oracle(cdf_row, u):
    """The searchsorted-plus-cap inverse-CDF draw that ``learning._sample`` replaced."""
    return min(int(np.searchsorted(cdf_row, u, side="right")), cdf_row.size - 1)


def exp3_reference(cumulative, exploration, learning_rate):
    """EXP3's probabilities written directly in numpy."""
    w = np.exp(learning_rate * (cumulative - cumulative.max()))
    return (1.0 - exploration) * w / w.sum() + exploration / cumulative.size


class RunningSums:
    """A ``u`` that no running sum exceeds: ``running > u`` falls back to
    ``u.__lt__(running)``, which records the sum."""

    def __init__(self):
        self.seen = []

    def __lt__(self, running):
        self.seen.append(running)
        return False


def assert_same_state(a, b):
    """Two receivers end in equal state: counts, estimates, everything they keep."""
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        other = vars(b)[name]
        same = np.array_equal(value, other) if isinstance(value, np.ndarray) else value == other
        assert same, name


def fed(receiver, instance, pairs, n_signals=2):
    """Reset a full-feedback receiver and feed it (signal, state) rounds."""
    receiver.reset(n_signals, instance, len(pairs))
    for sig, w in pairs:
        receiver.feed(sig, 0, w, 0.0)
    return receiver


class TestReceiverState:
    def test_full_feedback_counts(self, judge):
        rec = fed(EmpiricalBestResponse(), judge, [(0, 1), (0, 1), (0, 0), (1, 1)])
        assert rec.counts.tolist() == [[1.0, 2.0], [0.0, 1.0]]
        assert rec.counts.sum(axis=1).tolist() == [3, 1]
        # the rules score actions by cumulative utility, counts @ v.T
        expect = rec.counts @ judge.receiver_utility.T
        assert np.array_equal(learning._scores(rec.counts, judge.receiver_utility), expect)

    def test_partial_feedback_accumulates_estimates(self, monkeypatch):
        three = PersuasionInstance(
            ("w0", "w1"), ("a0", "a1", "a2"), [0.5, 0.5], np.zeros((3, 2)), np.zeros((3, 2))
        )
        monkeypatch.setattr(learning, "exp3_rates", lambda n_actions, horizon: (1.0, 0.0))
        rec = Exp3()
        rec.reset(2, three, 10)
        for t, payoff in ((1, 1.5), (2, 1.0 / 6.0)):
            assert rec.act(1, t, 0.9) == 2  # uniform play: u = 0.9 picks the last action
            rec.feed(1, 2, 0, payoff)
        assert rec.cumulative[1] == [0.0, 0.0, 5.0]
        assert rec.cumulative[0] == [0.0, 0.0, 0.0]


class TestEmpiricalBr:
    def test_cold_start_uniform(self, judge):
        assert empirical_br_probs(np.zeros((1, 2)), judge.receiver_utility).tolist() == [[0.5, 0.5]]

    def test_exact_tie_uniform(self, judge):
        # equal counts of each state tie acquit and convict exactly
        rec = fed(EmpiricalBestResponse(), judge, [(0, 0), (0, 1)] * 7)
        assert empirical_br_probs(rec.counts[:1], judge.receiver_utility).tolist() == [[0.5, 0.5]]

    def test_majority_state_wins(self, judge):
        # guilty twice, innocent once: convict wins
        rec = fed(EmpiricalBestResponse(), judge, [(0, 0), (0, 0), (0, 1)])
        assert empirical_br_probs(rec.counts[:1], judge.receiver_utility).tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("n_actions", range(1, 13))
    def test_is_the_axis_reduction_formula(self, n_actions):
        # small integer utilities tie exactly and often; zero counts against
        # negative utilities score -0.0, which ties 0.0
        rng = np.random.default_rng(n_actions)
        utility = rng.integers(-1, 3, size=(n_actions, 3)).astype(np.float64)
        counts = rng.integers(0, 4, size=(300, 3)).astype(np.float64)
        counts[:10] = 0.0
        scores = learning._scores(counts, utility)
        ties = scores == scores.max(axis=1, keepdims=True)
        want = ties / ties.sum(axis=1, keepdims=True)
        assert empirical_br_probs(counts, utility).tobytes() == want.tobytes()
        if n_actions > 1:
            assert (ties.sum(axis=1) > 1).any()


class TestExpWeights:
    def test_cold_start_uniform(self, judge):
        p = exp_weights_probs(np.zeros((1, 2)), judge.receiver_utility, np.array([1.0]))
        assert p.tolist() == [[0.5, 0.5]]

    def test_logistic_form(self, judge):
        # judge scores reduce to the count of each state, so the softmax is
        # a logistic in eta * (count difference)
        rec = fed(ExpWeights(), judge, [(0, 1)] * 10)  # ten innocent observations favor acquit
        for t in (2, 5, 1000):
            eta = math.sqrt(math.log(2) / t)
            expect = 1.0 / (1.0 + math.exp(-eta * 10))
            p = exp_weights_probs(rec.counts[:1], judge.receiver_utility, np.array([float(t)]))[0]
            assert p[1] == pytest.approx(expect, abs=1e-15)
            assert p.sum() == pytest.approx(1.0, abs=1e-15)


class TestExp3:
    def test_for_horizon_formula(self):
        g = min(1.0, math.sqrt(4 * math.log(4) / ((math.e - 1) * 100_000)))
        got = learning.exp3_rates(4, 100_000)
        assert [x.hex() for x in got] == [g.hex(), (g / 4).hex()]

    def test_cold_start_uniform(self):
        assert np.allclose(exp3_row([0.0] * 4, *learning.exp3_rates(4, 1000)), 0.25)

    def test_exploration_floor(self):
        p = exp3_row([50.0, 0.0], 0.2, 0.05)
        assert p.min() >= 0.1 - 1e-15
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.data(),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_the_comprehension_oracle_to_the_bit(self, data, cumulative, exploration):
        for k in data.draw(st.sets(st.integers(0, len(cumulative) - 1))):
            cumulative[k] = max(cumulative)  # repeated maxima
        # a rate that spreads the scaled estimates over [-40, 0] keeps most
        # weights off 0 and 1, where a reordered sum shows
        spread = max(max(cumulative) - min(cumulative), 1e-6)
        spread_out = st.floats(0.0, 40.0).map(lambda z: z / spread)
        learning_rate = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0), spread_out))
        sums = RunningSums()
        exp3_oracle(cumulative, exploration, learning_rate, sums)
        us = [0.0, math.nextafter(sums.seen[-1], math.inf), math.inf]
        for s in sums.seen:  # each running sum, one ulp below it, and the last one
            us += [s, math.nextafter(s, -math.inf)]
        for u in us + data.draw(st.lists(st.floats(0.0, 1.0), max_size=3)):
            a, p = exp3_act(cumulative, exploration, learning_rate, u)
            want_a, want_p = exp3_oracle(cumulative, exploration, learning_rate, u)
            assert (a, p.hex()) == (want_a, want_p.hex()), u

    def test_rule_builds_no_function_per_round(self):
        # On CPython 3.11 a comprehension that reads the rule's locals makes
        # them cell variables, and every round then builds a closure, a
        # function and a frame: 1.36-1.46 against 1.03-1.15 us per round on
        # the bandit workload's streams.  From 3.12 comprehensions are inlined.
        code = exp3_act.__code__
        nested = [c.co_name for c in code.co_consts if isinstance(c, types.CodeType)]
        assert code.co_cellvars == () and nested == [], (
            f"exp3_act has cell variables {code.co_cellvars} and nested code {nested}: "
            "a closure per round took the bandit loop from 1.03-1.15 to 1.36-1.46 us per round"
        )

    def test_one_action_tuning_is_valid(self):
        rates = learning.exp3_rates(1, 1000)
        assert [x.hex() for x in rates] == [(0.0).hex()] * 2
        assert exp3_act([0.0], *rates, 0.5) == (0, 1.0)

    def test_make_receiver(self):
        assert isinstance(make_receiver("exp3"), Exp3)
        assert isinstance(make_receiver("exp-weights"), ExpWeights)
        assert isinstance(make_receiver("empirical-br"), EmpiricalBestResponse)
        with pytest.raises(ValidationError):
            make_receiver("ucb")


class TestAlternatingPolicy:
    def test_example_sequence(self, mismatch):
        pol = AlternatingSignalPolicy(mismatch)
        # B,G,G,G,B -> s2,s1,s2,s2,s1
        states = np.array([1, 0, 0, 0, 1])
        out = pol.signals_for_states(states, np.zeros(5))
        assert out.tolist() == [1, 0, 1, 1, 0]

    def test_first_good_state_discloses(self, mismatch):
        pol = AlternatingSignalPolicy(mismatch)
        out = pol.signals_for_states(np.array([0]), np.zeros(1))
        assert out.tolist() == [0]

    def test_stepwise_matches_vectorized(self, mismatch, rng):
        states = rng.integers(0, 2, size=200)
        pol = AlternatingSignalPolicy(mismatch)
        vec = pol.signals_for_states(states.copy(), rng.random(200))
        vec_target = pol.target
        pol.reset()
        # consecutive calls carry the target over and equal one whole call
        halves = [pol.signals_for_states(p, np.zeros(p.size)) for p in (states[:73], states[73:])]
        assert np.concatenate(halves).tolist() == vec.tolist()
        assert pol.target == vec_target
        # the rule from its definition, one round at a time
        assert vec.tolist() == alternating_signals(states)

    def test_two_states_required(self, rng):
        inst = random_instance(rng, max_states=6)
        while inst.n_states == 2:
            inst = random_instance(rng, max_states=6)
        with pytest.raises(WrongInstanceError):
            AlternatingSignalPolicy(inst)


class TestSimulate:
    def test_rounds_positive(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            simulate(judge, FixedSchemePolicy(judge_opt), EmpiricalBestResponse(), 0, 0)

    def test_deterministic_per_seed(self, judge, judge_opt):
        a = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 500, 7)
        b = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 500, 7)
        c = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 500, 8)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(whole_running_avg(a), whole_running_avg(b))
        assert not np.array_equal(a.actions, c.actions)

    def test_receiver_change_keeps_state_stream(self, judge, judge_opt):
        a = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 400, 3)
        b = simulate(judge, FixedSchemePolicy(judge_opt), EmpiricalBestResponse(), 400, 3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.signals, b.signals)

    # the subclasses must leave the bulk path, not be replaced by it
    @pytest.mark.parametrize(
        "receiver_cls",
        [EmpiricalBestResponse, ExpWeights, FirstActionExpWeights, Exp3, MirroredExp3],
    )
    @pytest.mark.parametrize("sender", ["fixed", "flipped", "alternating"])
    def test_fast_path_matches_generic(self, judge, judge_opt, mismatch, receiver_cls, sender):
        inst, make_policy = sender_case(sender, judge, judge_opt, mismatch)
        fast_receiver, slow_receiver = receiver_cls(), per_round(receiver_cls)()
        fast = simulate(inst, make_policy(), fast_receiver, 3000, 11)
        slow = simulate(inst, make_policy(), slow_receiver, 3000, 11)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.signals, slow.signals)
        assert np.array_equal(fast.actions, slow.actions)
        assert np.array_equal(whole_running_avg(fast), whole_running_avg(slow))
        assert_same_state(fast_receiver, slow_receiver)

    @pytest.mark.parametrize("receiver_cls", [EmpiricalBestResponse, ExpWeights, Exp3])
    def test_protocol_sender_takes_either_path(self, judge, monkeypatch, receiver_cls):
        # the sender is no built-in class; chunks of 7 make it carry its count
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", 7)
        fast_receiver, slow_receiver = receiver_cls(), per_round(receiver_cls)()
        fast = simulate(judge, EvenOddSender(), fast_receiver, 500, 3)
        slow = simulate(judge, EvenOddSender(), slow_receiver, 500, 3)
        assert_same_trace(fast, slow)
        assert_same_state(fast_receiver, slow_receiver)
        assert fast.scheme is None and fast.signal_ids == ("even", "odd")
        # the trace holds the sender's rule: odd on every other state-0 round, or u < 0.2
        zeros = np.cumsum(fast.states == 0)
        u = learning._spawn_rngs(3)[1].random(500)
        assert fast.signals.tolist() == (((zeros % 2 == 1) & (fast.states == 0)) | (u < 0.2)).tolist()

    @pytest.mark.parametrize("receiver_cls", [ExpWeights, per_round(ExpWeights)])
    def test_flipped_sender_changes_the_trace(self, judge, judge_opt, receiver_cls):
        # so the subclass tests cannot pass on a flip that never runs
        plain = simulate(judge, FixedSchemePolicy(judge_opt), receiver_cls(), 300, 4)
        flipped = simulate(judge, FlippedPolicy(judge_opt), receiver_cls(), 300, 4)
        assert flipped.signals.tolist() == (1 - plain.signals).tolist()
        # the receiver learns per signal, so relabeling the signals moves no action
        assert flipped.actions.tobytes() == plain.actions.tobytes()

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"])
    def test_seed_must_be_an_integer_of_at_least_zero(self, judge, judge_opt, seed):
        message = f"seed must be an integer of at least 0, got {seed!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 50, seed)

    @pytest.mark.parametrize(
        "receiver_cls",
        [EmpiricalBestResponse, ExpWeights, FirstActionExpWeights, Exp3, MirroredExp3],
    )
    @pytest.mark.parametrize("sender", ["fixed", "flipped", "alternating"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    # 448 rounds is a whole number of chunks of every size; 450 ends on a
    # part chunk of 7 and of 64
    @pytest.mark.parametrize("rounds", [448, 450])
    def test_chunk_size_changes_nothing(
        self, judge, judge_opt, mismatch, monkeypatch, receiver_cls, sender, chunk, rounds
    ):
        inst, make_policy = sender_case(sender, judge, judge_opt, mismatch)
        whole_receiver = receiver_cls()
        whole = simulate(inst, make_policy(), whole_receiver, rounds, 11)
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", chunk)
        for cls in (receiver_cls, per_round(receiver_cls)):
            receiver = cls()
            chunked = simulate(inst, make_policy(), receiver, rounds, 11)
            assert_same_trace(chunked, whole)
            assert_same_state(receiver, whole_receiver)

    def test_chunked_running_average_keeps_negative_zero(self, judge, judge_opt, monkeypatch):
        # one cumsum over -0.0 utilities stays -0.0; so must the carry
        inst = PersuasionInstance(
            judge.states,
            judge.actions,
            judge.prior,
            np.full_like(judge.sender_utility, -0.0),
            judge.receiver_utility,
        )
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", 7)
        trace = simulate(inst, FixedSchemePolicy(judge_opt), ExpWeights(), 30, 0)
        assert np.signbit([c.running_avg for c in trace.checkpoints(1)]).all()

    @pytest.mark.parametrize("case", ["exp-weights/judge", "empirical-br/example-4-3"])
    def test_memory_beyond_trace_does_not_grow(self, judge, judge_opt, mismatch, case):
        # working memory is one chunk's, about 1.5 MB; one full-horizon
        # int64 or float64 temporary would add 6.4 MB at 800k rounds
        if case == "exp-weights/judge":
            inst, policy, receiver_cls = judge, FixedSchemePolicy(judge_opt), ExpWeights
        else:
            inst, policy = mismatch, AlternatingSignalPolicy(mismatch)
            receiver_cls = EmpiricalBestResponse
        for rounds in (100_000, 800_000):
            receiver = receiver_cls()
            tracemalloc.start()
            try:
                trace = simulate(inst, policy, receiver, rounds, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = peak - sum(getattr(trace, name).nbytes for name in STORED_ARRAYS)
            assert extra < 3_000_000, (rounds, extra)

    @pytest.mark.parametrize("receiver_cls", [EmpiricalBestResponse, ExpWeights, Exp3])
    def test_fast_path_matches_generic_many_states(self, receiver_cls):
        # scores mix several states and non-dyadic utilities, so their
        # rounding must not depend on how many rows are computed at once;
        # nine or more actions make numpy unroll a sum into partial sums
        rng = np.random.default_rng(21)
        inst = random_instance(rng, max_states=6, max_actions=12)
        while inst.n_states < 4 or inst.n_actions < 9:
            inst = random_instance(rng, max_states=6, max_actions=12)
        cond = rng.dirichlet(np.ones(3), size=inst.n_states)
        scheme = make_scheme(inst, ("s0", "s1", "s2"), cond)
        fast_receiver, slow_receiver = receiver_cls(), per_round(receiver_cls)()
        fast = simulate(inst, FixedSchemePolicy(scheme), fast_receiver, 1500, 2)
        slow = simulate(inst, FixedSchemePolicy(scheme), slow_receiver, 1500, 2)
        assert np.array_equal(fast.actions, slow.actions)
        assert np.array_equal(whole_running_avg(fast), whole_running_avg(slow))
        assert_same_state(fast_receiver, slow_receiver)

    def test_running_average_identity(self, judge, judge_opt):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 300, 5)
        checkpoints, utils = tr.checkpoints(1), whole_sender_utils(tr)
        for t in (1, 2, 137, 300):
            assert checkpoints[t - 1].running_avg == pytest.approx(utils[:t].mean(), abs=1e-12)
        assert tr.rounds == 300
        assert tr.final_average == checkpoints[-1].running_avg

    def test_cold_start_round_one_uniform(self, judge, judge_opt):
        # round 1 action is the raw uniform draw thresholded at 1/2
        hits = []
        for seed in range(200):
            tr = simulate(judge, FixedSchemePolicy(judge_opt), EmpiricalBestResponse(), 1, seed)
            hits.append(int(tr.actions[0]))
        frac = np.mean(hits)
        assert 0.4 <= frac <= 0.6

    def test_obedience_frequency_requires_direct_labels(self, judge, judge_opt, mismatch):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 50, 0)
        assert tr.obedience_frequency() is not None
        tr2 = simulate(
            mismatch, AlternatingSignalPolicy(mismatch), ExpWeights(), 50, 0
        )
        assert tr2.obedience_frequency() is None

    @pytest.mark.parametrize("start", [50, 60, -5, 2.5, "3", None, True])
    def test_obedience_frequency_rejects_empty_range(self, judge, judge_opt, start):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 50, 0)
        with pytest.raises(ValidationError):
            tr.obedience_frequency(start)

    def test_obedience_frequency_takes_a_numpy_integer(self, judge, judge_opt):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 50, 0)
        got = tr.obedience_frequency(np.int64(10))
        assert type(got) is float and got == tr.obedience_frequency(10)

    def test_index_arrays_read_only(self, judge, judge_opt):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 50, 0)
        for name in STORED_ARRAYS:
            with pytest.raises(ValueError):
                getattr(tr, name)[0] = 0


def wide_satisfied_instance():
    """The first 6-state, 5-action ``satisfied_instance`` draw at seed 6, and its generator."""
    rng = np.random.default_rng(6)
    inst = satisfied_instance(rng)
    while (inst.n_states, inst.n_actions) != (6, 5):
        inst = satisfied_instance(rng)
    return inst, rng


def wide_random_instance():
    """The first ``random_instance`` draw with 9 or more actions at seed 9, and its generator."""
    rng = np.random.default_rng(9)
    inst = random_instance(rng, max_states=6, max_actions=12)
    while inst.n_actions < 9:
        inst = random_instance(rng, max_states=6, max_actions=12)
    return inst, rng


# sha256 over the states, signals and actions of 20,000 rounds at seed 3,
# which cross a ``SIMULATE_CHUNK`` boundary, each hashed as little-endian
# int64 whatever dtype the trace stores it in; the random instance has 4
# states and 11 actions, where numpy sums a row in unrolled partial sums
WIDE_TRACE_PINS = {
    ("satisfied", "exp-weights"): "a4e7a9fb665323136753329febfd17c614f254190afcb6e6e7ce8011d801a3ab",
    ("satisfied", "empirical-br"): "a25890abce971d453fe29bec1f99046ffbff2698121509835b9367e6be5d8799",
    ("satisfied", "exp3"): "8af6e5de003fafacf43998e07b0a53cfb1c32169b7175b49ca121943357203ec",
    ("random", "exp-weights"): "b4caea4dd144a195bb5e72adc7e4d402b2cede8c462e5eaca1363897b5780760",
    ("random", "empirical-br"): "a41f6fbc6dffb745c9cac450becde2c4941ec21b6b30b37fbae0ebb1e26a6834",
    ("random", "exp3"): "12de803a114331bb5f9f17aec03b6c1a3c1bbde3429ddcd77f17fd7cf2982316",
}


@pytest.mark.parametrize("draw, kind", sorted(WIDE_TRACE_PINS))
def test_wide_traces_match_pins(draw, kind):
    """Wide instances keep their traces: four signals drawn from a flat Dirichlet."""
    make = {"satisfied": wide_satisfied_instance, "random": wide_random_instance}[draw]
    inst, rng = make()
    cond = rng.dirichlet(np.ones(4), size=inst.n_states)
    scheme = make_scheme(inst, ("s0", "s1", "s2", "s3"), cond)
    tr = simulate(inst, FixedSchemePolicy(scheme), make_receiver(kind), 20_000, 3)
    digest = hashlib.sha256()
    for name in STORED_ARRAYS:
        digest.update(np.asarray(getattr(tr, name), dtype="<i8").tobytes())
    assert digest.hexdigest() == WIDE_TRACE_PINS[draw, kind]


def wide_index_trace(rounds: int = 5000, dtype=np.int8) -> SimulationTrace:
    """A hand-built trace of 12 states, signals and actions with non-dyadic utilities.

    Both cell codes ``to_csv`` forms, ``state * 12 + signal`` and ``action *
    12 + state``, run up to 143, past int8's 127.
    """
    rng = np.random.default_rng(12)
    inst = PersuasionInstance(
        tuple(f"w{k}" for k in range(12)),
        tuple(f"a{k}" for k in range(12)),
        rng.dirichlet(np.ones(12)),
        rng.random((12, 12)),
        rng.random((12, 12)),
    )
    indices = [rng.integers(0, 12, rounds).astype(dtype) for _ in STORED_ARRAYS]
    return SimulationTrace(inst, tuple(f"s{k}" for k in range(12)), *indices, seed=0, scheme=None)


def widened(trace: SimulationTrace, dtype) -> SimulationTrace:
    """The trace with its index arrays cast to ``dtype``."""
    return dataclasses.replace(
        trace, **{name: getattr(trace, name).astype(dtype) for name in STORED_ARRAYS}
    )


def one_wide_axis(axis: str, n: int) -> tuple[PersuasionInstance, SignalingScheme]:
    """An instance and scheme with ``n`` states, signals or actions and 2 of the others."""
    rng = np.random.default_rng(n)
    m, k, a = (n if axis == name else 2 for name in STORED_ARRAYS)
    inst = PersuasionInstance(
        tuple(f"w{i}" for i in range(m)),
        tuple(f"a{i}" for i in range(a)),
        rng.dirichlet(np.ones(m)),
        rng.random((a, m)),
        rng.random((a, m)),
    )
    return inst, make_scheme(inst, tuple(f"s{i}" for i in range(k)), rng.dirichlet(np.ones(k), m))


class TestNarrowIndices:
    @pytest.mark.parametrize("n, dtype", [(2, np.int8), (128, np.int8), (129, np.int16)])
    @pytest.mark.parametrize("axis", STORED_ARRAYS)
    @pytest.mark.parametrize("receiver_cls", [ExpWeights, Exp3])
    def test_simulate_stores_the_narrowest_dtype(self, axis, n, dtype, receiver_cls):
        # the widest of the three axes decides, on both paths
        inst, scheme = one_wide_axis(axis, n)
        traces = [
            simulate(inst, FixedSchemePolicy(scheme), cls(), 300, 1)
            for cls in (receiver_cls, per_round(receiver_cls))
        ]
        for trace in traces:
            assert [getattr(trace, name).dtype for name in STORED_ARRAYS] == [dtype] * 3
        assert_same_trace(*traces)

    def test_cell_codes_past_int8_match_the_oracle(self, tmp_path):
        trace = wide_index_trace()
        assert trace.states.dtype == np.int8
        wide = widened(trace, np.int64)
        assert (wide.states * 12 + wide.signals).max() > 127
        assert (wide.actions * 12 + wide.states).max() > 127
        TestTraceCsv().assert_oracle_bytes(trace, tmp_path)

    def test_utilities_past_int8_match_the_2d_gather(self):
        # actions * 12 + states reaches 143: combined before widening, the
        # int8 codes wrap negative and gather other cells
        trace = wide_index_trace()
        assert trace.actions.dtype == np.int8
        assert (trace.actions.astype(np.int64) * 12 + trace.states).max() > 127
        want = trace.instance.sender_utility[trace.actions, trace.states]
        chunks = list(trace.chunks(1000))
        assert np.concatenate([c[-1] for c in chunks]).tobytes() == want.tobytes()
        for lo, states, _, actions, utils in chunks:
            assert utils.tobytes() == trace.instance.sender_utility[actions, states].tobytes()

    @pytest.mark.parametrize("source", ["hand-built", "simulated"])
    def test_int64_trace_writes_the_narrow_bytes(self, judge, judge_opt, tmp_path, source):
        if source == "hand-built":
            wide = wide_index_trace(dtype=np.int64)
        else:
            wide = widened(simulate(judge, FixedSchemePolicy(judge_opt), Exp3(), 5000, 3), np.int64)
        narrow = widened(wide, np.int8)
        for label, trace in (("wide", wide), ("narrow", narrow)):
            trace.to_csv(tmp_path / f"{label}.csv")
            trace.checkpoints_to_csv(tmp_path / f"{label}-diagnostics.csv", 700)
        for name in ("", "-diagnostics"):
            assert (tmp_path / f"wide{name}.csv").read_bytes() == (
                tmp_path / f"narrow{name}.csv"
            ).read_bytes()


class TestDerivedTrace:
    ROUNDS = 1000

    @pytest.fixture
    def fields(self):
        """A hand-built trace's fields: random indices into a non-dyadic instance."""
        rng = np.random.default_rng(8)
        inst = random_instance(rng)
        actions = rng.integers(0, inst.n_actions, self.ROUNDS)
        return dict(
            instance=inst,
            signal_ids=inst.actions,
            states=rng.integers(0, inst.n_states, self.ROUNDS),
            signals=rng.integers(0, inst.n_actions, self.ROUNDS),
            actions=actions,
            seed=0,
            scheme=None,
        )

    def test_sender_utils_gathers_the_utility(self, fields):
        tr = SimulationTrace(**fields)
        utility = tr.instance.sender_utility
        for _, states, _, actions, utils in tr.chunks(7):
            assert utils.tobytes() == utility[actions, states].tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, ROUNDS])
    def test_running_avg_equals_chunked_carry(self, fields, monkeypatch, chunk):
        # the running average read chunk by chunk has the bits of one whole cumsum
        tr = SimulationTrace(**fields)
        want = whole_running_avg(tr)
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", chunk)
        got = np.array([c.running_avg for c in tr.checkpoints(1)])
        assert got.tobytes() == want.tobytes()
        assert tr.final_average == want[-1]

    @pytest.mark.parametrize("size", [0, -5, 2.0, 2.5, "7", True])
    def test_chunk_size_must_be_a_positive_integer(self, fields, size):
        with pytest.raises(ValidationError, match="chunk size"):
            SimulationTrace(**fields).chunks(size)

    @pytest.mark.parametrize("size", [None, 1, np.int64(7), ROUNDS + 5])
    def test_chunk_sizes_cover_the_trace(self, fields, size):
        tr = SimulationTrace(**fields)
        chunks = list(tr.chunks(size))
        step = learning.SIMULATE_CHUNK if size is None else int(size)
        assert [c[0] for c in chunks] == list(range(0, self.ROUNDS, step))
        joined = np.concatenate([c[-1] for c in chunks])
        assert joined.tobytes() == whole_sender_utils(tr).tobytes()

    @pytest.mark.parametrize(
        "case", ["no-rounds", "short-signals", "float-actions", "2-d-states", "list-states"]
    )
    def test_indices_must_be_1d_integer_arrays_of_one_length(self, fields, case):
        # unchecked, 0 rounds made final_average raise IndexError while
        # checkpoints() returned (); short signals gave invented obedience
        bad = {
            "no-rounds": {name: fields[name][:0] for name in STORED_ARRAYS},
            "short-signals": {"signals": fields["signals"][:-1]},
            "float-actions": {"actions": fields["actions"].astype(float)},
            "2-d-states": {"states": fields["states"].reshape(2, -1)},
            "list-states": {"states": fields["states"].tolist()},
        }[case]
        with pytest.raises(ValidationError, match="1-d integer arrays of one length >= 1"):
            SimulationTrace(**{**fields, **bad})

    @pytest.mark.parametrize("name", ["sender_utils", "running_avg"])
    def test_derived_values_not_accepted(self, fields, name):
        with pytest.raises(TypeError):
            SimulationTrace(**fields, **{name: np.zeros(self.ROUNDS)})

    def test_trace_csv_round_trip(self, judge, judge_opt, tmp_path):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 40, 2)
        p = tmp_path / "trace.csv"
        tr.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "t,state,signal,action,u,v,running_avg"
        assert len(lines) == 41
        q = tmp_path / "cp.csv"
        tr.checkpoints_to_csv(q, 10)
        assert len(q.read_text().strip().splitlines()) == 5
        assert tr.checkpoints(10)[-1].t == 40
        assert tr.checkpoints(10)[0].window_obedience is not None


def oracle_csv(trace, path):
    """The trace as ``csv.writer`` writes it, one row per round."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "state", "signal", "action", "u", "v", "running_avg"])
        states = trace.instance.states
        actions = trace.instance.actions
        v = trace.instance.receiver_utility
        u = whole_sender_utils(trace)
        running_avg = whole_running_avg(trace)
        for i in range(trace.rounds):
            w.writerow(
                [
                    i + 1,
                    states[trace.states[i]],
                    trace.signal_ids[trace.signals[i]],
                    actions[trace.actions[i]],
                    repr(float(u[i])),
                    repr(float(v[trace.actions[i], trace.states[i]])),
                    repr(float(running_avg[i])),
                ]
            )


def awkward_instance():
    """Names that need quoting or are empty, a -0.0 and a non-terminating float."""
    return PersuasionInstance(
        states=("w,0", 'say "w1"', "\u00e9tat\nnouveau"),
        actions=("", "a\r\nb", "\u884c\u52d5 c"),
        prior=[0.3, 0.3, 0.4],
        sender_utility=[[-0.0, 0.1 + 0.2, 1.0], [0.7, 1 / 3, 0.0], [0.2, 0.5, 2 / 3]],
        receiver_utility=[[0.1 + 0.2, -0.0, 0.9], [0.8, 0.6, 1e-7], [0.0, 1 / 7, 0.45]],
    )


CHUNK = learning.TRACE_CHUNK


class TestTraceCsv:
    """``to_csv`` writes the bytes of the per-row ``oracle_csv``."""

    def assert_oracle_bytes(self, trace, tmp_path):
        trace.to_csv(tmp_path / "got.csv")
        oracle_csv(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    # 100,003 rounds span several ``SIMULATE_CHUNK``s and end on a part ``TRACE_CHUNK``
    @pytest.mark.parametrize("rounds", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 100_003])
    def test_chunk_edges(self, judge, judge_opt, tmp_path, rounds):
        self.assert_oracle_bytes(
            simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), rounds, 4), tmp_path
        )

    @pytest.mark.parametrize("bulk", [True, False])
    def test_awkward_names_and_floats(self, tmp_path, bulk):
        inst = awkward_instance()
        cond = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.8, 0.1]])
        scheme = make_scheme(inst, ("s,1", '"s2"', ""), cond)
        receiver = Exp3() if bulk else per_round(Exp3)()
        trace = simulate(inst, FixedSchemePolicy(scheme), receiver, 3000, 1)
        # exploration visits every (action, state) cell, so every name and
        # utility is written
        assert np.unique(trace.actions * 3 + trace.states).size == 9
        self.assert_oracle_bytes(trace, tmp_path)
        data = (tmp_path / "got.csv").read_bytes()
        assert data.startswith(b"t,state,signal,action,u,v,running_avg\r\n")
        for field in (b'"w,0"', b'"say ""w1"""', b'"a\r\nb"', b",-0.0,", b",0.30000000000000004,"):
            assert field in data

    def test_generic_loop(self, judge, judge_opt, tmp_path):
        trace = simulate(judge, FlippedPolicy(judge_opt), per_round(Exp3)(), 5000, 2)
        self.assert_oracle_bytes(trace, tmp_path)

    def test_alternating_sender(self, mismatch, tmp_path):
        trace = simulate(
            mismatch, AlternatingSignalPolicy(mismatch), EmpiricalBestResponse(), 7001, 5
        )
        self.assert_oracle_bytes(trace, tmp_path)


CHECKPOINT_ROUNDS = 400


def closed_form_radius(p: float, S: int, n: int, t: int) -> float | None:
    """The concentration radius of a signal sent with probability ``p``.

    ``None`` when the signal is never sent or still undersampled at ``t``.
    """
    chern = math.sqrt(3.0 * math.log(2.0 * S * t) / (p * t)) if p > 0 else math.inf
    if chern >= 0.5:
        return None
    return 2.0 * chern + (2.0 / p) * math.sqrt(math.log(2.0 * S * n * t) / (2.0 * t))


def oracle_checkpoints(trace, marks):
    """Checkpoint fields at ``marks``, counted round by round from the record.

    The radius is the concentration bound's closed form, maximised over the
    committed scheme's sent signals that are no longer undersampled.
    """
    direct = trace.signal_ids == trace.instance.actions
    marginals = [] if trace.scheme is None else scheme_stats(trace.instance, trace.scheme).marginals
    S, n = len(marginals), trace.instance.n_actions
    obeyed = [int(a == s) for a, s in zip(trace.actions.tolist(), trace.signals.tolist())]
    utils = whole_sender_utils(trace).tolist()
    out, prev = [], 0
    for t in marks:
        radii = [r for p in marginals if (r := closed_form_radius(p, S, n, t)) is not None]
        out.append(
            (
                t,
                math.fsum(utils[:t]) / t,
                sum(obeyed[:t]) / t if direct else None,
                sum(obeyed[prev:t]) / (t - prev) if direct else None,
                max(radii) if radii else None,
            )
        )
        prev = t
    return out


def appended_marks(rounds, every):
    """Every ``every``-th round up to ``rounds``, then ``rounds`` if it was missed."""
    marks = list(range(every, rounds + 1, every))
    if marks[-1] != rounds:
        marks.append(rounds)
    return marks


@pytest.mark.parametrize("rounds", [1, 2, 9, 10, 11, 97, 400])
def test_checkpoint_marks_end_at_the_horizon(rounds):
    assert learning.checkpoint_marks(rounds) == appended_marks(rounds, max(rounds // 10, 1))
    for every in range(1, rounds + 20):
        marks = learning.checkpoint_marks(rounds, every)
        assert marks == (appended_marks(rounds, every) if every < rounds else [rounds])


class TestCheckpoints:
    T = CHECKPOINT_ROUNDS

    @pytest.fixture(scope="class")
    def traces(self):
        judge = builtin_instance("judge")
        mismatch = builtin_instance("example-4-3")
        return {
            "fixed": simulate(
                judge, FixedSchemePolicy(judge_optimal_scheme()), ExpWeights(), self.T, 3
            ),
            "alternating": simulate(
                mismatch, AlternatingSignalPolicy(mismatch), EmpiricalBestResponse(), self.T, 3
            ),
        }

    @pytest.mark.parametrize(
        "every, marks",
        [
            (None, list(range(40, 401, 40))),
            (1, list(range(1, 401))),
            (7, [*range(7, 400, 7), 400]),
            (CHECKPOINT_ROUNDS, [400]),
            (CHECKPOINT_ROUNDS + 5, [400]),
        ],
    )
    @pytest.mark.parametrize("sender", ["fixed", "alternating"])
    def test_match_oracle(self, traces, sender, every, marks):
        trace = traces[sender]
        got = trace.checkpoints(every)
        want = oracle_checkpoints(trace, marks)
        running_avg = whole_running_avg(trace)
        assert [c.t for c in got] == marks
        for c, (t, avg, obe, win, radius) in zip(got, want):
            assert c.running_avg == running_avg[t - 1]
            assert c.running_avg == pytest.approx(avg, abs=1e-12)
            assert c.obedience_frequency == obe
            assert c.window_obedience == win
            assert c.max_radius == (None if radius is None else pytest.approx(radius, rel=1e-12))
        if sender == "alternating":
            # no committed scheme, and the signals are not action labels
            assert trace.scheme is None
            assert all(c.obedience_frequency is None and c.max_radius is None for c in got)
        elif len(marks) > 1:
            # undersampled at the first mark, certified by the last
            assert got[0].max_radius is None and got[-1].max_radius is not None

    def test_running_counts_equal_slice_means(self, judge, judge_opt):
        # a count over a length is the float np.mean gives for the slice
        trace = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 60_000, 8)
        obeyed = trace.actions == trace.signals
        prev = 0
        for c in trace.checkpoints(997):
            assert c.obedience_frequency == obeyed[: c.t].mean()
            assert c.window_obedience == obeyed[prev : c.t].mean()
            prev = c.t

    @pytest.mark.parametrize("every", [0, -3])
    def test_interval_below_one_rejected(self, traces, every):
        with pytest.raises(ValidationError):
            traces["fixed"].checkpoints(every)


class ProtocolProbe:
    """Receiver that fails if the harness leaks round data before feedback."""

    feedback_mode = "full"
    kind = "probe"

    def __init__(self):
        self.acted = []
        self.fed = []

    def reset(self, n_signals, instance, horizon):
        pass

    def act(self, signal, t, u):
        assert len(self.acted) == len(self.fed), "acted twice without feedback"
        assert isinstance(signal, int) and isinstance(t, int)
        self.acted.append(t)
        return 0

    def feed(self, signal, action, state, payoff):
        assert len(self.fed) == len(self.acted) - 1, "feedback for a round that has not acted"
        self.fed.append(self.acted[-1])


def test_protocol_hygiene(judge, judge_opt):
    probe = ProtocolProbe()
    tr = simulate(judge, FixedSchemePolicy(judge_opt), probe, 100, 0)
    assert probe.acted == list(range(1, 101))
    assert probe.fed == probe.acted
    assert np.all(tr.actions == 0)


class TestReplications:
    def test_seed_order_and_thread_equivalence(self, judge, judge_opt):
        args = (
            judge,
            lambda: FixedSchemePolicy(judge_opt),
            lambda: ExpWeights(),
            400,
            [3, 1, 2],
            lambda tr: (tr.seed, tr.final_average),
        )
        serial = run_replications(*args, threads=1)
        parallel = run_replications(*args, threads=3)
        assert serial == parallel
        assert [s for s, _ in serial] == [3, 1, 2]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, judge, judge_opt, threads):
        made = []

        def receiver():
            made.append(1)
            return ExpWeights()

        args = (judge, lambda: FixedSchemePolicy(judge_opt), receiver, 400, [0], lambda tr: tr.seed)
        with pytest.raises(
            ValidationError, match=f"threads must be an integer of at least 1, got {threads}"
        ):
            run_replications(*args, threads=threads)
        assert made == []

    @pytest.mark.parametrize("bad", [None, True, -1, 1.5, "3"])
    def test_every_seed_checked_before_any_runs(self, judge, judge_opt, bad):
        ran = []
        message = f"seed must be an integer of at least 0, got {bad!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_replications(
                judge, lambda: FixedSchemePolicy(judge_opt), ExpWeights, 50, [0, 1, bad], ran.append
            )
        assert ran == []

    def test_numpy_integer_seed(self, judge, judge_opt):
        args = (judge, lambda: FixedSchemePolicy(judge_opt), ExpWeights, 50)
        got = run_replications(*args, [np.int64(3)], lambda tr: tr)[0]
        assert_same_trace(got, run_replications(*args, [3], lambda tr: tr)[0])


# every count the learning layer takes, as entry.parameter, and the name its error gives
COUNTS = {
    "simulate.rounds": "rounds",
    "run_replications.rounds": "rounds",
    "run_replications.threads": "threads",
    "checkpoints.every": "checkpoint interval",
    "checkpoint_marks.every": "checkpoint interval",
    "chunks.size": "chunk size",
}


def pass_count(entry, value, judge, judge_opt):
    """Call ``entry`` with its count set to ``value`` and every other argument valid."""
    policy = lambda: FixedSchemePolicy(judge_opt)
    trace = simulate(judge, policy(), ExpWeights(), 50, 0)
    calls = {
        "simulate.rounds": lambda: simulate(judge, policy(), ExpWeights(), value, 0).final_average,
        "run_replications.rounds": lambda: run_replications(
            judge, policy, ExpWeights, value, [0, 1], lambda tr: tr.final_average
        ),
        "run_replications.threads": lambda: run_replications(
            judge, policy, ExpWeights, 50, [0, 1], lambda tr: tr.final_average, threads=value
        ),
        "checkpoints.every": lambda: [(c.t, c.running_avg) for c in trace.checkpoints(value)],
        "checkpoint_marks.every": lambda: learning.checkpoint_marks(10, value),
        "chunks.size": lambda: [c[0] for c in trace.chunks(value)],
    }
    return calls[entry]()


@pytest.mark.parametrize("value", [1.5, True, "3", 0])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_must_be_an_integer_of_at_least_one(judge, judge_opt, entry, value):
    message = f"{COUNTS[entry]} must be an integer of at least 1, got {value!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        pass_count(entry, value, judge, judge_opt)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_may_be_a_numpy_integer(judge, judge_opt, entry):
    got = pass_count(entry, np.int64(3), judge, judge_opt)
    assert got == pass_count(entry, 3, judge, judge_opt)


def checkpoint_fields(trace, every):
    return [
        (c.t, c.running_avg, c.obedience_frequency, c.window_obedience, c.max_radius)
        for c in trace.checkpoints(every)
    ]


def assert_same_trace(got, want):
    """Same seed, signal names, index arrays and final average, bit for bit."""
    assert got.seed == want.seed
    assert got.signal_ids == want.signal_ids
    for field in STORED_ARRAYS:
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    assert repr(got.final_average) == repr(want.final_average)


EXP3_ROUNDS = 1500


@pytest.fixture(scope="module")
def oracle_traces():
    """Generic-loop traces by (sender, seed), shared across the matrix."""
    return {}


class TestExp3FastPath:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("seeds", [[0], [3, 1, 2], list(range(10))])
    @pytest.mark.parametrize("sender", ["fixed", "alternating"])
    def test_matches_generic_loop(
        self, judge, judge_opt, mismatch, oracle_traces, sender, seeds, threads
    ):
        if sender == "fixed":
            inst, make_policy = judge, lambda: FixedSchemePolicy(judge_opt)
        else:
            inst, make_policy = mismatch, lambda: AlternatingSignalPolicy(mismatch)
        traces = run_replications(
            inst, make_policy, Exp3, EXP3_ROUNDS, seeds, lambda tr: tr, threads=threads
        )
        assert [tr.seed for tr in traces] == seeds
        for tr in traces:
            if (sender, tr.seed) not in oracle_traces:
                oracle_traces[sender, tr.seed] = simulate(
                    inst, make_policy(), per_round(Exp3)(), EXP3_ROUNDS, tr.seed
                )
            want = oracle_traces[sender, tr.seed]
            assert_same_trace(tr, want)
            assert checkpoint_fields(tr, 500) == checkpoint_fields(want, 500)

    def test_mixed_configs_run_per_seed(self, judge, judge_opt, monkeypatch):
        # ``reset`` looks the rates up as each seed starts, so seed k gets pair k
        pairs = [(0.3, 0.02), (0.1, 0.05)]
        pending = iter(pairs)
        monkeypatch.setattr(learning, "exp3_rates", lambda n_actions, horizon: next(pending))
        got = run_replications(
            judge, lambda: FixedSchemePolicy(judge_opt), Exp3, 200, [1, 2], lambda tr: tr
        )
        for seed, pair, g in zip((1, 2), pairs, got):
            monkeypatch.setattr(learning, "exp3_rates", lambda n_actions, horizon: pair)
            assert_same_trace(g, simulate(judge, FixedSchemePolicy(judge_opt), Exp3(), 200, seed))

    def test_subclasses_run_per_seed(self, judge, judge_opt, monkeypatch):
        # an override of feed must reach the per-round loop, and a sender's
        # own signals_for_states is called whatever the receiver
        class DoubledExp3(Exp3):
            def feed(self, signal, action, state, payoff):
                super().feed(signal, action, state, 2.0 * payoff)

        for policy_cls, receiver_cls in ((FixedSchemePolicy, DoubledExp3), (FlippedPolicy, Exp3)):
            calls = []

            def spy(*args, **kwargs):
                calls.append(args[4])
                return simulate(*args, **kwargs)

            monkeypatch.setattr(learning, "simulate", spy)
            got = run_replications(
                judge, lambda: policy_cls(judge_opt), receiver_cls, 200, [1, 2], lambda tr: tr
            )
            monkeypatch.undo()
            assert calls == [1, 2]
            for seed, g in zip((1, 2), got):
                want = simulate(judge, policy_cls(judge_opt), per_round(receiver_cls)(), 200, seed)
                assert_same_trace(g, want)

    def test_rounds_positive(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            run_replications(
                judge, lambda: FixedSchemePolicy(judge_opt), Exp3, 0, [0], lambda tr: tr
            )


class TestRuleBatches:
    @pytest.mark.parametrize("n_actions, n_states", [(11, 3), (5, 6)])
    @pytest.mark.parametrize("layout", ["C", "state-major"])
    def test_rows_match_one_row_calls(self, n_actions, n_states, layout):
        # each rule's rows do not depend on the rest of the batch, nor on
        # whether the counts come C-ordered or, as ``bulk_actions`` passes
        # them, as the transposed view of a state-major array
        rng = np.random.default_rng(8)
        utility = rng.random((n_actions, n_states))
        counts = rng.integers(0, 40, size=(6, n_states)).astype(np.float64)
        counts[0] = 0.0  # the cold start: every action ties
        t = rng.integers(1, 500, size=6).astype(np.float64)
        given = counts if layout == "C" else np.ascontiguousarray(counts.T).T
        assert np.array_equal(given, counts)
        batched = (
            empirical_br_probs(given, utility),
            exp_weights_probs(given, utility, t),
        )
        for b in range(6):
            one = (
                empirical_br_probs(counts[b : b + 1], utility),
                exp_weights_probs(counts[b : b + 1], utility, t[b : b + 1]),
            )
            for full, row in zip(batched, one):
                assert full[b].tobytes() == row[0].tobytes()

    def test_exp3_matches_numpy_reference(self):
        rng = np.random.default_rng(8)
        rates = (0.05, 0.4)  # exploration, learning rate
        for row in rng.random((6, 11)) * 30.0:
            p_ref = exp3_reference(row, *rates)
            cumulative = row.tolist()
            assert exp3_row(cumulative, *rates) == pytest.approx(p_ref, rel=1e-14)
            for u in rng.random(200):
                a, p = exp3_act(cumulative, *rates, u)
                assert a == sample_oracle(np.cumsum(p_ref), u)
                assert p == pytest.approx(p_ref[a], rel=1e-14)


class TestPrefixCounts:
    """``bulk_actions`` builds each signal's counts before every visit as
    state-major prefix sums carried from chunk to chunk."""

    ROUNDS = 200

    @staticmethod
    def rounds():
        # three states and three signals: signal 1 never meets state 2,
        # and signal 2 is sent only from round 120 on
        rng = np.random.default_rng(4)
        states = rng.integers(0, 3, TestPrefixCounts.ROUNDS)
        signals = rng.integers(0, 2, TestPrefixCounts.ROUNDS)
        signals[states == 2] = 0
        signals[120:][rng.random(80) < 0.3] = 2
        return states, signals, rng.random(TestPrefixCounts.ROUNDS)

    @staticmethod
    def instance():
        rng = np.random.default_rng(5)
        return PersuasionInstance(
            ("w0", "w1", "w2"),
            ("a0", "a1", "a2", "a3"),
            np.full(3, 1.0 / 3.0),
            rng.random((4, 3)),
            rng.random((4, 3)),
        )

    @pytest.mark.parametrize("receiver_cls", [EmpiricalBestResponse, ExpWeights])
    @pytest.mark.parametrize("chunk", [1, 7, 64, ROUNDS])
    def test_chunks_match_the_per_round_loop(self, receiver_cls, chunk):
        inst = self.instance()
        states, signals, u = self.rounds()
        assert not (states[signals == 1] == 2).any() and not (signals[:120] == 2).any()
        loop, bulk = receiver_cls(), receiver_cls()
        loop.reset(3, inst, self.ROUNDS)
        bulk.reset(3, inst, self.ROUNDS)
        want = []
        for t, (w, s, x) in enumerate(zip(states.tolist(), signals.tolist(), u), 1):
            a = loop.act(s, t, x)
            loop.feed(s, a, w, inst.receiver_utility[a, w])
            want.append(a)
        got = []
        for lo in range(0, self.ROUNDS, chunk):
            part = slice(lo, lo + chunk)
            got.append(bulk.bulk_actions(states[part], signals[part], u[part], lo))
        assert np.concatenate(got).tolist() == want
        assert_same_state(bulk, loop)
        assert bulk.counts[1, 2] == 0.0
        assert bulk.counts.sum() == self.ROUNDS


# CDF rows with the awkward cases: one entry, zero-probability entries that
# repeat a value, and a last entry below 1.
CDF_ROWS = [
    np.array([1.0]),
    np.array([0.25, 0.5, 1.0]),
    np.array([0.0, 0.2, 0.2, 0.2, 1.0]),
    np.array([0.3, 0.6, 0.9]),
    np.cumsum([0.1] * 10),
]


def uniforms_for(cdf_row, rng):
    """Random uniforms plus every CDF entry, zero and values past the last entry."""
    return np.concatenate([rng.random(50), cdf_row, [0.0, 0.95, np.nextafter(1.0, 0.0)]])


class TestSample:
    @pytest.mark.parametrize("row", range(len(CDF_ROWS)))
    def test_scalar_matches_oracle(self, row):
        cdf = CDF_ROWS[row]
        for u in uniforms_for(cdf, np.random.default_rng(row)):
            assert learning._sample(cdf, u) == sample_oracle(cdf, u)

    @pytest.mark.parametrize(
        "prior",
        [[1.0], [0.3, 0.7], [0.2, 0.0, 0.5, 0.0, 0.3], [0.0, 0.0, 1.0]]
        + [np.random.default_rng(3).dirichlet(np.ones(50)).tolist()],
    )
    def test_state_draws_are_sample(self, prior):
        """``_round_chunks`` draws states by ``_sample`` of many uniforms against the prior's CDF."""
        m = len(prior)
        inst = PersuasionInstance(
            tuple(f"w{i}" for i in range(m)),
            ("a", "b"),
            np.array(prior),
            np.zeros((2, m)),
            np.zeros((2, m)),
        )
        cdf = np.cumsum(inst.prior)
        u = uniforms_for(cdf, np.random.default_rng(m))
        got = learning._sample(cdf, u)
        assert got.dtype == np.int64
        assert got.tolist() == [int(learning._sample(cdf, x)) for x in u]
        assert got.tolist() == [sample_oracle(cdf, x) for x in u]
        _, states = next(learning._round_chunks(inst, 5000, learning._spawn_rngs(11)[:1]))
        stream = learning._spawn_rngs(11)[0].random(5000)
        assert states.tolist() == [sample_oracle(cdf, x) for x in stream]

    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    def test_one_row_per_uniform_matches_oracle(self, width):
        rng = np.random.default_rng(width)
        probs = rng.random((400, width)) * (rng.random((400, width)) < 0.7)
        probs[:, 0] += 1e-3
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        # a quarter of the uniforms sit exactly on an entry of their row
        u = rng.random(400)
        on_entry = rng.random(400) < 0.25
        u[on_entry] = cdf[on_entry, rng.integers(0, width, 400)[on_entry]]
        got = learning._sample(cdf, u)
        assert got.dtype == np.int64
        assert got.tolist() == [sample_oracle(cdf[i], u[i]) for i in range(400)]


@pytest.mark.parametrize("n_signals", [1, 2, 7])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_signal_draws_are_per_round_samples(n_signals, dtype):
    """``FixedSchemePolicy.signals_for_states`` draws each round as the rule from its definition."""
    rng = np.random.default_rng(n_signals)
    inst = random_instance(rng)
    probs = rng.random((inst.n_states, n_signals)) * (rng.random((inst.n_states, n_signals)) < 0.7)
    probs[:, 0] += 1e-3
    scheme = make_scheme(
        inst, tuple(f"s{k}" for k in range(n_signals)), probs / probs.sum(axis=1, keepdims=True)
    )
    states = rng.integers(0, inst.n_states, 600).astype(dtype)
    u = rng.random(600)
    # a quarter of the uniforms sit exactly on a running sum of their round's row
    on_entry = np.flatnonzero(rng.random(600) < 0.25)
    for t, k in zip(on_entry, rng.integers(0, n_signals, on_entry.size)):
        u[t] = list(itertools.accumulate(scheme.conditional[states[t]].tolist()))[k]
    got = FixedSchemePolicy(scheme).signals_for_states(states, u)
    assert got.dtype == np.int64
    assert got.tolist() == fixed_signals(scheme, states, u)


def judge_radius(judge, judge_opt, t: int, signal: str) -> float | None:
    radii = learning._radii(scheme_stats(judge, judge_opt).marginals, judge.n_actions, t)
    return radii[judge_opt.signal_index(signal)]


class TestConfidenceRadius:
    def test_arithmetic(self, judge, judge_opt):
        # rebuilt from the formula at pi(s)=0.6, S=2, A=2, t=10^6
        t = 10**6
        p = 0.6
        expect = 2 * math.sqrt(3 * math.log(4 * t) / (p * t)) + (2 / p) * math.sqrt(
            math.log(8 * t) / (2 * t)
        )
        got = judge_radius(judge, judge_opt, t, "convict")
        assert got == pytest.approx(expect, abs=1e-15)

    def test_decreasing_in_t(self, judge, judge_opt):
        vals = [judge_radius(judge, judge_opt, t, "acquit") for t in (10**4, 10**5, 10**6)]
        assert vals[0] > vals[1] > vals[2]

    def test_undersampled_raises(self, judge, judge_opt):
        # fewer than one round samples nothing
        for t in (0, -3):
            with pytest.raises(ValidationError, match="t must be at least 1"):
                judge_radius(judge, judge_opt, t, "acquit")

    def test_undersampled_is_none(self, judge, judge_opt):
        assert judge_radius(judge, judge_opt, 10, "acquit") is None
        assert judge_radius(judge, judge_opt, 10**4, "acquit") is not None

    def test_radii_match_the_closed_form(self):
        # random marginals with unsent signals, at horizons from 1 to 10^7
        rng = np.random.default_rng(31)
        unsent = undersampled = certified = 0
        for _ in range(500):
            S, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            weights = rng.random(S) * (rng.random(S) < 0.7)
            weights[int(rng.integers(S))] += rng.random()
            marginals = weights / weights.sum()
            t = int(10 ** rng.uniform(0.0, 7.0))
            got = learning._radii(marginals, n, t)
            assert len(got) == S
            for p, r in zip(marginals.tolist(), got):
                want = closed_form_radius(p, S, n, t)
                assert r == want and type(r) is type(want)
                unsent += p == 0.0
                undersampled += p > 0.0 and want is None
                certified += want is not None
        assert unsent and undersampled and certified

    @pytest.mark.parametrize("chunk", [7, learning.SIMULATE_CHUNK])
    def test_empirical_utilities_count_simulated_rounds(self, judge, judge_opt, monkeypatch, chunk):
        # the states and signals are simulate's, whatever the chunk size
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", chunk)
        trace = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 2000, 4)
        counts = np.zeros((2, 2))
        np.add.at(counts, (trace.signals, trace.states), 1.0)
        visited, vhat = empirical_conditional_utilities(judge, judge_opt, 2000, 4)
        assert visited.all()
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.array_equal(vhat, freq @ judge.receiver_utility.T)

    @pytest.mark.parametrize("t", [0, -5])
    def test_empirical_utilities_reject_nonpositive_t(self, judge, judge_opt, t):
        # as simulate does for rounds < 1, instead of reporting no signal visited
        with pytest.raises(ValidationError, match="t must be positive"):
            empirical_conditional_utilities(judge, judge_opt, t, 0)

    def test_coverage_on_simulated_draws(self, judge, judge_opt):
        t = 100_000
        stats = scheme_stats(judge, judge_opt)
        rad = learning._radii(stats.marginals, judge.n_actions, t)
        hits = 0
        runs = 40
        for seed in range(runs):
            visited, vhat = empirical_conditional_utilities(judge, judge_opt, t, seed)
            assert visited.all()
            ok = all(
                abs(vhat[s, a] - stats.receiver_values[s, a]) <= rad[s]
                for s in range(2)
                for a in range(2)
            )
            hits += ok
        assert hits / runs >= 0.99


class TestSchedule:
    def test_formulas(self):
        for t in (10, 1000, 250_000):
            gamma, delta = exp_weights_certificate(2, 0.4, t)
            lam = 0.4 * math.sqrt(t * math.log(2))
            assert gamma == pytest.approx(max(0.0, math.log(2 * lam) / lam), abs=1e-15)
            assert delta == pytest.approx(1.0 / lam, abs=1e-15)

    def test_no_temperature_certifies_nothing(self):
        # one action: log n = 0, so lam = 0
        assert exp_weights_certificate(1, 0.4, 100) == (math.inf, math.inf)

    def test_validation(self):
        with pytest.raises(ValidationError):
            exp_weights_certificate(2, 0.0, 10)
        with pytest.raises(ValidationError):
            exp_weights_certificate(2, 1.5, 10)

    def test_empirical_membership_audit(self, judge, judge_opt):
        # after T rounds the per-signal softmax temperature is eta_T * T_s;
        # mass on the log(n*lam)/lam empirical-best set must be >= 1 - 1/lam
        T = 20_000
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), T, 9)
        rec = fed(ExpWeights(), judge, list(zip(tr.signals.tolist(), tr.states.tolist())))
        eta = math.sqrt(math.log(2) / T)
        for s in range(2):
            T_s = int(rec.counts[s].sum())
            lam = eta * T_s
            assert lam > 5.0
            gamma_s = math.log(2 * lam) / lam
            delta_s = 1.0 / lam
            vhat = (judge.receiver_utility @ rec.counts[s]) / T_s
            mask = best_response_mask(vhat[None, :], gamma_s)[0]
            probs = exp_weights_probs(rec.counts[s : s + 1], judge.receiver_utility, np.array([float(T)]))[0]
            assert probs[mask].sum() >= 1.0 - delta_s


class TestAlternatingLongRun:
    def test_structural_claims_single_seed(self, mismatch):
        st = alternating_stats(
            simulate(
                mismatch, AlternatingSignalPolicy(mismatch), EmpiricalBestResponse(), 1_000_000, 0
            )
        )
        assert st.alternation_ok
        assert st.s1_fraction == pytest.approx(0.5, abs=0.01)
        assert st.s1_mean == pytest.approx(0.75, abs=0.01)
        assert st.s2_mean == pytest.approx(0.5, abs=0.015)
        assert st.overall_avg == pytest.approx(0.625, abs=0.01)

    def test_alternation_exact_small(self, mismatch):
        tr = simulate(
            mismatch, AlternatingSignalPolicy(mismatch), EmpiricalBestResponse(), 2000, 4
        )
        s1_states = tr.states[tr.signals == 0]
        assert np.all(s1_states[0::2] == 0)
        assert np.all(s1_states[1::2] == 1)


def two_signal_trace(rounds: int) -> SimulationTrace:
    """A hand-built trace of two signals, s1 on about a third of the rounds, with non-dyadic utilities."""
    rng = np.random.default_rng(43)
    inst = random_instance(rng, max_states=5, max_actions=4)
    return SimulationTrace(
        inst,
        ("s1", "s2"),
        states=rng.integers(0, inst.n_states, rounds).astype(np.int8),
        signals=(rng.random(rounds) > 0.3).astype(np.int8),
        actions=rng.integers(0, inst.n_actions, rounds).astype(np.int8),
        seed=5,
        scheme=None,
    )


# beyond the trace arrays, a per-seed summary holds a chunk or two of
# working memory; a full-horizon float64 temporary at 800k rounds is 6.4 MB
SUMMARY_ROUNDS = 800_000
SUMMARY_BOUND = 3_000_000


def summary_peaks(monkeypatch, run) -> list[int]:
    """The tracemalloc peak of each per-seed summary that ``run()`` makes, each trace already made."""
    peaks = []
    run_replications = learning.run_replications

    def measured(instance, policy_factory, receiver_factory, rounds, seeds, summarize, **kwargs):
        def one(trace):
            tracemalloc.start()
            try:
                out = summarize(trace)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        return run_replications(instance, policy_factory, receiver_factory, rounds, seeds, one, **kwargs)

    for module in (learning, repro, cli):
        monkeypatch.setattr(module, "run_replications", measured)
    run()
    return peaks


class TestChunkedSummaries:
    ROUNDS = 2 * learning.SIMULATE_CHUNK + 1234

    @pytest.mark.parametrize("chunk", [7, 1000, learning.SIMULATE_CHUNK])
    def test_alternating_stats_match_whole_gathers(self, monkeypatch, chunk):
        trace = two_signal_trace(self.ROUNDS)
        want = whole_alternating_stats(trace)
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", chunk)
        assert repr(alternating_stats(trace)) == repr(want)
        # the order of the additions shows in the bits: numpy's pairwise sum differs
        assert float(whole_sender_utils(trace)[trace.signals == 0].mean()) != want.s1_mean

    def test_alternating_stats_of_a_simulated_run(self, mismatch):
        trace = simulate(
            mismatch, AlternatingSignalPolicy(mismatch), EmpiricalBestResponse(), self.ROUNDS, 2
        )
        assert repr(alternating_stats(trace)) == repr(whole_alternating_stats(trace))

    def test_alternation_is_counted_across_chunks(self, mismatch, monkeypatch):
        # three s1 rounds in each chunk of 7: the s1 states alternate across
        # the chunk edges, so a parity that restarted in each chunk would fail
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", 7)
        signals = np.tile(np.array([0, 1, 0, 1, 1, 0, 1], dtype=np.int8), 5)
        states = np.zeros(signals.size, dtype=np.int8)
        states[signals == 0] = np.arange(15) % 2
        trace = SimulationTrace(
            mismatch, ("s1", "s2"), states, signals, signals.copy(), seed=0, scheme=None
        )
        assert alternating_stats(trace).alternation_ok
        # every s1 round in turn: a chunk's s1 rounds at even and at odd
        # positions among that chunk's are each checked
        for k in np.flatnonzero(signals == 0):
            flipped = states.copy()
            flipped[k] ^= 1
            trace = dataclasses.replace(trace, states=flipped)
            assert not alternating_stats(trace).alternation_ok

    @pytest.mark.parametrize("utility", ["two-signal", "-0.0"])
    def test_overall_average_is_the_final_average(self, monkeypatch, utility):
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", 7)
        trace = two_signal_trace(500)
        if utility == "-0.0":
            inst = dataclasses.replace(
                trace.instance, sender_utility=np.full_like(trace.instance.sender_utility, -0.0)
            )
            trace = dataclasses.replace(trace, instance=inst)
        stats = alternating_stats(trace)
        assert repr(stats.overall_avg) == repr(trace.final_average)
        if utility == "-0.0":
            assert repr((stats.overall_avg, stats.s1_mean, stats.s2_mean)) == "(-0.0, -0.0, -0.0)"

    def test_trace_is_freed_without_the_cycle_collector(self, mismatch):
        # a reference cycle through the summary would hold each seed's trace
        # until a collection, and peak RSS would grow with every seed
        trace = simulate(mismatch, AlternatingSignalPolicy(mismatch), EmpiricalBestResponse(), 5000, 1)
        freed = weakref.ref(trace)
        gc.disable()
        try:
            alternating_stats(trace)
            trace.checkpoints()
            del trace
            assert freed() is None
        finally:
            gc.enable()

    def test_unsent_signal_has_no_mean(self):
        trace = dataclasses.replace(two_signal_trace(500), signals=np.ones(500, dtype=np.int8))
        stats = alternating_stats(trace)
        assert stats.s1_mean is None and stats.s1_fraction == 0.0
        assert repr(stats) == repr(whole_alternating_stats(trace))

    @pytest.mark.parametrize("every", [None, 1, 997])
    @pytest.mark.parametrize("chunk, rounds", [(7, 450), (learning.SIMULATE_CHUNK, ROUNDS)])
    def test_checkpoints_read_the_running_average(
        self, judge, judge_opt, monkeypatch, every, chunk, rounds
    ):
        monkeypatch.setattr(learning, "SIMULATE_CHUNK", chunk)
        trace = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), rounds, 6)
        running_avg = whole_running_avg(trace)
        got = trace.checkpoints(every)
        assert [c.t for c in got] == learning.checkpoint_marks(rounds, every)
        for c in got:
            assert repr(c.running_avg) == repr(float(running_avg[c.t - 1]))
        assert repr(trace.final_average) == repr(float(running_avg[-1]))

    @pytest.mark.parametrize("summary", ["alternating_stats", "convergence_report", "cli simulate"])
    def test_summaries_hold_no_full_horizon_array(self, judge, monkeypatch, tmp_path, summary):
        runs = {
            "alternating_stats": lambda: repro.reproduce_example_4_3(SUMMARY_ROUNDS, n_seeds=1),
            "convergence_report": lambda: convergence_report(judge, 0.2, SUMMARY_ROUNDS, [0]),
            "cli simulate": lambda: cli.main(
                [
                    "simulate", "--instance", "judge", "--sender", "robustified:0.2",
                    "--receiver", "exp-weights", "--rounds", str(SUMMARY_ROUNDS),
                    "--output-dir", str(tmp_path),
                ]
            ),
        }
        peaks = summary_peaks(monkeypatch, runs[summary])
        assert len(peaks) == 1 and peaks[0] < SUMMARY_BOUND, peaks

    def test_a_full_horizon_temporary_fails_the_bound(self, judge, judge_opt, monkeypatch):
        run = lambda: learning.run_replications(
            judge,
            lambda: FixedSchemePolicy(judge_opt),
            ExpWeights,
            SUMMARY_ROUNDS,
            [0],
            lambda trace: float(whole_sender_utils(trace)[-1]),
        )
        assert summary_peaks(monkeypatch, run)[0] >= SUMMARY_BOUND


class TestConvergencePipeline:
    def test_judge_constant_point_two(self, judge):
        rep = convergence_report(judge, 0.2, 60_000, seeds=range(4), threads=2)
        assert rep.alpha == pytest.approx(0.1)
        assert rep.opt == pytest.approx(0.6, abs=1e-9)
        assert rep.target == pytest.approx(0.4, abs=1e-9)
        assert rep.meets_target
        assert rep.mean_final_average >= 0.4
        assert rep.last_decile_obedience >= 0.95
        assert advantage(judge, robustified_optimum(judge, 0.2)[0]) > 0
        blob = rep.to_dict()
        assert "scheme" not in blob
        assert len(blob["checkpoints"]) == 10
        import json

        json.dumps(blob)

    def test_threshold_condition_flips_at_large_t(self, judge):
        rep = convergence_report(judge, 0.4, 500_000, seeds=[0])
        assert not rep.checkpoints[0].threshold_ok
        last = rep.checkpoints[-1]
        assert last.threshold_ok
        assert last.threshold_margin > 0
        assert last.budget_ok

    def test_threshold_undefined_while_a_radius_is(self, judge):
        # the radii of judge's two sent signals are undefined up to t = 150
        # of 500 rounds: the margin is None there and the threshold fails
        rep = convergence_report(judge, 0.2, 500, seeds=[0])
        marginals = scheme_stats(judge, robustified_optimum(judge, 0.2)[0]).marginals
        undefined = []
        for c in rep.checkpoints:
            radii = learning._radii(marginals, judge.n_actions, max(c.t - 1, 1))
            assert (c.threshold_margin is None) == (None in radii)
            if c.threshold_margin is None:
                assert not c.threshold_ok
                undefined.append(c.t)
        assert undefined == [50, 100, 150]
        assert rep.to_dict()["checkpoints"][0]["threshold_margin"] is None

    def test_trivial_constant_at_opt(self, judge):
        rep = convergence_report(judge, 0.7, 3_000, seeds=[1])
        assert rep.target <= 0
        assert rep.meets_target

    def test_window_obedience_trends_up(self, judge):
        rep = convergence_report(judge, 0.2, 100_000, seeds=[0])
        obe = [c.mean_obedience for c in rep.checkpoints]
        assert obe[-1] >= 0.97
        assert obe[-1] >= obe[0]

    def test_validation(self, judge, example1):
        with pytest.raises(ValidationError):
            convergence_report(judge, 0.0, 100, seeds=[0])
        from persuasion_lab import AssumptionViolatedError, profile_instance

        with pytest.raises(AssumptionViolatedError) as err:
            convergence_report(example1, 0.2, 100, seeds=[0])
        assert err.value.details["reasons"] == profile_instance(example1).reasons

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, judge, monkeypatch, threads):
        made = []
        monkeypatch.setattr(learning, "ExpWeights", lambda: made.append("receiver"))
        monkeypatch.setattr(learning, "FixedSchemePolicy", lambda s: made.append("policy"))
        with pytest.raises(
            ValidationError, match=f"threads must be an integer of at least 1, got {threads}"
        ):
            convergence_report(judge, 0.2, 100, seeds=[0], threads=threads)
        assert made == []

    @pytest.mark.parametrize(
        "rounds, seeds, threads, constant",
        [
            (0, [0], 1, 0.2),
            (10, [], 1, 0.2),
            (10, [0], 0, 0.2),
            (10, [0, -1], 1, 0.2),
            (10, [0], 1, math.nan),
            (10, [0], 1, math.inf),
        ],
        ids=["rounds", "seeds", "threads", "negative-seed", "nan", "inf"],
    )
    def test_counts_checked_before_the_lp(
        self, judge, monkeypatch, rounds, seeds, threads, constant
    ):
        solved, original = [], learning.robustified_optimum

        def spy(*args):
            solved.append(args)
            return original(*args)

        monkeypatch.setattr(learning, "robustified_optimum", spy)
        with pytest.raises(ValidationError):
            convergence_report(judge, constant, rounds, seeds, threads=threads)
        assert solved == []

    def test_one_shot_seed_iterable(self, judge):
        rep = convergence_report(judge, 0.2, 2_000, seeds=(s for s in [0, 1]))
        want = convergence_report(judge, 0.2, 2_000, seeds=[0, 1])
        assert rep.seeds == (0, 1)
        assert rep.to_dict() == want.to_dict()


class TestSingleRunTargets:
    def test_judge_exp_weights_fixed_robustified(self, judge):
        scheme, _ = solve_classic(judge)
        mixed = robustify(judge, scheme, 0.05)  # C = 0.1
        tr = simulate(judge, FixedSchemePolicy(mixed), ExpWeights(), 500_000, 0)
        assert tr.final_average >= 0.6 - 0.1 - 0.02

    def test_judge_exp3_obedience(self, judge):
        scheme, _ = solve_classic(judge)
        mixed = robustify(judge, scheme, 0.1)
        T = 1_000_000
        tr = simulate(judge, FixedSchemePolicy(mixed), Exp3(), T, 0)
        assert tr.obedience_frequency(start=T // 2) > 0.9
