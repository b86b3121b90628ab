import csv
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from persuasion_lab import (
    AlternatingSignalPolicy,
    EmpiricalBestResponse,
    Exp3,
    Exp3Config,
    ExpWeights,
    FixedSchemePolicy,
    PersuasionInstance,
    SimulationTrace,
    ValidationError,
    WrongInstanceError,
    advantage,
    builtin_instance,
    convergence_report,
    empirical_br_probs,
    empirical_conditional_utilities,
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
from persuasion_lab import learning
from persuasion_lab.model import best_response_mask
from persuasion_lab.repro import alternating_stats
from persuasion_lab.sampling import satisfied_instance
from support import judge_optimal_scheme, random_instance


class FirstActionExpWeights(ExpWeights):
    """Overrides ``act``, which the bulk path never calls."""

    def act(self, signal, t, u):
        return 0


class MirroredExp3(Exp3):
    """Overrides ``act``, which the bulk path never calls."""

    def act(self, signal, t, u):
        return super().act(signal, t, 1.0 - u)


class FlippedPolicy(FixedSchemePolicy):
    """Overrides ``round_cdf``, which the bulk path never calls."""

    def round_cdf(self, t):
        return super().round_cdf(t)[::-1].copy()


def sender_case(sender, judge, judge_opt, mismatch):
    """The instance and a policy factory for the fixed, flipped or alternating sender."""
    if sender == "fixed":
        return judge, lambda: FixedSchemePolicy(judge_opt)
    if sender == "flipped":
        return judge, lambda: FlippedPolicy(judge_opt)
    return mismatch, lambda: AlternatingSignalPolicy(mismatch)


# a trace stores the index arrays; the utilities and running average are derived
STORED_ARRAYS = ("states", "signals", "actions")
TRACE_ARRAYS = (*STORED_ARRAYS, "sender_utils", "running_avg")


def chunked_running_avg(sender_utils, chunk):
    """The running average built chunk by chunk, with the running sum carried across."""
    rounds = sender_utils.size
    running_avg = np.empty(rounds)
    total = 0.0
    for lo in range(0, rounds, chunk):
        hi = min(lo + chunk, rounds)
        avg = running_avg[lo:hi]
        avg[:] = sender_utils[lo:hi]
        if lo:
            avg[0] += total
        np.cumsum(avg, out=avg)
        total = avg[-1]
        avg /= np.arange(lo + 1, hi + 1)
    return running_avg


def exp3_row(cumulative, config):
    """Every action's probability, read off ``exp3_act`` one CDF step at a time."""
    probs, running = [], 0.0
    for expect in range(len(cumulative)):
        a, p = exp3_act(cumulative, config, running)
        assert a == expect
        probs.append(p)
        running += p
    return np.array(probs)


def sample_oracle(cdf_row, u):
    """The searchsorted-plus-cap inverse-CDF draw that ``learning._sample`` replaced."""
    return min(int(np.searchsorted(cdf_row, u, side="right")), cdf_row.size - 1)


def exp3_reference(cumulative, config):
    """EXP3's probabilities written directly in numpy."""
    w = np.exp(config.learning_rate * (cumulative - cumulative.max()))
    return (1.0 - config.exploration) * w / w.sum() + config.exploration / cumulative.size


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
    for t, (sig, w) in enumerate(pairs, 1):
        receiver.feed(sig, 0, w, 0.0, t)
    return receiver


class TestReceiverState:
    def test_full_feedback_counts(self, judge):
        rec = fed(EmpiricalBestResponse(), judge, [(0, 1), (0, 1), (0, 0), (1, 1)])
        assert rec.counts.tolist() == [[1.0, 2.0], [0.0, 1.0]]
        assert rec.counts.sum(axis=1).tolist() == [3, 1]
        # the rules score actions by cumulative utility, counts @ v.T
        expect = rec.counts @ judge.receiver_utility.T
        assert np.array_equal(learning._scores(rec.counts, judge.receiver_utility), expect)

    def test_partial_feedback_accumulates_estimates(self):
        three = PersuasionInstance(
            ("w0", "w1"), ("a0", "a1", "a2"), [0.5, 0.5], np.zeros((3, 2)), np.zeros((3, 2))
        )
        rec = Exp3(Exp3Config(exploration=1.0, learning_rate=0.0))
        rec.reset(2, three, 10)
        for t, payoff in ((1, 1.5), (2, 1.0 / 6.0)):
            assert rec.act(1, t, 0.9) == 2  # uniform play: u = 0.9 picks the last action
            rec.feed(1, 2, 0, payoff, t)
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
        cfg = Exp3Config.for_horizon(4, 100_000)
        g = min(1.0, math.sqrt(4 * math.log(4) / ((math.e - 1) * 100_000)))
        assert cfg.exploration == pytest.approx(g, abs=1e-15)
        assert cfg.learning_rate == pytest.approx(g / 4, abs=1e-15)

    def test_cold_start_uniform(self):
        assert np.allclose(exp3_row([0.0] * 4, Exp3Config.for_horizon(4, 1000)), 0.25)

    def test_exploration_floor(self):
        cfg = Exp3Config(exploration=0.2, learning_rate=0.05)
        p = exp3_row([50.0, 0.0], cfg)
        assert p.min() >= 0.1 - 1e-15
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "exploration, learning_rate",
        [(0.1, -0.01), (0.1, math.nan), (math.nan, 0.1), (1.5, 0.1), (-0.1, 0.1), (0.1, math.inf)],
    )
    def test_config_validation(self, exploration, learning_rate):
        with pytest.raises(ValidationError):
            Exp3Config(exploration, learning_rate)

    def test_one_action_tuning_is_valid(self):
        assert Exp3Config.for_horizon(1, 1000) == Exp3Config(0.0, 0.0)

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
        pol.reset()
        step = []
        for i, w in enumerate(states.tolist()):
            cdf = pol.round_cdf(i + 1)
            s = 0 if cdf[w, 0] >= 1.0 else 1  # deterministic rows: s1 iff cdf[w,0]==1
            step.append(s)
            pol.observe(i + 1, w, s, 0)
        assert vec.tolist() == step
        assert pol.target == vec_target

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
        assert np.array_equal(a.running_avg, b.running_avg)
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
        fast_receiver, slow_receiver = receiver_cls(), receiver_cls()
        fast = simulate(inst, make_policy(), fast_receiver, 3000, 11, fast=True)
        slow = simulate(inst, make_policy(), slow_receiver, 3000, 11, fast=False)
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.signals, slow.signals)
        assert np.array_equal(fast.actions, slow.actions)
        assert np.array_equal(fast.running_avg, slow.running_avg)
        assert_same_state(fast_receiver, slow_receiver)

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
        for fast in (True, False):
            receiver = receiver_cls()
            chunked = simulate(inst, make_policy(), receiver, rounds, 11, fast=fast)
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
        assert np.signbit(trace.running_avg).all()

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
        fast_receiver, slow_receiver = receiver_cls(), receiver_cls()
        fast = simulate(inst, FixedSchemePolicy(scheme), fast_receiver, 1500, 2, fast=True)
        slow = simulate(inst, FixedSchemePolicy(scheme), slow_receiver, 1500, 2, fast=False)
        assert np.array_equal(fast.actions, slow.actions)
        assert np.array_equal(fast.running_avg, slow.running_avg)
        assert_same_state(fast_receiver, slow_receiver)

    def test_running_average_identity(self, judge, judge_opt):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 300, 5)
        for t in (1, 2, 137, 300):
            assert tr.running_avg[t - 1] == pytest.approx(
                tr.sender_utils[:t].mean(), abs=1e-12
            )
        assert tr.rounds == 300
        assert tr.final_average == tr.running_avg[-1]

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

    @pytest.mark.parametrize("start, stop", [(5, 5), (60, None), (10, 2)])
    def test_obedience_frequency_rejects_empty_range(self, judge, judge_opt, start, stop):
        tr = simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), 50, 0)
        with pytest.raises(ValidationError):
            tr.obedience_frequency(start, stop)

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
# which cross a ``SIMULATE_CHUNK`` boundary; the random instance has 4
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
        digest.update(getattr(tr, name).tobytes())
    assert digest.hexdigest() == WIDE_TRACE_PINS[draw, kind]


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
        want = [tr.instance.sender_utility[a, w] for a, w in zip(tr.actions, tr.states)]
        assert tr.sender_utils.tolist() == want

    @pytest.mark.parametrize("chunk", [1, 7, ROUNDS])
    def test_running_avg_equals_chunked_carry(self, fields, chunk):
        tr = SimulationTrace(**fields)
        want = chunked_running_avg(tr.sender_utils, chunk)
        assert tr.running_avg.tobytes() == want.tobytes()
        assert tr.final_average == want[-1]

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
        for i in range(trace.rounds):
            w.writerow(
                [
                    i + 1,
                    states[trace.states[i]],
                    trace.signal_ids[trace.signals[i]],
                    actions[trace.actions[i]],
                    repr(float(trace.sender_utils[i])),
                    repr(float(v[trace.actions[i], trace.states[i]])),
                    repr(float(trace.running_avg[i])),
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

    @pytest.mark.parametrize("rounds", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunk_edges(self, judge, judge_opt, tmp_path, rounds):
        self.assert_oracle_bytes(
            simulate(judge, FixedSchemePolicy(judge_opt), ExpWeights(), rounds, 4), tmp_path
        )

    @pytest.mark.parametrize("fast", [True, False])
    def test_awkward_names_and_floats(self, tmp_path, fast):
        inst = awkward_instance()
        cond = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.8, 0.1]])
        scheme = make_scheme(inst, ("s,1", '"s2"', ""), cond)
        trace = simulate(inst, FixedSchemePolicy(scheme), Exp3(), 3000, 1, fast=fast)
        # exploration visits every (action, state) cell, so every name and
        # utility is written
        assert np.unique(trace.actions * 3 + trace.states).size == 9
        self.assert_oracle_bytes(trace, tmp_path)
        data = (tmp_path / "got.csv").read_bytes()
        assert data.startswith(b"t,state,signal,action,u,v,running_avg\r\n")
        for field in (b'"w,0"', b'"say ""w1"""', b'"a\r\nb"', b",-0.0,", b",0.30000000000000004,"):
            assert field in data

    def test_generic_loop(self, judge, judge_opt, tmp_path):
        trace = simulate(judge, FlippedPolicy(judge_opt), Exp3(), 5000, 2, fast=False)
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
    out, prev = [], 0
    for t in marks:
        radii = [r for p in marginals if (r := closed_form_radius(p, S, n, t)) is not None]
        out.append(
            (
                t,
                math.fsum(trace.sender_utils[:t].tolist()) / t,
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
        assert [c.t for c in got] == marks
        for c, (t, avg, obe, win, radius) in zip(got, want):
            assert c.running_avg == trace.running_avg[t - 1]
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
        prev = 0
        for c in trace.checkpoints(997):
            assert c.obedience_frequency == trace.obedience_frequency(0, c.t)
            assert c.window_obedience == trace.obedience_frequency(prev, c.t)
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

    def feed(self, signal, action, state, payoff, t):
        assert self.acted[-1] == t, "feedback for a round that has not acted"
        self.fed.append(t)


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
        with pytest.raises(ValidationError, match=f"threads must be at least 1, got {threads}"):
            run_replications(*args, threads=threads)
        assert made == []


def checkpoint_fields(trace, every):
    return [
        (c.t, c.running_avg, c.obedience_frequency, c.window_obedience, c.max_radius)
        for c in trace.checkpoints(every)
    ]


def assert_same_trace(got, want):
    """Same seed, signal names and per-round arrays, bit for bit."""
    assert got.seed == want.seed
    assert got.signal_ids == want.signal_ids
    for field in TRACE_ARRAYS:
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


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
                    inst, make_policy(), Exp3(), EXP3_ROUNDS, tr.seed, fast=False
                )
            want = oracle_traces[sender, tr.seed]
            assert_same_trace(tr, want)
            assert checkpoint_fields(tr, 500) == checkpoint_fields(want, 500)

    def test_mixed_configs_run_per_seed(self, judge, judge_opt):
        configs = [Exp3Config(0.3, 0.02), Exp3Config(0.1, 0.05)]
        pending = iter(configs)
        got = run_replications(
            judge, lambda: FixedSchemePolicy(judge_opt), lambda: Exp3(next(pending)), 200, [1, 2],
            lambda tr: tr,
        )
        for seed, cfg, g in zip((1, 2), configs, got):
            assert_same_trace(g, simulate(judge, FixedSchemePolicy(judge_opt), Exp3(cfg), 200, seed))

    def test_subclasses_run_per_seed(self, judge, judge_opt, monkeypatch):
        # overrides of act/feed or round_cdf must reach the generic loop
        class DoubledExp3(Exp3):
            def feed(self, signal, action, state, payoff, t):
                super().feed(signal, action, state, 2.0 * payoff, t)

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
                want = simulate(judge, policy_cls(judge_opt), receiver_cls(), 200, seed, fast=False)
                assert_same_trace(g, want)

    def test_rounds_positive(self, judge, judge_opt):
        with pytest.raises(ValidationError):
            run_replications(
                judge, lambda: FixedSchemePolicy(judge_opt), Exp3, 0, [0], lambda tr: tr
            )


class TestRuleBatches:
    def test_rows_match_one_row_calls(self):
        # each rule's rows do not depend on the rest of the batch
        rng = np.random.default_rng(8)
        utility = rng.random((11, 3))
        counts = rng.integers(0, 40, size=(6, 3)).astype(np.float64)
        t = rng.integers(1, 500, size=6).astype(np.float64)
        batched = (
            empirical_br_probs(counts, utility),
            exp_weights_probs(counts, utility, t),
        )
        for b in range(6):
            one = (
                empirical_br_probs(counts[b : b + 1], utility),
                exp_weights_probs(counts[b : b + 1], utility, t[b : b + 1]),
            )
            for full, row in zip(batched, one):
                assert np.array_equal(full[b], row[0])

    def test_exp3_matches_numpy_reference(self):
        rng = np.random.default_rng(8)
        cfg = Exp3Config(exploration=0.05, learning_rate=0.4)
        for row in rng.random((6, 11)) * 30.0:
            p_ref = exp3_reference(row, cfg)
            cumulative = row.tolist()
            assert exp3_row(cumulative, cfg) == pytest.approx(p_ref, rel=1e-14)
            for u in rng.random(200):
                a, p = exp3_act(cumulative, cfg, u)
                assert a == sample_oracle(np.cumsum(p_ref), u)
                assert p == pytest.approx(p_ref[a], rel=1e-14)


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
        with pytest.raises(ValidationError, match="threads must be at least 1"):
            convergence_report(judge, 0.2, 100, seeds=[0], threads=threads)
        assert made == []

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
