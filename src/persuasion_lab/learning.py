"""Repeated persuasion against learning receivers.

Per round: the sender commits to a scheme for this round, nature draws a
state from the prior, a signal is drawn from the scheme, the receiver picks
an action knowing only its own history and the current signal, then feedback
is revealed (the state under full feedback, the realized utility under
partial feedback).

Determinism contract: a run is driven by three independent substreams
(states, signals, receiver randomization) spawned from one seed, each
consumed as one uniform per round through inverse-CDF sampling.  Identical
(instance, policy, receiver, rounds, seed) give bit-identical traces; the
bulk path reproduces the per-round loop exactly.  ``simulate`` draws and
plays ``SIMULATE_CHUNK`` rounds at a time, so a run holds its trace, one byte
per index for up to 128 states, signals and actions, plus one chunk of
working memory, and no output depends on the chunk size.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, WrongInstanceError
from .model import (
    PersuasionInstance,
    SignalingScheme,
    check_scheme,
    profile_instance,
    scheme_stats,
)
from .response import row_max, softmax, softmax_certificate
from .robustify import margin_lift, require_assumption, robustified_optimum


def _spawn_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    seqs = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(s) for s in seqs)


def _check_count(name: str, value) -> None:
    """Reject a ``value`` that is not an integer of at least 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{name} must be an integer of at least 1, got {value!r}")


def _sample(cdf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draws: the first index whose CDF entry exceeds ``u``, else the last.

    ``cdf``'s last axis is a nondecreasing CDF, and ``u`` is a scalar or
    one uniform per row of ``cdf``, or many uniforms against one shared
    CDF.  Counting the entries at or below ``u`` among all but the last
    caps the draw at the last index; the count runs column by column, as
    numpy pays per row to reduce a short last axis.  Against one shared CDF
    and 16,384 uniforms it beat ``np.searchsorted`` up to 40 entries (19
    against 148 us at 2) and lost from 48 on (2-vCPU Xeon, numpy 2.4).
    """
    u = np.asarray(u)
    idx = np.zeros(np.broadcast_shapes(cdf.shape[:-1], u.shape), dtype=np.int64)
    for k in range(cdf.shape[-1] - 1):
        idx += cdf[..., k] <= u
    return idx


# ---------------------------------------------------------------------------
# receiver decision rules
#
# The full-information rules map per-signal statistics with a leading batch
# axis to action probabilities, one row per batch entry: ``act`` passes a
# batch of one, ``bulk_actions`` every visit of a signal.  Exp3's estimates
# change every round, so its rule takes one plain-float row and draws the
# action too.  A receiver's ``act`` and ``bulk_actions`` call the same rule
# function, which keeps the two paths bit-identical.  numpy pays per row to
# broadcast over a short last axis, so the rules work on the transposed
# views of state-major counts and action-major scores, and each op runs
# along the batch axis; every float is the same in either layout.
#
# Exp3's rule builds its weights by a plain loop, not a comprehension: on
# CPython 3.11 a comprehension that reads the rule's locals makes them cell
# variables, and every round then builds a closure, a function and a frame
# (3.12 inlines comprehensions).  On the ``bandit`` workload's streams the
# loop takes 1.03-1.15 us per round against 1.36-1.46 us (2-vCPU Xeon).
#
# A per-chunk path gathers by one flat ``take`` and splits by ``compress``,
# never by a boolean mask or a gather over two index arrays.  At 16,384
# rounds (2-vCPU Xeon, numpy 2.4): ``u.compress(m)`` 21-26 us against 83 us
# for ``u[m]``; ``utility.ravel().take(a * n_states + w)`` 21-45 us against
# 76-114 us for ``utility[a, w]``; a signal-major CDF's ``take(states,
# axis=1)`` with ``_sample`` 42 us against 210 us for ``cdf[states]``.


def _scores(counts: np.ndarray, utility: np.ndarray) -> np.ndarray:
    """``counts @ utility.T``, accumulated state by state into an
    ``(n_actions, B)`` array whose transposed view is returned.

    A BLAS product blocks rows by batch size, so a row's last bits could
    depend on the rest of the batch; this fixed order cannot.
    """
    columns = counts.T
    scores = utility[:, :1] * columns[0]
    for k in range(1, columns.shape[0]):
        scores += utility[:, k : k + 1] * columns[k]
    return scores.T


def empirical_br_probs(counts: np.ndarray, utility: np.ndarray) -> np.ndarray:
    """Uniform over the exact argmax actions against the empirical posterior.

    ``counts`` is a ``(B, n_states)`` float array of the state counts seen
    with the signal so far; ``utility`` is the receiver's ``(n_actions,
    n_states)`` matrix.  Scores are integer-count weighted sums, so ties
    (including the cold-start all-zero case) are detected exactly rather
    than by float tolerance.
    """
    scores = _scores(counts, utility)
    ties = scores == row_max(scores)
    n_ties = np.zeros((ties.shape[0], 1), dtype=np.int64)
    for k in range(ties.shape[1]):
        n_ties += ties[:, k : k + 1]
    return ties / n_ties


def exp_weights_probs(counts: np.ndarray, utility: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exponential weights on cumulative utility with rate sqrt(log n / t).

    ``counts`` as in ``empirical_br_probs``; ``t`` holds the ``(B,)`` round
    indices at which each row acts.
    """
    eta = np.sqrt(np.log(utility.shape[0]) / t)
    scores = _scores(counts, utility)
    scores *= eta[:, None]
    return softmax(scores)


@dataclass(frozen=True)
class Exp3Config:
    """Exploration and learning rate for the partial-feedback learner.

    Defaults follow the classic tuning for a known horizon:
    exploration = min(1, sqrt(n log n / ((e-1) T))), learning rate
    exploration / n.
    """

    exploration: float
    learning_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.exploration <= 1.0:
            raise ValidationError(f"exploration must lie in [0, 1], got {self.exploration!r}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValidationError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}"
            )

    @staticmethod
    def for_horizon(n_actions: int, horizon: int) -> "Exp3Config":
        g = min(1.0, math.sqrt(n_actions * math.log(n_actions) / ((math.e - 1.0) * max(horizon, 1))))
        return Exp3Config(exploration=g, learning_rate=g / n_actions)


def exp3_act(cumulative: list[float], config: Exp3Config, u: float) -> tuple[int, float]:
    """EXP3 (Auer et al. 2002): draw an action and return it with its probability.

    The probabilities are a softmax of one signal's cumulative
    importance-weighted reward estimates, mixed with uniform exploration.
    The draw is ``_sample``'s: the first action whose running sum of
    probabilities exceeds ``u``, else the last.  A row has a few entries and
    this runs once per round, so it works on plain floats; ``lr * max`` is
    the max of the scaled estimates because ``Exp3Config`` keeps ``lr >= 0``.
    """
    lr, g = config.learning_rate, config.exploration
    top = lr * max(cumulative)
    e = []  # a plain loop: see "receiver decision rules" above
    for c in cumulative:
        e.append(math.exp(lr * c - top))
    total = math.fsum(e)
    keep = 1.0 - g
    floor = g / len(e)
    running = 0.0
    for a, x in enumerate(e):
        p = x * keep / total + floor
        running += p
        if running > u:
            break
    return a, p


# ---------------------------------------------------------------------------
# receiver objects used by the simulator


class _FullFeedbackReceiver:
    """Keeps per-signal state counts; the state is revealed after each round.

    A subclass defines ``_probs(counts, t)``: its action probabilities, one
    row per row of per-signal ``counts``, for rows acting at rounds ``t``.
    """

    feedback_mode = "full"

    def reset(self, n_signals: int, instance: PersuasionInstance, horizon: int) -> None:
        self.utility = instance.receiver_utility
        self.counts = np.zeros((n_signals, instance.n_states))

    def act(self, signal: int, t: int, u: float) -> int:
        p = self._probs(self.counts[signal : signal + 1], np.array([float(t)]))[0]
        return int(_sample(np.add.accumulate(p), u))

    def feed(self, signal: int, action: int, state: int, payoff: float, t: int) -> None:
        self.counts[signal, state] += 1.0

    def bulk_actions(
        self, states: np.ndarray, signals: np.ndarray, u_actions: np.ndarray, t0: int
    ) -> np.ndarray:
        """Rounds ``t0 + 1 ..`` after rounds 1..t0, as ``act`` then ``feed`` would play them.

        The states do not depend on the actions, so every visit's counts are
        the signal's counts after round ``t0`` plus a prefix sum over its
        earlier visits here, one ``np.cumsum`` per state into a state-major
        ``(n_states, visits)`` array; the counts are integers, so this is
        exact.  ``counts`` ends as the per-round loop leaves it.
        """
        actions = np.empty(states.size, dtype=np.int64)
        n_states = self.counts.shape[1]
        for s in range(self.counts.shape[0]):
            idx = np.flatnonzero(signals == s)
            if idx.size == 0:
                continue
            visited = states[idx]
            counts = np.empty((n_states, idx.size))  # state-major: one row per state
            for k in range(n_states):
                seen = visited == k
                np.cumsum(seen, out=counts[k])
                counts[k] += self.counts[s, k]
                self.counts[s, k] = counts[k, -1]
                counts[k] -= seen  # counts before each visit
            cdf = self._probs(counts.T, idx + (t0 + 1.0))
            for k in range(1, cdf.shape[1]):  # np.cumsum's sequential sum, in place
                cdf[:, k] += cdf[:, k - 1]
            actions[idx] = _sample(cdf, u_actions[idx])
        return actions


class EmpiricalBestResponse(_FullFeedbackReceiver):
    """Best response to the per-signal empirical state distribution."""

    kind = "empirical-br"

    def _probs(self, counts: np.ndarray, t: np.ndarray) -> np.ndarray:
        return empirical_br_probs(counts, self.utility)


class ExpWeights(_FullFeedbackReceiver):
    """Per-signal exponential weights over full-information utilities."""

    kind = "exp-weights"

    def _probs(self, counts: np.ndarray, t: np.ndarray) -> np.ndarray:
        return exp_weights_probs(counts, self.utility, t)


class Exp3:
    """Per-signal adversarial bandit learner (partial feedback).

    Only the realized payoff is revealed; ``cumulative`` holds the per-signal
    importance-weighted reward estimates.
    """

    feedback_mode = "partial"
    kind = "exp3"

    def __init__(self, config: Exp3Config | None = None):
        self.config = config

    def reset(self, n_signals: int, instance: PersuasionInstance, horizon: int) -> None:
        self.tuned = self.config or Exp3Config.for_horizon(instance.n_actions, horizon)
        self.utility = instance.receiver_utility
        self.cumulative = [[0.0] * instance.n_actions for _ in range(n_signals)]
        self._last_prob: float | None = None

    def act(self, signal: int, t: int, u: float) -> int:
        a, self._last_prob = exp3_act(self.cumulative[signal], self.tuned, u)
        return a

    def feed(self, signal: int, action: int, state: int, payoff: float, t: int) -> None:
        self.cumulative[signal][action] += payoff / self._last_prob

    def bulk_actions(
        self, states: np.ndarray, signals: np.ndarray, u_actions: np.ndarray, t0: int
    ) -> np.ndarray:
        """Rounds ``t0 + 1 ..`` as ``act`` then ``feed`` would play them, on plain floats.

        The estimates change every round, so each round is one ``exp3_act``
        and one importance-weighted update; no rule reads the round index.
        """
        cumulative, config = self.cumulative, self.tuned
        v = self.utility.tolist()
        actions = []
        p = self._last_prob
        for s, w, u in zip(signals.tolist(), states.tolist(), u_actions.tolist()):
            a, p = exp3_act(cumulative[s], config, u)
            cumulative[s][a] += v[a][w] / p
            actions.append(a)
        self._last_prob = p
        return np.array(actions, dtype=np.int64)


_RECEIVERS = {cls.kind: cls for cls in (EmpiricalBestResponse, ExpWeights, Exp3)}


def make_receiver(kind: str):
    if kind not in _RECEIVERS:
        raise ValidationError(f"unknown receiver kind {kind!r}; choose from {sorted(_RECEIVERS)}")
    return _RECEIVERS[kind]()


# ---------------------------------------------------------------------------
# sender policies


class FixedSchemePolicy:
    """Commit to one scheme for every round."""

    def __init__(self, scheme: SignalingScheme):
        self.scheme = scheme
        self.signals = scheme.signals
        # signal-major: one row per signal, so a chunk's CDF rows are one
        # gather along the states and ``_sample`` reads contiguous columns
        self._cdf_by_signal = np.cumsum(scheme.conditional, axis=1).T.copy()

    def reset(self) -> None:
        pass

    def round_cdf(self, t: int) -> np.ndarray:
        return self._cdf_by_signal.T

    def observe(self, t: int, state: int, signal: int, action: int) -> None:
        pass

    def signals_for_states(self, states: np.ndarray, u_signals: np.ndarray) -> np.ndarray:
        return _sample(self._cdf_by_signal.take(states, axis=1).T, u_signals)


class AlternatingSignalPolicy:
    """Two-state pattern sender: discloses hits on an alternating target state.

    Keeps a target state, starting at the first state.  When the realized
    state equals the target the sender emits ``s1`` and flips the target;
    otherwise it emits ``s2``.  Each round this is a deterministic
    state-measurable scheme, yet the ``s1`` rounds reveal a perfectly
    alternating state subsequence that keeps an empirical learner guessing.
    """

    signals = ("s1", "s2")

    def __init__(self, instance: PersuasionInstance):
        if instance.n_states != 2:
            raise WrongInstanceError(
                f"alternating policy needs exactly 2 states, got {instance.n_states}"
            )
        # conditional rows: P(s1|w) = 1 when w == target else 0
        cond0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        cond1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        self._cdfs = np.stack([np.cumsum(cond0, axis=1), np.cumsum(cond1, axis=1)])
        self.reset()

    def reset(self) -> None:
        self.target = 0

    def round_cdf(self, t: int) -> np.ndarray:
        return self._cdfs[self.target]

    def observe(self, t: int, state: int, signal: int, action: int) -> None:
        if state == self.target:
            self.target = 1 - self.target

    def signals_for_states(self, states: np.ndarray, u_signals: np.ndarray) -> np.ndarray:
        # each round leaves target = 1 - state, so s1 falls exactly on the
        # rounds whose state differs from the round before; the per-round
        # scheme is deterministic, so the signal uniforms go unused as the
        # inverse CDF ignores them, and consecutive calls equal one whole call
        out = (np.diff(states, prepend=1 - self.target) == 0).astype(np.int64)
        if states.size:
            self.target = 1 - int(states[-1])
        return out


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True, eq=False)
class Checkpoint:
    t: int
    running_avg: float
    obedience_frequency: float | None
    window_obedience: float | None
    max_radius: float | None


def checkpoint_marks(rounds: int, every: int | None = None) -> list[int]:
    """The rounds a trace reports diagnostics at: every ``every``-th, then ``rounds``.

    ``every`` defaults to a tenth of the horizon.  The horizon is always the
    last mark, also when ``every`` exceeds it.
    """
    if every is None:
        every = max(rounds // 10, 1)
    _check_count("checkpoint interval", every)
    return [*range(every, rounds, every), rounds]


# Rows per write of ``SimulationTrace.to_csv``; a larger chunk buys little
# speed and raises peak memory.
TRACE_CHUNK = 4096


def _csv_cells(rows) -> list[str]:
    """Each row as ``csv.writer`` writes its fields, each field followed by a comma."""
    buf = io.StringIO()
    w = csv.writer(buf)
    out = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        # the empty last field leaves the trailing comma; the default line
        # terminator stays, as its characters decide what gets quoted
        w.writerow([*row, ""])
        out.append(buf.getvalue()[:-2])
    return out


def _cell_index(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Flat indices of the ``(rows, cols)`` cells of a C-ordered table with ``n_cols`` columns.

    The indices are widened before they are combined: int8 products
    overflow past 127.
    """
    return rows.astype(np.intp) * n_cols + cols


def carried_cumsum(values: np.ndarray, total: np.float64 | None) -> np.float64 | None:
    """Turn ``values`` in place into running sums that continue ``total``, and return the last.

    ``total`` is the last sum of the parts before, ``None`` before the first
    value, which gets no addend.  So sums carried part to part have the bits
    of one ``np.cumsum`` over the parts joined, -0.0 included.  An empty
    part returns ``total``.
    """
    if not values.size:
        return total
    if total is not None:
        values[0] += total
    np.cumsum(values, out=values)
    return values[-1]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Full per-round record of one run: the state, signal and action indices drawn.

    ``simulate`` stores each index array in the smallest signed integer
    dtype that holds every index, int8 for up to 128 states, signals and
    actions.  Construction checks that the three are 1-d integer arrays of
    one length of at least 1, but not their entries.  ``scheme`` is the
    fixed sender's committed scheme, ``None`` for any other sender.  A trace
    is read through ``chunks``, one chunk at a time, so no reader builds a
    full-horizon float array; ``final_average``, the checkpoint diagnostics
    and ``to_csv`` read the running average through it.
    """

    instance: PersuasionInstance
    signal_ids: tuple[str, ...]
    states: np.ndarray
    signals: np.ndarray
    actions: np.ndarray
    seed: int
    scheme: SignalingScheme | None

    def __post_init__(self):
        arrays = (self.states, self.signals, self.actions)
        if not (
            all(isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "iu" for x in arrays)
            and self.states.size == self.signals.size == self.actions.size >= 1
        ):
            raise ValidationError(
                "states, signals and actions must be 1-d integer arrays of one length >= 1"
            )

    @property
    def rounds(self) -> int:
        return int(self.states.size)

    def chunks(self, size: int | None = None):
        """The trace ``size`` rounds at a time, as ``(lo, states, signals, actions, utils)``.

        Each chunk covers rounds ``lo + 1 ..``; ``utils`` is a new array of
        the sender's utilities at (action, state) in those rounds, gathered by
        one flat ``take``; the rest are views.  ``size`` defaults to
        ``SIMULATE_CHUNK``; any other size must be an integer of at least 1.
        """
        size = SIMULATE_CHUNK if size is None else size
        _check_count("chunk size", size)
        utility, n_states = self.instance.sender_utility.ravel(), self.instance.n_states

        def read():
            for lo in range(0, self.rounds, size):
                states, signals, actions = (
                    x[lo : lo + size] for x in (self.states, self.signals, self.actions)
                )
                utils = utility.take(_cell_index(actions, states, n_states))
                yield lo, states, signals, actions, utils

        return read()

    def _running_sums(self, size: int | None = None):
        """``chunks(size)`` with each chunk's ``utils`` turned in place into running sums.

        The sums are carried chunk to chunk by ``carried_cumsum``.
        """
        total = None
        for lo, states, signals, actions, sums in self.chunks(size):
            total = carried_cumsum(sums, total)
            yield lo, states, signals, actions, sums

    def _running_avg_at(self, marks: Sequence[int]) -> list[float]:
        """The mean sender utility over rounds 1..t, for each of the ascending rounds ``marks``.

        Only the marked sums are divided, each by its round ``t``, as
        ``to_csv`` divides every round's, so the floats are the same.
        """
        idx = np.asarray(marks) - 1
        out = []
        for lo, *_, sums in self._running_sums():
            a, b = np.searchsorted(idx, (lo, lo + sums.size))
            out += (sums[idx[a:b] - lo] / (idx[a:b] + 1)).tolist()
        return out

    @property
    def final_average(self) -> float:
        return self._running_avg_at([self.rounds])[0]

    def _obeyed(self, lo: int, hi: int | None) -> int:
        """Number of rounds ``[lo:hi]`` whose action index is the signal's."""
        return int(np.count_nonzero(self.actions[lo:hi] == self.signals[lo:hi]))

    def obedience_frequency(self, start: int = 0) -> float | None:
        """Fraction of rounds ``[start:]`` whose action index is the signal's.

        ``start`` is an integer, not a bool, with ``0 <= start < rounds``.
        """
        integer = isinstance(start, (int, np.integer)) and not isinstance(start, bool)
        if not (integer and 0 <= start < self.rounds):
            raise ValidationError(f"start must be an integer in [0, {self.rounds}), got {start!r}")
        if self.signal_ids != self.instance.actions:
            return None
        # a count over a length is the float np.mean gives for that slice
        return self._obeyed(start, None) / (self.rounds - int(start))

    @property
    def last_decile_obedience(self) -> float | None:
        """``obedience_frequency`` over the rounds after the first nine tenths."""
        return self.obedience_frequency((9 * self.rounds) // 10)

    def checkpoints(self, every: int | None = None) -> tuple[Checkpoint, ...]:
        """Diagnostics at ``checkpoint_marks(rounds, every)``.

        Window obedience covers the rounds since the previous mark.
        ``max_radius`` is the largest defined radius of the committed
        scheme's signals, ``None`` when none is defined or there is no
        committed scheme.
        """
        marginals = None if self.scheme is None else scheme_stats(self.instance, self.scheme).marginals
        direct = self.signal_ids == self.instance.actions
        marks = checkpoint_marks(self.rounds, every)
        out = []
        prev = obeyed = 0
        for t, running_avg in zip(marks, self._running_avg_at(marks)):
            radius = None
            if marginals is not None:
                radii = _radii(marginals, self.instance.n_actions, t)
                radius = max((r for r in radii if r is not None), default=None)
            if direct:
                window = self._obeyed(prev, t)
                obeyed += window
            out.append(
                Checkpoint(
                    t=t,
                    running_avg=running_avg,
                    obedience_frequency=obeyed / t if direct else None,
                    window_obedience=window / (t - prev) if direct else None,
                    max_radius=radius,
                )
            )
            prev = t
        return tuple(out)

    def to_csv(self, path) -> None:
        """Write one CSV row per round: ``t,state,signal,action,u,v,running_avg``.

        The bytes are those of ``csv.writer`` with its defaults, one row per
        round: ``\\r\\n`` line ends, names quoted only when they need it, and
        floats as ``repr``.  ``u`` and ``v`` are the instance's utilities at
        (action, state), so each name and each (action, state) cell is
        formatted once per trace; only ``running_avg`` is formatted per row.
        Rows are written ``TRACE_CHUNK`` at a time, their indices combined
        into cell codes by ``_cell_index``.
        """
        inst = self.instance
        W, S = inst.n_states, len(self.signal_ids)
        su, rv = inst.sender_utility, inst.receiver_utility
        state_signal = _csv_cells((w, s) for w in inst.states for s in self.signal_ids)
        action_uv = _csv_cells(
            (a, repr(float(su[i, w])), repr(float(rv[i, w])))
            for i, a in enumerate(inst.actions)
            for w in range(W)
        )
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("t,state,signal,action,u,v,running_avg\r\n")
            for lo, states, signals, actions, running_avg in self._running_sums(TRACE_CHUNK):
                running_avg /= np.arange(lo + 1, lo + running_avg.size + 1)
                rows = zip(
                    range(lo + 1, lo + running_avg.size + 1),
                    _cell_index(states, signals, S).tolist(),
                    _cell_index(actions, states, W).tolist(),
                    running_avg.tolist(),
                )
                lines = [f"{t},{state_signal[i]}{action_uv[j]}{r!r}\r\n" for t, i, j, r in rows]
                fh.write("".join(lines))

    def checkpoints_to_csv(self, path, every: int | None = None) -> tuple[Checkpoint, ...]:
        """Write ``checkpoints(every)`` as CSV, one row per mark, and return them."""
        checkpoints = self.checkpoints(every)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "running_avg", "obedience_frequency", "window_obedience", "max_radius"])
            for c in checkpoints:
                w.writerow([c.t, repr(c.running_avg), c.obedience_frequency, c.window_obedience, c.max_radius])
        return checkpoints


def _radii(marginals: np.ndarray, n_actions: int, t: int) -> tuple[float | None, ...]:
    """Per signal at ``t``, a high-probability bound on |v(a, empirical posterior) - v(a, posterior)|.

    ``marginals`` are the scheme's.  A signal's radius is ``None`` when it is
    never sent, or while sqrt(3 log(2 S t) / (pi(s) t)) >= 1/2, where its
    empirical conditional distribution is too undersampled to certify.
    """
    if t < 1:
        raise ValidationError("t must be at least 1")
    S = len(marginals)
    out = []
    for p in marginals.tolist():
        chern = math.inf if p <= 0.0 else math.sqrt(3.0 * math.log(2.0 * S * t) / (p * t))
        out.append(
            None
            if chern >= 0.5
            else 2.0 * chern + (2.0 / p) * math.sqrt(math.log(2.0 * S * n_actions * t) / (2.0 * t))
        )
    return tuple(out)


# Rounds per step of ``simulate``: a seed holds its trace plus working
# memory for this many rounds.  No output depends on it; 4096 ran about 8%
# slower, 65536 no faster.
SIMULATE_CHUNK = 16384


def _round_chunks(instance: PersuasionInstance, rounds: int, rngs: Sequence[np.random.Generator]):
    """A run's rounds ``SIMULATE_CHUNK`` at a time, as ``(lo, states, *uniforms)``.

    ``rngs`` are leading substreams of ``_spawn_rngs`` (states, signals,
    receiver), each giving one uniform per round; the state uniforms are
    drawn into states.  ``Generator.random`` gives the same doubles chunk by
    chunk as in one call.
    """
    state_rng, *others = rngs
    prior_cdf = np.cumsum(instance.prior)
    for lo in range(0, rounds, SIMULATE_CHUNK):
        n = min(SIMULATE_CHUNK, rounds - lo)
        yield lo, _sample(prior_cdf, state_rng.random(n)), *[rng.random(n) for rng in others]


# Senders whose signals do not depend on the receiver's actions.
_BULK_SENDERS = (FixedSchemePolicy, AlternatingSignalPolicy)


def simulate(
    instance: PersuasionInstance,
    policy,
    receiver,
    rounds: int,
    seed: int,
    *,
    fast: bool = True,
) -> SimulationTrace:
    """Run the repeated interaction for ``rounds`` rounds.

    The receiver only ever sees (signal, round index, its own uniform draw)
    before acting; states and payoffs reach it through feedback after the
    action is fixed.  Rounds are drawn and played ``SIMULATE_CHUNK`` at a
    time, in int64, into the preallocated trace of narrow index arrays.
    With ``fast=True`` a built-in sender and receiver play each chunk in
    bulk, through ``signals_for_states`` and ``bulk_actions``; the result
    and the receiver's final state are identical either way.  Types are
    tested exactly: a subclass may override ``act``, ``feed`` or
    ``round_cdf``, none of which the bulk path calls.
    """
    _check_count("rounds", rounds)
    scheme = policy.scheme if isinstance(policy, FixedSchemePolicy) else None
    if scheme is not None:
        check_scheme(instance, scheme)
    policy.reset()
    signal_ids = tuple(policy.signals)
    receiver.reset(len(signal_ids), instance, rounds)
    bulk = fast and type(policy) in _BULK_SENDERS and type(receiver) in _RECEIVERS.values()
    v = instance.receiver_utility

    # the smallest signed dtype that holds every index: int8 up to 128 of each
    dtype = np.min_scalar_type(-max(instance.n_states, len(signal_ids), instance.n_actions))
    states = np.empty(rounds, dtype=dtype)
    signals = np.empty(rounds, dtype=dtype)
    actions = np.empty(rounds, dtype=dtype)
    for lo, w, u_signals, u_actions in _round_chunks(instance, rounds, _spawn_rngs(seed)):
        hi = lo + w.size
        states[lo:hi] = w
        if bulk:
            s = policy.signals_for_states(w, u_signals)
            signals[lo:hi] = s
            actions[lo:hi] = receiver.bulk_actions(w, s, u_actions, lo)
        else:
            for i, state in enumerate(w.tolist()):
                t = lo + i + 1
                s = int(_sample(policy.round_cdf(t)[state], u_signals[i]))
                a = receiver.act(s, t, u_actions[i])
                signals[lo + i] = s
                actions[lo + i] = a
                receiver.feed(s, a, state, v[a, state], t)
                policy.observe(t, state, s, a)
    for drawn in (states, signals, actions):
        drawn.setflags(write=False)

    return SimulationTrace(
        instance=instance,
        signal_ids=signal_ids,
        states=states,
        signals=signals,
        actions=actions,
        seed=seed,
        scheme=scheme,
    )


def _check_runs(rounds: int, seeds: Sequence[int], threads: int) -> None:
    """Reject a ``run_replications`` call's counts: ``rounds``, at least one seed, ``threads``."""
    _check_count("rounds", rounds)
    if not seeds:
        raise ValidationError("seeds must not be empty")
    _check_count("threads", threads)


def run_replications(
    instance: PersuasionInstance,
    policy_factory: Callable[[], object],
    receiver_factory: Callable[[], object],
    rounds: int,
    seeds: Sequence[int],
    summarize: Callable[[SimulationTrace], object],
    *,
    threads: int = 1,
) -> list:
    """Independent seeded runs of ``simulate``; summaries returned in seed order.

    The seeds run on ``threads`` threads; the results do not depend on how
    many.  The factories are called in seed order in the calling thread.
    """
    seeds = list(seeds)
    _check_runs(rounds, seeds, threads)
    policies = [policy_factory() for _ in seeds]
    receivers = [receiver_factory() for _ in seeds]

    def one(k: int):
        return summarize(simulate(instance, policies[k], receivers[k], rounds, seeds[k]))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(len(seeds))))
    return [one(k) for k in range(len(seeds))]


# ---------------------------------------------------------------------------
# schedules and the convergence pipeline


def exp_weights_certificate(n_actions: int, min_signal_prob: float, t: int) -> tuple[float, float]:
    """Accuracy (gamma_t, delta_t) of exponential weights at round ``t``.

    At round t a signal of probability p has been seen about p*t times, so
    the per-signal softmax temperature is lam = eta_t * p * t = p *
    sqrt(t log n) and the receiver is a (log(n lam)/lam, 1/lam) member;
    ``min_signal_prob`` is the rarest sent signal's p.
    """
    if not 0.0 < min_signal_prob <= 1.0:
        raise ValidationError("min_signal_prob must lie in (0, 1]")
    lam = min_signal_prob * math.sqrt(t * math.log(n_actions))
    return softmax_certificate(n_actions, lam) if lam > 0 else (math.inf, math.inf)


@dataclass(frozen=True, eq=False)
class ConvergenceCheckpoint:
    t: int
    mean_running_avg: float
    mean_obedience: float
    schedule_gamma: float
    schedule_delta: float
    threshold_margin: float | None
    threshold_ok: bool
    budget_ok: bool


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Multi-seed verification that a robustified scheme's average converges.

    ``threshold`` entries compare the mixing weight against the schedule
    accuracy plus twice the concentration radius per signal (the sufficient
    condition for the obedient action to dominate the learner's choice);
    ``budget_ok`` checks alpha + delta_t + 2/(t-1) < C.
    """

    opt: float
    constant: float
    alpha: float
    rounds: int
    seeds: tuple[int, ...]
    final_averages: tuple[float, ...]
    mean_final_average: float
    target: float
    meets_target: bool
    last_decile_obedience: float
    checkpoints: tuple[ConvergenceCheckpoint, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def convergence_report(
    instance: PersuasionInstance,
    constant: float,
    rounds: int,
    seeds: Sequence[int],
    *,
    threads: int = 1,
) -> ConvergenceReport:
    """Run the fixed robustified scheme against exponential-weights receivers.

    The sender forfeits at most ``constant`` of the classic optimum: the
    scheme is the classic solution mixed with weight alpha = constant/2.
    The checkpoints score the exponential-weights schedule, so the receiver
    is always ``ExpWeights``.
    """
    seeds = tuple(seeds)
    _check_runs(rounds, seeds, threads)
    if constant <= 0:
        raise ValidationError("constant must be positive")
    prof = require_assumption(profile_instance(instance))
    scheme, alpha, opt = robustified_optimum(instance, constant)
    marginals = scheme_stats(instance, scheme).marginals
    sent = np.flatnonzero(marginals > 0.0)
    min_signal_prob = float(marginals[sent].min())
    lift = margin_lift(prof, alpha, marginals)

    def summarize(trace: SimulationTrace):
        # the last checkpoint is at t = rounds, so it carries the final average
        return trace.last_decile_obedience, trace.checkpoints()

    results = run_replications(
        instance,
        lambda: FixedSchemePolicy(scheme),
        ExpWeights,
        rounds,
        seeds,
        summarize,
        threads=threads,
    )

    finals = tuple(r[1][-1].running_avg for r in results)
    tail_obedience = float(np.mean([r[0] for r in results]))

    checkpoints = []
    for k, t in enumerate(c.t for c in results[0][1]):
        mean_avg = float(np.mean([r[1][k].running_avg for r in results]))
        mean_obe = float(np.mean([r[1][k].obedience_frequency for r in results]))
        g_t, d_t = exp_weights_certificate(instance.n_actions, min_signal_prob, max(t - 1, 1))
        radii = _radii(marginals, instance.n_actions, max(t - 1, 1))
        if any(radii[s] is None for s in sent):
            margin, ok = None, False
        else:
            margin = float(min(lift[s] - (g_t + 2.0 * radii[s]) for s in sent))
            ok = margin > 0.0
        budget_ok = t > 1 and alpha + d_t + 2.0 / (t - 1) < constant
        checkpoints.append(
            ConvergenceCheckpoint(
                t=t,
                mean_running_avg=mean_avg,
                mean_obedience=mean_obe,
                schedule_gamma=g_t,
                schedule_delta=d_t,
                threshold_margin=margin,
                threshold_ok=ok,
                budget_ok=bool(budget_ok),
            )
        )

    mean_final = float(np.mean(finals))
    target = opt - constant
    return ConvergenceReport(
        opt=float(opt),
        constant=float(constant),
        alpha=float(alpha),
        rounds=rounds,
        seeds=seeds,
        final_averages=finals,
        mean_final_average=mean_final,
        target=float(target),
        meets_target=mean_final >= target,
        last_decile_obedience=tail_obedience,
        checkpoints=tuple(checkpoints),
    )
