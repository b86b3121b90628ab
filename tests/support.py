"""Test inputs and oracles the library does not ship: unconstrained random
instances and schemes, strategies drawn from a response set, the judge's
optimal scheme, empirical conditional utilities drawn as ``simulate`` draws
them, an exact rational check of a simplex basis, a trace's sender
utilities, running average and Example 4.3's summary gathered whole,
Exp3's rule as a list comprehension over plain floats, the two senders'
rules written round by round, and receivers that take the per-round loop."""

import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from persuasion_lab import (
    FixedSchemePolicy,
    PersuasionInstance,
    ReceiverStrategy,
    SignalingScheme,
    ValidationError,
    approx_set,
    builtin_instance,
    load_scheme,
    make_scheme,
    scheme_stats,
)
from persuasion_lab.learning import _round_chunks, _spawn_rngs
from persuasion_lab.model import check_scheme, obedience_margins
from persuasion_lab.repro import AlternatingStats
from persuasion_lab.sampling import random_conditional


def judge_optimal_scheme() -> SignalingScheme:
    """The classic solution of the judge instance, as a checked-in fixture."""
    path = Path(__file__).with_name("data") / "judge-optimal-scheme.json"
    return load_scheme(path, builtin_instance("judge"))


def signal_margin(instance: PersuasionInstance, scheme: SignalingScheme, signal: str) -> float:
    """The obedience margin of one signal of a direct scheme."""
    margins = obedience_margins(scheme_stats(instance, scheme).receiver_values)
    return float(margins[scheme.signal_index(signal)])


def random_instance(
    rng: np.random.Generator, max_states: int = 6, max_actions: int = 5
) -> PersuasionInstance:
    """Unconstrained instance; may violate the uniqueness assumption."""
    m = int(rng.integers(2, max_states + 1))
    n = int(rng.integers(2, max_actions + 1))
    states = tuple(f"w{k}" for k in range(m))
    actions = tuple(f"a{k}" for k in range(n))
    prior = rng.dirichlet(np.ones(m))
    return PersuasionInstance(
        states=states,
        actions=actions,
        prior=prior,
        sender_utility=rng.uniform(0.0, 1.0, (n, m)),
        receiver_utility=rng.uniform(0.0, 1.0, (n, m)),
    )


def random_scheme(rng: np.random.Generator, instance: PersuasionInstance) -> SignalingScheme:
    """The scheme of ``random_conditional``, with signals ``s0, s1, ...``."""
    cond = random_conditional(rng, instance)
    return make_scheme(instance, tuple(f"s{k}" for k in range(cond.shape[1])), cond)


def drawn_in_turn(schemes: list[SignalingScheme]):
    """A stand-in for ``random_conditional`` that returns the schemes' conditionals in turn.

    It starts over after the last, so each bound report that draws
    ``len(schemes)`` candidates scores exactly these.
    """
    conditionals = itertools.cycle([scheme.conditional for scheme in schemes])
    return lambda rng, instance: next(conditionals)


def approx_responding_strategy(
    rng: np.random.Generator,
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    gamma: float,
    delta: float,
) -> ReceiverStrategy:
    """A strategy keeping at least 1-delta mass inside each signal's set."""
    aset = approx_set(instance, scheme, gamma)
    S, n = aset.member_mask.shape
    rho = np.zeros((S, n))
    for s in range(S):
        if aset.marginals[s] <= 0.0:
            rho[s] = 1.0 / n
            continue
        inside = np.flatnonzero(aset.member_mask[s])
        outside = np.flatnonzero(~aset.member_mask[s])
        leak = float(rng.uniform(0.0, delta)) if (delta > 0 and outside.size) else 0.0
        rho[s, inside] = rng.dirichlet(np.ones(inside.size)) * (1.0 - leak)
        if leak > 0:
            rho[s, outside] = rng.dirichlet(np.ones(outside.size)) * leak
    return ReceiverStrategy(rho)


def deterministic_responding_strategy(
    rng: np.random.Generator,
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    gamma: float,
) -> ReceiverStrategy:
    """Point mass per signal, drawn uniformly from the gamma-best set."""
    aset = approx_set(instance, scheme, gamma)
    S, n = aset.member_mask.shape
    rho = np.zeros((S, n))
    for s in range(S):
        if aset.marginals[s] <= 0.0:
            rho[s, int(rng.integers(0, n))] = 1.0
            continue
        rho[s, int(rng.choice(np.flatnonzero(aset.member_mask[s])))] = 1.0
    return ReceiverStrategy(rho)


def empirical_conditional_utilities(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    t: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw t rounds under a fixed scheme; per-signal empirical action values.

    Returns (visited mask over signals, matrix of v(a, empirical posterior)).
    Rows for unvisited signals are zero.  The states and signals are
    ``simulate``'s, drawn through the same ``_round_chunks``.
    """
    if t < 1:
        raise ValidationError("t must be positive")
    check_scheme(instance, scheme)
    policy = FixedSchemePolicy(scheme)
    S, m = scheme.n_signals, instance.n_states
    counts = np.zeros(S * m, dtype=np.int64)
    for _, states, u_signals in _round_chunks(instance, t, _spawn_rngs(seed)[:2]):
        signals = policy.signals_for_states(states, u_signals)
        counts += np.bincount(signals * m + states, minlength=S * m)
    counts = counts.reshape(S, m)
    totals = counts.sum(axis=1)
    visited = totals > 0
    freq = counts / np.where(visited, totals, 1)[:, None]
    vhat = freq @ instance.receiver_utility.T
    vhat[~visited] = 0.0
    return visited, vhat


def _solve_exact(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve ``M z = rhs`` by Gauss-Jordan elimination; None when singular."""
    n = len(M)
    rows = [list(row) + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = [v / rows[col][col] for v in rows[col]]
        rows[col] = head
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * h for v, h in zip(rows[r], head)]
    return [row[-1] for row in rows]


def exact_basis_violations(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    rows: np.ndarray,
    objective: float,
) -> list[str]:
    """What keeps a basis of ``max c.x, A x = b, x >= 0`` from being optimal.

    Every float is a dyadic rational, so ``fractions`` checks the basis
    exactly: solve ``B x_B = b_rows`` and ``B^T y = c_B``, then require
    ``x_B >= 0``, ``A^T y >= c`` and ``objective`` within 1e-12 of the
    basis's exact value.  An empty list certifies ``objective`` as the
    optimum, taking the rows left out of ``rows`` as implied by the others.
    """
    A_rows = [[Fraction(float(v)) for v in A[r]] for r in rows]
    B = [[row[j] for j in basis] for row in A_rows]
    c_exact = [Fraction(float(v)) for v in c]
    x_basic = _solve_exact(B, [Fraction(float(b[r])) for r in rows])
    y = _solve_exact([list(col) for col in zip(*B)], [c_exact[j] for j in basis])
    if x_basic is None or y is None:
        return ["singular basis"]
    violations = []
    if min(x_basic) < 0:
        violations.append(f"x_B >= 0 fails: {float(min(x_basic)):g}")
    reduced = min(
        sum((y_r * row[j] for y_r, row in zip(y, A_rows)), Fraction(0)) - c_exact[j]
        for j in range(len(c_exact))
    )
    if reduced < 0:
        violations.append(f"A^T y >= c fails: reduced cost {float(reduced):g}")
    value = sum((c_exact[j] * x_j for j, x_j in zip(basis, x_basic)), Fraction(0))
    if abs(Fraction(objective) - value) > 1e-12:
        violations.append(f"objective {objective!r} is not within 1e-12 of {float(value)!r}")
    return violations


def whole_sender_utils(trace) -> np.ndarray:
    """The sender's utility in every round, by one 2-D gather over the whole horizon."""
    actions, states = trace.actions.astype(np.intp), trace.states.astype(np.intp)
    return trace.instance.sender_utility[actions, states]


def whole_running_avg(trace) -> np.ndarray:
    """The mean sender utility over rounds 1..t for every round t: one ``np.cumsum`` over the horizon."""
    return np.cumsum(whole_sender_utils(trace)) / np.arange(1, trace.rounds + 1)


def whole_alternating_stats(trace) -> AlternatingStats:
    """Example 4.3's summary from whole-horizon gathers: one ``np.cumsum`` over every round of a signal."""
    s1 = trace.signals == 0
    s1_states = trace.states[s1]
    utils = whole_sender_utils(trace)

    def mean(values):
        return float(np.cumsum(values)[-1] / values.size) if values.size else None

    return AlternatingStats(
        seed=trace.seed,
        overall_avg=mean(utils),
        s1_fraction=float(s1.mean()),
        s1_mean=mean(utils[s1]),
        s2_mean=mean(utils[~s1]),
        alternation_ok=bool(np.all(s1_states[0::2] == 0) and np.all(s1_states[1::2] == 1)),
    )


def exp3_oracle(
    cumulative: list[float], exploration: float, learning_rate: float, u
) -> tuple[int, float]:
    """``learning.exp3_act`` with its weights built by a list comprehension.

    Every float operation and its order are ``exp3_act``'s, so the two must
    agree to the bit; a reordered sum or product shows in the last bits.
    """
    top = learning_rate * max(cumulative)
    e = [math.exp(learning_rate * c - top) for c in cumulative]
    total = math.fsum(e)
    keep = 1.0 - exploration
    floor = exploration / len(e)
    running = 0.0
    for a, x in enumerate(e):
        p = x * keep / total + floor
        running += p
        if running > u:
            break
    return a, p


def fixed_signals(scheme: SignalingScheme, states, u) -> list[int]:
    """The fixed sender's rule, round by round: the first signal whose running
    sum of ``scheme.conditional[w]`` exceeds ``u``, else the last."""
    out = []
    for w, x in zip(states.tolist(), u.tolist()):
        running, signal = 0.0, scheme.n_signals - 1
        for k, p in enumerate(scheme.conditional[w].tolist()):
            running += p
            if running > x:
                signal = k
                break
        out.append(signal)
    return out


def alternating_signals(states, target: int = 0) -> list[int]:
    """The alternating sender's rule, round by round: ``s1`` (index 0) exactly
    when the state equals the target, and the target then flips."""
    out = []
    for w in states.tolist():
        out.append(0 if w == target else 1)
        if w == target:
            target = 1 - target
    return out


@functools.cache
def per_round(cls):
    """A subclass of the receiver class ``cls`` that overrides nothing.

    ``simulate`` plays only the built-in receiver classes in bulk, so an
    instance of this steps through ``act`` and ``feed`` round by round.
    """
    return type(f"PerRound{cls.__name__}", (cls,), {})
