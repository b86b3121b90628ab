"""Core types: persuasion instances, signaling schemes, receiver strategies.

Index conventions used everywhere in this package:

* utility matrices are action-major, ``u[a, w]`` with ``a`` an action index
  and ``w`` a state index;
* scheme conditionals are state-major, ``pi[w, s]`` = P(signal s | state w);
* strategies are signal-major, ``rho[s, a]`` = P(action a | signal s).

All probability data is dense float64 and frozen after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotDirectRevelationError,
    NoMassOnApproxSetError,
    ParseError,
    ValidationError,
    ZeroProbabilitySignalError,
)

# Default tie tolerance of ``profile_instance``.
DEFAULT_EPS = 1e-9
# Float slack of every response set: an action within gamma + RESPONSE_SLACK
# of the best is a member.  Utilities lie in [0, 1], so one absolute slack
# suits every instance.
RESPONSE_SLACK = 1e-9
_SUM_TOL = 1e-12

# reason-code templates for InstanceProfile
TIE_AT_STATE = "TIE_AT_STATE({})"
ACTION_NEVER_OPTIMAL = "ACTION_NEVER_OPTIMAL({})"
ZERO_PRIOR_STATE = "ZERO_PRIOR_STATE({})"


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_ids(kind: str, ids: Sequence[str]) -> tuple[str, ...]:
    ids = tuple(str(x) for x in ids)
    if not ids:
        raise ValidationError(f"{kind} list is empty")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate {kind} identifiers: {ids}")
    return ids


def index_of(kind: str, names: tuple[str, ...], key: str | int) -> int:
    """Position of ``key`` in ``names``: an in-range integer index or a name."""
    if isinstance(key, (int, np.integer)):
        if not 0 <= int(key) < len(names):
            raise ValidationError(f"{kind} index {key} out of range")
        return int(key)
    try:
        return names.index(key)
    except ValueError:
        raise ValidationError(f"unknown {kind} {key!r}") from None


def _in_unit_interval(x: np.ndarray) -> bool:
    """True when every entry lies in [0, 1]; NaN fails every comparison."""
    return bool(np.all((x >= 0) & (x <= 1)))


def check_gamma(gamma: float) -> None:
    """Reject a negative response-set width; written so that NaN fails too."""
    if not gamma >= 0:
        raise ValidationError(f"gamma must be nonnegative, got {gamma!r}")


def check_integer(name: str, value, least: int) -> None:
    """Reject a ``value`` that is not an integer of at least ``least``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")


def check_eps_num(eps_num: float) -> None:
    """Reject a negative or non-finite tolerance; written so that NaN fails too."""
    if not 0 <= eps_num < math.inf:
        raise ValidationError(f"eps_num must be finite and at least 0, got {eps_num!r}")


def _check_rows_sum_to_one(name: str, mat: np.ndarray) -> None:
    if mat.shape[0] == 0:
        raise ValidationError(f"{name} has no rows")
    if not np.all(mat >= 0):  # written so that NaN fails too
        raise ValidationError(f"{name} has negative or NaN entries")
    sums = mat.sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > _SUM_TOL:
        raise ValidationError(
            f"{name} rows must sum to 1 within {_SUM_TOL}; worst residual {worst:g}"
        )


@dataclass(frozen=True, eq=False)
class PersuasionInstance:
    """A finite sender/receiver game with a common prior.

    ``sender_utility`` and ``receiver_utility`` have shape
    ``(n_actions, n_states)`` with entries in [0, 1].
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    prior: np.ndarray
    sender_utility: np.ndarray
    receiver_utility: np.ndarray

    def __post_init__(self):
        states = _check_ids("state", self.states)
        actions = _check_ids("action", self.actions)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        m, n = len(states), len(actions)

        prior = np.asarray(self.prior, dtype=np.float64)
        if prior.shape != (m,):
            raise DimensionMismatchError(
                f"prior has shape {prior.shape}, expected ({m},)"
            )
        if not _in_unit_interval(prior):
            raise ValidationError("prior entries must lie in [0, 1]")
        if abs(float(prior.sum()) - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"prior must sum to 1 within {_SUM_TOL}; got {float(prior.sum())!r}"
            )

        for name in ("sender_utility", "receiver_utility"):
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            if mat.shape != (n, m):
                raise DimensionMismatchError(
                    f"{name} has shape {mat.shape}, expected ({n}, {m})"
                )
            if not _in_unit_interval(mat):
                raise ValidationError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, _freeze(mat))

        object.__setattr__(self, "prior", _freeze(prior))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True, eq=False)
class SignalingScheme:
    """A map from states to distributions over signals.

    ``conditional[w, s]`` is P(signal s | state w).
    """

    signals: tuple[str, ...]
    conditional: np.ndarray

    def __post_init__(self):
        signals = _check_ids("signal", self.signals)
        object.__setattr__(self, "signals", signals)
        cond = np.asarray(self.conditional, dtype=np.float64)
        if cond.ndim != 2 or cond.shape[1] != len(signals):
            raise DimensionMismatchError(
                f"conditional has shape {cond.shape}, expected (n_states, {len(signals)})"
            )
        _check_rows_sum_to_one("scheme conditional", cond)
        object.__setattr__(self, "conditional", _freeze(cond))

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def n_states(self) -> int:
        return int(self.conditional.shape[0])

    def signal_index(self, signal: str | int) -> int:
        return index_of("signal", self.signals, signal)


@dataclass(frozen=True, eq=False)
class ReceiverStrategy:
    """Randomized response to signals: ``action_distribution[s, a]`` = P(a | s)."""

    action_distribution: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.action_distribution, dtype=np.float64)
        if rho.ndim != 2:
            raise DimensionMismatchError("action_distribution must be 2-d")
        _check_rows_sum_to_one("strategy", rho)
        object.__setattr__(self, "action_distribution", _freeze(rho))


@dataclass(frozen=True, eq=False)
class InstanceProfile:
    """Structural summary used by robustification and the utility bounds.

    ``optimal[w]`` is the index of the receiver's unique optimal action at
    state ``w``, or -1 where the best two utilities tie within the profile's
    ``eps_num``.  ``gap`` is the smallest margin between a state's best and
    second-best receiver utility (``inf`` when there is a single action).
    """

    instance: PersuasionInstance
    optimal: np.ndarray
    gap: float
    reasons: tuple[str, ...]

    def __post_init__(self):
        optimal = np.array(self.optimal, dtype=np.intp)
        optimal.setflags(write=False)
        object.__setattr__(self, "optimal", optimal)

    @property
    def assumption_satisfied(self) -> bool:
        return not self.reasons

    @property
    def mu_min(self) -> float:
        return float(self.instance.prior.min())

    @property
    def per_state_optimal(self) -> dict[str, str]:
        """State name -> optimal action name, for the states with a unique optimum."""
        inst = self.instance
        return {w: inst.actions[a] for w, a in zip(inst.states, self.optimal.tolist()) if a >= 0}

    @property
    def region_masses(self) -> np.ndarray:
        """mu(R_a) for each action a, in action order.

        R_a holds the states where a is the unique optimum; each mass is
        summed in state order.
        """
        masses = np.zeros(self.instance.n_actions)
        unique = self.optimal >= 0
        np.add.at(masses, self.optimal[unique], self.instance.prior[unique])
        return masses


def profile_instance(
    instance: PersuasionInstance, eps_num: float = DEFAULT_EPS
) -> InstanceProfile:
    """Check per-state uniqueness of the receiver optimum and related facts.

    A margin of at most ``eps_num`` counts as a tie.
    """
    check_eps_num(eps_num)
    v = instance.receiver_utility
    if instance.n_actions == 1:
        margins = np.full(instance.n_states, math.inf)
    else:
        top = np.sort(v, axis=0)
        margins = top[-1] - top[-2]
    optimal = np.where(margins > eps_num, v.argmax(axis=0), -1)

    # ties, then actions never optimal, then zero-prior states
    states, present = instance.states, set(optimal.tolist())
    reasons = [TIE_AT_STATE.format(states[w]) for w in np.flatnonzero(optimal < 0)]
    reasons += [ACTION_NEVER_OPTIMAL.format(a) for k, a in enumerate(instance.actions) if k not in present]
    reasons += [ZERO_PRIOR_STATE.format(states[w]) for w in np.flatnonzero(instance.prior <= 0.0)]
    return InstanceProfile(instance, optimal, float(margins.min()), tuple(reasons))


# ---------------------------------------------------------------------------
# how a scheme and a strategy fit an instance


def check_scheme(instance: PersuasionInstance, scheme: SignalingScheme) -> None:
    """Reject a scheme that does not cover the instance's states."""
    if scheme.n_states != instance.n_states:
        raise DimensionMismatchError(
            f"scheme covers {scheme.n_states} states, instance has {instance.n_states}"
        )


def check_direct(instance: PersuasionInstance, scheme: SignalingScheme) -> None:
    """Reject a scheme that is not direct: its signals must be the instance's actions, in order."""
    check_scheme(instance, scheme)
    if scheme.signals != instance.actions:
        raise NotDirectRevelationError(
            f"signals {scheme.signals} are not the instance's actions {instance.actions}"
        )


def check_strategy(
    instance: PersuasionInstance, scheme: SignalingScheme, strategy: ReceiverStrategy
) -> None:
    """Reject a strategy without one row per signal and one column per action."""
    check_scheme(instance, scheme)
    want = (scheme.n_signals, instance.n_actions)
    if strategy.action_distribution.shape != want:
        raise DimensionMismatchError(
            f"strategy has shape {strategy.action_distribution.shape}, expected {want}"
        )


# ---------------------------------------------------------------------------
# scheme construction helpers


def make_scheme(
    instance: PersuasionInstance,
    signals: Sequence[str],
    conditional: np.ndarray,
) -> SignalingScheme:
    """Build a scheme against ``instance``: one conditional row per state."""
    scheme = SignalingScheme(tuple(signals), conditional)
    check_scheme(instance, scheme)
    return scheme


def direct_scheme(instance: PersuasionInstance, conditional: np.ndarray) -> SignalingScheme:
    """A scheme whose signals are the instance's actions (recommendations)."""
    return make_scheme(instance, instance.actions, conditional)


def full_revelation_scheme(instance: PersuasionInstance) -> SignalingScheme:
    """One signal per state, sent deterministically."""
    return make_scheme(instance, instance.states, np.eye(instance.n_states))


def obedient_strategy(instance: PersuasionInstance) -> ReceiverStrategy:
    """Follow the recommendation: identity over the action-indexed signals."""
    return ReceiverStrategy(np.eye(instance.n_actions))


# ---------------------------------------------------------------------------
# joint distribution machinery


class SchemeStats(NamedTuple):
    """Per-signal quantities shared by most operations.

    Rows of ``posteriors`` (and values derived from them) are zero for
    signals with zero marginal; consult ``marginals`` before using them.
    """

    marginals: np.ndarray  # (S,)
    posteriors: np.ndarray  # (S, n_states)
    receiver_values: np.ndarray  # (S, n_actions)
    sender_values: np.ndarray  # (S, n_actions)


def scheme_stats(instance: PersuasionInstance, scheme: SignalingScheme) -> SchemeStats:
    check_scheme(instance, scheme)
    return _conditional_stats(instance, scheme.conditional)


def _conditional_stats(instance: PersuasionInstance, conditional: np.ndarray) -> SchemeStats:
    """``scheme_stats`` of an unchecked conditional ``(m, S)`` or stack ``(B, m, S)``.

    A stack gets a leading batch axis on every field.  numpy's matmul runs
    one product of S rows per scheme of the stack, so each scheme's values
    are those of the scheme alone, bit for bit; a product over more rows
    may round differently.
    """
    joint = instance.prior[:, None] * conditional  # (..., m, S)
    marginals = joint.sum(axis=-2)
    safe = np.where(marginals > 0.0, marginals, 1.0)
    posteriors = np.swapaxes(joint / safe[..., None, :], -1, -2)
    posteriors[marginals <= 0.0] = 0.0
    receiver_values = posteriors @ instance.receiver_utility.T
    sender_values = posteriors @ instance.sender_utility.T
    return SchemeStats(marginals, posteriors, receiver_values, sender_values)


def check_sent(signals: tuple[str, ...], marginals: np.ndarray, s: int) -> None:
    """Reject the signal at index ``s`` when its marginal is zero: it is never sent."""
    if marginals[s] <= 0.0:
        raise ZeroProbabilitySignalError(
            f"signal {signals[s]!r} has zero marginal probability", signal=signals[s]
        )


def obedience_margins(receiver_values: np.ndarray) -> np.ndarray:
    """Per signal s of a direct scheme: v(s, posterior_s) minus the best other action's value.

    ``receiver_values`` are ``scheme_stats``' receiver values.  With a single
    action there is no other, and every margin is ``+inf``.
    """
    others = np.where(np.eye(receiver_values.shape[1], dtype=bool), -np.inf, receiver_values)
    return np.diagonal(receiver_values) - others.max(axis=1)


def posterior(
    instance: PersuasionInstance, scheme: SignalingScheme, signal: str | int
) -> np.ndarray:
    """Bayes update of the prior after observing ``signal``.

    Raises ZeroProbabilitySignalError when the signal is never sent.
    """
    stats = scheme_stats(instance, scheme)
    s = scheme.signal_index(signal)
    check_sent(scheme.signals, stats.marginals, s)
    return stats.posteriors[s]


def expected_utility(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    strategy: ReceiverStrategy,
) -> float:
    """Expected utility of the sender under (scheme, strategy)."""
    check_strategy(instance, scheme, strategy)
    joint = instance.prior[:, None] * scheme.conditional  # (m, S)
    per_pair = strategy.action_distribution @ instance.sender_utility  # (S, m)
    return float(np.sum(joint * per_pair.T))


def advantage(instance: PersuasionInstance, scheme: SignalingScheme) -> float:
    """Smallest margin by which following a recommendation beats the best deviation.

    Only defined for direct-revelation schemes.  The minimum is over the
    signals with positive marginal; with a single action it is ``+inf``.
    One signal's margin is ``obedience_margins`` of ``scheme_stats``'
    receiver values at its index.
    """
    check_direct(instance, scheme)
    stats = scheme_stats(instance, scheme)
    return float(obedience_margins(stats.receiver_values)[stats.marginals > 0.0].min())


def best_response_mask(receiver_values: np.ndarray, gamma: float) -> np.ndarray:
    """Boolean mask of actions within ``gamma`` of the best, row per signal.

    ``RESPONSE_SLACK`` absorbs float error at the cutoff.  The last axis
    indexes actions; any leading axes (signals, a batch of schemes) are kept.
    """
    check_gamma(gamma)
    best = receiver_values.max(axis=-1, keepdims=True)
    return receiver_values >= best - gamma - RESPONSE_SLACK


def project_strategy(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    strategy: ReceiverStrategy,
    gamma: float,
) -> ReceiverStrategy:
    """Condition each signal's action distribution on the near-best set.

    Rows for signals that are never sent are left untouched.  Raises
    NoMassOnApproxSetError when a positive-marginal signal has no mass to
    renormalize.
    """
    check_strategy(instance, scheme, strategy)
    stats = scheme_stats(instance, scheme)
    mask = best_response_mask(stats.receiver_values, gamma)
    rho = np.array(strategy.action_distribution)
    for s in np.flatnonzero(stats.marginals > 0.0):
        mass = float(rho[s, mask[s]].sum())
        if mass <= 0.0:
            raise NoMassOnApproxSetError(
                f"strategy puts no mass on the near-best set at signal {scheme.signals[s]!r}",
                signal=scheme.signals[s],
            )
        row = np.where(mask[s], rho[s], 0.0) / mass
        rho[s] = row
    return ReceiverStrategy(rho)


# ---------------------------------------------------------------------------
# JSON serialization


def _names(key: str, value) -> tuple[str, ...]:
    """A JSON field that must be an array of strings."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ParseError(f"{key!r} must be an array of strings")
    try:
        # JSON escapes can spell a lone surrogate, which no output file can hold
        "".join(value).encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"{key!r} holds a string that is not valid Unicode") from None
    return tuple(value)


def _numbers(key: str, value) -> np.ndarray:
    """A JSON field that must be a rectangular array of numbers, as floats."""
    # one nesting level at a time, while every item is a list of one length
    level = [value]
    while level and all(isinstance(x, list) and len(x) == len(level[0]) for x in level):
        level = [y for x in level for y in x]
    if not (isinstance(value, list) and all(type(x) in (int, float) for x in level)):
        raise ParseError(f"{key!r} must be a rectangular array of numbers")
    try:
        return np.array(value, dtype=np.float64)
    except (OverflowError, ValueError) as e:  # a huge integer, or too many dimensions
        raise ParseError(f"{key!r} is not a float array: {e}") from None


def _read_document(
    text: str, kind: str, names: tuple[str, ...], arrays: tuple[str, ...]
) -> dict:
    """The fields of a JSON object: ``names`` keys as tuples of strings,
    ``arrays`` keys as float arrays; anything else raises ``ParseError``."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    missing = [k for k in names + arrays if k not in raw]
    if missing:
        raise ParseError(f"{kind} document missing keys: {missing}")
    doc = {key: _names(key, raw[key]) for key in names}
    return doc | {key: _numbers(key, raw[key]) for key in arrays}


def instance_from_json(text: str) -> PersuasionInstance:
    doc = _read_document(
        text, "instance", ("states", "actions"), ("prior", "sender_utility", "receiver_utility")
    )
    return PersuasionInstance(**doc)


def instance_to_json(instance: PersuasionInstance) -> str:
    doc = {
        "states": list(instance.states),
        "actions": list(instance.actions),
        "prior": instance.prior.tolist(),
        "sender_utility": instance.sender_utility.tolist(),
        "receiver_utility": instance.receiver_utility.tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _read_file(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def load_instance(path) -> PersuasionInstance:
    return instance_from_json(_read_file(path))


def scheme_from_json(text: str, instance: PersuasionInstance) -> SignalingScheme:
    doc = _read_document(text, "scheme", ("signals",), ("conditional",))
    return make_scheme(instance, doc["signals"], doc["conditional"])


def scheme_to_json(scheme: SignalingScheme) -> str:
    doc = {"signals": list(scheme.signals), "conditional": scheme.conditional.tolist()}
    return json.dumps(doc, indent=2, sort_keys=True)


def load_scheme(path, instance: PersuasionInstance) -> SignalingScheme:
    return scheme_from_json(_read_file(path), instance)
