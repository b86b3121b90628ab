"""Test inputs the library does not ship: unconstrained random instances,
strategies drawn from a response set, and the judge's optimal scheme."""

from pathlib import Path

import numpy as np

from persuasion_lab import (
    DEFAULT_EPS,
    PersuasionInstance,
    ReceiverStrategy,
    SignalingScheme,
    approx_set,
    builtin_instance,
    load_scheme,
    scheme_stats,
)
from persuasion_lab.model import obedience_margins


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


def approx_responding_strategy(
    rng: np.random.Generator,
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    gamma: float,
    delta: float,
    eps_num: float = DEFAULT_EPS,
) -> ReceiverStrategy:
    """A strategy keeping at least 1-delta mass inside each signal's set."""
    aset = approx_set(instance, scheme, gamma, eps_num)
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
    eps_num: float = DEFAULT_EPS,
) -> ReceiverStrategy:
    """Point mass per signal, drawn uniformly from the gamma-best set."""
    aset = approx_set(instance, scheme, gamma, eps_num)
    S, n = aset.member_mask.shape
    rho = np.zeros((S, n))
    for s in range(S):
        if aset.marginals[s] <= 0.0:
            rho[s, int(rng.integers(0, n))] = 1.0
            continue
        rho[s, int(rng.choice(np.flatnonzero(aset.member_mask[s])))] = 1.0
    return ReceiverStrategy(rho)
