"""Seeded random draws for the bound sweep: satisfying instances and scheme conditionals."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import PersuasionInstance, profile_instance

# Bounds of a ``satisfied_instance`` draw: actions, states, and draws before it gives up.
MAX_STATES = 6
MAX_ACTIONS = 5
MAX_TRIES = 10_000


def satisfied_instance(
    rng: np.random.Generator, min_mu_delta: float | None = None
) -> PersuasionInstance:
    """Instance with unique per-state optima, every action optimal somewhere.

    Each state gets an owner action whose receiver utility beats the rest of
    the column by a margin drawn from [0.35, 0.7); the first ``n`` owners are
    a permutation so no action is left without a region.  ``min_mu_delta``
    rejects draws until ``mu_min * gap`` exceeds it (needed when a bound
    sweep must keep gamma/(mu_min*gap) < 1).
    """
    for _ in range(MAX_TRIES):
        n = int(rng.integers(2, MAX_ACTIONS + 1))
        m = int(rng.integers(n, MAX_STATES + 1))
        owners = np.concatenate(
            [rng.permutation(n), rng.integers(0, n, size=m - n)]
        ).astype(int)

        v = rng.uniform(0.0, 0.3, (n, m))
        for w in range(m):
            margin = rng.uniform(0.35, 0.7)
            v[owners[w], w] = v[:, w].max() + margin

        base = 0.6 / m
        prior = base + rng.dirichlet(np.ones(m)) * (1.0 - m * base)

        inst = PersuasionInstance(
            states=tuple(f"w{k}" for k in range(m)),
            actions=tuple(f"a{k}" for k in range(n)),
            prior=prior,
            sender_utility=rng.uniform(0.0, 1.0, (n, m)),
            receiver_utility=np.clip(v, 0.0, 1.0),
        )
        prof = profile_instance(inst)
        if not prof.assumption_satisfied:
            continue
        if min_mu_delta is not None and prof.mu_min * prof.gap <= min_mu_delta:
            continue
        return inst
    raise ValidationError(f"could not sample a satisfying instance in {MAX_TRIES} tries")


def random_conditional(rng: np.random.Generator, instance: PersuasionInstance) -> np.ndarray:
    """Conditional ``(n_states, S)`` with S from 1 to n_actions + 2, each
    state's row drawn from a flat Dirichlet."""
    n_signals = int(rng.integers(1, instance.n_actions + 3))
    return rng.dirichlet(np.ones(n_signals), size=instance.n_states)
