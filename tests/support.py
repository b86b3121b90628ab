"""Test inputs and oracles the library does not ship: unconstrained random
instances, strategies drawn from a response set, the judge's optimal scheme,
and an exact rational check of a simplex basis."""

from fractions import Fraction
from pathlib import Path

import numpy as np

from persuasion_lab import (
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
