"""Optimal signaling by linear programming over obedient direct schemes.

Variables are x(a|w), the probability of recommending action ``a`` in state
``w``.  Obedience rows require each recommendation to be a best response to
its own posterior; simplex rows make each state's recommendations a
distribution.  The optimum value is the full-commitment sender payoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPError
from .model import (
    PersuasionInstance,
    SignalingScheme,
    direct_scheme,
    expected_utility,
    obedient_strategy,
)
from .simplex import solve_standard_form


@dataclass(frozen=True, eq=False)
class ObedienceLP:
    """Standard-form data for the obedience program of one instance.

    Columns 0..n_states*n_actions-1 are x(a|w) in state-major order; the
    remaining columns are surplus variables for the obedience inequalities.
    The n_actions*(n_actions-1) obedience rows come first, then one
    distribution row per state.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray


def build_obedience_lp(instance: PersuasionInstance) -> ObedienceLP:
    m, n = instance.n_states, instance.n_actions
    mu = instance.prior
    v = instance.receiver_utility
    u = instance.sender_utility

    n_dec = m * n
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    n_ob = len(pairs)
    n_rows = n_ob + m
    A = np.zeros((n_rows, n_dec + n_ob))
    b_vec = np.zeros(n_rows)

    # obedience: sum_w mu(w) x(a|w) (v(a,w) - v(a',w)) - surplus = 0
    for r, (a, a_alt) in enumerate(pairs):
        coeff = mu * (v[a] - v[a_alt])  # (m,)
        A[r, a:n_dec:n] = coeff  # column of x(a|w) over states w
        A[r, n_dec + r] = -1.0

    # one distribution per state
    for w in range(m):
        A[n_ob + w, w * n : (w + 1) * n] = 1.0
        b_vec[n_ob + w] = 1.0

    c = np.zeros(n_dec + n_ob)
    c[:n_dec] = (mu[:, None] * u.T).reshape(-1)  # mu(w) u(a,w), state-major

    return ObedienceLP(A=A, b=b_vec, c=c)


_GHOST_TOL = 1e-9


def solve_classic(instance: PersuasionInstance) -> tuple[SignalingScheme, float]:
    """Optimal direct-revelation scheme and its sender value.

    Tiny solver negatives are clipped and rows renormalized so the returned
    conditional is a valid stochastic matrix.  Signals whose marginal is
    below 1e-9 are degenerate-vertex leftovers; their posteriors are
    meaningless noise, so the column is zeroed before renormalizing (the
    value changes by strictly less than the marginal removed).
    """
    m, n = instance.n_states, instance.n_actions
    lp = build_obedience_lp(instance)
    result = solve_standard_form(lp.A, lp.b, lp.c)
    cond = np.asarray(result.x[: m * n], dtype=np.float64).reshape(m, n)
    opt = float(result.objective)
    if float(cond.min()) < -1e-9:
        raise LPError(f"solver produced negative probability {float(cond.min()):g}")
    cond = np.clip(cond, 0.0, None)
    marginals = instance.prior @ cond
    ghost = (marginals > 0.0) & (marginals < _GHOST_TOL)
    cond[:, ghost] = 0.0
    row_sums = cond.sum(axis=1, keepdims=True)
    empty = row_sums[:, 0] <= 0.0
    if empty.any():
        # only reachable for states with (near-)zero prior mass
        cond[empty] = 1.0 / instance.n_actions
        row_sums = cond.sum(axis=1, keepdims=True)
    cond /= row_sums
    scheme = direct_scheme(instance, cond)
    value = expected_utility(instance, scheme, obedient_strategy(instance))
    if abs(value - opt) > 1e-6:
        raise LPError(
            f"cleaned scheme value {value:.12g} drifted from LP objective {opt:.12g}"
        )
    return scheme, value
