from itertools import combinations, permutations

import numpy as np
import pytest

from persuasion_lab import (
    PersuasionInstance,
    advantage,
    expected_utility,
    obedient_strategy,
    scheme_stats,
    solve_classic,
)
from persuasion_lab.classic import build_obedience_lp
from support import random_instance


def two_state_optimum(instance: PersuasionInstance) -> float:
    """Concave-envelope oracle for instances with exactly two states.

    The sender-favorable value as a function of the posterior probability of
    state 0 is piecewise linear; splitting the prior over two kink points (or
    keeping it put) attains the envelope.
    """
    assert instance.n_states == 2
    v = instance.receiver_utility
    u = instance.sender_utility
    mu0 = float(instance.prior[0])

    pts = {0.0, 1.0, mu0}
    for a, b in combinations(range(instance.n_actions), 2):
        da = v[a, 0] - v[a, 1]
        db = v[b, 0] - v[b, 1]
        if abs(da - db) < 1e-14:
            continue
        m = (v[b, 1] - v[a, 1]) / (da - db)
        if 0.0 < m < 1.0:
            pts.add(float(m))

    def tie_broken_value(m: float) -> float:
        vals = v[:, 0] * m + v[:, 1] * (1.0 - m)
        best = np.flatnonzero(vals >= vals.max() - 1e-12)
        return float((u[best, 0] * m + u[best, 1] * (1.0 - m)).max())

    best = tie_broken_value(mu0)
    for p, q in combinations(sorted(pts), 2):
        if p <= mu0 <= q and q - p > 1e-15:
            w = (mu0 - p) / (q - p)
            best = max(best, (1 - w) * tie_broken_value(p) + w * tie_broken_value(q))
    return best


def test_judge_value(judge):
    scheme, opt = solve_classic(judge)
    assert opt == pytest.approx(0.6, abs=1e-8)
    assert scheme.signals == judge.actions
    assert scheme.conditional[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert scheme.conditional[1] == pytest.approx([3 / 7, 4 / 7], abs=1e-9)


def test_example1_value(example1):
    _, opt = solve_classic(example1)
    assert opt == pytest.approx(0.5, abs=1e-8)


def test_mismatch_value(mismatch):
    _, opt = solve_classic(mismatch)
    assert opt == pytest.approx(0.5, abs=1e-8)


def test_optimum_matches_concavification_on_builtin(judge, example1, mismatch):
    for inst in (judge, example1, mismatch):
        _, opt = solve_classic(inst)
        assert opt == pytest.approx(two_state_optimum(inst), abs=1e-7)


@pytest.mark.parametrize("seed", range(50))
def test_optimum_matches_concavification_on_random_two_state(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_states=2, max_actions=5)
    _, opt = solve_classic(inst)
    assert opt == pytest.approx(two_state_optimum(inst), abs=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_optimum_dominates_plain_baselines(seed):
    rng = np.random.default_rng(100 + seed)
    inst = random_instance(rng)
    _, opt = solve_classic(inst)
    v_prior = inst.receiver_utility @ inst.prior
    best = np.flatnonzero(v_prior >= v_prior.max() - 1e-12)
    uninformative = float((inst.sender_utility[best] @ inst.prior).max())
    # full revelation: per state, receiver-best action with sender tie-break
    full = 0.0
    for w in range(inst.n_states):
        vw = inst.receiver_utility[:, w]
        cand = np.flatnonzero(vw >= vw.max() - 1e-12)
        full += inst.prior[w] * inst.sender_utility[cand, w].max()
    assert opt >= uninformative - 1e-8
    assert opt >= full - 1e-8


@pytest.mark.parametrize("seed", range(25))
def test_aligned_interests_reach_first_best(seed):
    rng = np.random.default_rng(200 + seed)
    base = random_instance(rng)
    inst = PersuasionInstance(
        states=base.states,
        actions=base.actions,
        prior=base.prior,
        sender_utility=base.receiver_utility,
        receiver_utility=base.receiver_utility,
    )
    _, opt = solve_classic(inst)
    first_best = float(inst.prior @ inst.receiver_utility.max(axis=0))
    assert opt == pytest.approx(first_best, abs=1e-7)


@pytest.mark.parametrize("seed", range(20))
def test_solution_is_obedient(seed):
    rng = np.random.default_rng(300 + seed)
    inst = random_instance(rng)
    scheme, opt = solve_classic(inst)
    marg = scheme_stats(inst, scheme).marginals
    if np.any(marg > 0):
        assert advantage(inst, scheme) >= -1e-7
    assert expected_utility(inst, scheme, obedient_strategy(inst)) == pytest.approx(
        opt, abs=1e-7
    )


def test_permutation_invariance(judge):
    base_opt = solve_classic(judge)[1]
    for s_perm in permutations(range(2)):
        for a_perm in permutations(range(2)):
            inst = PersuasionInstance(
                states=tuple(judge.states[i] for i in s_perm),
                actions=tuple(judge.actions[j] for j in a_perm),
                prior=judge.prior[list(s_perm)],
                sender_utility=judge.sender_utility[np.ix_(list(a_perm), list(s_perm))],
                receiver_utility=judge.receiver_utility[
                    np.ix_(list(a_perm), list(s_perm))
                ],
            )
            assert solve_classic(inst)[1] == pytest.approx(base_opt, abs=1e-8)


def test_constant_recommendation_is_feasible(judge, example1):
    # always recommending the receiver's best action against the prior is obedient
    for inst in (judge, example1):
        lp = build_obedience_lp(inst)
        cond = np.zeros((inst.n_states, inst.n_actions))
        cond[:, int(np.argmax(inst.receiver_utility @ inst.prior))] = 1.0
        n_ob = inst.n_actions * (inst.n_actions - 1)
        rows = lp.A[:n_ob, : cond.size] @ cond.reshape(-1)
        sums = cond.sum(axis=1) - 1.0
        assert np.all(rows >= -1e-12)
        assert np.max(np.abs(sums)) <= 1e-12


def test_lp_shapes(judge):
    lp = build_obedience_lp(judge)
    m, n = judge.n_states, judge.n_actions
    n_ob = n * (n - 1)
    assert lp.A.shape == (n_ob + m, m * n + n_ob)
    assert lp.b[:n_ob] == pytest.approx(np.zeros(n_ob))
    assert lp.b[n_ob:] == pytest.approx(np.ones(m))


def test_zero_prior_state_keeps_lp_solvable():
    inst = PersuasionInstance(
        states=("x", "y", "z"),
        actions=("l", "r"),
        prior=np.array([0.5, 0.5, 0.0]),
        sender_utility=np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.7]]),
        receiver_utility=np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.7]]),
    )
    _, opt = solve_classic(inst)
    assert opt == pytest.approx(1.0, abs=1e-8)
