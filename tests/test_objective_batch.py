"""Oracle tests for the batched statistics, the objective core and the bound grid.

``response._stack_stats`` computes the statistics of a list of
conditionals, one kernel call per signal count, and pads narrow schemes
with unsent signals; each row must be that scheme's own ``scheme_stats``,
bit for bit.  ``response._objective_core`` scores such a stack at once.
Three properties pin it down:

* each batch row is bit-identical to ``evaluate_objective`` on that scheme
  alone, whatever else shares the batch and in whatever order;
* the value equals, bit for bit, a plain loop over the signals of one
  scheme, and agrees with a brute force that enumerates, per signal, every
  (inside action, any action) pair of the closed form's strategy family;
* ``bounds_grid`` reports, cell by cell, what ``bounds_report`` and the
  single-scheme objective report.

Instances come with optional exact receiver ties: utilities rounded to a
half-unit grid, or one action's receiver row copied onto another.  Scheme
lists mix signal counts from 1 to n_actions + 2 and include signals that are
never sent.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from persuasion_lab import (
    PersuasionInstance,
    best_response_mask,
    bounds_grid,
    bounds_report,
    evaluate_objective,
    make_scheme,
    profile_instance,
    robustify,
    scheme_stats,
    solve_classic,
)
from persuasion_lab import response, sampling
from persuasion_lab.model import RESPONSE_SLACK
from persuasion_lab.response import _knife_edges, _objective_core, _stack_stats
from persuasion_lab.sampling import random_conditional, satisfied_instance
from support import drawn_in_turn, random_instance, random_scheme

SEEDS = st.integers(0, 2**32 - 1)
GAMMAS = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)
DELTAS = st.just(0.0) | st.floats(0.0, 0.95)
MODES = st.sampled_from(["worst", "best"])


@st.composite
def tie_instances(draw, max_states=4):
    rng = np.random.default_rng(draw(SEEDS))
    base = random_instance(rng, max_states=max_states, max_actions=4)
    u = np.array(base.sender_utility)
    v = np.array(base.receiver_utility)
    if draw(st.booleans()):
        u = np.round(u * 2.0) / 2.0
        v = np.round(v * 2.0) / 2.0
    if draw(st.booleans()):
        a, b = draw(st.permutations(range(base.n_actions)))[:2]
        v[b] = v[a]
    return PersuasionInstance(base.states, base.actions, base.prior, u, v)


@st.composite
def schemes_for(draw, instance):
    n_signals = draw(st.integers(1, instance.n_actions + 2))
    rng = np.random.default_rng(draw(SEEDS))
    cond = rng.dirichlet(np.ones(n_signals), size=instance.n_states)
    unsent = draw(st.lists(st.booleans(), min_size=n_signals, max_size=n_signals))
    unsent[draw(st.integers(0, n_signals - 1))] = False
    cond[:, unsent] = 0.0
    cond /= cond.sum(axis=1, keepdims=True)
    return make_scheme(instance, tuple(f"s{k}" for k in range(n_signals)), cond)


def scheme_lists(instance, max_size=6):
    return st.lists(schemes_for(instance), min_size=1, max_size=max_size)


def per_signal_value(instance, scheme, gamma, delta, mode):
    """The closed form as a loop over signals on one scheme's statistics.

    This is the unbatched reference: the batch must reproduce it bit for
    bit, which pins the order in which signal values are summed.
    """
    stats = scheme_stats(instance, scheme)
    mask = best_response_mask(stats.receiver_values, gamma)
    sign = 1.0 if mode == "worst" else -1.0
    value = 0.0
    for s in range(scheme.n_signals):
        if stats.marginals[s] <= 0.0:
            continue
        su = stats.sender_values[s]
        inner = int(np.argmin(np.where(mask[s], sign * su, np.inf)))
        outer = int(np.argmin(sign * su))
        sig_value = (1.0 - delta) * su[inner] + delta * su[outer]
        if mask[s, outer]:
            sig_value = su[outer]
        value += stats.marginals[s] * sig_value
    return value


def brute_force_value(instance, scheme, gamma, delta, mode):
    """Extremal sender value, one signal at a time, in plain Python floats.

    Against a posterior, a strategy keeping mass 1-delta on the gamma-best
    set is extremal at a point mass inside the set or at 1-delta inside and
    delta on any action; every such candidate is enumerated.
    """
    pick = min if mode == "worst" else max
    m, n = instance.n_states, instance.n_actions
    prior = instance.prior.tolist()
    u = instance.sender_utility.tolist()
    v = instance.receiver_utility.tolist()
    total = 0.0
    for s in range(scheme.n_signals):
        joint = [prior[w] * float(scheme.conditional[w, s]) for w in range(m)]
        marginal = sum(joint)
        if marginal <= 0.0:
            continue
        post = [j / marginal for j in joint]
        rv = [sum(post[w] * v[a][w] for w in range(m)) for a in range(n)]
        sv = [sum(post[w] * u[a][w] for w in range(m)) for a in range(n)]
        cutoff = max(rv) - gamma - RESPONSE_SLACK
        # membership a rounding error away from the cutoff is not decidable
        assume(all(abs(r - cutoff) > 1e-12 for r in rv))
        inside = [a for a in range(n) if rv[a] >= cutoff]
        options = [sv[a] for a in inside]
        options += [(1.0 - delta) * sv[i] + delta * sv[o] for i in inside for o in range(n)]
        total += marginal * pick(options)
    return total


def same_bits(a, b):
    """Equal shapes and bytes: a -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_stack_rows_are_each_schemes_own_stats(data):
    # up to 12 states: past 8 terms numpy sums a contiguous axis pairwise,
    # as it does the state axis of a one-signal conditional
    inst = data.draw(tie_instances(max_states=12))
    schemes = data.draw(scheme_lists(inst, max_size=10))
    order = data.draw(st.permutations(range(len(schemes))))
    width = max(sch.n_signals for sch in schemes)
    stack = _stack_stats(inst, [sch.conditional for sch in schemes])
    n = inst.n_actions
    assert [a.shape for a in stack] == [(len(schemes), width), *[(len(schemes), width, n)] * 2]
    for row, scheme in enumerate(schemes):
        stats = scheme_stats(inst, scheme)
        S = scheme.n_signals
        for got, want in zip(stack, (stats.marginals, stats.receiver_values, stats.sender_values)):
            assert same_bits(got[row, :S], want)
            assert same_bits(got[row, S:], np.zeros_like(got[row, S:]))
    # a reordered list gives the same rows, reordered
    moved = _stack_stats(inst, [schemes[i].conditional for i in order])
    for got, want in zip(moved, stack):
        assert same_bits(got, want[list(order)])


def test_empty_stack_keeps_its_shapes(judge):
    marginals, receiver_values, sender_values = _stack_stats(judge, [])
    assert marginals.shape == (0, 1)
    assert receiver_values.shape == sender_values.shape == (0, 1, judge.n_actions)


@given(data=st.data(), gamma=GAMMAS, delta=DELTAS, mode=MODES)
@settings(max_examples=150, deadline=None)
def test_batch_rows_equal_single_evaluation(data, gamma, delta, mode):
    inst = data.draw(tie_instances())
    schemes = data.draw(scheme_lists(inst))
    order = data.draw(st.permutations(range(len(schemes))))
    singles = [evaluate_objective(inst, sch, gamma, delta, mode) for sch in schemes]
    for batch_order in (range(len(schemes)), order):
        batch = [schemes[i] for i in batch_order]
        marginals, receiver_values, sender_values = _stack_stats(
            inst, [sch.conditional for sch in batch]
        )
        mask = best_response_mask(receiver_values, gamma)
        values = _objective_core(marginals, sender_values, mask, delta, mode)[0]
        knife = _knife_edges(marginals, receiver_values, gamma)
        for row, i in enumerate(batch_order):
            assert values[row] == singles[i].value
            flagged = tuple(schemes[i].signals[s] for s in np.flatnonzero(knife[row]))
            assert flagged == singles[i].knife_edge_signals


@given(data=st.data(), gamma=GAMMAS, delta=DELTAS, mode=MODES)
@settings(max_examples=150, deadline=None)
def test_value_matches_brute_force(data, gamma, delta, mode):
    inst = data.draw(tie_instances())
    schemes = data.draw(scheme_lists(inst))
    conditionals = [sch.conditional for sch in schemes]
    marginals, receiver_values, sender_values = _stack_stats(inst, conditionals)
    mask = best_response_mask(receiver_values, gamma)
    values = _objective_core(marginals, sender_values, mask, delta, mode)[0]
    for value, scheme in zip(values, schemes):
        assert value == per_signal_value(inst, scheme, gamma, delta, mode)
        expected = brute_force_value(inst, scheme, gamma, delta, mode)
        assert value == pytest.approx(expected, abs=1e-12)


@given(seed=SEEDS, data=st.data())
@settings(max_examples=25, deadline=None)
def test_grid_cells_match_single_cell_reports(seed, data):
    rng = np.random.default_rng(seed)
    # not the monkeypatch fixture: it is function-scoped, which @given rejects
    with patch.object(sampling, "MAX_STATES", 4), patch.object(sampling, "MAX_ACTIONS", 4):
        inst = satisfied_instance(rng)
    prof = profile_instance(inst)
    limit = 0.9 * prof.mu_min * prof.gap
    gamma_values = st.just(0.0) | st.floats(0.0, limit)
    gammas = tuple(data.draw(st.lists(gamma_values, min_size=1, max_size=3)))
    deltas = tuple(data.draw(st.lists(DELTAS, min_size=1, max_size=3)))
    # the tie candidates are fed to the sampler; ``None`` keeps its own draws
    schemes = data.draw(st.none() | scheme_lists(inst))
    scheme_seed = int(rng.integers(0, 2**31 - 1))
    if schemes is None:
        draws = np.random.default_rng(scheme_seed)
        candidates, sampler = [random_scheme(draws, inst) for _ in range(6)], random_conditional
    else:
        candidates, sampler = schemes, drawn_in_turn(schemes)
    kwargs = dict(n_schemes=len(candidates), seed=scheme_seed)
    with patch.object(response, "random_conditional", sampler):
        grid = bounds_grid(inst, gammas, deltas, **kwargs)
        cells = [(g, d) for g in gammas for d in deltas]
        refs = [bounds_report(inst, gamma, delta, **kwargs) for gamma, delta in cells]

    assert len(grid) == len(cells)
    opt_scheme, _ = solve_classic(inst)
    for rep, ref, (gamma, delta) in zip(grid, refs, cells):
        assert rep.to_dict() == ref.to_dict()
        assert rep.upper_values == ref.upper_values
        cert = robustify(inst, opt_scheme, rep.alpha)
        lower = evaluate_objective(inst, cert, gamma, delta, "worst")
        uppers = [evaluate_objective(inst, c, gamma, delta, "best") for c in candidates]
        assert rep.lower_certificate == lower.value
        assert rep.upper_values == tuple(est.value for est in uppers)
        estimates = [lower, *uppers]
        assert rep.knife_edge_schemes == sum(bool(est.knife_edge_signals) for est in estimates)
