import math

import numpy as np
import pytest

from persuasion_lab import (
    ValidationError,
    approx_membership_mass,
    direct_scheme,
    is_approx_best_responding,
    profile_instance,
)
from persuasion_lab import sampling
from persuasion_lab.sampling import flat_dirichlet, random_conditional, satisfied_instance
from support import (
    approx_responding_strategy,
    deterministic_responding_strategy,
    random_instance,
    random_scheme,
    satisfied_instance_oracle,
)


@pytest.mark.parametrize("seed", range(30))
def test_satisfied_instance_meets_assumption(seed):
    rng = np.random.default_rng(seed)
    inst = satisfied_instance(rng, min_mu_delta=0.08)
    prof = profile_instance(inst)
    assert prof.assumption_satisfied
    assert prof.gap >= 0.35 - 1e-12
    assert prof.mu_min * prof.gap > 0.08
    # every action owns at least one state
    assert set(prof.per_state_optimal.values()) == set(inst.actions)


def test_satisfied_instance_impossible_floor(monkeypatch):
    monkeypatch.setattr(sampling, "MAX_TRIES", 50)
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="in 50 tries"):
        satisfied_instance(rng, min_mu_delta=5.0)


@pytest.mark.parametrize("floor", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
def test_min_mu_delta_checked_before_any_draw(floor):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="min_mu_delta must be None or finite"):
        satisfied_instance(rng, min_mu_delta=floor)
    assert rng.bit_generator.state == state


def same_instance(a, b) -> bool:
    return (a.states, a.actions) == (b.states, b.actions) and all(
        x.tobytes() == y.tobytes()
        for x, y in (
            (a.prior, b.prior),
            (a.sender_utility, b.sender_utility),
            (a.receiver_utility, b.receiver_utility),
        )
    )


@pytest.mark.parametrize("min_mu_delta", [None, 0.0, 0.065])
def test_satisfied_instance_matches_the_per_state_oracle(min_mu_delta):
    # 0.065 is the floor the Theorem 3.1 sweep draws with
    for seed in range(250):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = satisfied_instance(ours, min_mu_delta)
        assert same_instance(got, satisfied_instance_oracle(theirs, min_mu_delta))
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("k", range(1, 13))
def test_flat_dirichlet_is_numpys_dirichlet_to_the_bit(k):
    # from 8 entries on, numpy's row sum adds pairwise, not left to right
    for seed in range(150):
        for rows in range(1, 7):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = flat_dirichlet(ours, rows, k)
            assert got.tobytes() == theirs.dirichlet(np.ones(k), size=rows).tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("max_actions", [2, 5, 9])
def test_random_conditional_draws_numpys_dirichlet(max_actions):
    for seed in range(100):
        inst = random_instance(np.random.default_rng(seed), max_actions=max_actions)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_conditional(ours, inst)
        k = int(theirs.integers(1, inst.n_actions + 3))
        want = theirs.dirichlet(np.ones(k), size=inst.n_states)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_random_instance_shapes(rng):
    for _ in range(20):
        inst = random_instance(rng)
        assert 2 <= inst.n_states <= 6
        assert 2 <= inst.n_actions <= 5
        assert inst.prior.sum() == pytest.approx(1.0, abs=1e-12)


def test_scheme_rows_are_distributions(rng):
    for _ in range(20):
        inst = random_instance(rng)
        scheme = random_scheme(rng, inst)
        direct = direct_scheme(inst, rng.dirichlet(np.ones(inst.n_actions), size=inst.n_states))
        for drawn in (scheme, direct):
            assert drawn.conditional.shape[0] == inst.n_states
            assert np.allclose(drawn.conditional.sum(axis=1), 1.0, atol=1e-9)
        assert direct.signals == inst.actions


@pytest.mark.parametrize("seed", range(15))
def test_approx_responding_strategy_is_member(seed):
    rng = np.random.default_rng(100 + seed)
    inst = random_instance(rng)
    scheme = random_scheme(rng, inst)
    gamma = float(rng.uniform(0, 0.3))
    delta = float(rng.uniform(0, 0.3))
    strat = approx_responding_strategy(rng, inst, scheme, gamma, delta)
    assert is_approx_best_responding(inst, scheme, strat, gamma, delta)


@pytest.mark.parametrize("seed", range(15))
def test_deterministic_strategy_point_masses_in_set(seed):
    rng = np.random.default_rng(200 + seed)
    inst = random_instance(rng)
    scheme = random_scheme(rng, inst)
    gamma = float(rng.uniform(0, 0.3))
    strat = deterministic_responding_strategy(rng, inst, scheme, gamma)
    rows = strat.action_distribution
    assert np.all(np.isin(rows, (0.0, 1.0)))
    assert np.allclose(rows.sum(axis=1), 1.0)
    assert approx_membership_mass(inst, scheme, strat, gamma) == pytest.approx(1.0)
