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
from persuasion_lab.sampling import satisfied_instance
from support import (
    approx_responding_strategy,
    deterministic_responding_strategy,
    random_instance,
    random_scheme,
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
