"""Every public call on an (instance, scheme) pair checks the pair first.

The callables are found by walking ``persuasion_lab.__all__`` for a
signature with both ``instance`` and ``scheme``; their other arguments come
from ``ARGS``, keyed by parameter name, so a new such function is covered
as soon as it is exported.  A mismatched scheme or strategy must raise a
``PersuasionError``: a returned value or any other exception fails.
"""

import inspect

import numpy as np
import pytest

import persuasion_lab
from persuasion_lab import (
    DEFAULT_EPS,
    FixedSchemePolicy,
    NotDirectRevelationError,
    PersuasionError,
    ReceiverStrategy,
    SignalingScheme,
    advantage,
    make_receiver,
    obedient_strategy,
    robustify,
    simulate,
    verify_robustification,
)


def _params(fn) -> tuple[str, ...]:
    return tuple(inspect.signature(fn).parameters)


GUARDED = sorted(
    name
    for name in persuasion_lab.__all__
    if not inspect.isclass(fn := getattr(persuasion_lab, name))
    and callable(fn)
    and {"instance", "scheme"} <= set(_params(fn))
)

# a valid value for every other parameter of a guarded callable
ARGS = {
    "alpha": 0.1,
    "delta": 0.0,
    "epsilon": 0.1,
    "eps_num": DEFAULT_EPS,
    "for_receiver": False,
    "gamma": 0.1,
    "lam": 2.0,
    "mode": "worst",
    "profile": None,
    "rng": lambda: np.random.default_rng(0),
    "seed": 0,
    "signal": 0,
    "t": 1000,
}


def point_mass(n_signals: int, n_actions: int) -> ReceiverStrategy:
    """Every signal played as the first action: deterministic, any shape."""
    rho = np.zeros((n_signals, n_actions))
    rho[:, 0] = 1.0
    return ReceiverStrategy(rho)


def call(name, instance, scheme, strategy=None):
    """``name`` on the pair; the strategy defaults to obedience, which needs a direct scheme."""
    fn = getattr(persuasion_lab, name)
    kwargs = {}
    for p in _params(fn):
        if p == "strategy":
            kwargs[p] = obedient_strategy(instance) if strategy is None else strategy
        elif p not in ("instance", "scheme"):
            value = ARGS[p]
            kwargs[p] = value() if callable(value) else value
    return fn(instance=instance, scheme=scheme, **kwargs)


def test_walk_finds_the_guarded_calls():
    assert {"advantage", "expected_utility", "robustify", "to_direct_revelation"} <= set(GUARDED)
    assert "empirical_conditional_utilities" in GUARDED


@pytest.mark.parametrize("name", GUARDED)
def test_valid_pair_is_accepted(name, judge, judge_opt):
    call(name, judge, judge_opt)


@pytest.mark.parametrize("n_states", [1, 3])
@pytest.mark.parametrize("name", GUARDED)
def test_scheme_for_other_states_raises(name, n_states, judge):
    scheme = SignalingScheme(judge.actions, np.full((n_states, judge.n_actions), 0.5))
    with pytest.raises(PersuasionError):
        call(name, judge, scheme)


@pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 1), (2, 3)])
@pytest.mark.parametrize(
    "name", [n for n in GUARDED if "strategy" in _params(getattr(persuasion_lab, n))]
)
def test_strategy_of_wrong_shape_raises(name, shape, judge, judge_opt):
    with pytest.raises(PersuasionError):
        call(name, judge, judge_opt, point_mass(*shape))


def test_directness_is_the_signal_list(judge, judge_opt):
    # built without make_scheme: the signals alone make the scheme direct
    plain = SignalingScheme(judge.actions, judge_opt.conditional)
    assert advantage(judge, plain) == advantage(judge, judge_opt)
    assert np.array_equal(
        robustify(judge, plain, 0.1).conditional, robustify(judge, judge_opt, 0.1).conditional
    )
    reversed_ = SignalingScheme(judge.actions[::-1], judge_opt.conditional)
    with pytest.raises(NotDirectRevelationError):
        advantage(judge, reversed_)
    with pytest.raises(NotDirectRevelationError):
        robustify(judge, reversed_, 0.1)
    with pytest.raises(NotDirectRevelationError):
        verify_robustification(judge, reversed_, 0.1)


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("n_states", [1, 3])
@pytest.mark.parametrize("kind", ["empirical-br", "exp-weights", "exp3"])
def test_simulate_rejects_fixed_scheme_for_other_states(kind, n_states, fast, judge):
    scheme = SignalingScheme(judge.actions, np.full((n_states, judge.n_actions), 0.5))
    with pytest.raises(PersuasionError):
        simulate(judge, FixedSchemePolicy(scheme), make_receiver(kind), 20, 0, fast=fast)
