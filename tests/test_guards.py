"""Every public call on an (instance, scheme) pair checks the pair first.

The callables are found by walking ``persuasion_lab.__all__``, and the
test generators that draw a strategy from a pair, for a signature with
both ``instance`` and ``scheme``; their other arguments come
from ``ARGS``, keyed by parameter name, so a new such function is covered
as soon as it is exported.  A mismatched scheme or strategy must raise a
``PersuasionError``: a returned value or any other exception fails.  The
same walk finds every callable with an ``eps_num`` tolerance, which must
reject a negative or non-finite one.  That tolerance is the instance
profile's tie tolerance, so only the profile's readers take it; response
sets take the fixed ``RESPONSE_SLACK``.
"""

import inspect
import math

import numpy as np
import pytest

import persuasion_lab
from persuasion_lab import (
    DEFAULT_EPS,
    AssumptionViolatedError,
    FixedSchemePolicy,
    NotDirectRevelationError,
    PersuasionError,
    ReceiverStrategy,
    SignalingScheme,
    ValidationError,
    advantage,
    builtin_instance,
    make_receiver,
    obedient_strategy,
    robustify,
    simulate,
    verify_robustification,
)
from support import (
    approx_responding_strategy,
    deterministic_responding_strategy,
    judge_optimal_scheme,
)

# the package's exports, and the test generators that read a pair through them
CALLABLES = {name: getattr(persuasion_lab, name) for name in persuasion_lab.__all__} | {
    fn.__name__: fn for fn in (approx_responding_strategy, deterministic_responding_strategy)
}


def _params(fn) -> tuple[str, ...]:
    return tuple(inspect.signature(fn).parameters)


def _exported_with(*params: str) -> list[str]:
    """Functions in ``CALLABLES`` whose signature has every one of ``params``."""
    return sorted(
        name
        for name, fn in CALLABLES.items()
        if not inspect.isclass(fn)
        and callable(fn)
        and set(params) <= set(_params(fn))
    )


GUARDED = _exported_with("instance", "scheme")
TOLERANT = _exported_with("eps_num")
ROBUSTIFY = [
    "choose_alpha_lower",
    "response_window",
    "robustified_optimum",
    "robustify",
    "verify_robustification",
]

# a valid value for every other parameter of a guarded callable
ARGS = {
    "alpha": 0.1,
    "constant": 0.2,
    "delta": 0.0,
    "deltas": (0.0,),
    "epsilon": 0.1,
    "eps_num": DEFAULT_EPS,
    "gamma": 0.1,
    "gammas": (0.1,),
    "lam": 2.0,
    "mode": "worst",
    "n_schemes": 2,
    "receiver_values": lambda: np.array([[[0.2, 0.8]]]),
    "rng": lambda: np.random.default_rng(0),
    # the judge's mixture at ``alpha``, for the audit of a mixture
    "robust": lambda: robustify(builtin_instance("judge"), judge_optimal_scheme(), 0.1),
    "rounds": 20,
    "schemes": None,
    "seed": 0,
    "seeds": (0,),
    "signal": 0,
    "t": 1000,
    "threads": 1,
}


def point_mass(n_signals: int, n_actions: int) -> ReceiverStrategy:
    """Every signal played as the first action: deterministic, any shape."""
    rho = np.zeros((n_signals, n_actions))
    rho[:, 0] = 1.0
    return ReceiverStrategy(rho)


def call(name, instance, scheme, strategy=None, **given):
    """``name`` on the pair; the strategy defaults to obedience, which needs a direct scheme.

    ``given`` overrides the ``ARGS`` value of a parameter.
    """
    fn = CALLABLES[name]
    given = {"instance": instance, "scheme": scheme, **given}
    kwargs = {}
    for p in _params(fn):
        if p in given:
            kwargs[p] = given[p]
        elif p == "strategy":
            kwargs[p] = obedient_strategy(instance) if strategy is None else strategy
        else:
            value = ARGS[p]
            kwargs[p] = value() if callable(value) else value
    return fn(**kwargs)


def test_all_is_the_public_surface():
    public = {
        name
        for name, value in vars(persuasion_lab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert persuasion_lab.__all__ == sorted(set(persuasion_lab.__all__))
    assert set(persuasion_lab.__all__) == public


def test_walk_finds_the_guarded_calls():
    assert {"advantage", "expected_utility", "robustify", "to_direct_revelation"} <= set(GUARDED)
    assert "empirical_conditional_utilities" in GUARDED


def test_eps_num_is_read_by_the_profile_readers_only():
    assert TOLERANT == sorted(["profile_instance", "bounds_grid", "bounds_report", *ROBUSTIFY])


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
    "name", [n for n in GUARDED if "strategy" in _params(CALLABLES[n])]
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
    # the audit takes the mixture as given, so it checks both schemes
    mixed = robustify(judge, judge_opt, 0.1)
    with pytest.raises(NotDirectRevelationError):
        verify_robustification(judge, reversed_, mixed, 0.1)
    for other in (
        SignalingScheme(judge.actions[::-1], mixed.conditional),
        SignalingScheme(("s0", "s1", "s2"), np.full((judge.n_states, 3), 1 / 3)),
    ):
        with pytest.raises(NotDirectRevelationError):
            verify_robustification(judge, judge_opt, other, 0.1)


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("n_states", [1, 3])
@pytest.mark.parametrize("kind", ["empirical-br", "exp-weights", "exp3"])
def test_simulate_rejects_fixed_scheme_for_other_states(kind, n_states, fast, judge):
    scheme = SignalingScheme(judge.actions, np.full((n_states, judge.n_actions), 0.5))
    with pytest.raises(PersuasionError):
        simulate(judge, FixedSchemePolicy(scheme), make_receiver(kind), 20, 0, fast=fast)


@pytest.mark.parametrize("name", TOLERANT)
def test_default_eps_num_is_accepted(name, judge, judge_opt):
    call(name, judge, judge_opt)


@pytest.mark.parametrize("eps_num", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", TOLERANT)
def test_bad_eps_num_raises(name, eps_num, judge, judge_opt):
    with pytest.raises(ValidationError, match="eps_num"):
        call(name, judge, judge_opt, eps_num=eps_num)


@pytest.mark.parametrize("name", ROBUSTIFY)
def test_robustify_layer_profiles_at_its_eps_num(name, judge, judge_opt):
    # judge's states both have margin 1.0, a tie at eps_num = 1.0
    call(name, judge, judge_opt, gamma=0.03)
    with pytest.raises(AssumptionViolatedError):
        call(name, judge, judge_opt, gamma=0.03, eps_num=1.0)
