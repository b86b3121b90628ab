import importlib
import json

import pytest

from persuasion_lab import (
    UnknownTargetError,
    ValidationError,
    builtin_instance,
    learning,
    repro,
    reproduce,
)
from persuasion_lab.repro import TARGETS, reproduce_bounds_sweep, reproduce_judge


def spy_on(monkeypatch, module, name: str) -> list:
    """Record each call of ``module.name``, which still runs."""
    calls, original = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_targets_frozen():
    assert TARGETS == (
        "example-1",
        "judge",
        "example-4-3",
        "theorem-3-1-sweep",
        "theorem-4-1",
    )


def test_unknown_target():
    with pytest.raises(UnknownTargetError):
        reproduce("example-2")


def test_unknown_builtin_instance():
    with pytest.raises(UnknownTargetError, match="unknown instance 'nope'"):
        builtin_instance("nope")


@pytest.mark.parametrize("target", ["example-1", "judge"])
def test_fast_targets_pass_and_serialize(target):
    result = reproduce(target)
    assert result["target"] == target
    assert result["ok"] is True
    assert all(set(c) == {"name", "value", "ok", "expect"} for c in result["checks"])
    json.dumps(result)


def test_judge_profiles_once(monkeypatch):
    module = importlib.import_module("persuasion_lab.robustify")
    calls = spy_on(monkeypatch, module, "profile_instance")
    assert reproduce_judge()["ok"] is True
    assert len(calls) == 1


def test_dispatch_forwards_overrides():
    result = reproduce("example-4-3", rounds=50_000, n_seeds=3)
    assert result["config"]["rounds"] == 50_000
    assert result["config"]["seeds"] == [0, 1, 2]
    # alternation is exact at any horizon even when the value windows are not
    by_name = {c["name"]: c for c in result["checks"]}
    assert by_name["s1_state_alternation"]["ok"]


def test_bounds_sweep_small_structure():
    result = reproduce_bounds_sweep(n_instances=10, seed=3)
    assert result["ok"] is True
    names = [c["name"] for c in result["checks"]]
    assert "lower_violations" in names and "upper_violations" in names
    assert result["config"]["n_instances"] == 10
    assert result["config"]["n_schemes"] == 50


# a count or seed that is no integer (a bool is none) or is below its least value
NOT_INTEGERS = (None, True, -1, 1.5, "3")
LEARNING_TARGETS = ("theorem-4-1", "example-4-3")


@pytest.mark.parametrize(
    "overrides",
    [pytest.param({"n_instances": n}, id=str(n)) for n in (0, -3, None, True, 1.5, "3")]
    + [pytest.param({"n_instances": 1, "seed": s}, id=f"seed={s}") for s in NOT_INTEGERS],
)
def test_bounds_sweep_counts_below_one(monkeypatch, overrides):
    drawn = spy_on(monkeypatch, repro, "satisfied_instance")
    with pytest.raises(ValidationError, match="must be an integer of at least"):
        reproduce("theorem-3-1-sweep", **overrides)
    assert drawn == []


@pytest.mark.parametrize(
    "target, overrides",
    [pytest.param(t, {"n_seeds": 0}, id=t) for t in LEARNING_TARGETS]
    + [
        pytest.param(t, {name: bad}, id=f"{t}-{name}={bad}")
        for t in LEARNING_TARGETS
        for name in ("n_seeds", "base_seed")
        for bad in NOT_INTEGERS
    ],
)
def test_learning_targets_need_a_seed(monkeypatch, target, overrides):
    ran = spy_on(monkeypatch, learning, "simulate")
    solved = spy_on(monkeypatch, learning, "robustified_optimum")
    with pytest.raises(ValidationError, match="must be an integer of at least"):
        reproduce(target, rounds=100, **overrides)
    assert ran == solved == []


@pytest.mark.parametrize("count", ["rounds", "n_seeds", "threads"])
def test_example_4_3_checks_counts_before_the_lp(monkeypatch, count):
    solved = spy_on(monkeypatch, repro, "solve_classic")
    with pytest.raises(ValidationError):
        reproduce("example-4-3", **{count: 0})
    assert solved == []
