import importlib
import json

import pytest

from persuasion_lab import UnknownTargetError, ValidationError, builtin_instance, repro, reproduce
from persuasion_lab.repro import TARGETS, reproduce_bounds_sweep, reproduce_judge


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
    original = module.profile_instance
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "profile_instance", spy)
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


@pytest.mark.parametrize("n_instances", [0, -3])
def test_bounds_sweep_counts_below_one(n_instances):
    with pytest.raises(ValidationError):
        reproduce("theorem-3-1-sweep", n_instances=n_instances)


@pytest.mark.parametrize("target", ["theorem-4-1", "example-4-3"])
def test_learning_targets_need_a_seed(target):
    with pytest.raises(ValidationError):
        reproduce(target, rounds=100, n_seeds=0)


@pytest.mark.parametrize("count", ["rounds", "n_seeds", "threads"])
def test_example_4_3_checks_counts_before_the_lp(monkeypatch, count):
    solved, original = [], repro.solve_classic

    def spy(instance):
        solved.append(instance)
        return original(instance)

    monkeypatch.setattr(repro, "solve_classic", spy)
    with pytest.raises(ValidationError):
        reproduce("example-4-3", **{count: 0})
    assert solved == []
