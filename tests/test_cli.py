import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persuasion_lab
from persuasion_lab import (
    DEFAULT_EPS,
    PersuasionInstance,
    SimulationTrace,
    advantage,
    cli,
    full_revelation_scheme,
    instance_to_json,
    scheme_to_json,
)
from persuasion_lab.cli import _exit_code, _write_json, build_parser, main
from persuasion_lab.errors import (
    AssumptionViolatedError,
    HypothesisViolatedError,
    LPError,
    NoMassOnApproxSetError,
    ParseError,
    ValidationError,
)
from persuasion_lab.model import load_scheme


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


class TestCheckAssumptions:
    def test_judge_satisfied(self, tmp_path, capsys):
        assert run("check-assumptions", "--instance", "judge", "--output-dir", tmp_path) == 0
        out = read_json(tmp_path / "check-assumptions.json")
        assert out["satisfied"] is True
        assert out["gap"] == pytest.approx(1.0)
        assert out["mu_min"] == pytest.approx(0.3)
        assert out["per_state_optimal"] == {"guilty": "convict", "innocent": "acquit"}
        assert out["region_masses"]["convict"] == pytest.approx(0.3)
        assert "satisfied" in capsys.readouterr().out

    def test_example_1_violated_exit_2(self, tmp_path, capsys):
        assert run("check-assumptions", "--instance", "example-1", "--output-dir", tmp_path) == 2
        out = read_json(tmp_path / "check-assumptions.json")
        assert out["satisfied"] is False
        assert any("TIE_AT_STATE" in r for r in out["reasons"])

    def test_instance_from_file(self, tmp_path, judge):
        f = tmp_path / "inst.json"
        f.write_text(instance_to_json(judge))
        assert run("check-assumptions", "--instance", f, "--output-dir", tmp_path) == 0

    def test_unknown_instance_exit_1(self, tmp_path, capsys):
        assert run("check-assumptions", "--instance", "nope.json", "--output-dir", tmp_path) == 1
        assert "error[PARSE_ERROR]" in capsys.readouterr().err

    def test_report_ignores_hash_seed(self, tmp_path):
        # action a is the unique optimum at three states, so its region mass
        # sums three priors, and the order of a float sum shows in its bits
        inst = PersuasionInstance(
            states=("w0", "w1", "w2", "w3"),
            actions=("a", "b"),
            prior=np.array([0.1, 0.7, 0.2, 0.0]),
            sender_utility=np.ones((2, 4)),
            receiver_utility=np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        )
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        src = str(Path(persuasion_lab.__file__).resolve().parents[1])
        reports = []
        for hash_seed in ("0", "8"):
            out = tmp_path / hash_seed
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            subprocess.run(
                [sys.executable, "-m", "persuasion_lab.cli", "check-assumptions",
                 "--instance", str(path), "--output-dir", str(out)],
                env=env, capture_output=True, check=False,
            )
            reports.append((out / "check-assumptions.json").read_bytes())
        assert reports[0] == reports[1]


class TestSolveClassic:
    def test_judge(self, tmp_path, judge):
        assert run("solve-classic", "--instance", "judge", "--output-dir", tmp_path) == 0
        out = read_json(tmp_path / "solve-classic.json")
        assert out["opt"] == pytest.approx(0.6, abs=1e-9)
        assert out["signal_marginals"]["convict"] == pytest.approx(0.6, abs=1e-9)
        scheme = load_scheme(tmp_path / "optimal-scheme.json", judge)
        assert scheme.signals == judge.actions


class TestRobustify:
    def test_gamma_rule(self, tmp_path, judge):
        assert run(
            "robustify", "--instance", "judge", "--gamma", 0.03, "--output-dir", tmp_path
        ) == 0
        out = read_json(tmp_path / "robustify.json")
        assert out["ok"] is True
        assert out["config"]["alpha"] == pytest.approx(0.100001, abs=1e-12)
        scheme = load_scheme(tmp_path / "robustified-scheme.json", judge)
        assert scheme.conditional[1, 0] == pytest.approx((1 - 0.100001) * 3 / 7, abs=1e-12)

    def test_gamma_rule_mixes_once(self, tmp_path, monkeypatch):
        # the audit checks the mixture the command writes, and makes none of its own
        module = importlib.import_module("persuasion_lab.robustify")
        calls = []

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return spy

        mix = counted("robustify", module.robustify)
        monkeypatch.setattr(module, "robustify", mix)
        monkeypatch.setattr(cli, "robustify", mix)
        monkeypatch.setattr(
            module, "profile_instance", counted("profile_instance", module.profile_instance)
        )
        argv = ("robustify", "--instance", "judge", "--gamma", 0.03, "--output-dir", tmp_path)
        assert run(*argv) == 0
        assert calls.count("robustify") == 1
        assert calls.count("profile_instance") == 3

    def test_explicit_alpha_on_scheme_file(self, tmp_path, judge):
        run("solve-classic", "--instance", "judge", "--output-dir", tmp_path)
        code = run(
            "robustify",
            "--instance", "judge",
            "--scheme", tmp_path / "optimal-scheme.json",
            "--alpha", 0.1,
            "--output-dir", tmp_path,
        )
        assert code == 0
        out = read_json(tmp_path / "robustify.json")
        assert out["report"]["tv_distance"] == pytest.approx(0.1 * 0.3, abs=1e-12)
        mixed = load_scheme(tmp_path / "robustified-scheme.json", judge)
        assert advantage(judge, mixed) == pytest.approx(1 / 19, abs=1e-12)

    def test_missing_weight_exit_1(self, tmp_path):
        assert run("robustify", "--instance", "judge", "--output-dir", tmp_path) == 1

    def test_alpha_and_gamma_exit_1(self, tmp_path, capsys):
        argv = ("robustify", "--instance", "judge", "--alpha", 0.3, "--gamma", 0.01)
        assert run(*argv, "--output-dir", tmp_path / "out") == 1
        assert "not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hypothesis_violation_exit_2(self, tmp_path):
        code = run(
            "robustify", "--instance", "judge", "--gamma", 0.4, "--output-dir", tmp_path
        )
        assert code == 2

    def test_assumption_violation_exit_2(self, tmp_path):
        code = run(
            "robustify", "--instance", "example-1", "--gamma", 0.01, "--output-dir", tmp_path
        )
        assert code == 2


class TestEvaluate:
    @pytest.fixture()
    def scheme_file(self, tmp_path):
        run("solve-classic", "--instance", "judge", "--output-dir", tmp_path)
        return tmp_path / "optimal-scheme.json"

    def test_worst(self, tmp_path, scheme_file):
        code = run(
            "evaluate",
            "--instance", "judge",
            "--scheme", scheme_file,
            "--gamma", 0.0,
            "--mode", "worst",
            "--output-dir", tmp_path,
        )
        assert code == 0
        out = read_json(tmp_path / "evaluate.json")
        assert out["value"] == pytest.approx(0.0, abs=1e-9)
        assert out["knife_edge_signals"] == ["convict"]
        assert len(out["witness"]) == 2

    def test_obedient(self, tmp_path, scheme_file):
        run(
            "evaluate",
            "--instance", "judge",
            "--scheme", scheme_file,
            "--mode", "obedient",
            "--output-dir", tmp_path,
        )
        out = read_json(tmp_path / "evaluate.json")
        assert out["value"] == pytest.approx(0.6, abs=1e-9)

    def test_obedient_needs_a_direct_scheme(self, tmp_path, capsys, judge):
        # full revelation signals states, not actions: there is nothing to obey
        scheme_file = tmp_path / "full.json"
        scheme_file.write_text(scheme_to_json(full_revelation_scheme(judge)))
        code = run(
            "evaluate",
            "--instance", "judge",
            "--scheme", scheme_file,
            "--mode", "obedient",
            "--output-dir", tmp_path / "out",
        )
        assert code == 1
        assert "error[NOT_DIRECT_REVELATION]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_quantal(self, tmp_path, scheme_file):
        run(
            "evaluate",
            "--instance", "judge",
            "--scheme", scheme_file,
            "--mode", "quantal:10",
            "--output-dir", tmp_path,
        )
        out = read_json(tmp_path / "evaluate.json")
        assert out["lam"] == 10.0
        assert out["certificate"]["delta"] == pytest.approx(0.1)
        assert out["membership_mass"] >= 0.9

    def test_perturbed(self, tmp_path, scheme_file):
        run(
            "evaluate",
            "--instance", "judge",
            "--scheme", scheme_file,
            "--mode", "perturbed:0.1",
            "--seed", 5,
            "--output-dir", tmp_path,
        )
        out = read_json(tmp_path / "evaluate.json")
        assert out["epsilon"] == 0.1
        assert out["certificate"]["gamma"] == pytest.approx(0.2)
        assert out["membership_mass"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "mode, certificate",
        [
            # log(n lam)/lam overflows at the top of the float range, 1/lam at the bottom
            ("quantal:1e308", {"gamma": None, "delta": 1e-308}),
            ("quantal:1e-320", {"gamma": 0.0, "delta": None}),
        ],
    )
    def test_overflowed_certificate_is_null(self, tmp_path, scheme_file, mode, certificate):
        argv = ("evaluate", "--instance", "judge", "--scheme", scheme_file, "--mode", mode)
        assert run(*argv, "--output-dir", tmp_path) == 0
        assert read_json(tmp_path / "evaluate.json")["certificate"] == certificate

    @pytest.mark.parametrize("mode", ["median", "quantal:abc", "perturbed:"])
    def test_bad_mode_exit_1(self, tmp_path, scheme_file, mode):
        code = run(
            "evaluate",
            "--instance", "judge",
            "--scheme", scheme_file,
            "--mode", mode,
            "--output-dir", tmp_path,
        )
        assert code == 1

    def test_missing_scheme_file_exit_1(self, tmp_path, capsys):
        code = run(
            "evaluate",
            "--instance", "judge",
            "--scheme", tmp_path / "missing.json",
            "--mode", "worst",
            "--output-dir", tmp_path,
        )
        assert code == 1
        assert "error[PARSE_ERROR]" in capsys.readouterr().err


class TestBounds:
    def test_judge_window(self, tmp_path):
        code = run(
            "bounds", "--instance", "judge", "--gamma", 0.03, "--output-dir", tmp_path
        )
        assert code == 0
        rep = read_json(tmp_path / "bounds.json")["report"]
        assert rep["opt"] == pytest.approx(0.6, abs=1e-9)
        assert rep["slack"] == pytest.approx(0.1, abs=1e-12)
        assert rep["lower_ok"] and rep["upper_ok"]
        assert rep["n_upper_schemes"] == 50
        assert rep["max_upper_value"] <= rep["upper_bound"] + 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(
                "bounds", "--instance", "judge", "--gamma", 0.02,
                "--delta", 0.01, "--samples", 20, "--seed", 7, "--output-dir", d,
            ) == 0
        assert (a / "bounds.json").read_bytes() == (b / "bounds.json").read_bytes()

    def test_hypothesis_exit_2(self, tmp_path):
        assert run(
            "bounds", "--instance", "judge", "--gamma", 0.5, "--output-dir", tmp_path
        ) == 2


class TestSimulate:
    def test_robustified_sender(self, tmp_path):
        code = run(
            "simulate",
            "--instance", "judge",
            "--sender", "robustified:0.2",
            "--receiver", "empirical-br",
            "--rounds", 2000,
            "--seeds", 2,
            "--output-dir", tmp_path,
        )
        assert code == 0
        out = read_json(tmp_path / "simulate.json")
        assert out["config"]["alpha"] == pytest.approx(0.1)
        assert [p["seed"] for p in out["per_seed"]] == [0, 1]
        trace = (tmp_path / "trace-seed0.csv").read_text().splitlines()
        assert trace[0] == "t,state,signal,action,u,v,running_avg"
        assert len(trace) == 2001
        diag = (tmp_path / "diagnostics-seed0.csv").read_text().splitlines()
        assert diag[0].startswith("t,running_avg,obedience_frequency")
        assert len(diag) == 11

    def test_interval_past_the_horizon_writes_the_horizon(self, tmp_path):
        assert run(*SIMULATE, "--rounds", 50, "--checkpoint-every", 80, "--output-dir", tmp_path) == 0
        diag = (tmp_path / "diagnostics-seed0.csv").read_text().splitlines()
        assert len(diag) == 2 and diag[1].startswith("50,")

    def test_running_average_derived_twice_per_seed(self, tmp_path, monkeypatch):
        # once for the trace CSV, once for the checkpoints, whose last is the final average
        derived = []
        running_avg = SimulationTrace.running_avg.fget

        def spy(trace):
            derived.append(trace.seed)
            return running_avg(trace)

        monkeypatch.setattr(SimulationTrace, "running_avg", property(spy))
        argv = (*SIMULATE, "--rounds", 200, "--seeds", 2, "--output-dir", tmp_path)
        assert run(*argv) == 0
        assert sorted(derived) == [0, 0, 1, 1]
        finals = [p["final_average"] for p in read_json(tmp_path / "simulate.json")["per_seed"]]
        for seed, final in enumerate(finals):
            last = (tmp_path / f"trace-seed{seed}.csv").read_text().splitlines()[-1]
            assert repr(final) == last.rsplit(",", 1)[1]

    def test_alternating_sender(self, tmp_path):
        code = run(
            "simulate",
            "--instance", "example-4-3",
            "--sender", "alternating",
            "--receiver", "empirical-br",
            "--rounds", 500,
            "--output-dir", tmp_path,
        )
        assert code == 0
        out = read_json(tmp_path / "simulate.json")
        assert out["per_seed"][0]["obedience_last_decile"] is None

    def test_fixed_sender_from_file(self, tmp_path):
        run("solve-classic", "--instance", "judge", "--output-dir", tmp_path)
        code = run(
            "simulate",
            "--instance", "judge",
            "--sender", f"fixed:{tmp_path / 'optimal-scheme.json'}",
            "--receiver", "exp-weights",
            "--rounds", 300,
            "--output-dir", tmp_path,
        )
        assert code == 0

    def test_feedback_follows_receiver(self, tmp_path):
        code = run(
            "simulate",
            "--instance", "judge",
            "--sender", "robustified:0",
            "--receiver", "exp3",
            "--rounds", 100,
            "--output-dir", tmp_path,
        )
        assert code == 0
        config = read_json(tmp_path / "simulate.json")["config"]
        assert config["feedback"] == "partial"
        assert config["alpha"] == 0.0

    def test_unknown_receiver_exit_1(self, tmp_path):
        code = run(
            "simulate",
            "--instance", "judge",
            "--sender", "robustified:0.2",
            "--receiver", "ucb",
            "--rounds", 100,
            "--output-dir", tmp_path,
        )
        assert code == 1

    def test_bad_sender_exit_1(self, tmp_path):
        for sender in ("robustified:x", "mystery"):
            code = run(
                "simulate",
                "--instance", "judge",
                "--sender", sender,
                "--receiver", "exp-weights",
                "--rounds", 100,
                "--output-dir", tmp_path,
            )
            assert code == 1

    @pytest.mark.parametrize("receiver", ["empirical-br", "exp-weights", "exp3"])
    def test_thread_cap_from_env(self, tmp_path, monkeypatch, receiver):
        # every receiver records min(cap, seeds) threads
        monkeypatch.setenv("PERSUASION_LAB_THREADS", "8")
        code = run(
            "simulate",
            "--instance", "judge",
            "--sender", "robustified:0.2",
            "--receiver", receiver,
            "--rounds", 200,
            "--seeds", 3,
            "--output-dir", tmp_path,
        )
        assert code == 0
        assert read_json(tmp_path / "simulate.json")["config"]["threads"] == 3

    def test_wrong_instance_leaves_no_output_dir(self, tmp_path):
        # the alternating sender needs two states; its factory raises before
        # any seed runs, so no directory is made
        three = PersuasionInstance(
            ("w0", "w1", "w2"),
            ("a0", "a1"),
            np.full(3, 1 / 3),
            np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]),
            np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.8]]),
        )
        path = tmp_path / "three.json"
        path.write_text(instance_to_json(three))
        code = run(
            "simulate",
            "--instance", path,
            "--sender", "alternating",
            "--receiver", "empirical-br",
            "--rounds", 100,
            "--output-dir", tmp_path / "out",
        )
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_memory_holds_one_trace_per_thread(self, tmp_path, monkeypatch):
        # each seed's files are written as it finishes, so four seeds on one
        # thread peak no higher than one seed does
        monkeypatch.setenv("PERSUASION_LAB_THREADS", "1")

        def simulate(seeds, label):
            return run(
                "simulate",
                "--instance", "judge",
                "--sender", "robustified:0.2",
                "--receiver", "exp-weights",
                "--rounds", 50_000,
                "--seeds", seeds,
                "--output-dir", tmp_path / label,
            )

        def peak(seeds):
            tracemalloc.start()
            try:
                assert simulate(seeds, f"seeds{seeds}") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert simulate(1, "warm-up") == 0
        one, four = peak(1), peak(4)
        assert four <= 1.25 * one, (one, four)

    @pytest.mark.parametrize("raw", ["lots", "0", "-2"])
    def test_bad_thread_env_exit_1(self, raw, tmp_path, monkeypatch):
        monkeypatch.setenv("PERSUASION_LAB_THREADS", raw)
        code = run(
            "simulate",
            "--instance", "judge",
            "--sender", "robustified:0.2",
            "--receiver", "exp-weights",
            "--rounds", 100,
            "--output-dir", tmp_path,
        )
        assert code == 1


class TestReproduce:
    def test_example_1(self, tmp_path, capsys):
        assert run("reproduce", "example-1", "--output-dir", tmp_path) == 0
        out = read_json(tmp_path / "reproduce-example-1.json")
        assert out["ok"] is True
        assert "PASS" in capsys.readouterr().out

    def test_judge(self, tmp_path):
        assert run("reproduce", "judge", "--output-dir", tmp_path) == 0
        out = read_json(tmp_path / "reproduce-judge.json")
        assert all(c["ok"] for c in out["checks"])

    def test_unknown_target_exit_1(self, tmp_path, capsys):
        assert run("reproduce", "example-99", "--output-dir", tmp_path) == 1
        assert "error[UNKNOWN_TARGET]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [("judge", "--rounds", 10), ("theorem-3-1-sweep", "--rounds", 5)]
    )
    def test_override_rejected_exit_1(self, tmp_path, argv):
        assert run("reproduce", *argv, "--output-dir", tmp_path) == 1

    def test_sweep_with_small_override(self, tmp_path):
        code = run(
            "reproduce", "theorem-3-1-sweep", "--instances", 20, "--output-dir", tmp_path
        )
        assert code == 0
        out = read_json(tmp_path / "reproduce-theorem-3-1-sweep.json")
        assert out["config"]["n_instances"] == 20

    def test_seed_sets_the_first_replication(self, tmp_path):
        name = "reproduce-example-4-3.json"
        argv = ("reproduce", "example-4-3", "--rounds", 300, "--seeds", 2)
        for label, seed in [("default", ()), ("zero", ("--seed", 0)), ("seven", ("--seed", 7))]:
            run(*argv, *seed, "--output-dir", tmp_path / label)
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()
        assert read_json(tmp_path / "zero" / name)["config"]["seeds"] == [0, 1]
        assert read_json(tmp_path / "seven" / name)["config"]["seeds"] == [7, 8]

    def test_seed_sets_the_sweep_seed(self, tmp_path):
        name = "reproduce-theorem-3-1-sweep.json"
        argv = ("reproduce", "theorem-3-1-sweep", "--instances", 3)
        assert run(*argv, "--output-dir", tmp_path / "default") == 0
        assert run(*argv, "--seed", 5, "--output-dir", tmp_path / "five") == 0
        assert read_json(tmp_path / "default" / name)["config"]["seed"] == 2024
        assert read_json(tmp_path / "five" / name)["config"]["seed"] == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_example_4_3_unsent_signal_exit_3(self, tmp_path, seed):
        # one round sends one signal; the other's mean is null, its check
        # fails, and the report is still written
        code = run(
            "reproduce", "example-4-3", "--rounds", 1, "--seeds", 1, "--seed", seed,
            "--output-dir", tmp_path,
        )
        assert code == 3
        text = (tmp_path / "reproduce-example-4-3.json").read_text()
        out = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        checks = {c["name"]: c for c in out["checks"]}
        means = [checks[f"s{k}_mean_utility"] for k in (1, 2)]
        assert [c["value"] is None for c in means].count(True) == 1
        assert not any(c["ok"] for c in means if c["value"] is None)

    @pytest.mark.parametrize("target", ["judge", "example-1"])
    def test_seed_rejected_where_not_taken(self, tmp_path, capsys, target):
        assert run("reproduce", target, "--seed", 3, "--output-dir", tmp_path) == 1
        assert "does not take --seed" in capsys.readouterr().err
        assert not (tmp_path / f"reproduce-{target}.json").exists()

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (("judge", "--seed", 3), "--seed"),
            (("example-1", "--rounds", 10, "--seed", 3), "--rounds, --seed"),
            (("example-4-3", "--instances", 3), "--instances"),
            (("theorem-3-1-sweep", "--seeds", 3), "--seeds"),
            (("theorem-3-1-sweep", "--rounds", 5, "--seeds", 3), "--rounds, --seeds"),
            (("theorem-4-1", "--instances", 3, "--seed", 1), "--instances"),
        ],
    )
    def test_override_error_names_the_flag(self, tmp_path, capsys, argv, flags):
        assert run("reproduce", *argv, "--output-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert f"error[VALIDATION_ERROR]: target {argv[0]!r} does not take {flags}\n" == err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--seed", "--instances", "--seeds", "--rounds"])
    def test_unknown_target_reported_before_overrides(self, tmp_path, capsys, flag):
        assert run("reproduce", "nope", flag, 3, "--output-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[UNKNOWN_TARGET]: unknown target 'nope'; available: (")
        assert list(tmp_path.iterdir()) == []


def test_eps_num_recorded(tmp_path):
    run(
        "check-assumptions", "--instance", "judge",
        "--eps-num", 1e-7, "--output-dir", tmp_path,
    )
    assert read_json(tmp_path / "check-assumptions.json")["config"]["eps_num"] == 1e-7


SIMULATE = ("simulate", "--instance", "judge", "--sender", "robustified:0.2", "--receiver", "exp3")


@pytest.mark.parametrize(
    "argv",
    [
        ("check-assumptions", "--instance", "judge", "--seed", 7),
        ("solve-classic", "--instance", "judge", "--seed", 7),
        ("solve-classic", "--instance", "judge", "--eps-num", 0.3),
        ("robustify", "--instance", "judge", "--alpha", 0.1, "--seed", 7),
        # response sets take a fixed float slack, so no mode of evaluate reads it
        ("evaluate", "--instance", "judge", "--scheme", "s", "--mode", "worst", "--eps-num", 0.1),
        ("reproduce", "judge", "--eps-num", 0.5),
    ],
    ids=[
        "check-assumptions-seed", "solve-classic-seed", "solve-classic-eps-num",
        "robustify-seed", "evaluate-eps-num", "reproduce-eps-num",
    ],
)
def test_option_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--output-dir", tmp_path / "out")
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


EPS = {"eps_num": DEFAULT_EPS}


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (("check-assumptions", "--instance", "judge"), {"instance": "judge", **EPS}),
        (("solve-classic", "--instance", "judge"), {"instance": "judge"}),
        (
            ("robustify", "--instance", "judge"),
            {"instance": "judge", "scheme": None, "alpha": None, "gamma": None, "rule": None,
             **EPS},
        ),
        (
            ("evaluate", "--instance", "judge", "--scheme", "s", "--mode", "worst"),
            {"instance": "judge", "scheme": "s", "mode": "worst", "gamma": None, "delta": None,
             "seed": None},
        ),
        (
            ("bounds", "--instance", "judge", "--gamma", 0.1),
            {"instance": "judge", "gamma": 0.1, "delta": 0.0, "samples": 50, "seed": 0, **EPS},
        ),
        (
            (*SIMULATE, "--rounds", 10),
            {"instance": "judge", "sender": "robustified:0.2", "receiver": "exp3", "rounds": 10,
             "seeds": 1, "checkpoint_every": None, "seed": 0, "eps_num": None},
        ),
        (
            ("reproduce", "judge"),
            {"target": "judge", "seed": None, "rounds": None, "seeds": None, "instances": None},
        ),
    ],
    ids=[
        "check-assumptions", "solve-classic", "robustify", "evaluate", "bounds", "simulate",
        "reproduce",
    ],
)
def test_each_command_takes_the_options_it_reads(argv, parsed):
    # an option every run of the command reads parses to its default; one
    # that some mode or sender does not read parses to None when left out
    args = vars(build_parser().parse_args([str(a) for a in argv]))
    del args["command"], args["func"]
    assert args == {"output_dir": Path("out"), **parsed}


EVALUATE = ("evaluate", "--instance", "judge", "--scheme", "SCHEME")
FIXED = ("simulate", "--instance", "judge", "--sender", "fixed:SCHEME", "--receiver", "exp3")
ALTERNATING = ("simulate", "--instance", "judge", "--sender", "alternating", "--receiver", "exp3")


def with_scheme(argv, tmp_path, scheme):
    """``argv`` as strings, with ``SCHEME`` spelled as a file that holds ``scheme``."""
    path = tmp_path / "scheme.json"
    path.write_text(scheme_to_json(scheme))
    return [str(a).replace("SCHEME", str(path)) for a in argv]


# Each option that a run accepts without reading it, given last; a given 0
# counts as given.
UNREAD = {
    "robustify-alpha-rule": ("robustify", "--instance", "judge", "--alpha", 0.1, "--rule", "upper"),
    "worst-seed": (*EVALUATE, "--mode", "worst", "--seed", 0),
    "best-seed": (*EVALUATE, "--mode", "best", "--seed", 7),
    "obedient-gamma": (*EVALUATE, "--mode", "obedient", "--gamma", 0),
    "obedient-delta": (*EVALUATE, "--mode", "obedient", "--delta", 0.2),
    "obedient-seed": (*EVALUATE, "--mode", "obedient", "--seed", 7),
    "quantal-gamma": (*EVALUATE, "--mode", "quantal:10", "--gamma", 0.3),
    "quantal-delta": (*EVALUATE, "--mode", "quantal:10", "--delta", 0.2),
    "quantal-seed": (*EVALUATE, "--mode", "quantal:10", "--seed", 7),
    "perturbed-gamma": (*EVALUATE, "--mode", "perturbed:0.1", "--gamma", 0.3),
    "perturbed-delta": (*EVALUATE, "--mode", "perturbed:0.1", "--delta", 0),
    "fixed-eps-num": (*FIXED, "--rounds", 10, "--eps-num", 0.7),
    "alternating-eps-num": (*ALTERNATING, "--rounds", 10, "--eps-num", 0),
}


@pytest.mark.parametrize("argv", UNREAD.values(), ids=UNREAD.keys())
def test_option_a_run_does_not_read_exit_1(tmp_path, capsys, judge_opt, argv):
    argv = with_scheme(argv, tmp_path, judge_opt)
    assert run(*argv, "--output-dir", tmp_path / "out") == 1
    assert f"does not read {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the same run without the option goes through
    assert run(*argv[:-2], "--output-dir", tmp_path / "without") == 0


SIMULATE_KEYS = {
    "command", "instance", "sender", "receiver", "rounds", "seed", "seeds", "checkpoint_every",
    "feedback", "threads",
}
EVALUATE_KEYS = {"command", "instance", "scheme", "mode"}

CONFIG_KEYS = {
    "check-assumptions": (
        ("check-assumptions", "--instance", "judge"), {"command", "instance", "eps_num"}
    ),
    "solve-classic": (("solve-classic", "--instance", "judge"), {"command", "instance"}),
    "robustify-alpha": (
        ("robustify", "--instance", "judge", "--alpha", 0.1),
        {"command", "instance", "scheme", "alpha", "eps_num"},
    ),
    "robustify-gamma": (
        ("robustify", "--instance", "judge", "--gamma", 0.03),
        {"command", "instance", "scheme", "gamma", "rule", "alpha", "eps_num"},
    ),
    "evaluate-worst": ((*EVALUATE, "--mode", "worst"), EVALUATE_KEYS | {"gamma", "delta"}),
    "evaluate-best": ((*EVALUATE, "--mode", "best"), EVALUATE_KEYS | {"gamma", "delta"}),
    "evaluate-obedient": ((*EVALUATE, "--mode", "obedient"), EVALUATE_KEYS),
    "evaluate-quantal": ((*EVALUATE, "--mode", "quantal:10"), EVALUATE_KEYS),
    "evaluate-perturbed": ((*EVALUATE, "--mode", "perturbed:0.1"), EVALUATE_KEYS | {"seed"}),
    "bounds": (
        ("bounds", "--instance", "judge", "--gamma", 0.03, "--samples", 5),
        {"command", "instance", "gamma", "delta", "samples", "seed", "eps_num"},
    ),
    "simulate-robustified": ((*SIMULATE, "--rounds", 10), SIMULATE_KEYS | {"alpha", "eps_num"}),
    "simulate-fixed": ((*FIXED, "--rounds", 10), SIMULATE_KEYS),
    "simulate-alternating": ((*ALTERNATING, "--rounds", 10), SIMULATE_KEYS),
    # a target's config is its driver's, with the overrides it took
    "reproduce": (("reproduce", "example-1"), {"instance"}),
}


@pytest.mark.parametrize("argv, keys", CONFIG_KEYS.values(), ids=CONFIG_KEYS.keys())
def test_config_holds_the_values_the_run_read(tmp_path, judge_opt, argv, keys):
    argv = with_scheme(argv, tmp_path, judge_opt)
    assert run(*argv, "--output-dir", tmp_path / "out") == 0
    name = f"reproduce-{argv[1]}" if argv[0] == "reproduce" else argv[0]
    assert set(read_json(tmp_path / "out" / f"{name}.json")["config"]) == keys


# Each run that reads --eps-num, and a library call it hands the value to.
EPS_READERS = {
    "check-assumptions": (("check-assumptions", "--instance", "judge"), "profile_instance"),
    "robustify-alpha": (("robustify", "--instance", "judge", "--alpha", 0.1), "robustify"),
    "robustify-gamma": (
        ("robustify", "--instance", "judge", "--gamma", 0.03), "response_window"
    ),
    "bounds": (("bounds", "--instance", "judge", "--gamma", 0.03, "--samples", 5), "bounds_report"),
    "simulate-robustified": ((*SIMULATE, "--rounds", 10), "robustified_optimum"),
}


@pytest.mark.parametrize("argv, reader", EPS_READERS.values(), ids=EPS_READERS.keys())
def test_eps_num_zero_is_recorded_and_read(tmp_path, monkeypatch, judge_opt, argv, reader):
    # 0 is a given tolerance, not a missing one, so it must not turn into the default
    original = getattr(cli, reader)
    signature = inspect.signature(original)
    seen = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["eps_num"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, reader, spy)
    argv = with_scheme(argv, tmp_path, judge_opt)
    assert run(*argv, "--eps-num", 0, "--output-dir", tmp_path / "out") == 0
    config = read_json(tmp_path / "out" / f"{argv[0]}.json")["config"]
    assert config["eps_num"] == 0.0
    assert seen and all(eps == 0.0 for eps in seen)


# Theorem 3.1's window checks gamma, then the assumption, then the ratio;
# bounds checks its delta after the window
WINDOW_PRECEDENCE = {
    "robustify-gamma": (("robustify", "--instance", "example-1", "--gamma", -0.01), 1),
    "robustify-assumption": (("robustify", "--instance", "example-1", "--gamma", 0.01), 2),
    "bounds-hypothesis-before-delta": (
        ("bounds", "--instance", "judge", "--gamma", 0.4, "--delta", 1.5), 2
    ),
    "bounds-gamma": (("bounds", "--instance", "example-1", "--gamma", -0.01), 1),
}


@pytest.mark.parametrize("argv, code", WINDOW_PRECEDENCE.values(), ids=WINDOW_PRECEDENCE.keys())
def test_window_error_precedence(tmp_path, argv, code):
    assert run(*argv, "--output-dir", tmp_path) == code
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        (*SIMULATE, "--rounds", 0),
        (*SIMULATE, "--rounds", 100, "--seeds", 0),
        (*SIMULATE, "--rounds", 100, "--checkpoint-every", -5),
        ("bounds", "--instance", "judge", "--gamma", 0.05, "--samples", 0),
        ("reproduce", "theorem-3-1-sweep", "--instances", 0),
        ("reproduce", "theorem-4-1", "--rounds", -1),
        ("reproduce", "theorem-4-1", "--seeds", 0),
    ],
)
def test_counts_below_one_exit_1(tmp_path, capsys, argv):
    assert run(*argv, "--output-dir", tmp_path) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*EVALUATE, "--mode", "worst", "--gamma", "nan"), "--gamma must be finite"),
        ((*EVALUATE, "--mode", "worst", "--gamma", "inf"), "--gamma must be finite"),
        ((*EVALUATE, "--mode", "best", "--delta=-inf"), "--delta must be finite"),
        ((*EVALUATE, "--mode", "perturbed:inf"), "bad numeric parameter in mode"),
        ((*EVALUATE, "--mode", "quantal:nan"), "bad numeric parameter in mode"),
        (("check-assumptions", "--instance", "judge", "--eps-num", "nan"), "--eps-num must be finite"),
        (("robustify", "--instance", "judge", "--alpha", "inf"), "--alpha must be finite"),
        (("robustify", "--instance", "judge", "--gamma", "nan"), "--gamma must be finite"),
        (("bounds", "--instance", "judge", "--gamma", "inf"), "--gamma must be finite"),
        ((*SIMULATE[:4], "robustified:nan", *SIMULATE[5:], "--rounds", 10), "bad numeric parameter in sender"),
        # a negative tie tolerance would profile every tie as a unique optimum
        (("bounds", "--instance", "judge", "--gamma", 0.05, "--eps-num", "-1"), "--eps-num must be at least 0"),
        (("check-assumptions", "--instance", "example-1", "--eps-num", "-1"), "--eps-num must be at least 0"),
        # numpy's generators take no negative seed
        ((*SIMULATE, "--rounds", 10, "--seed", -1), "--seed must be at least 0"),
        ((*EVALUATE, "--mode", "perturbed:0.1", "--seed", -3), "--seed must be at least 0"),
        (("bounds", "--instance", "judge", "--gamma", 0.05, "--seed", -5), "--seed must be at least 0"),
        (("reproduce", "example-4-3", "--seed", -2), "--seed must be at least 0"),
        (("reproduce", "theorem-4-1", "--seed", -2), "--seed must be at least 0"),
        (("reproduce", "theorem-3-1-sweep", "--seed", -2), "--seed must be at least 0"),
        # 2 epsilon overflows; a NaN belief would silently pick action 0
        ((*EVALUATE, "--mode", "perturbed:1e308"), "overflows the perturbation step"),
    ],
)
def test_non_finite_numbers_exit_1(tmp_path, capsys, judge_opt, argv, message):
    argv = with_scheme(argv, tmp_path, judge_opt)
    assert run(*argv, "--output-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "error[" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("robustify", "--instance", "judge", "--gamma", 0.01),
        ("robustify", "--instance", "judge", "--alpha", 0.1),
        (*SIMULATE, "--rounds", 10),
        ("bounds", "--instance", "judge", "--gamma", 0.01, "--samples", 10),
    ],
)
def test_eps_num_reaches_the_profile(tmp_path, argv):
    # judge's gap is 1, so a tie tolerance of 1.5 leaves no state a unique
    # optimum, as check-assumptions reports
    tie = ("--eps-num", 1.5)
    assert run("check-assumptions", "--instance", "judge", *tie, "--output-dir", tmp_path) == 2
    assert run(*argv, *tie, "--output-dir", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_bounds_window_holds_at_a_wide_eps_num(tmp_path, capsys):
    # below judge's gap of 1 the tie tolerance moves no response set; when it
    # also widened them, this run certified 0.0 and exited 3
    argv = ("bounds", "--instance", "judge", "--gamma", 0.01, "--delta", 0.02, "--samples", 10)
    assert run(*argv, "--eps-num", 0.1, "--output-dir", tmp_path) == 0
    assert "certificate = 0.578199706; ok=True" in capsys.readouterr().out


def test_nan_instance_file_exit_1(tmp_path, judge):
    blob = json.loads(instance_to_json(judge))
    blob["prior"] = [float("nan"), 0.5]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(blob))
    assert run("solve-classic", "--instance", path, "--output-dir", tmp_path / "out") == 1
    assert not (tmp_path / "out").exists()


def test_reports_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path, "report.json", {"value": float("nan")})
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "doc, key, value",
    [
        ("instance", "states", "gi"),
        ("instance", "states", {"guilty": 0, "innocent": 1}),
        ("instance", "prior", ["0.3", "0.7"]),
        ("instance", "states", 5),
        ("instance", "states", ["guilty\udc80", "innocent"]),
        ("instance", "receiver_utility", [[1.0, 0.0], [0.0]]),
        ("scheme", "conditional", [[0.5, 0.5], [1.0]]),
    ],
)
def test_malformed_file_exit_1(tmp_path, capsys, judge, judge_opt, doc, key, value):
    blobs = {
        "instance": json.loads(instance_to_json(judge)),
        "scheme": json.loads(scheme_to_json(judge_opt)),
    }
    blobs[doc][key] = value
    for name, blob in blobs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
    code = run(
        "evaluate",
        "--instance", tmp_path / "instance.json",
        "--scheme", tmp_path / "scheme.json",
        "--mode", "worst",
        "--output-dir", tmp_path / "out",
    )
    assert code == 1
    assert "error[PARSE_ERROR]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Any JSON value, NaN and the infinities included (``json`` reads them back).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
MISSING = object()


def simplex_rows(n_rows, width):
    """Rows of probabilities over ``width`` entries, zeros included."""
    weights = st.lists(st.sampled_from([0, 1, 2]), min_size=width, max_size=width)
    rows = weights.map(lambda w: [x / sum(w) for x in w] if sum(w) else [1.0] + [0.0] * (width - 1))
    return st.lists(rows, min_size=n_rows, max_size=n_rows)


@st.composite
def corrupted(draw, doc):
    """``doc`` with some keys dropped or given any JSON value; or, now and then, any JSON value."""
    doc = dict(doc)
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        value = draw(st.one_of(JSON_VALUES, st.just(MISSING)))
        if value is MISSING:
            del doc[key]
        else:
            doc[key] = value
    return draw(st.one_of(st.just(doc), JSON_VALUES)) if draw(st.booleans()) else doc


@st.composite
def game_files(draw):
    """An instance and a scheme document, each well-formed or corrupted.

    The well-formed games have one to three actions, utilities in {0, 1/2,
    1} (so ties are common) and priors that may put zero on a state.
    """
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    states = [f"w{k}" for k in range(m)]
    actions = [f"a{k}" for k in range(n)]
    utility = st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m), min_size=n, max_size=n
    )
    instance = {
        "states": states,
        "actions": actions,
        "prior": draw(simplex_rows(1, m))[0],
        "sender_utility": draw(utility),
        "receiver_utility": draw(utility),
    }
    # names may hold lone surrogates, which JSON escapes can spell
    names = st.text(st.characters(exclude_categories=()), max_size=2)
    signals = draw(st.one_of(st.just(actions), st.lists(names, min_size=1, max_size=3)))
    scheme = {"signals": signals, "conditional": draw(simplex_rows(m, len(signals)))}
    return draw(corrupted(instance)), draw(corrupted(scheme))


@given(
    game_files(),
    st.sampled_from(["worst", "best", "obedient", "quantal:2", "perturbed:0.1"]),
    st.floats(0.0, 0.6),
)
@settings(max_examples=200, deadline=None)
def test_parse_path_exits_0_1_or_2(files, mode, gamma):
    # the commands read the files, or exit 1 before writing anything; only
    # worst and best read --gamma, so only they are given it
    gamma_option = ["--gamma", gamma] if mode in ("worst", "best") else []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, doc in zip(("instance.json", "scheme.json"), files):
            (tmp / name).write_text(json.dumps(doc))
        commands = [
            ["check-assumptions", "--instance", tmp / "instance.json"],
            [
                "evaluate",
                "--instance", tmp / "instance.json",
                "--scheme", tmp / "scheme.json",
                "--mode", mode,
                *gamma_option,
            ],
            [
                "simulate",
                "--instance", tmp / "instance.json",
                "--sender", f"fixed:{tmp / 'scheme.json'}",
                "--receiver", "exp-weights",
                "--rounds", 50,
            ],
            [
                "robustify",
                "--instance", tmp / "instance.json",
                "--scheme", tmp / "scheme.json",
                "--alpha", 0.1,
            ],
        ]
        for k, argv in enumerate(commands):
            out = tmp / f"out{k}"
            code = run(*argv, "--output-dir", out)
            assert code in (0, 1, 2)
            if code == 1:
                assert not out.exists()


def test_exit_code_mapping():
    assert _exit_code(ValidationError("x")) == 1
    assert _exit_code(ParseError("x")) == 1
    assert _exit_code(AssumptionViolatedError("x")) == 2
    assert _exit_code(HypothesisViolatedError("x")) == 2
    assert _exit_code(LPError("x")) == 3
    assert _exit_code(NoMassOnApproxSetError("x")) == 3


def _console_script_command():
    """The `persuasion-lab` command: the installed script when it is on the
    PATH, else the `[project.scripts]` entry point run through the wrapper
    that pip generates for it, against the imported tree."""
    exe = shutil.which("persuasion-lab")
    if exe:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["persuasion-lab"]
    module, attr = entry.split(":")
    wrapper = (
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    src = str(Path(persuasion_lab.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return [sys.executable, "-c", wrapper], env


def test_console_script_wiring(tmp_path):
    command, env = _console_script_command()
    proc = subprocess.run(
        [*command, "check-assumptions", "--instance", "judge", "--output-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "satisfied" in proc.stdout
