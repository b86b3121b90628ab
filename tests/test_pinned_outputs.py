"""Every benchmark workload reproduces its pinned digests at workload seed 0.

The benchmark's output gate only runs with the benchmark; replaying one pass
of each workload here makes a change that moves a single output bit fail
the test suite as well.  ``sweep`` changes its inputs with the pass index,
so its whole cycle of sweep seeds is replayed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _assert_pass_matches_pins(name, k, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, tmp_path)
    result = workload.run(inputs, k)
    pins = workloads.PINNED[name]
    assert result.ops
    for op in result.ops:
        assert op.ok, op.key
        assert op.digest == pins[op.key], op.key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_pins(name, tmp_path):
    _assert_pass_matches_pins(name, 0, tmp_path)


@pytest.mark.parametrize("k", range(1, workloads.SWEEP_CYCLE))
def test_sweep_cycle_matches_pins(k, tmp_path):
    _assert_pass_matches_pins("sweep", k, tmp_path)
