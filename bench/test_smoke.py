"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload once untraced and once traced on tiny grids and checks
that each passes its correctness gate and reports exactly the metrics
BENCHMARK.json declares.  It does not time anything.
"""

import json
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == run.per_layer_spec()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_passes_at_tiny_size(workload, trace):
    result, record = run.run_workload(workload, seed=7, seconds=0.0,
                                      trace=trace, size="tiny")
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert record["digests"]


def test_seed_changes_values_not_sizes():
    a, b = run.scenario_configs(1), run.scenario_configs(2)
    for scenario in a:
        changed = {k for k in a[scenario] if a[scenario][k] != b[scenario][k]}
        assert changed == {"infinite_well": {"phase"}, "barrier": {"x0"},
                           "tunneling": {"temperature"}}[
                               a[scenario]["scenario"]]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for name in ("run.py", "child.py"):
        (copy / name).write_text((run.BENCH / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "well",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
