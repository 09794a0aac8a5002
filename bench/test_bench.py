"""Smoke tests for the benchmark: output schema and correctness, no timing.

    python3 -m pytest bench
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass_is_correct_and_reports_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_checks_catch_a_wrong_trajectory(tmp_path):
    """A pass whose artifacts stray from the reference is counted as failed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import workloads

    ops = workloads.build_ops("single-runs", None, workloads.SMOKE)[:1]
    results, _ = workloads.run_pass(ops, str(tmp_path))
    seen = workloads.observe(ops[0], results[0])
    reference = {ops[0].label: {"theta": (seen["theta"] + 1e-9).tolist()}}
    tally = workloads.Tally()
    workloads.check_pass(ops, results, tally, reference, {})
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "reference.theta" in tally.failures[0]


def test_exits_nonzero_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark, the run fails fast."""
    (tmp_path / "bench").mkdir()
    for name in os.listdir(BENCH):
        if os.path.isfile(os.path.join(BENCH, name)):
            with open(os.path.join(BENCH, name), "rb") as src:
                (tmp_path / "bench" / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "single-runs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
