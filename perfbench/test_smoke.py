"""Smoke test of the benchmark itself: every workload, tiny quadrature.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced.  The untraced run must
print every end-to-end metric of BENCHMARK.json with its unit, the traced
run every per-layer metric, and the traced run's per-layer self times must
add up to the iteration wall time within the benchmark's 10 % check.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        stdout, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"], metric["name"]
            assert isinstance(printed["value"], (int, float)), metric["name"]
        if trace:
            ratio = result["metrics"]["trace.self_sum_ratio"]["value"]
            assert abs(ratio - 1.0) <= 0.10, stdout
        assert result["correct"], stdout


def test_missing_sources_fail_without_result(tmp_path):
    """Run from a copy holding only the benchmark: it must fail, printing no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "radial-poisson", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
