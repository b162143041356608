"""Smoke test of the benchmark: each workload at a tiny size.

Checks that every metric BENCHMARK.json names is printed with its unit
and that the correctness checks ran. It makes no timing assertions.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

CHECKS = {
    "verify_honest": {"L_within_cap_distinct", "accept_ok_wilson"},
    "wire_replay": {"L_within_cap_distinct", "wire_roundtrip", "replay_match",
                    "dump_roundtrip"},
    "experiment_mix": {"L_within_cap_distinct", "trial_records", "wrong_accept_wilson",
                       "learn_ok_wilson"},
}
REPORTED = {
    "verify_honest": {"op_p95_ms", "failed_frac", "accept_ok_frac"},
    "wire_replay": {"op_p95_ms", "failed_frac"},
    "experiment_mix": {"op_p95_ms", "failed_frac", "wrong_accept_frac", "learn_ok_frac"},
}


def test_declared_workloads_and_metrics_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_prints_every_metric_and_runs_its_checks(workload, trace, tmp_path):
    probes = 1 if workload == "verify_honest" and not trace else 0
    report, result = run.run(workload, 3, 0.0, trace, workdir=tmp_path / "work",
                             t0=time.perf_counter(), probes=probes, trials=1,
                             trace_out=tmp_path / "spans.jsonl")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), m["name"]
    assert CHECKS[workload] <= set(report["checks"])
    assert all(c["ran"] > 0 and c["failed"] == 0 for c in report["checks"].values())
    assert REPORTED[workload] <= set(report["metrics"])
    assert report["provenance"]["threads"] <= report["provenance"]["nproc"]
    if trace:
        assert report["input_properties"]
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert {"name", "start", "end", "parent", "op", "thread"} <= set(json.loads(spans[0]))


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "verify_honest", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
