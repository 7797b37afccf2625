"""Smoke test of the end-to-end benchmark at a small scale.

    python3 -m pytest benchmarks/e2e

Every workload runs untraced and traced through ``run.py`` exactly as the
benchmark runs it, only on shrunken episodes.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3
#: Simulated outcomes: equal seeds must give equal values.
SIM_METRICS = ("latency_p50_ms", "latency_p99_ms", "deadline_met_frac",
               "mean_accuracy")


def run(out: pathlib.Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--scale", "0.05",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((out / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return line, full


def assert_declared(line: dict, kind: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"])
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload(workload, tmp_path):
    untraced, full = run(tmp_path / "a", workload, 0)
    assert_declared(untraced, "end_to_end")
    for metric in BENCHMARK["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0

    traced, traced_full = run(tmp_path / "a", workload, 1)
    assert_declared(traced, "per_layer")
    # Wrapping the program from outside changes none of its records.
    assert traced_full["records_digest"] == full["records_digest"]
    assert (tmp_path / "a" / f"{workload}-seed{SEED}.trace.json").is_file()

    if workload != "loopback_tcp":
        again, _ = run(tmp_path / "b", workload, 0)
        for name in SIM_METRICS:
            assert again["metrics"][name] == untraced["metrics"][name]
        # Only the functional workload executes tensors.
        nn_calls = traced["metrics"]["nn.run.calls"]["value"]
        assert (nn_calls > 0) == (workload == "fig9_functional")
