"""The report gate (``tools/bench_compare.py``) on the committed reports.

Each case edits an in-memory copy of a committed ``BENCH_*.json`` and
gates it against the file itself, so no benchmark runs here.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

REPORTS = ("executor", "batch", "exits", "fleet", "resilience", "streaming")


def committed(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


@pytest.fixture
def gate(tmp_path, capsys):
    """Exit code and failure text of the gate on two in-memory reports."""

    def run(baseline: dict, candidate: dict) -> tuple[int, str]:
        paths = []
        for name, report in (("baseline", baseline), ("candidate", candidate)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(report))
            paths.append(str(path))
        code = bench_compare.main(paths)
        return code, capsys.readouterr().err

    return run


@pytest.mark.parametrize("name", REPORTS)
def test_committed_report_passes_against_itself(gate, name):
    report = committed(name)
    assert gate(report, copy.deepcopy(report)) == (0, "")


def test_every_report_kind_has_a_gate():
    kinds = {committed(name)["benchmark"] for name in REPORTS}
    assert kinds == set(bench_compare.GATES)


class TestPinnedOutcomes:
    """A moved value fails even where every claim of the candidate holds."""

    def test_streaming_model_dropped(self, gate):
        base = committed("streaming")
        cand = copy.deepcopy(base)
        del cand["results"]["mobilenet_v1"]
        code, err = gate(base, cand)
        assert code == 1
        assert "results.mobilenet_v1.pinned_point: only in the baseline" in err

    def test_streaming_decision_latency_pinned(self, gate):
        base = committed("streaming")
        cand = copy.deepcopy(base)
        cand["results"]["squeezenet"]["decisions"][0]["latency_ms"] += 0.0001
        code, err = gate(base, cand)
        assert code == 1
        assert "results.squeezenet.decisions[bandwidth_mbps=1.0].latency_ms" in err

    def test_fleet_p95_moved_and_hetero_cell_gone(self, gate):
        base = committed("fleet")
        cand = copy.deepcopy(base)
        del cand["hetero_aware_p95_ms"], cand["hetero_blind_p95_ms"]
        cand["fleet4_p95_ms"] = 400.0
        code, err = gate(base, cand)
        assert code == 1
        assert f"fleet4_p95_ms: {base['fleet4_p95_ms']!r} -> 400.0" in err
        assert "hetero_aware_p95_ms: only in the baseline" in err
        assert "claim hetero_aware_p95_ms < hetero_blind_p95_ms: no such value" in err

    def test_resilience_availability_dropped_and_scenarios_missing(self, gate):
        base = committed("resilience")
        cand = copy.deepcopy(base)
        overload = cand["results"][-1]
        was = overload["arms"]["resilient"]["availability"]
        overload["arms"]["resilient"]["availability"] = 0.9
        del cand["results"][1:3]
        code, err = gate(base, cand)
        assert code == 1
        assert (f"results[scenario={overload['scenario']}].arms.resilient."
                f"availability: {was!r} -> 0.9") in err
        assert "results[scenario=flaky_link].duration_s: only in the baseline" in err
        assert "results[scenario=server_crash].duration_s: only in the baseline" in err

    def test_exits_records_digest_moved_behind_equal_summaries(self, gate):
        base = committed("exits")
        cand = copy.deepcopy(base)
        exits_arm = next(row for row in cand["results"] if row["arm"] == "exits")
        exits_arm["records_digest"] = "0" * 64
        code, err = gate(base, cand)
        assert code == 1
        assert "results[arm=exits].records_digest" in err
        assert err.count("->") == 1

    @pytest.mark.parametrize("name, arms", [
        ("fleet", 5), ("exits", 2), ("resilience", 8), ("batch", 2)])
    def test_simulation_reports_pin_a_digest_per_arm(self, name, arms):
        digests = [value for path, value in bench_compare.flatten(committed(name)).items()
                   if path.endswith(".records_digest")]
        assert len(digests) == arms
        assert all(len(digest) == 64 for digest in digests)


class TestClaims:
    """Claims hold on the candidate alone, whatever the baseline says."""

    def test_rebaselined_fleet_tail_fails_its_claim(self, gate):
        report = committed("fleet")
        report["fleet4_p95_ms"] = report["fleet1_p95_ms"] + 1.0
        code, err = gate(report, copy.deepcopy(report))
        assert code == 1
        assert "claim fleet4_p95_ms < fleet1_p95_ms" in err

    def test_rebaselined_streaming_floor_fails_per_model(self, gate):
        report = committed("streaming")
        report["results"]["resnet18"]["min_low_bw_ratio"] = 1.2
        report["results"]["squeezenet"]["distinct_point_codec"] = [[3, "fp32"]]
        code, err = gate(report, copy.deepcopy(report))
        assert code == 1
        assert "claim results.resnet18.min_low_bw_ratio >= 1.3: 1.2 vs 1.3" in err
        assert "claim results.squeezenet.distinct_point_codec len>= 2" in err

    def test_rebaselined_batched_throughput_fails(self, gate):
        report = committed("batch")
        fleet = report["fleet"]
        fleet["batched"]["requests_per_s"] = fleet["sequential"]["requests_per_s"]
        code, err = gate(report, copy.deepcopy(report))
        assert code == 1
        assert ("claim fleet.batched.requests_per_s > "
                "fleet.sequential.requests_per_s") in err


class TestExecutor:
    """Host timings on the same host only; ratios and plans on any host."""

    @staticmethod
    def other_host(report: dict) -> dict:
        report = copy.deepcopy(report)
        report["host"] = dict(report["host"], platform="another-host")
        return report

    def test_planned_time_gated_only_on_the_same_host(self, gate):
        base = committed("executor")
        cand = copy.deepcopy(base)
        cand["results"]["SqueezeNet"]["planned_ms"] *= 1.31
        code, err = gate(base, cand)
        assert code == 1
        assert "results.SqueezeNet.planned_ms" in err
        assert gate(base, self.other_host(cand)) == (0, "")

    def test_speedup_drop_fails_on_any_host(self, gate):
        base = committed("executor")
        cand = self.other_host(base)
        cand["results"]["ResNet"]["speedup"] = round(
            base["results"]["ResNet"]["speedup"] * 0.84, 3)
        code, err = gate(base, cand)
        assert code == 1
        assert "results.ResNet.speedup" in err
        cand["results"]["ResNet"]["speedup"] = round(
            base["results"]["ResNet"]["speedup"] * 0.9, 3)
        assert gate(base, cand) == (0, "")

    def test_two_of_seven_models_pass_as_ci_runs_them(self, gate):
        base = committed("executor")
        cand = self.other_host(base)
        cand["results"] = {name: cand["results"][name]
                           for name in ("SqueezeNet", "ResNet")}
        cand["repeats"] = 3
        cand["geomean_speedup"] = 3.3
        assert gate(base, cand) == (0, "")

    def test_plan_stats_pinned(self, gate):
        base = committed("executor")
        cand = self.other_host(base)
        cand["results"]["VGG"]["plan"]["arena_bytes"] += 64
        code, err = gate(base, cand)
        assert code == 1
        assert "results.VGG.plan.arena_bytes" in err

    def test_model_missing_from_the_baseline_fails(self, gate):
        base = committed("executor")
        cand = copy.deepcopy(base)
        cand["results"]["Extra"] = cand["results"]["AlexNet"]
        code, err = gate(base, cand)
        assert code == 1
        assert "results.Extra.speedup: only in the candidate" in err


class TestBadInput:
    def test_unreadable_report(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read report"):
            bench_compare.main([str(tmp_path / "missing.json"),
                                str(ROOT / "BENCH_fleet.json")])

    def test_non_json_report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            bench_compare.main([str(ROOT / "BENCH_fleet.json"), str(path)])

    def test_report_without_benchmark_field(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[1, 2]")
        with pytest.raises(SystemExit, match="not a benchmark report"):
            bench_compare.main([str(path), str(path)])

    def test_kind_mismatch_names_both_kinds(self):
        with pytest.raises(SystemExit, match="benchmark 'exits' against a 'fleet' baseline"):
            bench_compare.main([str(ROOT / "BENCH_fleet.json"),
                                str(ROOT / "BENCH_exits.json")])

    def test_unknown_kind_names_the_kind(self, gate):
        report = {"benchmark": "mystery", "results": {}}
        with pytest.raises(SystemExit, match="no gate for benchmark 'mystery'"):
            gate(report, report)

    def test_cli_takes_two_reports_and_no_options(self):
        with pytest.raises(SystemExit):
            bench_compare.main([str(ROOT / "BENCH_executor.json"),
                                str(ROOT / "BENCH_executor.json"),
                                "--metric", "speedup"])
