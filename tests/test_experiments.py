"""Experiment regenerators: structure and headline claims (small scale)."""

import pytest

from repro.experiments import fig1, fig2, fig6, fig7, fig8, fig9, table1, table2, table3, table4


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1.run_fig1()

    def test_best_point_is_partial(self, result):
        n = len(result.rows) - 1
        assert 0 < result.best.point < n

    def test_beats_full_offloading_by_large_factor(self, result):
        """Paper: up to ~4x vs full offloading at 8 Mbps."""
        assert result.speedup_vs_full > 2.0

    def test_beats_local_inference(self, result):
        """Paper: ~30% better than local inference."""
        assert result.speedup_vs_local > 1.15

    def test_rows_cover_all_points(self, result):
        assert [r.point for r in result.rows] == list(range(28))

    def test_device_time_monotone_in_p(self, result):
        times = [r.device_s for r in result.rows]
        assert times == sorted(times)

    def test_server_time_decreasing_in_p(self, result):
        times = [r.server_s for r in result.rows]
        assert times == sorted(times, reverse=True)

    def test_format_runs(self, result):
        text = fig1.format_fig1(result)
        assert "maxpool" in text and "vs full offloading" in text


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run_fig2(samples=120, seed=1)

    def test_flat_below_50(self, result):
        for stats in result.stats.values():
            by_name = {s.level: s for s in stats}
            assert by_name["50%"].mean_s < 1.02 * by_name["0%"].mean_s

    def test_rising_at_high_load(self, result):
        for stats in result.stats.values():
            by_name = {s.level: s for s in stats}
            assert by_name["100%(l)"].mean_s > by_name["90%"].mean_s

    def test_100h_much_worse_than_100l(self, result):
        for model, stats in result.stats.items():
            by_name = {s.level: s for s in stats}
            assert by_name["100%(h)"].mean_s > 1.15 * by_name["100%(l)"].mean_s, model

    def test_fluctuation_grows(self, result):
        for stats in result.stats.values():
            by_name = {s.level: s for s in stats}
            assert by_name["100%(h)"].std_s > 5 * by_name["30%"].std_s

    def test_format_runs(self, result):
        assert "100%(h)" in fig2.format_fig2(result)


class TestTable1:
    def test_all_models_within_reference(self):
        result = table1.run_table1()
        assert result.all_within_reference
        assert "Conv" in table1.format_table1(result)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run_table2(samples=150, seed=2)

    def test_covers_selected_categories(self, result):
        pairs = {(r.category, r.side) for r in result.rows}
        assert ("conv", "edge") in pairs and ("matmul", "device") in pairs

    def test_flops_dominates_for_matmul(self, result):
        for row in result.rows:
            if row.category == "matmul":
                assert row.ranking[0][0] == "flops"

    def test_format_runs(self, result):
        assert "Table II" in table2.format_table2(result)


class TestTable3:
    def test_structure_and_claims(self, trained_report):
        result = table3.Table3Result(report=trained_report)
        assert result.matmul_is_most_accurate_device
        assert result.device_conv_is_worst_mape
        text = table3.format_table3(result)
        assert "paper dev MAPE" in text


class TestTable4:
    def test_specs(self):
        result = table4.run_table4()
        assert result.device.system == "Raspberry Pi 4 Model B"
        assert "Tesla T4" in result.edge.gpu
        text = table4.format_table4(result)
        assert "Raspberry Pi" in text and "GFLOP/s" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run_fig6(models=("alexnet",), segment_s=12.0, seed=1)

    def test_alexnet_trajectory(self, result):
        stats = result.per_model["alexnet"]
        n = result.num_nodes["alexnet"]
        by_bw = {}
        for s in stats:
            by_bw.setdefault(s.bandwidth_mbps, []).append(s)
        # Local at 1 Mbps, offloading at 64 Mbps.
        assert all(s.dominant_point == n for s in by_bw[1])
        assert all(s.dominant_point < n for s in by_bw[64])

    def test_latency_improves_with_bandwidth(self, result):
        stats = result.per_model["alexnet"]
        assert stats[-1].median_latency_s < stats[3].median_latency_s

    def test_format_runs(self, result):
        assert "alexnet" in fig6.format_fig6(result)


class TestFig7And8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run_policy_comparison("alexnet", bandwidths_mbps=(1, 8, 64),
                                          requests=15, seed=1)

    def test_loadpart_never_loses(self, result):
        for row in result.rows:
            assert row.loadpart_s <= 1.10 * min(row.local_s, row.full_s)

    def test_speedups_positive(self, result):
        assert result.mean_speedup_vs_full >= 1.0
        assert result.mean_speedup_vs_local >= 0.95

    def test_large_speedup_vs_full_at_low_bandwidth(self, result):
        row = result.rows[0]
        assert row.bandwidth_mbps == 1
        assert row.full_s / row.loadpart_s > 5.0

    def test_format_runs(self, result):
        assert "speedup" in fig7.format_fig7(result)
        fig8_result = fig8.run_fig8(bandwidths_mbps=(8,), requests=10, seed=1)
        assert "speedup" in fig8.format_fig8(fig8_result)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run_fig9(models=("squeezenet",), duration_s=260.0, seed=1)

    def test_loadpart_reduces_mean_latency(self, result):
        r = result.per_model["squeezenet"]
        assert r.mean_reduction > 0.03

    def test_max_window_reduction_substantial(self, result):
        """Paper: up to 32.3% for SqueezeNet."""
        r = result.per_model["squeezenet"]
        assert r.max_window_reduction > 0.15

    def test_loadpart_uses_more_points_than_baseline(self, result):
        r = result.per_model["squeezenet"]
        assert len(r.loadpart_points) > len(r.baseline_points)

    def test_series_available(self, result):
        """More than 20 of the 5 s buckets hold requests of both arms."""
        r = result.per_model["squeezenet"]
        buckets = [t for t in range(0, 260, 5)
                   if len(r.loadpart.between(t, t + 5)) and len(r.baseline.between(t, t + 5))]
        assert len(buckets) > 20

    def test_format_runs(self, result):
        assert "squeezenet" in fig9.format_fig9(result)
