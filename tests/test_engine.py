"""LoADPartEngine: prediction plumbing and decision consistency."""

import pytest

from repro.core.engine import LoADPartEngine
from repro.models import build_model


class TestConstruction:
    def test_rejects_swapped_predictors(self, trained_report):
        g = build_model("alexnet")
        with pytest.raises(ValueError):
            LoADPartEngine(g, trained_report.edge_predictor, trained_report.edge_predictor)
        with pytest.raises(ValueError):
            LoADPartEngine(g, trained_report.user_predictor, trained_report.user_predictor)

    def test_num_nodes(self, alexnet_engine):
        assert alexnet_engine.num_nodes == 27


class TestComponents:
    def test_prefix_matches_cumsum(self, alexnet_engine):
        total = 0.0
        for p in range(alexnet_engine.num_nodes + 1):
            assert alexnet_engine._prefix[p] == pytest.approx(total)
            if p < alexnet_engine.num_nodes:
                total += alexnet_engine.device_times[p]

    def test_suffix_scales_with_k(self, alexnet_engine):
        base = alexnet_engine.predicted_server_time(4, k=1.0)
        assert alexnet_engine.predicted_server_time(4, k=7.0) == pytest.approx(7 * base)

    def test_upload_time(self, alexnet_engine):
        expected = alexnet_engine.sizes[4] * 8 / 8e6
        assert alexnet_engine.predicted_upload_time(4, 8e6) == pytest.approx(expected)

    def test_upload_time_local_is_zero(self, alexnet_engine):
        assert alexnet_engine.predicted_upload_time(alexnet_engine.num_nodes, 8e6) == 0.0

    def test_point_range_checked(self, alexnet_engine):
        with pytest.raises(ValueError):
            alexnet_engine.predicted_server_time(-1)
        with pytest.raises(ValueError):
            alexnet_engine.predicted_upload_time(99, 8e6)


class TestDecisions:
    def test_decision_candidates_decompose(self, alexnet_engine):
        decision = alexnet_engine.decide(8e6, k=2.0)
        for p in (0, 4, 10, alexnet_engine.num_nodes):
            expected = sum(alexnet_engine.device_times[:p])
            expected += alexnet_engine.predicted_server_time(p, k=2.0)
            expected += alexnet_engine.predicted_upload_time(p, 8e6) if p < alexnet_engine.num_nodes else 0.0
            assert decision.candidates[p] == pytest.approx(expected)

    def test_paper_alexnet_trajectory(self, alexnet_engine):
        """Early points at high bandwidth, local at very low bandwidth."""
        high = alexnet_engine.decide(64e6).point
        low = alexnet_engine.decide(1e6).point
        assert 0 <= high <= 8
        assert low == alexnet_engine.num_nodes

    def test_paper_squeezenet_partial_at_8mbps(self, squeezenet_engine):
        point = squeezenet_engine.decide(8e6).point
        assert 0 < point < squeezenet_engine.num_nodes

    def test_squeezenet_goes_local_under_extreme_load(self, squeezenet_engine):
        point = squeezenet_engine.decide(8e6, k=2000.0).point
        assert point == squeezenet_engine.num_nodes
