"""LatencyPredictor: construction, prediction semantics and fitting."""

import numpy as np
import pytest

from repro.profiling.features import profile_graph
from repro.profiling.predictor import LatencyPredictor


class TestConstruction:
    def test_bad_side(self, trained_report):
        with pytest.raises(ValueError, match="side"):
            LatencyPredictor("cloud", trained_report.user_predictor.models)

    def test_missing_category(self, trained_report):
        models = dict(trained_report.user_predictor.models)
        models.pop("conv")
        with pytest.raises(ValueError, match="missing models"):
            LatencyPredictor("device", models)


class TestPrediction:
    def test_predictions_non_negative(self, trained_report, chain_graph):
        for predictor in (trained_report.user_predictor, trained_report.edge_predictor):
            times = predictor.predict_nodes(profile_graph(chain_graph))
            assert np.all(times >= 0)

    def test_uncategorised_nodes_predict_zero(self, trained_report, fire_graph):
        profiles = profile_graph(fire_graph)
        concat = [p for p in profiles if p.op == "concat"][0]
        assert trained_report.user_predictor.predict(concat) == 0.0
        assert trained_report.edge_predictor.predict(concat) == 0.0

    def test_total_is_sum_of_nodes(self, trained_report, chain_graph):
        profiles = profile_graph(chain_graph)
        predictor = trained_report.user_predictor
        assert predictor.predict_total(profiles) == pytest.approx(
            float(predictor.predict_nodes(profiles).sum())
        )

    def test_device_predictions_exceed_edge(self, trained_report):
        """The Pi is far slower than the T4 for any real graph."""
        from repro.models import build_model

        profiles = profile_graph(build_model("alexnet"))
        device = trained_report.user_predictor.predict_total(profiles)
        edge = trained_report.edge_predictor.predict_total(profiles)
        assert device > 10 * edge


class TestFit:
    def test_fit_rejects_empty_category(self, trained_report):
        with pytest.raises(ValueError, match="no samples"):
            LatencyPredictor.fit("device", {"conv": []})
