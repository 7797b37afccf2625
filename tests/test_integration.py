"""Cross-module integration and failure-injection scenarios."""

import numpy as np

from repro.core.engine import LoADPartEngine
from repro.graph.serialize import graph_from_json, graph_to_json
from repro.hardware.background import U100H, LoadSchedule
from repro.models import build_model
from repro.network.traces import ConstantTrace, RandomWalkTrace, StepTrace
from repro.runtime.system import OffloadingSystem, SystemConfig


class TestArtifactPipeline:
    """The deployment path of Fig. 3: both sides load the same model file
    and hold the same fitted predictors (the fit is in fixed order)."""

    def test_model_and_predictors_from_disk(self, tmp_path, trained_report):
        graph = build_model("squeezenet")
        (tmp_path / "model.json").write_text(graph_to_json(graph))

        # "Device" and "server" each reload the model from the artifact.
        device_graph = graph_from_json((tmp_path / "model.json").read_text())
        server_graph = graph_from_json((tmp_path / "model.json").read_text())
        m_user = trained_report.user_predictor
        m_edge = trained_report.edge_predictor

        device_engine = LoADPartEngine(device_graph, m_user, m_edge)
        server_engine = LoADPartEngine(server_graph, m_user, m_edge)
        # Both sides agree on the split for any conditions: the partition
        # point alone is enough to coordinate (the paper's protocol).
        for bw in (1e6, 8e6, 64e6):
            for k in (1.0, 20.0):
                assert device_engine.decide(bw, k=k).point == server_engine.decide(bw, k=k).point

    def test_reloaded_engine_runs_the_system(self, tmp_path, trained_report):
        graph = build_model("alexnet")
        text = graph_to_json(graph)
        engine = LoADPartEngine(graph_from_json(text),
                                trained_report.user_predictor,
                                trained_report.edge_predictor)
        system = OffloadingSystem(engine, ConstantTrace(8e6), config=SystemConfig(seed=0))
        timeline = system.run(3.0)
        assert len(timeline) > 3


class TestFailureInjection:
    def test_bandwidth_collapse_mid_run(self, squeezenet_engine):
        """Link drops from 64 Mbps to 0.5 Mbps: the system degrades to
        local inference instead of stalling on uploads."""
        trace = StepTrace([(0.0, 64e6), (20.0, 0.5e6)])
        system = OffloadingSystem(squeezenet_engine, trace, config=SystemConfig(seed=1))
        timeline = system.run(60.0)
        early = timeline.between(5.0, 20.0)
        late = timeline.between(40.0, 60.0)
        n = squeezenet_engine.num_nodes
        assert np.median(early.points) < n
        assert np.all(late.points == n)
        # Latency is bounded by local inference, not by the dead link.
        assert late.mean_latency() < 0.5

    def test_bandwidth_recovery(self, squeezenet_engine):
        trace = StepTrace([(0.0, 0.5e6), (20.0, 32e6)])
        system = OffloadingSystem(squeezenet_engine, trace, config=SystemConfig(seed=1))
        timeline = system.run(60.0)
        late = timeline.between(40.0, 60.0)
        assert np.median(late.points) < squeezenet_engine.num_nodes

    def test_permanent_saturation_converges_to_local(self, squeezenet_engine):
        system = OffloadingSystem(
            squeezenet_engine,
            ConstantTrace(8e6),
            load_schedule=LoadSchedule([(0.0, U100H)]),
            config=SystemConfig(seed=2),
        )
        timeline = system.run(60.0)
        tail = timeline.between(30.0, 60.0)
        n = squeezenet_engine.num_nodes
        assert np.all(tail.points == n)

    def test_cold_start_without_probes(self, squeezenet_engine):
        """The very first request uses the estimator's initial value and
        still succeeds (no crash, sane record)."""
        from repro.network.channel import Channel
        from repro.runtime.client import UserDevice
        from repro.runtime.server import EdgeServer

        server = EdgeServer(squeezenet_engine, seed=1)
        device = UserDevice(squeezenet_engine, server,
                            Channel(ConstantTrace(8e6)), seed=2)
        record = device.request_inference(0.0)  # no profiler_tick first
        assert record.total_s > 0
        assert record.estimated_bandwidth_bps == 8e6  # initial default

    def test_jittery_link_stays_stable(self, squeezenet_engine):
        """A noisy random-walk link never produces pathological decisions."""
        trace = RandomWalkTrace(8e6, sigma=0.5, step_s=0.5, duration_s=40.0,
                                min_bps=1e6, max_bps=64e6, seed=9)
        system = OffloadingSystem(squeezenet_engine, trace, config=SystemConfig(seed=3))
        timeline = system.run(40.0)
        # All latencies bounded by (local + margin); no runaway requests.
        assert timeline.latencies.max() < 1.0
        assert len(timeline) > 50

    def test_monitor_k_cap_prevents_blowup(self, squeezenet_engine):
        """Even absurd observed/predicted ratios leave k finite and the
        decision well-defined."""
        from repro.core.load_factor import LoadFactorMonitor

        monitor = LoadFactorMonitor(max_factor=1000.0)
        monitor.record(0.0, actual_s=1e6, predicted_s=1e-9)
        k = monitor.refresh(0.0)
        assert k == 1000.0
        decision = squeezenet_engine.decide(8e6, k=k)
        assert decision.point == squeezenet_engine.num_nodes

    def test_think_time_zero(self, squeezenet_engine):
        """Back-to-back requests with no gap still advance the clock."""
        system = OffloadingSystem(
            squeezenet_engine, ConstantTrace(8e6),
            config=SystemConfig(seed=4, think_time_s=0.0),
        )
        timeline = system.run(2.0)
        assert len(timeline) >= 2
        assert np.all(np.diff(timeline.times) > 0)
