"""Multi-client fleet extension: shared server, endogenous load."""

import pytest

from repro.runtime.multi import (
    EndogenousLoad,
    MultiClientSystem,
    SharedLoadTracker,
)
from repro.runtime.system import SystemConfig


class TestSharedLoadTracker:
    def test_empty_is_idle(self):
        assert SharedLoadTracker().utilization(0.0) == 0.0

    def test_utilization_is_busy_over_window(self):
        t = SharedLoadTracker(window_s=2.0)
        t.record(0.0, 0.5)
        t.record(1.0, 0.5)
        assert t.utilization(1.0) == pytest.approx(0.5)

    def test_old_records_evicted(self):
        t = SharedLoadTracker(window_s=1.0)
        t.record(0.0, 1.0)
        assert t.utilization(5.0) == 0.0

    def test_capped_at_one(self):
        t = SharedLoadTracker(window_s=1.0)
        t.record(0.0, 10.0)
        assert t.utilization(0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedLoadTracker(window_s=0.0)
        with pytest.raises(ValueError):
            SharedLoadTracker().record(0.0, -1.0)


class TestEndogenousLoad:
    def test_idle_level(self):
        load = EndogenousLoad(SharedLoadTracker())
        level = load.level_at(0.0)
        assert level.utilization == 0.0
        assert level.initial_wait_s == 0.0

    def test_contention_grows_with_utilization(self):
        tracker = SharedLoadTracker(window_s=1.0)
        load = EndogenousLoad(tracker)
        idle = load.level_at(0.0)
        tracker.record(0.0, 0.5)
        half = load.level_at(0.0)
        tracker.record(0.0, 0.5)
        full = load.level_at(0.0)
        assert idle.wait_mean_s < half.wait_mean_s < full.wait_mean_s
        assert idle.contend_prob < half.contend_prob < full.contend_prob

    def test_waits_diverge_near_saturation(self):
        tracker = SharedLoadTracker(window_s=1.0)
        load = EndogenousLoad(tracker)
        tracker.record(0.0, 0.5)
        at_half = load.level_at(0.0).wait_mean_s
        tracker.record(0.0, 0.5)
        at_full = load.level_at(0.0).wait_mean_s
        assert at_full > 4 * at_half


class TestMultiClientSystem:
    @pytest.fixture(scope="class")
    def engine(self, trained_report):
        from repro.core.engine import LoADPartEngine
        from repro.models import build_model

        return LoADPartEngine(
            build_model("resnet50"),
            trained_report.user_predictor,
            trained_report.edge_predictor,
        )

    def test_requires_clients(self, engine):
        with pytest.raises(ValueError):
            MultiClientSystem(engine, 0)

    def test_single_client_matches_offloading(self, engine):
        system = MultiClientSystem(engine, 1, config=SystemConfig(seed=1))
        result = system.run(5.0)
        assert len(result.timelines) == 1
        assert len(result) > 3

    def test_server_load_is_endogenous(self, engine):
        system = MultiClientSystem(engine, 24,
                                   config=SystemConfig(policy="full", seed=1))
        system.run(8.0)
        # A fleet of always-offload clients must visibly load the GPU.
        assert system.tracker.utilization(8.0) > 0.3

    def test_loadpart_fleet_self_stabilises(self, engine):
        """The headline: load-aware clients retreat to local under
        contention; load-oblivious clients pile onto the saturated GPU."""
        results = {}
        for policy in ("loadpart", "neurosurgeon"):
            system = MultiClientSystem(engine, 24,
                                       config=SystemConfig(policy=policy, seed=2))
            results[policy] = system.run(25.0)
        assert results["loadpart"].local_fraction() > 0.15
        assert results["neurosurgeon"].local_fraction() == 0.0
        assert results["loadpart"].mean_latency() < results["neurosurgeon"].mean_latency()

    def test_fleet_throughput_improves(self, engine):
        results = {}
        for policy in ("loadpart", "neurosurgeon"):
            system = MultiClientSystem(engine, 24,
                                       config=SystemConfig(policy=policy, seed=2))
            results[policy] = system.run(25.0)
        assert len(results["loadpart"]) > len(results["neurosurgeon"])

    def test_records_interleave_in_time(self, engine):
        system = MultiClientSystem(engine, 4, config=SystemConfig(seed=3))
        result = system.run(5.0)
        all_starts = sorted(r.start_s for r in result)
        per_client_last = [t.records[-1].start_s for t in result.timelines]
        # Every client kept issuing until near the horizon.
        assert min(per_client_last) > 0.5 * max(all_starts)


class TestMultiFunctional:
    def test_functional_fleet_matches_simulation_records(self, squeezenet_engine):
        sim = MultiClientSystem(squeezenet_engine, 2,
                                config=SystemConfig(seed=4)).run(0.2)
        system = MultiClientSystem(
            squeezenet_engine, 2,
            config=SystemConfig(seed=4, functional=True, backend="planned"),
        )
        fn = system.run(0.2)
        assert [t.records for t in sim.timelines] == [t.records for t in fn.timelines]
        assert all(c.last_output is not None for c in system.clients)


def _record(server_id=None, total=0.1, status="ok", start=0.0):
    from repro.runtime.messages import InferenceRecord

    return InferenceRecord(
        request_id=1, start_s=start, partition_point=3,
        estimated_bandwidth_bps=8e6, k_used=1.0, device_s=0.01,
        upload_s=0.0 if server_id is None else 0.02,
        server_s=0.0 if server_id is None else 0.05,
        download_s=0.0, overhead_s=0.0, total_s=total,
        load_level="idle", device_cache_hit=True, server_cache_hit=True,
        status=status, server_id=server_id,
    )


class TestServerBreakdown:
    """Per-server views of a fleet run, as ``for_server`` builds them."""

    def test_every_server_gets_a_row(self):
        from repro.runtime.system import Timeline

        result = Timeline([_record(server_id=0), _record()])
        assert [len(result.for_server(s)) for s in range(3)] == [1, 0, 0]

    def test_idle_server_is_nan_safe(self):
        import math

        from repro.runtime.system import Timeline

        s = Timeline([_record(server_id=0)]).for_server(2)
        assert len(s) == 0
        assert math.isnan(s.availability())
        assert math.isnan(s.completed.mean_latency())
        assert math.isnan(s.completed.percentile_latency(95))

    def test_all_failed_server_is_nan_safe(self):
        import math

        from repro.runtime.system import Timeline

        s = Timeline([_record(server_id=0, total=float("inf"), status="failed")]
                     ).for_server(0)
        assert len(s) == 1
        assert len(s.completed) == 0
        assert s.availability() == 0.0
        assert math.isnan(s.completed.mean_latency())
        assert math.isnan(s.completed.percentile_latency(95))

    def test_status_counters(self):
        from repro.runtime.system import Timeline

        s = Timeline([
            _record(server_id=0),
            _record(server_id=0, status="rejected"),
            _record(server_id=0, status="fallback_local"),
            _record(server_id=0, total=float("inf"), status="failed"),
        ]).for_server(0)
        assert s.fallback_rate() == 0.5
        assert s.availability() == 0.75

    def test_local_requests_counted_separately(self):
        from repro.runtime.system import Timeline

        result = Timeline([_record(), _record(server_id=1)])
        assert len(result.for_server(None)) == 1
        assert result.local_fraction() == 0.5


class TestFleetPercentiles:
    def test_p95_with_stalled_requests_is_inf(self):
        from repro.runtime.system import Timeline

        result = Timeline([_record(total=0.1), _record(total=0.2)],
                          [_record(total=float("inf"))])
        # np.percentile interpolates inf - inf = nan between the stalls.
        assert result.percentile_latency(95) == float("inf")

    def test_finite_p95_is_numpy_exactly(self):
        import numpy as np

        from repro.runtime.system import Timeline

        totals = [0.13, 0.4, 0.21, 0.9, 0.05]
        result = Timeline([_record(total=t) for t in totals])
        assert result.percentile_latency(95) == float(np.percentile(totals, 95))

    def test_link_fault_fleet_reads_no_nan(self, alexnet_engine):
        import math

        from repro.network.faults import FaultPlan

        config = SystemConfig(
            faults=FaultPlan(seed=7, drop_prob=0.2, outages=((0.5, 0.8),)))
        result = MultiClientSystem(alexnet_engine, 3, config=config).run(2.0)
        client = result.timelines[0]
        latencies = sorted(client.latencies)
        assert len(latencies) == 3 and math.isinf(latencies[-1])
        # A naive client stalls on its dropped upload: its median is its
        # slower finished request and its tail is the stall.
        assert client.percentile_latency(50) == latencies[1]
        assert client.percentile_latency(95) == math.inf
        assert result.percentile_latency(95) == math.inf


class TestFleetTimeline:
    """One Timeline over every client's records, in client order."""

    def test_timelines_flatten_to_the_records(self, alexnet_engine):
        result = MultiClientSystem(alexnet_engine, 3,
                                   config=SystemConfig(seed=5)).run(1.0)
        per_client = [t.records for t in result.timelines]
        assert len(per_client) == 3 and all(per_client)
        assert result.records == [r for records in per_client for r in records]
        assert list(result) == result.records
        assert len(result) == sum(map(len, per_client))


class TestTimelineForServer:
    def test_filters_by_server_id(self):
        from repro.runtime.system import Timeline

        t = Timeline([_record(server_id=0), _record(server_id=1), _record()])
        assert len(t.for_server(0)) == 1
        assert len(t.for_server(1)) == 1
        assert len(t.for_server(None)) == 1
        assert len(t.for_server(7)) == 0
