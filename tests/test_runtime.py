"""Runtime emulation: event loop, device/server, end-to-end system."""

import numpy as np
import pytest

from repro.hardware.background import IDLE, U100H, LoadSchedule, fig9_schedule
from repro.network.channel import Channel
from repro.network.traces import ConstantTrace, StepTrace
from repro.runtime.client import UserDevice
from repro.runtime.events import EventLoop
from repro.runtime.server import EdgeServer
from repro.runtime.system import OffloadingSystem, SystemConfig


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(2.0, lambda: seen.append("b"))
        loop.schedule_at(1.0, lambda: seen.append("a"))
        loop.run_until(3.0)
        assert seen == ["a", "b"]
        assert loop.now == 3.0

    def test_same_time_fifo(self):
        loop = EventLoop()
        seen = []
        for tag in "abc":
            loop.schedule_at(1.0, lambda t=tag: seen.append(t))
        loop.run_until(1.0)
        assert seen == ["a", "b", "c"]

    def test_last_events_fire_after_others_at_their_instant(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(1.0, lambda: seen.append("request"), last=True)
        loop.schedule_at(1.0, lambda: seen.append("tick"))
        loop.schedule_at(0.5, lambda: seen.append("early request"), last=True)
        loop.run_until(1.0)
        assert seen == ["early request", "tick", "request"]

    def test_stop_keeps_the_clock_at_the_stopping_event(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(1.0, loop.stop)
        loop.schedule_at(2.0, lambda: seen.append(2.0))
        loop.run_until(5.0)
        assert loop.now == 1.0 and seen == []
        loop.run_until(5.0)
        assert loop.now == 5.0 and seen == [2.0]

    def test_periodic(self):
        loop = EventLoop()
        ticks = []
        loop.schedule_every(1.0, lambda: ticks.append(loop.now))
        loop.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(4.0, lambda: None)

    def test_events_beyond_horizon_not_run(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(10.0, lambda: seen.append(1))
        loop.run_until(5.0)
        assert seen == []

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            EventLoop().schedule_every(0.0, lambda: None)


@pytest.fixture
def system(squeezenet_engine):
    return OffloadingSystem(
        squeezenet_engine,
        bandwidth_trace=ConstantTrace(8e6),
        config=SystemConfig(seed=5),
    )


class TestServer:
    def test_offload_updates_monitor(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, seed=1)
        reply = server.handle_offload(0.0, 1, point=10)
        assert reply.server_exec_s > 0
        assert server.monitor.sample_count == 1

    def test_cache_hit_on_repeat(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, seed=1)
        first = server.handle_offload(0.0, 1, point=10)
        second = server.handle_offload(0.1, 2, point=10)
        assert not first.cache_hit and second.cache_hit
        assert first.partition_overhead_s > 0 and second.partition_overhead_s == 0

    def test_load_query_returns_k_and_util(self, squeezenet_engine):
        schedule = LoadSchedule([(0.0, IDLE), (10.0, U100H)])
        server = EdgeServer(squeezenet_engine, load_schedule=schedule, seed=1)
        reply = server.handle_load_query(0.0)
        assert reply.k == 1.0 and reply.gpu_utilization == 0.0
        assert server.handle_load_query(20.0).gpu_utilization == 1.0

    def test_k_rises_under_load(self, squeezenet_engine):
        schedule = LoadSchedule([(0.0, U100H)])
        server = EdgeServer(squeezenet_engine, load_schedule=schedule, seed=1)
        for i in range(5):
            server.handle_offload(float(i) * 0.2, i, point=47)
        assert server.handle_load_query(1.0).k > 5.0

    def test_watchdog_resets_stale_k(self, squeezenet_engine):
        schedule = LoadSchedule([(0.0, U100H), (10.0, IDLE)])
        server = EdgeServer(squeezenet_engine, load_schedule=schedule, seed=1)
        for i in range(5):
            server.handle_offload(float(i) * 0.2, i, point=47)
        server.monitor.refresh(1.0)
        assert server.monitor.value > 1.0
        assert server.watchdog_tick(12.0) is True
        assert server.handle_load_query(12.0).k == 1.0


class TestDevice:
    def test_probe_feeds_estimator(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, seed=1)
        channel = Channel(ConstantTrace(8e6))
        device = UserDevice(squeezenet_engine, server, channel, seed=2)
        device.send_probe(0.0)
        assert device.estimator.sample_count == 1
        assert device.estimator.estimate() == pytest.approx(8e6, rel=0.3)

    def test_local_inference_record(self, alexnet_engine):
        server = EdgeServer(alexnet_engine, seed=1)
        channel = Channel(ConstantTrace(1e5))  # terrible network -> local
        device = UserDevice(alexnet_engine, server, channel, seed=2)
        device.estimator.add_probe(0.0, 1000, 1000 * 8 / 1e5)
        record = device.request_inference(0.0)
        assert record.is_local
        assert record.partition_point == alexnet_engine.num_nodes
        assert record.upload_s == 0.0 and record.server_s == 0.0

    def test_offload_record_components_sum(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, seed=1)
        channel = Channel(ConstantTrace(8e6))
        device = UserDevice(squeezenet_engine, server, channel, seed=2)
        device.profiler_tick(0.0)
        record = device.request_inference(0.0)
        assert record.total_s == pytest.approx(
            record.device_s + record.upload_s + record.server_s
            + record.download_s + record.overhead_s
        )

    @pytest.mark.parametrize("sla_s", [True, 0.0, float("nan")])
    def test_invalid_sla_rejected(self, squeezenet_engine, sla_s):
        server = EdgeServer(squeezenet_engine, seed=1)
        channel = Channel(ConstantTrace(8e6))
        with pytest.raises(ValueError, match="sla_s"):
            UserDevice(squeezenet_engine, server, channel, sla_s=sla_s)

    def test_passive_measurement_recorded(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, seed=1)
        channel = Channel(ConstantTrace(8e6))
        device = UserDevice(squeezenet_engine, server, channel, seed=2)
        before = device.estimator.sample_count
        record = device.request_inference(0.0)
        if not record.is_local:
            assert device.estimator.sample_count == before + 1
            assert device.estimator.passive_fraction > 0


class TestSystem:
    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SystemConfig(policy="oracle")

    @pytest.mark.parametrize("sla", [True, False, 0.0, -0.1, float("inf"), "0.1"])
    def test_invalid_sla_classes(self, sla):
        """A bool is an int to ``isinstance``, but ``True`` is not a
        one-second deadline."""
        with pytest.raises(ValueError, match="sla_classes"):
            SystemConfig(sla_classes=(sla, 0.3))

    def test_run_produces_records(self, system):
        timeline = system.run(5.0)
        assert len(timeline) > 5
        starts = timeline.times
        assert np.all(np.diff(starts) > 0)

    def test_max_requests_cap(self, system):
        timeline = system.run(1e9, max_requests=7)
        assert len(timeline) == 7

    def test_timeline_helpers(self, system):
        timeline = system.run(5.0)
        assert timeline.mean_latency() > 0
        assert timeline.percentile_latency(95) >= timeline.percentile_latency(5)
        window = timeline.between(0.0, 2.0)
        assert all(r.start_s < 2.0 for r in window)

    def test_cache_hits_dominate_steady_state(self, system):
        system.run(10.0)
        assert system.device.cache.hit_rate > 0.8

    def test_deterministic_given_seed(self, squeezenet_engine):
        def run():
            sys_ = OffloadingSystem(
                squeezenet_engine,
                bandwidth_trace=ConstantTrace(8e6),
                config=SystemConfig(seed=9),
            )
            return sys_.run(3.0).latencies

        np.testing.assert_array_equal(run(), run())

    def test_estimator_adapts_to_bandwidth_change(self, squeezenet_engine):
        trace = StepTrace([(0.0, 8e6), (30.0, 64e6)])
        sys_ = OffloadingSystem(
            squeezenet_engine, bandwidth_trace=trace, config=SystemConfig(seed=4)
        )
        timeline = sys_.run(60.0)
        early = timeline.between(10.0, 30.0)
        late = timeline.between(45.0, 60.0)
        assert late.mean_latency() < early.mean_latency()
        # More bandwidth moves the partition point earlier.
        assert np.median(late.points) < np.median(early.points)

    def test_loadpart_beats_neurosurgeon_under_fig9_load(self, squeezenet_engine):
        results = {}
        for policy in ("loadpart", "neurosurgeon"):
            sys_ = OffloadingSystem(
                squeezenet_engine,
                bandwidth_trace=ConstantTrace(8e6),
                load_schedule=fig9_schedule(),
                config=SystemConfig(policy=policy, seed=11),
            )
            results[policy] = sys_.run(260.0).mean_latency()
        assert results["loadpart"] < results["neurosurgeon"]

    def test_loadpart_shifts_point_under_load(self, squeezenet_engine):
        sys_ = OffloadingSystem(
            squeezenet_engine,
            bandwidth_trace=ConstantTrace(8e6),
            load_schedule=fig9_schedule(),
            config=SystemConfig(seed=11),
        )
        timeline = sys_.run(260.0)
        idle_points = set(timeline.between(10.0, 40.0).points.tolist())
        heavy_points = set(timeline.between(170.0, 215.0).points.tolist())
        n = squeezenet_engine.num_nodes
        assert any(p < n for p in idle_points)      # partial offloading when idle
        assert n in heavy_points                    # local under 100%(h)

    def test_watchdog_recovers_after_load_drops(self, squeezenet_engine):
        """The paper's ~220 s SqueezeNet recovery (p=99 back to mid)."""
        sys_ = OffloadingSystem(
            squeezenet_engine,
            bandwidth_trace=ConstantTrace(8e6),
            load_schedule=fig9_schedule(),
            config=SystemConfig(seed=11),
        )
        timeline = sys_.run(300.0)
        n = squeezenet_engine.num_nodes
        recovered = timeline.between(245.0, 300.0)
        assert np.median(recovered.points) < n

    def test_local_policy_never_offloads(self, squeezenet_engine):
        sys_ = OffloadingSystem(
            squeezenet_engine,
            bandwidth_trace=ConstantTrace(8e6),
            config=SystemConfig(policy="local", seed=2),
        )
        timeline = sys_.run(3.0)
        assert all(r.is_local for r in timeline)

    def test_full_policy_always_offloads(self, squeezenet_engine):
        sys_ = OffloadingSystem(
            squeezenet_engine,
            bandwidth_trace=ConstantTrace(8e6),
            config=SystemConfig(policy="full", seed=2),
        )
        timeline = sys_.run(3.0)
        assert all(r.partition_point == 0 for r in timeline)

    def test_on_record_callback(self, system):
        seen = []
        system.run(1.0, on_record=seen.append)
        assert len(seen) > 0


class TestEmptyTimeline:
    def test_mean_latency_nan(self):
        from repro.runtime.system import Timeline

        t = Timeline([])
        assert np.isnan(t.mean_latency())

    def test_percentile_latency_nan(self):
        from repro.runtime.system import Timeline

        t = Timeline([])
        assert np.isnan(t.percentile_latency(95))

    def test_between_can_return_empty(self, system):
        timeline = system.run(1.0, max_requests=2)
        empty = timeline.between(1e9, 2e9)
        assert len(empty) == 0
        assert np.isnan(empty.mean_latency())


class TestPercentileLatency:
    """Percentiles next to stalled requests (``total_s = inf``)."""

    @staticmethod
    def _timeline(totals):
        from types import SimpleNamespace

        from repro.runtime.system import Timeline

        return Timeline([SimpleNamespace(total_s=t) for t in totals])

    def test_rank_on_a_value_returns_it(self):
        # np.percentile reads 2.0 + 0 * inf = nan here.
        assert self._timeline([1.0, 2.0, np.inf]).percentile_latency(50) == 2.0
        assert self._timeline([np.inf, 1.0, np.inf]).percentile_latency(50) == np.inf

    def test_interpolating_toward_inf_is_inf(self):
        assert self._timeline([1.0, 2.0, np.inf]).percentile_latency(95) == np.inf
        assert self._timeline([1.0, 2.0, np.inf, np.inf]).percentile_latency(95) == np.inf
        assert self._timeline([1.0, np.inf]).percentile_latency(10) == np.inf

    def test_never_nan_and_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            totals = rng.exponential(0.2, size=int(rng.integers(1, 9)))
            totals[rng.random(totals.size) < 0.4] = np.inf
            values = [self._timeline(totals).percentile_latency(q)
                      for q in np.linspace(0.0, 100.0, 41)]
            assert not np.isnan(values).any()
            assert values == sorted(values)

    def test_finite_input_is_numpy_exactly(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 7, 50):
            totals = rng.exponential(0.2, size=n)
            for q in (0, 5, 37.5, 50, 95, 99, 100):
                assert (self._timeline(totals).percentile_latency(q)
                        == float(np.percentile(totals, q)))


class TestFunctionalMode:
    """Functional execution changes what is computed, never what is recorded."""

    def test_invalid_backend_in_config(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            SystemConfig(backend="jit")

    def _run(self, engine, **cfg_kwargs):
        config = SystemConfig(seed=11, **cfg_kwargs)
        sys_ = OffloadingSystem(engine, config=config)
        timeline = sys_.run(2.0, max_requests=3)
        return timeline, sys_

    def test_records_identical_and_outputs_bit_equal(self, squeezenet_engine):
        sim, _ = self._run(squeezenet_engine)
        t_naive, s_naive = self._run(squeezenet_engine, functional=True,
                                     backend="naive")
        t_plan, s_plan = self._run(squeezenet_engine, functional=True,
                                   backend="planned")
        # Same InferenceRecord stream: functional mode and backend choice
        # must not perturb partition decisions or simulated timing.
        assert sim.records == t_naive.records == t_plan.records
        out_naive, out_plan = s_naive.device.last_output, s_plan.device.last_output
        assert out_naive is not None and out_plan is not None
        assert out_naive.shape == squeezenet_engine.graph.output_spec.shape
        assert np.array_equal(out_naive, out_plan)

    def test_simulation_only_has_no_tensors(self, squeezenet_engine):
        _, sys_ = self._run(squeezenet_engine)
        assert sys_.device.last_output is None
