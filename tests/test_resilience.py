"""Resilient offload path: determinism, fallback, recovery, accounting."""

import math

import pytest

from repro.network.faults import FaultPlan, ServerFaultPlan
from repro.runtime.batching import BatchingConfig
from repro.runtime.messages import BusyReply
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import CircuitBreaker, ResilienceConfig
from repro.runtime.system import OffloadingSystem, SystemConfig


def run_timeline(engine, duration_s=6.0, **cfg):
    system = OffloadingSystem(engine, config=SystemConfig(seed=7, **cfg))
    return system.run(duration_s), system


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(deadline_margin=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            ResilienceConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(k_ttl_s=0.0)

    def test_timeout_from_prediction(self):
        cfg = ResilienceConfig(deadline_margin=3.0, min_timeout_s=0.05)
        assert cfg.timeout_for(0.1) == pytest.approx(0.3)
        assert cfg.timeout_for(0.001) == 0.05          # floor
        assert cfg.timeout_for(math.inf) == 0.05       # degenerate prediction

    def test_backoff_grows_and_jitters(self):
        cfg = ResilienceConfig(backoff_base_s=0.1, backoff_factor=2.0,
                               backoff_jitter=0.5)
        mid1 = cfg.backoff_s(1, 0.5)
        mid2 = cfg.backoff_s(2, 0.5)
        assert mid2 == pytest.approx(2 * mid1)
        assert cfg.backoff_s(1, 0.0) == pytest.approx(0.05)
        assert cfg.backoff_s(1, 1.0) == pytest.approx(0.15)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        br = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        br.record_failure(0.0)
        br.record_failure(1.0)
        assert br.allow_offload(1.5)
        br.record_failure(2.0)
        assert br.is_open and not br.allow_offload(2.5)
        assert br.open_count == 1

    def test_success_resets_streak(self):
        br = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        br.record_failure(0.0)
        br.record_failure(1.0)
        br.record_success(2.0)
        br.record_failure(3.0)
        br.record_failure(4.0)
        assert not br.is_open

    def test_probe_driven_half_open(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        br.record_failure(0.0)
        assert not br.probe_may_close(5.0)
        # A success within the cooldown clears the streak but stays open.
        br.record_success(5.0)
        assert br.is_open
        assert br.probe_may_close(11.0)
        br.record_success(11.0)
        assert not br.is_open

    def test_reopen_restarts_cooldown(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        br.record_failure(0.0)
        br.record_failure(8.0)  # still failing: cooldown clock restarts
        assert not br.probe_may_close(12.0)
        assert br.probe_may_close(18.0)


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["naive", "planned"])
    @pytest.mark.parametrize("functional", [False, True])
    def test_zero_rate_plan_is_byte_identical(self, squeezenet_engine,
                                              backend, functional):
        # A FaultPlan with all rates zero must not perturb a single draw.
        base = dict(backend=backend, functional=functional,
                    resilience=ResilienceConfig())
        plain, _ = run_timeline(squeezenet_engine, duration_s=2.0, **base)
        faulty, _ = run_timeline(squeezenet_engine, duration_s=2.0,
                                 faults=FaultPlan(), **base)
        assert list(plain) == list(faulty)

    def test_same_seed_same_fault_sequence(self, squeezenet_engine):
        plan = FaultPlan(drop_prob=0.2, latency_spike_prob=0.1, seed=5)
        runs = [run_timeline(squeezenet_engine, duration_s=6.0, faults=plan,
                             resilience=ResilienceConfig())[0]
                for _ in range(2)]
        assert list(runs[0]) == list(runs[1])
        assert any(r.retries for r in runs[0])  # faults actually fired
        clean, _ = run_timeline(squeezenet_engine, duration_s=6.0,
                                resilience=ResilienceConfig())
        assert list(runs[0]) != list(clean)

    def test_resilience_free_when_nothing_fails(self, squeezenet_engine):
        legacy, _ = run_timeline(squeezenet_engine, duration_s=6.0)
        resilient, _ = run_timeline(squeezenet_engine, duration_s=6.0,
                                    resilience=ResilienceConfig())
        assert len(legacy) == len(resilient)
        for a, b in zip(legacy, resilient):
            assert a.total_s == b.total_s
            assert a.partition_point == b.partition_point
            assert b.status == "ok" and b.retries == 0 and b.wasted_s == 0.0


class TestServerCrash:
    CRASH = ServerFaultPlan(crash_windows=((2.0, 6.0),))

    def test_naive_client_stalls(self, squeezenet_engine):
        timeline, _ = run_timeline(squeezenet_engine, duration_s=12.0,
                                   server_faults=self.CRASH)
        assert timeline.availability() < 1.0
        failed = [r for r in timeline if r.status == "failed"]
        assert len(failed) == 1 and math.isinf(failed[-1].total_s)
        # Nothing after the stall: the device is blocked on the dead reply.
        assert failed[-1] is timeline.records[-1]

    def test_resilient_client_completes_everything(self, squeezenet_engine):
        timeline, system = run_timeline(squeezenet_engine, duration_s=12.0,
                                        server_faults=self.CRASH,
                                        resilience=ResilienceConfig(cooldown_s=4.0))
        assert timeline.availability() == 1.0
        assert timeline.fallback_rate() > 0
        assert all(math.isfinite(r.total_s) for r in timeline)
        # The breaker opened during the crash ...
        assert system.device.breaker.open_count >= 1
        # ... and the profiler's health probe closed it again after the
        # server came back: offloading resumes.
        late_ok = [r for r in timeline if r.start_s > 8.0 and r.status == "ok"
                   and not r.is_local]
        assert late_ok, "no offloads resumed after server recovery"

    def test_restart_wipes_server_state(self, squeezenet_engine):
        _, system = run_timeline(squeezenet_engine, duration_s=12.0,
                                 server_faults=self.CRASH,
                                 resilience=ResilienceConfig(cooldown_s=4.0))
        # The partition cache was cleared on restart, so post-recovery
        # offloads paid the partition overhead again.
        assert system.server._restarts_seen == 1


class TestFlakyLink:
    def test_retries_recover_dropped_transfers(self, squeezenet_engine):
        plan = FaultPlan(drop_prob=0.2, seed=5)
        timeline, _ = run_timeline(squeezenet_engine, duration_s=8.0, faults=plan,
                                   resilience=ResilienceConfig())
        assert timeline.availability() == 1.0
        assert any(r.status == "retried" for r in timeline)

    def test_component_sum_includes_wasted(self, squeezenet_engine):
        plan = FaultPlan(drop_prob=0.2, seed=5)
        timeline, _ = run_timeline(squeezenet_engine, duration_s=8.0, faults=plan,
                                   resilience=ResilienceConfig())
        for r in timeline:
            assert r.total_s == pytest.approx(
                r.device_s + r.upload_s + r.server_s + r.download_s
                + r.overhead_s + r.wasted_s)
        touched = [r for r in timeline if r.retries > 0]
        assert touched and all(r.wasted_s > 0 for r in touched)

    def test_failed_transfers_feed_estimator(self, squeezenet_engine):
        plan = FaultPlan(outages=((1.0, 5.0),))
        _, system = run_timeline(squeezenet_engine, duration_s=6.0, faults=plan,
                                 resilience=ResilienceConfig())
        assert system.device.estimator.failure_fraction > 0


class TestAdmissionControl:
    PLAN = ServerFaultPlan(queue_limit=3, retry_after_s=0.05,
                           admission_window_s=0.5)

    def _fleet(self, engine, resilience, duration_s=4.0, batching=None):
        config = SystemConfig(seed=7, policy="full", server_faults=self.PLAN,
                              resilience=resilience, batching=batching)
        system = MultiClientSystem(engine, 6, config=config)
        return system.run(duration_s), system

    def test_overload_sheds_and_resilient_fleet_completes(self, squeezenet_engine):
        result, system = self._fleet(squeezenet_engine, ResilienceConfig())
        assert system.server.rejected_count > 0
        assert result.availability() == 1.0

    def test_naive_fleet_stalls_on_rejection(self, squeezenet_engine):
        result, system = self._fleet(squeezenet_engine, None)
        assert system.server.rejected_count > 0
        assert result.availability() < 1.0

    def test_batched_queue_limit_rejects(self, squeezenet_engine):
        result, system = self._fleet(
            squeezenet_engine, ResilienceConfig(),
            batching=BatchingConfig(window_s=0.05))
        assert result.availability() == 1.0
        assert system.server.rejected_count > 0

    def test_batched_rejection_is_an_answer(self, squeezenet_engine):
        """A full batch queue answers BusyReply, as the server's own
        admission control does: the device waits out ``retry_after_s``
        (and the link's base latency) before it falls back, and the
        rejection is not a breaker failure."""
        plan = ServerFaultPlan(queue_limit=1, retry_after_s=0.5)
        system = MultiClientSystem(squeezenet_engine, 6, config=SystemConfig(
            seed=7, server_faults=plan, resilience=ResilienceConfig(),
            batching=BatchingConfig(window_s=0.01)))
        rejected = [r for r in system.run(3.0) if r.status == "rejected"]
        assert rejected
        assert all(r.wasted_s >= plan.retry_after_s for r in rejected)
        # A clean link and a live server: nothing else can fail.
        assert [c.breaker.failure_count for c in system.clients] == [0] * 6

    def test_busy_reply_fields(self):
        reply = BusyReply(request_id=4, retry_after_s=0.1)
        assert reply.status == "rejected"


class TestBatchedFaults:
    CRASH = ServerFaultPlan(crash_windows=((1.0, 3.0),))

    def _fleet(self, engine, resilience, duration_s=6.0):
        config = SystemConfig(seed=7, server_faults=self.CRASH,
                              resilience=resilience,
                              batching=BatchingConfig(window_s=0.02))
        system = MultiClientSystem(engine, 4, config=config)
        return system.run(duration_s)

    def test_resilient_batched_fleet_completes(self, squeezenet_engine):
        result = self._fleet(squeezenet_engine, ResilienceConfig(cooldown_s=2.0))
        assert result.availability() == 1.0
        assert result.fallback_rate() > 0

    def test_naive_batched_fleet_terminates_with_stalls(self, squeezenet_engine):
        # The drain loop must not hang even though requests die silently.
        result = self._fleet(squeezenet_engine, None)
        assert result.availability() < 1.0


class TestStaleLoadFactor:
    def test_k_expires_without_successful_query(self, squeezenet_engine):
        _, system = run_timeline(squeezenet_engine, duration_s=1.0,
                                 resilience=ResilienceConfig(k_ttl_s=5.0))
        device = system.device
        device._latest_k = 4.0
        device._k_time_s = 0.0
        assert device._current_k(3.0) == 4.0
        assert device._current_k(6.0) == 1.0   # TTL elapsed: back to neutral

    def test_fresh_k_survives(self, squeezenet_engine):
        _, system = run_timeline(squeezenet_engine, duration_s=6.0,
                                 resilience=ResilienceConfig())
        # The 5 s profiler period keeps k fresh under the 30 s TTL.
        assert system.device._k_time_s >= 5.0


class TestSlaDeadlineCeiling:
    """A request's SLA caps the retry budget: the margin-derived attempt
    deadline must never run past the point where the deadline is already
    lost (regression: the retry loop used to overshoot tight SLAs by
    ``margin x predicted x retries``)."""

    CRASH = ServerFaultPlan(crash_windows=((1.0, 5.0),))

    def test_timeout_for_honours_sla_ceiling(self):
        cfg = ResilienceConfig(deadline_margin=10.0, min_timeout_s=0.05)
        assert cfg.timeout_for(0.1) == pytest.approx(1.0)
        assert cfg.timeout_for(0.1, sla_s=0.3) == pytest.approx(0.3)
        assert cfg.timeout_for(0.1, sla_s=5.0) == pytest.approx(1.0)
        # A nearly-exhausted budget degrades to one short attempt, not a
        # zero-length one: the floor still applies.
        assert cfg.timeout_for(0.1, sla_s=0.001) == 0.05

    def _run(self, engine, sla_classes):
        system = OffloadingSystem(engine, config=SystemConfig(
            seed=7, server_faults=self.CRASH, sla_classes=sla_classes,
            resilience=ResilienceConfig(deadline_margin=10.0, max_retries=2)))
        return system.run(8.0)

    def test_sla_bounds_wasted_time_during_crash(self, squeezenet_engine):
        sla = 0.3
        with_sla = self._run(squeezenet_engine, (sla,))
        plain = self._run(squeezenet_engine, None)
        sla_failed = [r for r in with_sla if r.wasted_s > 0]
        plain_failed = [r for r in plain if r.wasted_s > 0]
        assert sla_failed and plain_failed
        for r in sla_failed:
            # The attempt deadline was capped at the SLA ...
            assert r.timeout_s <= sla + 1e-9
            # ... and the exhausted budget ended the loop: no retry can
            # meet a deadline that is already lost.
            assert r.retries == 0
            assert r.met_sla is False
        # Without the ceiling the same crash burns margin x predicted per
        # attempt, times the full retry budget.
        assert max(r.retries for r in plain_failed) == 2
        assert max(r.wasted_s for r in sla_failed) < min(
            r.wasted_s for r in plain_failed)

    def test_sla_run_is_deterministic(self, squeezenet_engine):
        a = self._run(squeezenet_engine, (0.3, 0.05))
        b = self._run(squeezenet_engine, (0.3, 0.05))
        assert list(a) == list(b)
        attainment = a.sla_attainment()
        assert 0.0 < attainment < 1.0  # crash window misses, healthy meets
