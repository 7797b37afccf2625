"""Fault-injection layer: validation, determinism, and the null identity."""

import math

import numpy as np
import pytest

from repro.network.channel import Channel, NetworkParams, TransferResult
from repro.network.estimator import BandwidthEstimator
from repro.network.faults import FaultPlan, FaultyChannel, ServerFaultPlan
from repro.network.traces import ConstantTrace, OutageTrace


class TestTransferResult:
    def test_from_elapsed_delivered(self):
        r = TransferResult.from_elapsed(100, 0.5)
        assert r.delivered and not r.timed_out
        assert r.elapsed_s == 0.5

    def test_from_elapsed_timeout(self):
        r = TransferResult.from_elapsed(100, 0.5, timeout_s=0.2)
        assert not r.delivered and r.timed_out
        # The device waits out the whole deadline, not the (unknowable)
        # true transfer time.
        assert r.elapsed_s == 0.2

    def test_from_elapsed_infinite(self):
        r = TransferResult.from_elapsed(100, math.inf)
        assert not r.delivered
        assert math.isinf(r.elapsed_s)

    def test_failed_with_budget(self):
        r = TransferResult.failed(100, timeout_s=0.3)
        assert not r.delivered and r.elapsed_s == 0.3


class TestFaultPlanValidation:
    def test_defaults_are_null(self):
        plan = FaultPlan()
        assert not plan.outages
        assert plan.drop_prob == 0.0 and plan.latency_spike_prob == 0.0
        assert not plan.in_outage(1.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(latency_spike_prob=-0.1)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            FaultPlan(outages=((2.0, 1.0),))
        with pytest.raises(ValueError):
            FaultPlan(outages=((0.0, 2.0), (1.0, 3.0)))  # overlap

    def test_rejects_bad_spike(self):
        with pytest.raises(ValueError):
            FaultPlan(latency_spike_s=-1.0)

    def test_server_plan_validation(self):
        with pytest.raises(ValueError):
            ServerFaultPlan(queue_limit=0)
        with pytest.raises(ValueError):
            ServerFaultPlan(retry_after_s=-1.0)
        with pytest.raises(ValueError):
            ServerFaultPlan(crash_windows=((5.0, 4.0),))

    def test_server_restarts_before(self):
        plan = ServerFaultPlan(crash_windows=((1.0, 2.0), (5.0, 6.0)))
        assert plan.restarts_before(0.5) == 0
        assert plan.is_down(1.5)
        assert plan.restarts_before(3.0) == 1
        assert plan.restarts_before(10.0) == 2


class TestNetworkParamsValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            NetworkParams(base_latency_s=-0.001)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            NetworkParams(jitter_sigma=-0.1)


class TestFaultyChannel:
    def _channels(self, plan):
        trace = ConstantTrace(8e6)
        return Channel(trace), FaultyChannel(trace, plan)

    def test_null_plan_byte_identical(self):
        # The crux: a zero-rate plan must consume NO extra randomness, so
        # the fault-free path is bit-identical with and without the wrapper.
        plain, faulty = self._channels(FaultPlan())
        r1 = np.random.default_rng(5)
        r2 = np.random.default_rng(5)
        for t in np.linspace(0.0, 10.0, 25):
            a = plain.try_upload(50_000, t, r1)
            b = faulty.try_upload(50_000, t, r2)
            assert a == b
            assert plain.try_download(10_000, t, r1) == faulty.try_download(10_000, t, r2)

    def test_same_seed_same_faults(self):
        plan = FaultPlan(drop_prob=0.3, latency_spike_prob=0.2, seed=9)
        trace = ConstantTrace(8e6)
        outcomes = []
        for _ in range(2):
            ch = FaultyChannel(trace, plan)
            rng = np.random.default_rng(5)
            outcomes.append([ch.try_upload(50_000, t, rng)
                             for t in np.linspace(0.0, 10.0, 40)])
        assert outcomes[0] == outcomes[1]

    def test_drops_occur_and_carry_timeout(self):
        plan = FaultPlan(drop_prob=0.5, seed=3)
        _, faulty = self._channels(plan)
        rng = np.random.default_rng(1)
        results = [faulty.try_upload(50_000, float(t), rng, timeout_s=0.8)
                   for t in range(50)]
        dropped = [r for r in results if not r.delivered]
        assert dropped, "0.5 drop probability produced no drops in 50 tries"
        assert all(r.elapsed_s == 0.8 and r.timed_out for r in dropped)
        assert any(r.delivered for r in results)

    def test_outage_window_fails_everything(self):
        plan = FaultPlan(outages=((2.0, 4.0),))
        _, faulty = self._channels(plan)
        rng = np.random.default_rng(1)
        assert faulty.try_upload(1000, 1.0, rng).delivered
        r = faulty.try_upload(1000, 3.0, rng, timeout_s=0.5)
        assert not r.delivered and r.elapsed_s == 0.5
        assert faulty.try_upload(1000, 5.0, rng).delivered

    def test_latency_spike_adds_delay(self):
        trace = ConstantTrace(8e6)
        always = FaultyChannel(trace, FaultPlan(latency_spike_prob=1.0,
                                                latency_spike_s=0.5, seed=2))
        never = Channel(trace)
        r_spiked = always.try_upload(50_000, 0.0, np.random.default_rng(4))
        r_plain = never.try_upload(50_000, 0.0, np.random.default_rng(4))
        assert r_spiked.elapsed_s == pytest.approx(r_plain.elapsed_s + 0.5)


class TestOutageTrace:
    def test_zero_bandwidth_in_window(self):
        trace = OutageTrace(ConstantTrace(8e6), ((1.0, 2.0),))
        assert trace.upload_at(0.5) == 8e6
        assert trace.upload_at(1.5) == 0.0
        assert trace.download_at(1.5) == 0.0
        assert trace.in_outage(1.5)

    def test_mean_time_infinite_during_outage(self):
        ch = Channel(OutageTrace(ConstantTrace(8e6), ((1.0, 2.0),)))
        assert math.isinf(ch.mean_upload_time(1000, 1.5))
        rng = np.random.default_rng(0)
        assert not ch.try_upload(1000, 1.5, rng, timeout_s=0.5).delivered

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            OutageTrace(ConstantTrace(8e6), ((3.0, 2.0),))


class TestEstimatorResilience:
    def test_failure_evidence_lowers_estimate(self):
        est = BandwidthEstimator()
        for i in range(4):
            est.add_probe(float(i), 100_000, 0.1)  # 8 Mbps
        healthy = est.estimate()
        for i in range(8):
            est.add_failure(4.0 + i, 100_000, 2.0)  # bound: 0.4 Mbps
        assert est.estimate() < healthy
        assert est.failure_fraction > 0.5

    def test_failure_with_degenerate_elapsed_ignored(self):
        est = BandwidthEstimator()
        est.add_failure(0.0, 100_000, math.inf)
        est.add_failure(0.0, 100_000, 0.0)
        assert est.sample_count == 0

    def test_window_s_expires_old_samples(self):
        est = BandwidthEstimator(window_s=10.0)
        est.add_probe(0.0, 100_000, 0.1)    # 8 Mbps
        est.add_probe(1.0, 100_000, 0.1)
        est.add_probe(20.0, 100_000, 0.025)  # 32 Mbps, others expired
        assert est.estimate() == pytest.approx(32e6)
        assert est.sample_count == 1

    def test_no_window_keeps_samples(self):
        est = BandwidthEstimator()
        est.add_probe(0.0, 100_000, 0.1)
        est.add_probe(100.0, 100_000, 0.1)
        assert est.sample_count == 2


class TestPerServerStreams:
    """Satellite: fault RNG streams keyed by ``(seed, server_id)``."""

    def test_for_server_zero_is_identity(self):
        plan = FaultPlan(seed=7, drop_prob=0.2)
        assert plan.for_server(0) is plan

    def test_for_server_is_deterministic(self):
        plan = FaultPlan(seed=7, drop_prob=0.2)
        assert plan.for_server(3) == plan.for_server(3)

    def test_for_server_streams_are_independent(self):
        plan = FaultPlan(seed=7, drop_prob=0.2)
        seeds = {plan.for_server(s).seed for s in range(6)}
        assert len(seeds) == 6

    def test_for_server_rejects_negative(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=7).for_server(-1)

    def test_adding_a_server_never_perturbs_siblings(self):
        """Growing the fleet keeps every existing server's plan fixed."""
        plan = FaultPlan(seed=13, drop_prob=0.1)
        small = [plan.for_server(s) for s in range(2)]
        large = [plan.for_server(s) for s in range(5)]
        assert large[:2] == small


class TestChaosPlans:
    def test_windows_fit_the_horizon(self):
        for sid in range(4):
            plan = ServerFaultPlan.chaos(seed=3, server_id=sid,
                                         horizon_s=10.0, crashes=3)
            for start, end in plan.crash_windows:
                assert 0.0 <= start < end <= 10.0

    def test_deterministic_per_server(self):
        a = ServerFaultPlan.chaos(seed=3, server_id=1, horizon_s=10.0)
        b = ServerFaultPlan.chaos(seed=3, server_id=1, horizon_s=10.0)
        assert a == b

    def test_servers_get_distinct_schedules(self):
        plans = [ServerFaultPlan.chaos(seed=3, server_id=s, horizon_s=10.0)
                 for s in range(4)]
        assert len({p.crash_windows for p in plans}) > 1

    def test_windows_are_disjoint_and_ordered(self):
        plan = ServerFaultPlan.chaos(seed=5, server_id=0, horizon_s=20.0,
                                     crashes=5)
        windows = plan.crash_windows
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2

    def test_every_crash_has_an_observable_restart(self):
        plan = ServerFaultPlan.chaos(seed=5, server_id=2, horizon_s=8.0,
                                     crashes=2)
        assert plan.restarts_before(8.0) == len(plan.crash_windows)
