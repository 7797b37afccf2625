"""Network substrate: channel, traces, bandwidth estimator."""

import numpy as np
import pytest

from repro.network.channel import Channel, NetworkParams
from repro.network.estimator import BandwidthEstimator
from repro.network.traces import (
    FIG6_BANDWIDTHS_MBPS,
    ConstantTrace,
    RandomWalkTrace,
    StepTrace,
    fig6_trace,
)


class TestTraces:
    def test_constant(self):
        trace = ConstantTrace(8e6)
        assert trace.upload_at(0) == trace.upload_at(1e6) == 8e6
        assert trace.download_at(5) == 8e6

    def test_constant_asymmetric(self):
        trace = ConstantTrace(8e6, download_bps=16e6)
        assert trace.download_at(0) == 16e6

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantTrace(0)

    def test_step_lookup(self):
        trace = StepTrace([(0.0, 8e6), (30.0, 4e6)])
        assert trace.upload_at(29.9) == 8e6
        assert trace.upload_at(30.0) == 4e6

    def test_step_validation(self):
        with pytest.raises(ValueError):
            StepTrace([(1.0, 8e6)])
        with pytest.raises(ValueError):
            StepTrace([(0.0, 8e6), (10.0, -1)])
        with pytest.raises(ValueError):
            StepTrace([])

    def test_fig6_trace_sequence(self):
        trace = fig6_trace(segment_s=10.0)
        seen = [trace.upload_at(i * 10.0 + 1) / 1e6 for i in range(10)]
        assert tuple(seen) == FIG6_BANDWIDTHS_MBPS

    def test_fig6_shape_down_then_up(self):
        bws = FIG6_BANDWIDTHS_MBPS
        assert bws[0] == 8 and min(bws) == 1 and bws[-1] == 64

    def test_random_walk_bounds(self):
        trace = RandomWalkTrace(8e6, min_bps=1e6, max_bps=64e6, seed=3)
        values = [trace.upload_at(t) for t in np.linspace(0, 600, 200)]
        assert all(1e6 <= v <= 64e6 for v in values)

    def test_random_walk_deterministic(self):
        a = RandomWalkTrace(8e6, seed=5)
        b = RandomWalkTrace(8e6, seed=5)
        assert a.upload_at(100.0) == b.upload_at(100.0)

    def test_random_walk_mean_validation(self):
        with pytest.raises(ValueError):
            RandomWalkTrace(1e3, min_bps=1e6, max_bps=64e6)


class TestChannel:
    def test_mean_upload_math(self):
        channel = Channel(ConstantTrace(8e6), NetworkParams(base_latency_s=0.0))
        # 1 MB at 8 Mbps = 1 second.
        assert channel.mean_upload_time(1_000_000, 0.0) == pytest.approx(1.0)

    def test_base_latency_added(self):
        channel = Channel(ConstantTrace(8e6), NetworkParams(base_latency_s=0.01))
        assert channel.mean_upload_time(1, 0.0) > 0.01

    def test_zero_bytes_free(self):
        channel = Channel(ConstantTrace(8e6))
        assert channel.mean_upload_time(0, 0.0) == 0.0
        assert channel.mean_download_time(0, 0.0) == 0.0

    def test_negative_rejected(self):
        channel = Channel(ConstantTrace(8e6))
        with pytest.raises(ValueError):
            channel.mean_upload_time(-1, 0.0)

    def test_noisy_time_near_mean(self, rng):
        channel = Channel(ConstantTrace(8e6))
        mean = channel.mean_upload_time(500_000, 0.0)
        samples = [channel.upload_time(500_000, 0.0, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(mean, rel=0.02)

    def test_uses_trace_time(self):
        channel = Channel(StepTrace([(0.0, 8e6), (10.0, 1e6)]),
                          NetworkParams(base_latency_s=0.0))
        fast = channel.mean_upload_time(1_000_000, 5.0)
        slow = channel.mean_upload_time(1_000_000, 15.0)
        assert slow == pytest.approx(8 * fast)


class TestEstimator:
    def test_initial_estimate(self):
        est = BandwidthEstimator(initial_estimate_bps=8e6)
        assert est.estimate() == 8e6
        assert est.sample_count == 0

    def test_probe_updates_estimate(self):
        est = BandwidthEstimator()
        est.add_probe(0.0, probe_bytes=100_000, duration_s=0.1)  # 8 Mbps
        assert est.estimate() == pytest.approx(8e6)

    def test_median_robust_to_outlier(self):
        est = BandwidthEstimator(window_size=5)
        for t in range(4):
            est.add_probe(float(t), 100_000, 0.1)  # 8 Mbps
        est.add_probe(5.0, 100_000, 10.0)  # catastrophic outlier
        assert est.estimate() == pytest.approx(8e6)

    def test_window_evicts_old_samples(self):
        est = BandwidthEstimator(window_size=3)
        est.add_probe(0.0, 100_000, 1.0)  # 0.8 Mbps
        for t in range(3):
            est.add_probe(1.0 + t, 100_000, 0.05)  # 16 Mbps
        assert est.estimate() == pytest.approx(16e6)

    def test_passive_samples_counted(self):
        est = BandwidthEstimator()
        est.add_passive(0.0, 130_000, 0.13)
        assert est.passive_fraction == 1.0
        est.add_probe(1.0, 100_000, 0.1)
        assert est.passive_fraction == 0.5

    def test_adaptive_probe_size_tracks_estimate(self):
        est = BandwidthEstimator(probe_target_duration_s=0.05)
        est.add_probe(0.0, 100_000, 0.1)  # 8 Mbps
        low = est.next_probe_bytes()
        est2 = BandwidthEstimator(probe_target_duration_s=0.05)
        est2.add_probe(0.0, 100_000, 0.0125)  # 64 Mbps
        high = est2.next_probe_bytes()
        assert high > low
        assert low == pytest.approx(8e6 * 0.05 / 8, rel=0.01)

    def test_probe_size_clamped(self):
        est = BandwidthEstimator(min_probe_bytes=1000, max_probe_bytes=2000)
        est.add_probe(0.0, 100, 10.0)  # tiny bandwidth
        assert est.next_probe_bytes() == 1000

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BandwidthEstimator(window_size=0)
        with pytest.raises(ValueError):
            BandwidthEstimator(initial_estimate_bps=0)
        with pytest.raises(ValueError):
            BandwidthEstimator(window_s=0.0)

    def test_degenerate_samples_ignored(self):
        # Zero-byte or zero-duration measurements come from aborted
        # transfers; they must not poison the estimator or crash it.
        est = BandwidthEstimator()
        est.add_probe(0.0, 0, 1.0)
        est.add_passive(0.0, 100, 0.0)
        est.add_passive(0.0, 100, float("inf"))
        assert est.sample_count == 0
        est.add_probe(0.0, 100_000, 0.1)
        assert est.sample_count == 1
        assert est.estimate() == pytest.approx(8e6)


class TestLinkEstimator:
    """EWMA link-latency estimator with outlier rejection (supervisor input)."""

    def _import(self):
        from repro.network.estimator import LinkEstimator
        return LinkEstimator

    def test_prior_until_first_sample(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.02)
        assert est.estimate() == 0.02
        assert est.sample_count == 0
        est.add(0.005)
        assert est.estimate() == 0.005  # first sample seeds the mean
        assert est.prior_s == 0.02      # prior itself is immutable

    def test_converges_to_noisy_signal(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.0, alpha=0.25)
        rng = np.random.default_rng(7)
        rejected = sum(not est.add(0.01 * float(rng.lognormal(sigma=0.1)))
                       for _ in range(200))
        assert est.estimate() == pytest.approx(0.01, rel=0.15)
        assert rejected < 20  # routine noise is not "outliers"

    def test_single_outlier_rejected_after_warmup(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.0, warmup=4)
        for _ in range(6):
            assert est.add(0.01)
        assert est.add(1.0) is False  # 100x spike: rejected
        assert est.estimate() == pytest.approx(0.01)
        assert est.add(0.01)          # and the stream recovers instantly

    def test_level_shift_reseeds_after_max_rejects(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.0, warmup=4, max_consecutive_rejects=3)
        for _ in range(6):
            est.add(0.01)
        # The path really changed: 3 rejections, then the 4th sample of
        # the new regime re-seeds instead of being discarded forever.
        for _ in range(3):
            assert est.add(0.08) is False
        assert est.add(0.08) is True
        assert est.estimate() == pytest.approx(0.08)

    def test_outliers_before_warmup_are_absorbed(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.0, warmup=4)
        assert est.add(0.01)
        assert est.add(1.0)  # only 1 sample in: no rejection basis yet

    def test_invalid_samples_ignored(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.02)
        assert est.add(float("nan")) is False
        assert est.add(float("inf")) is False
        assert est.add(-0.001) is False
        assert est.sample_count == 0
        assert est.estimate() == 0.02

    def test_reset_restores_prior(self):
        LinkEstimator = self._import()
        est = LinkEstimator(prior_s=0.02)
        for _ in range(8):
            est.add(0.005)
        assert est.estimate() == pytest.approx(0.005)
        est.reset()
        assert est.estimate() == 0.02
        assert est.sample_count == 0

    def test_validation(self):
        LinkEstimator = self._import()
        with pytest.raises(ValueError):
            LinkEstimator(prior_s=-0.1)
        with pytest.raises(ValueError):
            LinkEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            LinkEstimator(alpha=1.5)
        with pytest.raises(ValueError):
            LinkEstimator(outlier_factor=0.0)
        with pytest.raises(ValueError):
            LinkEstimator(warmup=0)
        with pytest.raises(ValueError):
            LinkEstimator(max_consecutive_rejects=0)
