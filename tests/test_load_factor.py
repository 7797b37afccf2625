"""LoadFactorMonitor and GpuWatchdog (§III-C / §IV)."""

import pytest

from repro.core.load_factor import GpuWatchdog, LoadFactorMonitor


class TestMonitor:
    def test_initial_value_is_one(self):
        assert LoadFactorMonitor().value == 1.0

    def test_k_is_ratio_of_sums(self):
        m = LoadFactorMonitor(window_s=10.0)
        m.record(0.0, actual_s=0.030, predicted_s=0.010)
        m.record(1.0, actual_s=0.010, predicted_s=0.010)
        assert m.refresh(1.0) == pytest.approx(0.040 / 0.020)

    def test_k_clamped_at_one(self):
        """Constraint (1c): k >= 1 even if the model overpredicts."""
        m = LoadFactorMonitor()
        m.record(0.0, actual_s=0.005, predicted_s=0.010)
        assert m.refresh(0.0) == 1.0

    def test_k_clamped_at_max(self):
        m = LoadFactorMonitor(max_factor=100.0)
        m.record(0.0, actual_s=10.0, predicted_s=0.001)
        assert m.refresh(0.0) == 100.0

    def test_window_eviction(self):
        m = LoadFactorMonitor(window_s=5.0)
        m.record(0.0, actual_s=1.0, predicted_s=0.01)  # k would be 100
        m.record(10.0, actual_s=0.02, predicted_s=0.01)
        assert m.refresh(10.0) == pytest.approx(2.0)
        assert m.sample_count == 1

    def test_value_sticky_when_window_empties(self):
        """Staleness: without new offloads, k keeps its last value (§IV)."""
        m = LoadFactorMonitor(window_s=1.0)
        m.record(0.0, actual_s=0.05, predicted_s=0.01)
        assert m.refresh(0.0) == pytest.approx(5.0)
        assert m.refresh(100.0) == pytest.approx(5.0)  # stale but sticky
        assert m.sample_count == 0

    def test_reset(self):
        m = LoadFactorMonitor()
        m.record(0.0, actual_s=0.05, predicted_s=0.01)
        m.refresh(0.0)
        m.reset()
        assert m.value == 1.0
        assert m.sample_count == 0

    def test_invalid_records(self):
        m = LoadFactorMonitor()
        with pytest.raises(ValueError):
            m.record(0.0, actual_s=-1.0, predicted_s=0.01)
        with pytest.raises(ValueError):
            m.record(0.0, actual_s=1.0, predicted_s=0.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            LoadFactorMonitor(window_s=0.0)


class TestWatchdog:
    def _loaded_monitor(self):
        m = LoadFactorMonitor()
        m.record(0.0, actual_s=0.10, predicted_s=0.01)
        m.refresh(0.0)
        assert m.value == pytest.approx(10.0)
        return m

    def test_resets_when_gpu_recovers(self):
        m = self._loaded_monitor()
        dog = GpuWatchdog(m, threshold=0.9, period_s=10.0)
        assert dog.maybe_check(0.0, gpu_utilization=0.3) is True
        assert m.value == 1.0

    def test_no_reset_when_gpu_busy(self):
        m = self._loaded_monitor()
        dog = GpuWatchdog(m, threshold=0.9, period_s=10.0)
        assert dog.maybe_check(0.0, gpu_utilization=0.95) is False
        assert m.value == pytest.approx(10.0)

    def test_respects_period(self):
        m = self._loaded_monitor()
        dog = GpuWatchdog(m, threshold=0.9, period_s=10.0)
        dog.maybe_check(0.0, gpu_utilization=0.95)
        # Load drops, but the next check is not due yet.
        assert dog.maybe_check(5.0, gpu_utilization=0.1) is False
        assert m.value == pytest.approx(10.0)
        assert dog.maybe_check(10.0, gpu_utilization=0.1) is True
        assert m.value == 1.0

    def test_no_reset_when_k_already_one(self):
        m = LoadFactorMonitor()
        dog = GpuWatchdog(m)
        assert dog.maybe_check(0.0, gpu_utilization=0.0) is False

    def test_validation(self):
        m = LoadFactorMonitor()
        with pytest.raises(ValueError):
            GpuWatchdog(m, threshold=0.0)
        with pytest.raises(ValueError):
            GpuWatchdog(m, period_s=0.0)
