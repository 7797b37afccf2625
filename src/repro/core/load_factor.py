"""The influential factor ``k`` of the server computation load (§III-C, §IV).

The edge server monitors the actual execution times of the DNN partitions
it runs, keeps those of the most recent monitoring period, and takes

    k = mean(actual execution time) / mean(model-predicted execution time)

as the load factor.  Every potential partition's predicted server time is
then multiplied by ``k`` at decision time.

Because the device stops offloading when it decides to run locally, ``k``
can go stale; the :class:`GpuWatchdog` reproduces the paper's fix — a
thread that checks the GPU utilisation every 10 s and resets ``k`` once the
GPU is underutilised, so the device learns the server has recovered.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class LoadFactorMonitor:
    """Server-side sliding-window estimator of the influential factor k."""

    def __init__(self, window_s: float = 5.0, max_factor: float = 1000.0) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self._window_s = window_s
        self._max_factor = max_factor
        self._records: Deque[Tuple[float, float, float]] = deque()
        self._value = 1.0

    def record(self, time_s: float, actual_s: float, predicted_s: float) -> None:
        """Add one observed partition execution (actual vs predicted time)."""
        if actual_s < 0 or predicted_s <= 0:
            raise ValueError("actual must be >= 0 and predicted > 0")
        self._records.append((time_s, actual_s, predicted_s))
        self._evict(time_s)

    def _evict(self, now_s: float) -> None:
        while self._records and self._records[0][0] < now_s - self._window_s:
            self._records.popleft()

    def refresh(self, now_s: float) -> float:
        """Recompute k over the current window (called each profiler period)."""
        self._evict(now_s)
        if self._records:
            actual = sum(r[1] for r in self._records)
            predicted = sum(r[2] for r in self._records)
            # Constraint (1c): k >= 1.  Under zero load the ratio hovers
            # around 1 and occasionally dips below due to noise.
            self._value = min(max(actual / predicted, 1.0), self._max_factor)
        return self._value

    def reset(self) -> None:
        """Forget history and return to the unloaded factor (watchdog path)."""
        self._records.clear()
        self._value = 1.0

    @property
    def value(self) -> float:
        """Most recently refreshed k (>= 1)."""
        return self._value

    @property
    def sample_count(self) -> int:
        return len(self._records)


class GpuWatchdog:
    """Periodically resets a stale load factor once the GPU is underutilised.

    Mirrors §IV: "Once the GPU utilization is under a threshold (e.g. 90%),
    the runtime profiler modifies the value of k, and thus the user-end can
    be notified that the GPU ... has become underutilized".
    """

    def __init__(
        self,
        monitor: LoadFactorMonitor,
        threshold: float = 0.90,
        period_s: float = 10.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.monitor = monitor
        self.threshold = threshold
        self.period_s = period_s
        self._last_check_s: float | None = None

    def maybe_check(self, now_s: float, gpu_utilization: float) -> bool:
        """Run the check if a period has elapsed; returns True if k was reset."""
        if self._last_check_s is not None and now_s - self._last_check_s < self.period_s:
            return False
        self._last_check_s = now_s
        if gpu_utilization < self.threshold and self.monitor.value > 1.0:
            self.monitor.reset()
            return True
        return False
