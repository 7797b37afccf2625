"""The device-side bandwidth estimator (paper §IV).

The runtime profiler thread measures the available upload bandwidth in two
ways: periodically sending probe packets whose size adapts to the sliding
window's history, and passively, from the measured upload durations of
actual offloading transfers in the main thread.  Both kinds of samples land
in one sliding window; the estimate is the window median (robust to the
heavy-tailed outliers that congested WiFi produces).

The window is bounded twice: by sample count (``window_size``) and — when
``window_s`` is given — by age, matching the paper's description of a
*time* window.  Age expiry matters under faults: after a link outage the
pre-outage samples are exactly the ones that must stop dominating the
median.

Failed transfers are evidence too: a transfer of ``n`` bytes that did not
complete within ``t`` seconds proves the usable bandwidth was below
``8n/t`` bit/s, so :meth:`BandwidthEstimator.add_failure` records that
upper bound as a (pessimistic) sample instead of discarding the
observation.  Degenerate measurements (zero bytes, non-positive or
infinite durations) are silently ignored rather than raised — a probe that
never completed must not crash the profiler thread.

The median is kept until the window changes (a sample appended or aged
out, or a reset): every request's decision reads the estimate, and most
read an unchanged window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque

import numpy as np


@dataclass(frozen=True)
class _Sample:
    time_s: float
    bandwidth_bps: float
    passive: bool
    failure: bool = False


class BandwidthEstimator:
    """Sliding-window upload-bandwidth estimator with adaptive probes."""

    def __init__(
        self,
        window_size: int = 8,
        initial_estimate_bps: float = 8e6,
        probe_target_duration_s: float = 0.05,
        min_probe_bytes: int = 4 * 1024,
        max_probe_bytes: int = 4 * 1024 * 1024,
        window_s: float | None = None,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if initial_estimate_bps <= 0:
            raise ValueError("initial estimate must be positive")
        if window_s is not None and window_s <= 0:
            raise ValueError("window_s must be positive (or None for no age bound)")
        self._window: Deque[_Sample] = deque(maxlen=window_size)
        self._initial = initial_estimate_bps
        self._probe_target_duration_s = probe_target_duration_s
        self._min_probe_bytes = min_probe_bytes
        self._max_probe_bytes = max_probe_bytes
        self._window_s = window_s
        self._last_time_s = -math.inf
        self._median: float | None = None  # memo of estimate(); None = stale

    # -- measurement ingestion ---------------------------------------------------

    def add_probe(self, time_s: float, probe_bytes: int, duration_s: float) -> None:
        """Record one active probe: ``probe_bytes`` uploaded in ``duration_s``."""
        self._add(time_s, probe_bytes, duration_s, passive=False)

    def add_passive(self, time_s: float, nbytes: int, duration_s: float) -> None:
        """Record a passive measurement from an actual offloading upload."""
        self._add(time_s, nbytes, duration_s, passive=True)

    def add_failure(self, time_s: float, nbytes: int, elapsed_s: float) -> None:
        """Record a failed transfer: ``nbytes`` did NOT complete in ``elapsed_s``.

        The implied bandwidth upper bound enters the window as a pessimistic
        sample, so repeated failures drag the median down and push the
        partition decision toward local execution — the transfer's waiting
        time becomes evidence instead of being unrecordable.
        """
        self._add(time_s, nbytes, elapsed_s, passive=True, failure=True)

    def _add(self, time_s: float, nbytes: int, duration_s: float, passive: bool,
             failure: bool = False) -> None:
        if nbytes <= 0 or duration_s <= 0 or not math.isfinite(duration_s):
            return  # degenerate measurement: ignore, never crash the profiler
        self._last_time_s = max(self._last_time_s, time_s)
        self._evict(self._last_time_s)
        self._window.append(_Sample(time_s, nbytes * 8 / duration_s, passive, failure))
        self._median = None

    def _evict(self, now_s: float) -> None:
        if self._window_s is None:
            return
        while self._window and self._window[0].time_s < now_s - self._window_s:
            self._window.popleft()
            self._median = None

    def reset(self) -> None:
        """Forget all samples and return to the initial estimate.

        The fleet supervisor calls this when it detects a server restart:
        measurements taken against the pre-crash process (or during the
        outage, as failure upper bounds) say nothing about the fresh one.
        """
        self._window.clear()
        self._last_time_s = -math.inf
        self._median = None

    # -- queries -------------------------------------------------------------------

    def estimate(self) -> float:
        """Current upload-bandwidth estimate in bit/s (median of the window)."""
        self._evict(self._last_time_s)
        if not self._window:
            return self._initial
        if self._median is None:
            self._median = float(np.median([s.bandwidth_bps for s in self._window]))
        return self._median

    def next_probe_bytes(self) -> int:
        """Probe size targeting ``probe_target_duration_s`` at the current estimate.

        This is the paper's "size of the probe package is adjusted according
        to the historical data in the sliding window".
        """
        target = self.estimate() * self._probe_target_duration_s / 8
        return int(np.clip(target, self._min_probe_bytes, self._max_probe_bytes))

    @property
    def sample_count(self) -> int:
        return len(self._window)

    @property
    def passive_fraction(self) -> float:
        """Fraction of window samples that came from passive measurement."""
        if not self._window:
            return 0.0
        return sum(1 for s in self._window if s.passive) / len(self._window)

    @property
    def failure_fraction(self) -> float:
        """Fraction of window samples that are failed-transfer upper bounds."""
        if not self._window:
            return 0.0
        return sum(1 for s in self._window if s.failure) / len(self._window)


class LinkEstimator:
    """Online estimator of one server link's base latency (EWMA, robust).

    The fleet supervisor decomposes each two-size probe into a bandwidth
    sample and a *link latency* sample (see
    :meth:`~repro.runtime.supervisor.FleetSupervisor.probe`); this class
    turns the noisy latency samples into a stable per-server estimate —
    the learned replacement for a configured ``extra_latencies_s`` entry.

    Mechanics: an EWMA of the samples plus an EWMA of their absolute
    deviation.  Once ``warmup`` samples are in, a sample further than
    ``outlier_factor`` deviations from the mean is rejected (one
    congestion spike must not smear a stable link's estimate) — but
    ``max_consecutive_rejects`` rejections in a row are read as a level
    shift (the path really changed: re-routing, new middlebox) and the
    next sample re-seeds the estimate instead of being discarded.

    ``estimate()`` returns the configured ``prior_s`` until the first
    accepted sample, which is exactly the config-as-prior fallback when
    probing is disabled.  Link latency is a property of the *path*, not
    the server process, so the supervisor deliberately does **not**
    reset this on a server restart.
    """

    def __init__(
        self,
        prior_s: float = 0.0,
        alpha: float = 0.25,
        outlier_factor: float = 4.0,
        warmup: int = 4,
        max_consecutive_rejects: int = 3,
    ) -> None:
        if prior_s < 0 or not math.isfinite(prior_s):
            raise ValueError("prior_s must be non-negative and finite")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if outlier_factor <= 0:
            raise ValueError("outlier_factor must be positive")
        if warmup < 1 or max_consecutive_rejects < 1:
            raise ValueError("warmup and max_consecutive_rejects must be >= 1")
        self._prior = prior_s
        self._alpha = alpha
        self._outlier_factor = outlier_factor
        self._warmup = warmup
        self._max_rejects = max_consecutive_rejects
        self.reset()

    def reset(self) -> None:
        """Forget everything and fall back to the prior."""
        self._mean = self._prior
        self._dev = 0.0
        self._accepted = 0
        self._rejected = 0
        self._consecutive_rejects = 0

    def add(self, latency_s: float) -> bool:
        """Feed one latency sample; returns True if it was accepted."""
        if not math.isfinite(latency_s) or latency_s < 0:
            return False
        if self._accepted >= self._warmup and self._is_outlier(latency_s):
            self._consecutive_rejects += 1
            if self._consecutive_rejects <= self._max_rejects:
                self._rejected += 1
                return False
            # Level shift: this is the (max+1)-th straight "outlier" —
            # the estimate is what's wrong.  Re-seed on the new regime.
            self._mean = latency_s
            self._dev = 0.0
            self._accepted = 1
            self._consecutive_rejects = 0
            return True
        self._consecutive_rejects = 0
        if self._accepted == 0:
            self._mean = latency_s
            self._dev = 0.0
        else:
            delta = latency_s - self._mean
            self._mean += self._alpha * delta
            self._dev += self._alpha * (abs(delta) - self._dev)
        self._accepted += 1
        return True

    def _is_outlier(self, latency_s: float) -> bool:
        # The deviation floor keeps a near-noiseless link from locking
        # out every future sample once its EWMA deviation collapses.
        floor = 0.05 * self._mean + 1e-6
        return abs(latency_s - self._mean) > self._outlier_factor * max(
            self._dev, floor)

    def estimate(self) -> float:
        """Current link-latency estimate in seconds (prior until a sample)."""
        return self._mean if self._accepted else self._prior

    @property
    def prior_s(self) -> float:
        return self._prior

    @property
    def sample_count(self) -> int:
        return self._accepted

    @property
    def rejected_count(self) -> int:
        return self._rejected
