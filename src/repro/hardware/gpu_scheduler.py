"""Time-sliced GPU contention simulator.

Models the effect §III-C of the paper describes: GPU kernels are
non-preemptive, so a *single* short kernel usually completes within its
time slice unaffected, but a partition made of many kernels yields the GPU
between kernels, where background work can (and under saturation, will)
jump in.  The simulator therefore charges waiting time

- before the first kernel, with probability ``utilization**2`` (the GPU must
  be busy *and* mid-kernel when the request arrives; a single tiny kernel is
  therefore usually scheduled immediately, as §III-C observes),
- at any kernel boundary after the first with probability ``contend_prob``,
- and whenever the foreground's time-slice budget is exhausted (forced
  yield).

Waits are lognormal with the level's mean and coefficient of variation:
the heavy tail under 100%(h) is what produces the large latency variance of
Fig. 2 and the fluctuating traces of Fig. 9.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.hardware.background import IDLE, LoadLevel
from repro.hardware.specs import GPU_TIME_SLICE_S


def _lognormal_params(mean: float, cv: float) -> tuple[float, float]:
    """``(mu, sigma)`` of the lognormal with the given mean and coefficient of variation."""
    sigma2 = math.log(1.0 + cv * cv)
    return math.log(mean) - 0.5 * sigma2, math.sqrt(sigma2)


def _lognormal(rng: np.random.Generator, mean: float, cv: float) -> float:
    """Sample a lognormal with the given mean and coefficient of variation."""
    if mean <= 0:
        return 0.0
    if cv <= 0:
        return mean
    mu, sigma = _lognormal_params(mean, cv)
    return float(rng.lognormal(mean=mu, sigma=sigma))


class GpuScheduler:
    """Executes foreground kernel sequences under a background-load level."""

    def __init__(self, time_slice_s: float = GPU_TIME_SLICE_S) -> None:
        if time_slice_s <= 0:
            raise ValueError("time slice must be positive")
        self.time_slice_s = time_slice_s

    def execute(
        self,
        kernel_times: Sequence[float],
        level: LoadLevel = IDLE,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Total time to run ``kernel_times`` under ``level``, in seconds.

        ``rng`` may be omitted only for the idle level (where the result is
        deterministic).
        """
        if not kernel_times:
            return 0.0
        if level.utilization <= 0.0:
            return float(sum(kernel_times))
        if rng is None:
            raise ValueError("a Generator is required under non-zero load")
        random = rng.random
        total = 0.0
        if random() < level.utilization**2:
            total += _lognormal(rng, level.initial_wait_s, level.wait_cv)
        # The boundary wait's distribution is fixed for the whole call, so
        # its parameters are worked out once, outside the per-kernel loop.
        wait_mean, cv = level.wait_mean_s, level.wait_cv
        lognormal = None
        if wait_mean <= 0:
            wait = 0.0
        elif cv <= 0:
            wait = wait_mean
        else:
            lognormal = rng.lognormal
            mu, sigma = _lognormal_params(wait_mean, cv)
        contend_prob = level.contend_prob
        time_slice = self.time_slice_s
        kernels = iter(kernel_times)
        kt = next(kernels)
        total += kt
        slice_left = time_slice - kt
        for kt in kernels:
            # Each boundary draws its contention uniform first, also when
            # the slice has run out and the yield is forced anyway.
            if random() < contend_prob or slice_left <= 0.0:
                total += (float(lognormal(mu, sigma)) if lognormal is not None
                          else wait)
                slice_left = time_slice
            total += kt
            slice_left -= kt
        return total

    def mean_execute(self, kernel_times: Sequence[float], level: LoadLevel = IDLE) -> float:
        """Approximate expectation of :meth:`execute`.

        Uses the expected number of contended boundaries plus the expected
        number of forced yields (service time divided by the slice length);
        accurate to a few percent for realistic kernel sequences, and exact
        at idle.
        """
        service = float(sum(kernel_times))
        if not kernel_times or level.utilization <= 0.0:
            return service
        n = len(kernel_times)
        contended = level.contend_prob * (n - 1)
        forced = (1.0 - level.contend_prob) * (service / self.time_slice_s)
        initial = level.utilization**2 * level.initial_wait_s
        return initial + service + (contended + forced) * level.wait_mean_s
