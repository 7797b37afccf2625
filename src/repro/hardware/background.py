"""Background computation-load levels and time schedules (paper §II, §V-C).

The paper generates six GPU-load levels by running 7 processes of periodic
AlexNet inference (30%..100%(l) utilisation) and an extreme level 100%(h)
by running ResNet152 every microsecond in 7 processes.  100%(l) and
100%(h) share the same *utilisation* but differ in the depth of the kernel
queue, hence in how long a foreground task waits at each scheduling point.

A :class:`LoadLevel` condenses a regime into the contention parameters the
:class:`~repro.hardware.gpu_scheduler.GpuScheduler` consumes; a
:class:`LoadSchedule` is a step function of time used by the Fig. 9
experiments.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class LoadLevel:
    """Contention parameters of one background-load regime.

    ``utilization`` is what the server's GPU monitor reads (the watchdog
    threshold of §IV compares against it).  ``contend_prob`` is the chance
    that a background kernel occupies the GPU at a foreground kernel
    boundary; ``wait_mean_s``/``wait_cv`` parameterise the (lognormal) wait
    duration; ``initial_wait_s`` is the mean queueing delay before the first
    foreground kernel of a request is scheduled.
    """

    name: str
    utilization: float
    contend_prob: float
    wait_mean_s: float
    wait_cv: float
    initial_wait_s: float


IDLE = LoadLevel("0%", 0.0, 0.0, 0.0, 0.0, 0.0)
U30 = LoadLevel("30%", 0.30, 0.036, 0.15e-3, 1.0, 0.05e-3)
U50 = LoadLevel("50%", 0.50, 0.060, 0.15e-3, 1.0, 0.08e-3)
U70 = LoadLevel("70%", 0.70, 0.084, 0.20e-3, 1.0, 0.15e-3)
U90 = LoadLevel("90%", 0.90, 0.110, 0.30e-3, 1.2, 0.50e-3)
U100L = LoadLevel("100%(l)", 1.00, 0.55, 0.8e-3, 1.2, 2.0e-3)
U100H = LoadLevel("100%(h)", 1.00, 0.85, 6.0e-3, 1.5, 8.0e-3)

#: All named levels, keyed by their paper name.
LOAD_LEVELS: Dict[str, LoadLevel] = {
    level.name: level
    for level in (IDLE, U30, U50, U70, U90, U100L, U100H)
}


def fig2_levels() -> List[LoadLevel]:
    """The six levels of Fig. 2 (30% .. 100%(l), 100%(h))."""
    return [U30, U50, U70, U90, U100L, U100H]


class LoadSchedule:
    """A step function mapping simulation time to a :class:`LoadLevel`."""

    def __init__(self, steps: Sequence[Tuple[float, LoadLevel]]) -> None:
        if not steps:
            raise ValueError("LoadSchedule needs at least one step")
        starts = [t for t, _ in steps]
        if starts != sorted(starts):
            raise ValueError("LoadSchedule steps must be sorted by start time")
        if starts[0] != 0.0:
            raise ValueError("LoadSchedule must start at t=0")
        self._starts = starts
        self._levels = [level for _, level in steps]

    def level_at(self, t: float) -> LoadLevel:
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._levels[max(idx, 0)]

    @property
    def steps(self) -> List[Tuple[float, LoadLevel]]:
        return list(zip(self._starts, self._levels))


def fig9_schedule() -> LoadSchedule:
    """The load trajectory of the Fig. 9 experiments.

    Utilisation ramps 0% -> 100%(l) -> 100%(h) and back to idle, mirroring
    the paper's description ("we generate the background GPU utilization
    from 0% to 100%(l) and then from 100%(l) to 100%(h)"); the final drop
    exercises the GPU-watchdog recovery path (the SqueezeNet shift from
    p=99 back to a mid-network point around 220 s).
    """
    return LoadSchedule(
        [
            (0.0, IDLE),
            (40.0, U50),
            (70.0, U90),
            (100.0, U100L),
            (150.0, U100H),
            (220.0, IDLE),
        ]
    )
