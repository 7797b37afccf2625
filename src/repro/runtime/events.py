"""A minimal deterministic discrete-event loop."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple


class EventLoop:
    """Priority-queue event loop with a monotonically advancing clock.

    Events scheduled for the same instant fire in scheduling order (a
    sequence number breaks ties), ``last`` events after all the others,
    so runs are fully deterministic.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = start_s
        self._queue: List[Tuple[float, bool, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._stopped = False

    @property
    def now(self) -> float:
        return self._now

    def schedule_at(self, time_s: float, callback: Callable[[], None],
                    last: bool = False) -> None:
        if time_s < self._now:
            raise ValueError(f"cannot schedule in the past ({time_s} < {self._now})")
        heapq.heappush(self._queue, (time_s, last, next(self._seq), callback))

    def schedule_every(self, period_s: float, callback: Callable[[], None],
                       start_s: float | None = None) -> None:
        """Schedule ``callback`` periodically, forever (until run horizon)."""
        if period_s <= 0:
            raise ValueError("period must be positive")

        first = self._now + period_s if start_s is None else start_s

        def tick() -> None:
            callback()
            self.schedule_at(self._now + period_s, tick)

        self.schedule_at(first, tick)

    def run_until(self, end_s: float) -> None:
        """Process events up to and including ``end_s``, or until an event
        calls :meth:`stop` (the clock then stays at that event's time)."""
        self._stopped = False
        while self._queue and self._queue[0][0] <= end_s:
            time_s, _last, _seq, callback = heapq.heappop(self._queue)
            self._now = time_s
            callback()
            if self._stopped:
                return
        self._now = max(self._now, end_s)

    def stop(self) -> None:
        """End the current :meth:`run_until` after the event being processed."""
        self._stopped = True
