"""Multi-client extension: several devices sharing one edge server.

The paper's motivation is that "the increasing offloaded tasks on an edge
server are gradually facing the contention of both the network and
computation resources" — its experiments emulate that contention with
synthetic background load.  This module closes the loop instead: the
server's contention level is *endogenous*, derived from the offload
traffic the clients themselves generate, so a fleet of load-aware clients
exhibits the interesting emergent behaviour — when the server saturates,
``k`` rises, some clients retreat to local inference, and the server
recovers.

- :class:`SharedLoadTracker` — sliding-window estimate of GPU busy time.
- :class:`EndogenousLoad` — adapts the tracker to the ``level_at`` protocol
  of :class:`~repro.hardware.background.LoadSchedule`, synthesising a
  :class:`~repro.hardware.background.LoadLevel` from current utilisation.
- :class:`SharedEdgeServer` — an :class:`~repro.runtime.server.EdgeServer`
  that feeds its own execution times back into the tracker.
- :class:`MultiClientSystem` — N devices, one server, one event loop.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.core.engine import LoADPartEngine
from repro.hardware.background import LoadLevel
from repro.network.traces import BandwidthTrace, ConstantTrace
from repro.runtime.client import UserDevice
from repro.runtime.driver import Driver
from repro.runtime.events import EventLoop
from repro.runtime.messages import OffloadReply
from repro.runtime.server import EdgeServer
from repro.runtime.system import (
    SystemConfig,
    Timeline,
    build_channel,
    build_client,
    build_server,
    make_policy,
)


class SharedLoadTracker:
    """Sliding-window GPU busy-time tracker shared by all clients.

    The window is two parallel float deques (record time, busy time).  The
    utilisation is kept until the window changes (a record appended or
    aged out), and then re-summed in full, oldest first, so it never
    drifts from a fresh sum.
    """

    def __init__(self, window_s: float = 3.0) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self._times: Deque[float] = deque()
        self._busy: Deque[float] = deque()
        self._util: float | None = None  # memo of utilization(); None = stale

    def record(self, time_s: float, busy_s: float) -> None:
        if busy_s < 0:
            raise ValueError("busy time must be non-negative")
        self._times.append(time_s)
        self._busy.append(busy_s)
        self._util = None
        self._evict(time_s)

    def _evict(self, now_s: float) -> None:
        times = self._times
        while times and times[0] < now_s - self.window_s:
            times.popleft()
            self._busy.popleft()
            self._util = None

    def utilization(self, now_s: float) -> float:
        """Fraction of the window the GPU spent on offloaded work (capped)."""
        self._evict(now_s)
        if self._util is None:
            self._util = min(sum(self._busy) / self.window_s, 1.0)
        return self._util


class EndogenousLoad:
    """Synthesises a LoadLevel from the tracker's current utilisation.

    Quacks like :class:`~repro.hardware.background.LoadSchedule` so the
    unmodified :class:`EdgeServer` machinery (watchdog, utilisation
    queries) keeps working.  Contention parameters interpolate between the
    calibrated idle and 100%(l) regimes as utilisation grows.
    """

    def __init__(self, tracker: SharedLoadTracker) -> None:
        self.tracker = tracker
        self._level: LoadLevel | None = None

    def level_at(self, t: float) -> LoadLevel:
        util = self.tracker.utilization(t)
        if self._level is not None and self._level.utilization == util:
            return self._level
        # Queueing-flavoured growth: waits diverge as the GPU saturates
        # (residual service time / (1 - utilisation), capped).
        wait = (0.15e-3 + 0.6e-3 * util) / (1.0 - min(util, 0.9))
        self._level = LoadLevel(
            name=f"shared({util * 100:.0f}%)",
            utilization=util,
            contend_prob=min(0.8 * util, 0.8),
            wait_mean_s=wait,
            wait_cv=1.2,
            initial_wait_s=2.0 * util * wait,
        )
        return self._level


class SharedEdgeServer(EdgeServer):
    """EdgeServer whose contention comes from its own offload traffic."""

    def __init__(self, engine: LoADPartEngine, tracker: SharedLoadTracker,
                 **kwargs) -> None:
        super().__init__(engine, load_schedule=EndogenousLoad(tracker), **kwargs)
        self.tracker = tracker

    def handle_offload(self, now_s: float, request_id: int, point: int,
                       tensors=None, arrivals=None, exit_index=None):
        reply = super().handle_offload(now_s, request_id, point,
                                       tensors=tensors, arrivals=arrivals,
                                       exit_index=exit_index)
        # The executed tail occupies the shared GPU; later requests see it.
        # A crash (None) or rejection (BusyReply) executed nothing.  Under
        # arrival-gated streaming the exposed server time under-reports
        # occupancy, so the busy figure wins when present.
        if isinstance(reply, OffloadReply):
            busy = (reply.gpu_busy_s if reply.gpu_busy_s is not None
                    else reply.server_exec_s)
            self.tracker.record(now_s, busy)
        return reply

    def handle_offload_batch(self, now_s, requests, point, batching,
                             exit_index=None):
        replies = super().handle_offload_batch(now_s, requests, point, batching,
                                               exit_index=exit_index)
        if replies:
            # The GPU runs the batch once: busy time is the shared execution
            # time (queueing delay is waiting, not occupancy).
            self.tracker.record(now_s, replies[0].server_exec_s - replies[0].queue_s)
        return replies


class MultiClientSystem:
    """N user-end devices sharing one edge server over one access point."""

    def __init__(
        self,
        engine: LoADPartEngine,
        num_clients: int,
        bandwidth_trace: BandwidthTrace | None = None,
        config: SystemConfig | None = None,
        tracker_window_s: float = 3.0,
    ) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.config = config or SystemConfig()
        self.engine = engine
        self.tracker = SharedLoadTracker(window_s=tracker_window_s)
        self.server = build_server(SharedEdgeServer, engine, self.config,
                                   tracker=self.tracker,
                                   fault_plan=self.config.server_faults)
        self.channel = build_channel(bandwidth_trace or ConstantTrace(8e6),
                                     self.config)
        self.clients: List[UserDevice] = [
            build_client(UserDevice, engine, self.config, i, self.server,
                         self.channel, policy=make_policy(self.config.policy, engine))
            for i in range(num_clients)]
        self.loop = EventLoop()

    def run(self, duration_s: float) -> Timeline:
        """Simulate all clients issuing requests back-to-back (through the
        server's batch queues under ``SystemConfig(batching=...)``)."""
        return Timeline(*Driver(self.loop, self.config, self.clients,
                                [self.server]).run(duration_s))
