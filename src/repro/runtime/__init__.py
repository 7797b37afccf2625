"""Device-server runtime emulation.

Reproduces the online system of Fig. 3 as a discrete-event simulation:

- :class:`~repro.runtime.events.EventLoop` — the simulated clock.
- :class:`~repro.runtime.client.UserDevice` — runs the partition decision
  algorithm, the bandwidth-probing profiler thread, executes head segments
  and offloads tails.
- :class:`~repro.runtime.server.EdgeServer` — executes tail segments on the
  contended GPU, maintains the influential factor ``k`` and the
  GPU-utilisation watchdog.
- :class:`~repro.runtime.driver.Driver` — the one event-driven run loop:
  request events, profiler/watchdog/supervisor ticks, immediate or
  batched execution.
- The three systems it runs, each wiring servers, channels and clients
  and returning one :class:`~repro.runtime.system.Timeline` of
  per-request records:

  - :class:`~repro.runtime.system.OffloadingSystem` — one device, one
    server, one link, under a load schedule;
  - :class:`~repro.runtime.multi.MultiClientSystem` — N devices sharing
    one server whose load is their own traffic (optionally batched);
  - :class:`~repro.runtime.gateway.GatewayFleetSystem` — N devices
    routed across M servers by a gateway with a health supervisor.

The emulation replaces the paper's physical Pi-to-server WiFi deployment;
all latencies come from :mod:`repro.hardware` and :mod:`repro.network`,
while the *protocol* (periods, staleness, cache behaviour) is faithfully
event-driven.
"""

from repro.runtime.client import UserDevice
from repro.runtime.multi import MultiClientSystem, SharedLoadTracker
from repro.runtime.events import EventLoop
from repro.runtime.gateway import (
    EdgeGateway,
    GatewayConfig,
    GatewayDevice,
    GatewayFleetSystem,
)
from repro.runtime.messages import BusyReply, InferenceRecord, LoadReply, OffloadReply
from repro.runtime.resilience import CircuitBreaker, ResilienceConfig
from repro.runtime.server import EdgeServer
from repro.runtime.supervisor import FleetSupervisor, ServerHealth, SupervisorConfig
from repro.runtime.system import OffloadingSystem, SystemConfig, Timeline

__all__ = [
    "BusyReply",
    "CircuitBreaker",
    "EdgeGateway",
    "EdgeServer",
    "FleetSupervisor",
    "GatewayConfig",
    "GatewayDevice",
    "GatewayFleetSystem",
    "MultiClientSystem",
    "ServerHealth",
    "SharedLoadTracker",
    "SupervisorConfig",
    "EventLoop",
    "InferenceRecord",
    "LoadReply",
    "OffloadReply",
    "OffloadingSystem",
    "ResilienceConfig",
    "SystemConfig",
    "Timeline",
    "UserDevice",
]
