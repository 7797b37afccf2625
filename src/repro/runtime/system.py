"""``OffloadingSystem``: wires device, server, channel and load schedule.

The :class:`~repro.runtime.driver.Driver` runs it: periodic profiler
ticks on the device (default 5 s, §V-A), the periodic GPU watchdog on the
server (default 10 s), and requests issued back-to-back (plus an optional
think time).  Produces a :class:`Timeline` of per-request records — the raw
material of the Fig. 6/7/8/9 experiments.  The ``build_*`` helpers wire
the servers, links and clients of every system, fleets included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple

import numpy as np

from repro.core.baselines import FullOffloadStrategy, LocalStrategy, NeurosurgeonStrategy
from repro.core.engine import LoADPartEngine
from repro.hardware.background import IDLE, LoadSchedule
from repro.network.channel import Channel, NetworkParams
from repro.network.faults import FaultPlan, FaultyChannel, ServerFaultPlan
from repro.network.traces import BandwidthTrace, ConstantTrace
from repro.network.streaming import StreamingConfig
from repro.nn.executor import BACKENDS
from repro.runtime.batching import BatchingConfig
from repro.runtime.client import UserDevice
from repro.runtime.driver import Driver
from repro.runtime.events import EventLoop
from repro.runtime.messages import InferenceRecord
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.server import EdgeServer

POLICIES = ("loadpart", "neurosurgeon", "local", "full")


@dataclass(frozen=True)
class SystemConfig:
    """Knobs of one emulation run (defaults follow §V-A of the paper)."""

    policy: str = "loadpart"
    profiler_period_s: float = 5.0
    watchdog_period_s: float = 10.0
    watchdog_threshold: float = 0.90
    think_time_s: float = 0.015      # gap between consecutive requests
    monitor_window_s: float = 5.0
    seed: int = 0
    backend: str = "naive"           # executor backend for functional runs
    functional: bool = False         # actually execute segments on arrays
    #: Opt-in dynamic batching of concurrent offloads (multi-client only);
    #: None keeps the one-request-at-a-time behaviour of the paper.
    batching: BatchingConfig | None = None
    #: Opt-in fault injection on the channel (drops, outages, spikes).
    faults: FaultPlan | None = None
    #: Opt-in server fault model (crash windows, admission control).
    server_faults: ServerFaultPlan | None = None
    #: Opt-in resilient client (deadlines, retries, circuit breaker,
    #: local fallback).  None keeps the paper's trusting offload path.
    resilience: ResilienceConfig | None = None
    #: Opt-in streaming pipelined transport: chunked uploads, codec-aware
    #: joint (point, codec, chunking) decisions, arrival-gated tail
    #: execution on the server.  None keeps the monolithic fp32 upload.
    #: Requires the ``loadpart`` policy (the joint scan lives in the
    #: LoADPart engine).
    streaming: StreamingConfig | None = None
    #: Opt-in per-request SLA classes: a tuple of latency deadlines in
    #: seconds (``None`` entries = no SLA, full accuracy), assigned to
    #: clients round-robin by client index.  Devices with an SLA run the
    #: SLA-aware (exit, point) decision when the engine carries exit
    #: branches.  ``None`` keeps the classic SLA-free runtime verbatim.
    sla_classes: tuple | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.batching is not None and not isinstance(self.batching, BatchingConfig):
            raise ValueError("batching must be a BatchingConfig or None")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError("faults must be a FaultPlan or None")
        if (self.server_faults is not None
                and not isinstance(self.server_faults, ServerFaultPlan)):
            raise ValueError("server_faults must be a ServerFaultPlan or None")
        if (self.resilience is not None
                and not isinstance(self.resilience, ResilienceConfig)):
            raise ValueError("resilience must be a ResilienceConfig or None")
        if self.streaming is not None:
            if not isinstance(self.streaming, StreamingConfig):
                raise ValueError("streaming must be a StreamingConfig or None")
            if self.policy != "loadpart":
                raise ValueError(
                    "streaming requires policy='loadpart' (the joint "
                    f"(point, codec) scan); got policy={self.policy!r}")
        if self.sla_classes is not None:
            if (not isinstance(self.sla_classes, tuple)
                    or not self.sla_classes):
                raise ValueError("sla_classes must be a non-empty tuple or None")
            for sla in self.sla_classes:
                if sla is None:
                    continue
                if (not isinstance(sla, (int, float)) or not sla > 0
                        or not math.isfinite(sla)):
                    raise ValueError(
                        f"sla_classes entries must be positive or None, got {sla!r}")
            if self.streaming is not None:
                raise ValueError(
                    "sla_classes are incompatible with streaming uploads "
                    "(the streamed joint decision has no exit axis)")


def percentile(values, q: float) -> float:
    """``np.percentile`` of latencies that may hold stalled requests (inf).

    Linear interpolation next to an infinite latency computes ``inf - inf``
    or ``0 * inf``, which is NaN.  Here a rank that lands exactly on a
    value returns that value and interpolating toward an infinite
    neighbour returns ``inf``; finite input gives exactly ``np.percentile``.
    Empty input is NaN.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(values, q))
    if math.isnan(value):
        lower = np.percentile(values, q, method="lower")
        higher = np.percentile(values, q, method="higher")
        value = float(lower) if lower == higher else math.inf
    return value


class Timeline:
    """The per-request records of one run, with summary helpers.

    ``Timeline(records)`` holds one client's records.  A fleet run passes
    one list per client, ``Timeline(*per_client)``: ``records`` joins them
    in client order when first read, and ``timelines`` gives one Timeline
    per client.  Every aggregate is NaN on an empty run.
    """

    def __init__(self, *clients: List[InferenceRecord]) -> None:
        self._clients = clients

    @cached_property
    def records(self) -> List[InferenceRecord]:
        if len(self._clients) == 1:
            return self._clients[0]
        return [r for records in self._clients for r in records]

    @property
    def timelines(self) -> Tuple["Timeline", ...]:
        """One Timeline per client, in client order."""
        return tuple(map(Timeline, self._clients))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def latencies(self) -> np.ndarray:
        return np.array([r.total_s for r in self.records])

    @property
    def points(self) -> np.ndarray:
        return np.array([r.partition_point for r in self.records])

    @property
    def times(self) -> np.ndarray:
        return np.array([r.start_s for r in self.records])

    def mean_latency(self) -> float:
        if not self.records:
            return float("nan")
        return float(self.latencies.mean())

    def percentile_latency(self, q: float) -> float:
        return percentile(self.latencies, q)

    def local_fraction(self) -> float:
        """Fraction of issued requests that ran wholly on the device."""
        if not self.records:
            return float("nan")
        return sum(1 for r in self.records if r.is_local) / len(self.records)

    def between(self, start_s: float, end_s: float) -> "Timeline":
        return Timeline([r for r in self.records if start_s <= r.start_s < end_s])

    def for_server(self, server_id: int | None) -> "Timeline":
        """Only the requests whose final attempt went to ``server_id``
        (``None`` selects the purely-local records)."""
        return Timeline([r for r in self.records if r.server_id == server_id])

    # -- resilience summaries ------------------------------------------------

    @property
    def completed(self) -> "Timeline":
        """Only the requests that produced an answer (finite latency)."""
        return Timeline([r for r in self.records if r.completed])

    def availability(self) -> float:
        """Fraction of issued requests that completed."""
        if not self.records:
            return float("nan")
        return sum(1 for r in self.records if r.completed) / len(self.records)

    def fallback_rate(self) -> float:
        """Fraction of issued requests resolved by local fallback/rejection."""
        if not self.records:
            return float("nan")
        return sum(1 for r in self.records if r.fell_back) / len(self.records)

    # -- SLA summaries -------------------------------------------------------

    def sla_attainment(self) -> float:
        """Fraction of SLA-carrying requests that met their deadline
        (NaN when no request carried an SLA)."""
        carrying = [r for r in self.records if r.sla_s is not None]
        if not carrying:
            return float("nan")
        return sum(1 for r in carrying if r.met_sla) / len(carrying)

    def exit_counts(self) -> dict:
        """Histogram of served exits (``None`` = full network)."""
        counts: dict = {}
        for r in self.records:
            counts[r.exit_index] = counts.get(r.exit_index, 0) + 1
        return counts


def make_policy(name: str, engine: LoADPartEngine):
    """The decision policy a client runs under ``SystemConfig.policy``."""
    if name == "loadpart":
        return engine
    if name == "neurosurgeon":
        return NeurosurgeonStrategy(engine)
    if name == "local":
        return LocalStrategy(engine)
    return FullOffloadStrategy(engine)


def build_server(cls, engine: LoADPartEngine, config: SystemConfig,
                 index: int = 0, **kwargs) -> EdgeServer:
    """Server ``index`` of a system, seeded ``seed + 100 + 1000 * index``
    (server 0 of a fleet draws what the lone server of a direct system
    draws; siblings get widely-separated streams)."""
    return cls(
        engine,
        monitor_window_s=config.monitor_window_s,
        watchdog_threshold=config.watchdog_threshold,
        watchdog_period_s=config.watchdog_period_s,
        seed=config.seed + 100 + 1000 * index,
        backend=config.backend,
        functional=config.functional,
        model_seed=config.seed,
        server_id=index,
        **kwargs,
    )


def build_channel(trace: BandwidthTrace, config: SystemConfig,
                  params: NetworkParams | None = None, index: int = 0) -> Channel:
    """The link to server ``index``; injected faults draw from that
    server's own stream (server 0 gets the plan verbatim)."""
    if config.faults is None:
        return Channel(trace, params)
    return FaultyChannel(trace, config.faults.for_server(index), params)


def build_client(cls, engine: LoADPartEngine, config: SystemConfig,
                 index: int, *args, **kwargs) -> UserDevice:
    """Client ``index`` of a system, seeded ``seed + 200 + index``, with
    the SLA classes assigned round-robin by client index."""
    sla_classes = config.sla_classes
    return cls(
        engine,
        *args,
        seed=config.seed + 200 + index,
        backend=config.backend,
        functional=config.functional,
        model_seed=config.seed,
        resilience=config.resilience,
        streaming=config.streaming,
        sla_s=sla_classes[index % len(sla_classes)] if sla_classes else None,
        **kwargs,
    )


class OffloadingSystem:
    """One device + one server + one link, runnable as a simulation."""

    def __init__(
        self,
        engine: LoADPartEngine,
        bandwidth_trace: BandwidthTrace | None = None,
        load_schedule: LoadSchedule | None = None,
        config: SystemConfig | None = None,
        network_params: NetworkParams | None = None,
    ) -> None:
        self.config = config or SystemConfig()
        if self.config.batching is not None:
            raise ValueError(
                "dynamic batching needs concurrent clients; use MultiClientSystem"
            )
        self.engine = engine
        self.channel = build_channel(bandwidth_trace or ConstantTrace(8e6),
                                     self.config, network_params)
        self.server = build_server(
            EdgeServer, engine, self.config,
            load_schedule=load_schedule or LoadSchedule([(0.0, IDLE)]),
            fault_plan=self.config.server_faults,
        )
        self.device = build_client(
            UserDevice, engine, self.config, 0, self.server, self.channel,
            policy=make_policy(self.config.policy, engine))
        self.loop = EventLoop()

    def run(
        self,
        duration_s: float,
        max_requests: int | None = None,
        on_record: Callable[[InferenceRecord], None] | None = None,
    ) -> Timeline:
        """Simulate ``duration_s`` seconds of operation."""
        return Timeline(*Driver(self.loop, self.config, [self.device], [self.server],
                                stagger=False).run(duration_s, max_requests, on_record))
