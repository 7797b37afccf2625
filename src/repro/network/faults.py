"""Deterministic fault injection for the device-server link and the server.

The paper's premise is that conditions *degrade* — WiFi bandwidth collapses,
the edge GPU saturates — but a production runtime must also survive
conditions that *break*: links that drop packets, access points that go
dark, servers that crash and restart, queues that overflow.  This module
provides the seed-reproducible fault model:

- :class:`FaultPlan` — link faults: hard outage windows, per-transfer drop
  probability, latency spikes.  All randomness comes from the plan's own
  dedicated RNG stream, so a plan with all rates at zero is *byte-identical*
  to no plan at all (it never draws), and two runs with the same seed and
  plan produce identical fault sequences.
- :class:`TransferResult` — what a transfer attempt actually did: whether
  the bytes arrived and how long the sender spent finding out.  A failed
  transfer carries the elapsed time-to-timeout, because the waiting is real
  latency the device experienced (it counts toward observed totals).
- :class:`FaultyChannel` — a :class:`~repro.network.channel.Channel` whose
  :meth:`~repro.network.channel.Channel.try_upload` /
  :meth:`~repro.network.channel.Channel.try_download` consult the plan.
- :class:`ServerFaultPlan` — server faults: crash/restart windows (a
  restart wipes the partition cache and the load-factor window) and
  admission control (a bounded queue that rejects with
  :class:`~repro.runtime.messages.BusyReply` instead of absorbing
  unbounded load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.network.channel import Channel, NetworkParams, TransferResult
from repro.network.traces import BandwidthTrace


def _validate_windows(windows: Tuple[Tuple[float, float], ...], label: str) -> None:
    prev_end = -math.inf
    for window in windows:
        if len(window) != 2:
            raise ValueError(f"{label} must be (start_s, end_s) pairs, got {window!r}")
        start, end = window
        if not start < end:
            raise ValueError(f"{label} window must have start < end, got {window!r}")
        if start < prev_end:
            raise ValueError(f"{label} windows must be sorted and non-overlapping")
        prev_end = end


def _in_window(windows: Tuple[Tuple[float, float], ...], t: float) -> bool:
    return any(start <= t < end for start, end in windows)


def _derive_seed(seed: int, server_id: int) -> int:
    """Independent RNG seed for server ``server_id`` of a sharded fleet.

    :class:`numpy.random.SeedSequence` keyed by ``(seed, server_id)``
    spawns statistically independent streams per server, and — unlike
    ``seed + server_id`` arithmetic — adding a server to the fleet can
    never collide with (and therefore perturb) another server's stream.
    """
    if server_id < 0:
        raise ValueError("server_id must be non-negative")
    return int(np.random.SeedSequence((seed, server_id)).generate_state(1)[0])


@dataclass(frozen=True)
class FaultPlan:
    """Link-fault schedule: outages, random drops, latency spikes.

    ``outages`` are hard windows during which no transfer can start (the
    access point is dark); ``drop_prob`` drops individual transfers at
    random; ``latency_spike_prob`` adds ``latency_spike_s`` to a transfer
    (a retransmission burst).  Random faults draw from a dedicated
    ``seed``-keyed stream, never from the caller's RNG, so injection is
    deterministic given ``(seed, FaultPlan)`` and a plan with all rates
    zero perturbs nothing.
    """

    outages: Tuple[Tuple[float, float], ...] = ()
    drop_prob: float = 0.0
    latency_spike_prob: float = 0.0
    latency_spike_s: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "outages", tuple(tuple(w) for w in self.outages))
        _validate_windows(self.outages, "outage")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        if not 0.0 <= self.latency_spike_prob <= 1.0:
            raise ValueError("latency_spike_prob must be in [0, 1]")
        if self.latency_spike_s < 0:
            raise ValueError("latency_spike_s must be non-negative")

    def in_outage(self, t: float) -> bool:
        """True when a transfer starting at ``t`` finds the link dark."""
        return _in_window(self.outages, t)

    def for_server(self, server_id: int) -> "FaultPlan":
        """The same fault *rates* on server ``server_id``'s own RNG stream.

        Server 0 gets the plan verbatim (identity — a 1-server fleet is
        byte-identical to the direct single-server path); every other
        server draws its drops and spikes from an independent
        ``(seed, server_id)``-keyed stream, so adding or removing a server
        never perturbs a sibling's fault sequence.
        """
        if server_id == 0:
            return self
        return replace(self, seed=_derive_seed(self.seed, server_id))


class FaultyChannel(Channel):
    """A channel that injects the faults of a :class:`FaultPlan`.

    Fault draws come from the plan's own RNG (one draw per configured
    nonzero rate per transfer); the timing noise draw still comes from the
    caller's RNG exactly as in the fault-free channel, so a null plan
    leaves every caller-visible random stream untouched.
    """

    def __init__(self, trace: BandwidthTrace, plan: FaultPlan,
                 params: NetworkParams | None = None) -> None:
        super().__init__(trace, params)
        self.plan = plan
        self._fault_rng = np.random.default_rng(plan.seed)

    def _attempt(self, elapsed_fn, nbytes: int, t: float,
                 timeout_s: float | None) -> TransferResult:
        """Every transfer attempt — monolithic upload/download or one chunk
        of a stream — consults the plan at its own start time, so a
        mid-stream outage faults exactly the chunks inside the window."""
        plan = self.plan
        if plan.in_outage(t):
            return TransferResult.failed(nbytes, timeout_s)
        if plan.drop_prob > 0.0 and self._fault_rng.random() < plan.drop_prob:
            return TransferResult.failed(nbytes, timeout_s)
        elapsed = elapsed_fn()
        if plan.latency_spike_prob > 0.0 and self._fault_rng.random() < plan.latency_spike_prob:
            elapsed += plan.latency_spike_s
        return TransferResult.from_elapsed(nbytes, elapsed, timeout_s)


@dataclass(frozen=True)
class ServerFaultPlan:
    """Server-fault schedule: crash/restart windows and admission control.

    During a ``crash_windows`` interval the server answers nothing (offloads
    and load queries get no reply); the first request after a window ends
    hits a freshly *restarted* server — the partition cache and the
    load-factor window are gone.  ``queue_limit`` bounds how many offloads
    the server accepts per ``admission_window_s`` sliding window (or, under
    dynamic batching, per partition-point queue); excess requests are
    rejected immediately with ``BusyReply(retry_after_s)`` instead of being
    absorbed.
    """

    crash_windows: Tuple[Tuple[float, float], ...] = ()
    queue_limit: int | None = None
    retry_after_s: float = 0.05
    admission_window_s: float = 0.25
    #: Base seed of the chaos stream this plan was generated from (see
    #: :meth:`chaos`); hand-written plans keep the default 0.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crash_windows", tuple(tuple(w) for w in self.crash_windows)
        )
        _validate_windows(self.crash_windows, "crash")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None for unbounded)")
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be non-negative")
        if self.admission_window_s <= 0:
            raise ValueError("admission_window_s must be positive")

    def is_down(self, t: float) -> bool:
        return _in_window(self.crash_windows, t)

    def restarts_before(self, t: float) -> int:
        """Number of crash windows fully elapsed by ``t`` (restart count)."""
        return sum(1 for _start, end in self.crash_windows if end <= t)

    @classmethod
    def chaos(
        cls,
        seed: int,
        server_id: int,
        horizon_s: float,
        crashes: int = 1,
        mean_downtime_s: float = 2.0,
        queue_limit: int | None = None,
        retry_after_s: float = 0.05,
        admission_window_s: float = 0.25,
    ) -> "ServerFaultPlan":
        """Generate ``crashes`` crash/restart windows for one fleet server.

        The windows draw from a ``(seed, server_id)``-keyed
        :class:`numpy.random.SeedSequence` stream, so a multi-server chaos
        run is deterministic per server and growing the fleet never
        changes an existing server's crash schedule.  Crash starts are
        uniform over ``[0, horizon_s)``; downtimes are exponential around
        ``mean_downtime_s``, clipped to end inside the horizon (every
        crash is followed by a restart the run can observe).
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if crashes < 0:
            raise ValueError("crashes must be non-negative")
        if mean_downtime_s <= 0:
            raise ValueError("mean_downtime_s must be positive")
        rng = np.random.default_rng(_derive_seed(seed, server_id))
        windows = []
        for start in sorted(rng.uniform(0.0, horizon_s, size=crashes)):
            down = float(rng.exponential(mean_downtime_s))
            end = min(start + max(down, 1e-3), horizon_s * (1 - 1e-6))
            if windows and start <= windows[-1][1]:
                start = windows[-1][1] + 1e-3  # keep windows disjoint
                if start >= end:
                    continue
            windows.append((float(start), float(end)))
        return cls(
            crash_windows=tuple(windows),
            queue_limit=queue_limit,
            retry_after_s=retry_after_s,
            admission_window_s=admission_window_s,
            seed=seed,
        )
