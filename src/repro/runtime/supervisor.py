"""Fleet supervisor: per-server health probing, ``k_s`` tracking, breakers.

The paper's §IV runtime profiler lives on the *device*: one probe stream,
one load query, one ``k``.  With N edge servers behind a gateway that
design stops scaling — every device probing every server multiplies the
probe traffic by ``clients × servers``, and a device that stopped
offloading to a server never learns it recovered.  The supervisor
centralises the profiler instead: one probe loop per *server*, feeding

- a per-server :class:`~repro.network.estimator.BandwidthEstimator`
  (probe successes as samples, failures as upper bounds),
- a per-server :class:`~repro.network.estimator.LinkEstimator` fed by the
  two-size probe decomposition (see :meth:`FleetSupervisor.probe`): the
  learned link base latency that replaces a configured
  ``extra_latencies_s`` entry, with the channel's declared base latency
  as the prior,
- a per-server influential factor ``k_s`` with a freshness timestamp
  (the same §IV load query, now asked on the clients' behalf),
- a per-server :class:`~repro.runtime.resilience.CircuitBreaker` whose
  half-open probe is the supervisor's own tick,
- a live/suspect/dead state machine driven by missed probes and by the
  gateway's observations of real request outcomes (``note_ok`` /
  ``note_failure`` / ``note_busy``).

Crash/restart detection reuses :class:`~repro.network.faults.ServerFaultPlan`
as the chaos source: when a server's restart count advances, the
supervisor wipes its bandwidth window and resets ``k_s`` to 1 — the fresh
process has an empty load-factor window, so pre-crash measurements are
lies.

All supervisor randomness (probe timing draws through the channel) comes
from its own RNG stream; with probing disabled the supervisor draws
nothing and mutates nothing, which is what makes the 1-server degenerate
gateway byte-identical to the direct client↔server path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.network.channel import Channel
from repro.network.estimator import BandwidthEstimator, LinkEstimator
from repro.runtime.messages import ProbeReport
from repro.runtime.resilience import CircuitBreaker
from repro.runtime.server import EdgeServer

#: Health states of one fleet server, as the supervisor sees it.
LIVE = "live"        # answering probes/requests
SUSPECT = "suspect"  # missed at least one probe, not yet declared dead
DEAD = "dead"        # missed ``dead_after_misses`` probes in a row


@dataclass
class ServerHealth:
    """Mutable per-server health record."""

    server_id: int
    state: str = LIVE
    k: float = 1.0
    k_time_s: float = -math.inf
    misses: int = 0
    restarts_seen: int = 0
    probes_sent: int = 0
    probe_failures: int = 0
    busy_count: int = 0

    @property
    def is_dead(self) -> bool:
        return self.state == DEAD


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervisor loop (probe cadence and thresholds)."""

    probe_period_s: float = 5.0       # §IV profiler period, per server
    probe_timeout_s: float = 1.0      # deadline on each health probe
    dead_after_misses: int = 2        # consecutive misses before DEAD
    breaker_threshold: int = 3        # failures that open a server's breaker
    breaker_cooldown_s: float = 10.0  # open time before a probe may close it
    k_ttl_s: float = 30.0             # k_s older than this stops steering
    bandwidth_window_s: float = 30.0  # age bound on per-server bw samples
    learn_links: bool = True          # decompose probes into (latency, bw)
    ping_bytes: int = 2048            # small-upload size of the probe pair
    link_alpha: float = 0.25          # EWMA gain of the link estimator
    link_outlier_factor: float = 4.0  # deviations before a sample is rejected

    def __post_init__(self) -> None:
        if self.probe_period_s <= 0 or self.probe_timeout_s <= 0:
            raise ValueError("probe_period_s and probe_timeout_s must be positive")
        if self.dead_after_misses < 1:
            raise ValueError("dead_after_misses must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be non-negative")
        if self.k_ttl_s <= 0 or self.bandwidth_window_s <= 0:
            raise ValueError("k_ttl_s and bandwidth_window_s must be positive")
        if self.ping_bytes < 1:
            raise ValueError("ping_bytes must be >= 1")
        if not 0 < self.link_alpha <= 1:
            raise ValueError("link_alpha must be in (0, 1]")
        if self.link_outlier_factor <= 0:
            raise ValueError("link_outlier_factor must be positive")


class FleetSupervisor:
    """Keeps per-server health state fresh for the gateway's routing."""

    def __init__(
        self,
        servers: Sequence[EdgeServer],
        channels: Sequence[Channel],
        config: SupervisorConfig | None = None,
        seed: int = 0,
    ) -> None:
        if len(servers) != len(channels):
            raise ValueError("one channel per server required")
        if not servers:
            raise ValueError("need at least one server")
        self.config = config or SupervisorConfig()
        self.servers = list(servers)
        self.channels = list(channels)
        self._rng = np.random.default_rng(seed)
        self.health: Dict[int, ServerHealth] = {}
        self.estimators: Dict[int, BandwidthEstimator] = {}
        self.links: Dict[int, LinkEstimator] = {}
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.last_probe: Dict[int, ProbeReport] = {}
        self._by_id: Dict[int, Tuple[EdgeServer, Channel]] = {}
        for server, channel in zip(self.servers, self.channels):
            sid = server.server_id
            if sid in self.health:
                raise ValueError(f"duplicate server_id {sid}")
            self._by_id[sid] = (server, channel)
            self.health[sid] = ServerHealth(server_id=sid)
            self.estimators[sid] = BandwidthEstimator(
                window_s=self.config.bandwidth_window_s)
            # The channel's declared base latency is the *prior*; probe
            # decomposition replaces it with a learned estimate.
            self.links[sid] = LinkEstimator(
                prior_s=channel.params.base_latency_s,
                alpha=self.config.link_alpha,
                outlier_factor=self.config.link_outlier_factor)
            self.breakers[sid] = CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_cooldown_s)

    def _server(self, server_id: int) -> EdgeServer:
        return self._by_id[server_id][0]

    # -- probe loop -----------------------------------------------------------

    def tick(self, now_s: float) -> None:
        """One supervisor period: probe every server (in id order)."""
        for server in self.servers:
            self.probe(server.server_id, now_s)

    def probe(self, server_id: int, now_s: float) -> bool:
        """One §IV-style health probe against ``server_id``.

        With ``learn_links`` (the default) the probe is *two* uploads —
        a fixed small ping plus the adaptive bulk packet — whose elapsed
        difference isolates the transfer term: the bandwidth sample is
        ``(bulk_bytes - ping_bytes) * 8 / (bulk_s - ping_s)``, so the
        link's base latency cancels instead of biasing it low, and the
        ping's residual ``ping_s - ping_bytes*8/B`` feeds that server's
        :class:`~repro.network.estimator.LinkEstimator`.  A single timed
        upload cannot tell a slow link from a thin one — that confusion
        previously leaked link latency into the bandwidth estimate (and
        through routing into apparent load).  With ``learn_links=False``
        the probe is the original single upload.

        Success refreshes ``k_s`` and the estimators and closes the
        breaker (after its cooldown); failure records a bandwidth upper
        bound, counts a miss, and feeds the breaker.  Returns True on
        success.
        """
        health = self.health[server_id]
        self.detect_restart(server_id, now_s)
        server, channel = self._by_id[server_id]
        estimator = self.estimators[server_id]
        breaker = self.breakers[server_id]
        health.probes_sent += 1
        ping = None
        if self.config.learn_links:
            ping = channel.try_upload(
                self.config.ping_bytes, now_s, self._rng,
                timeout_s=self.config.probe_timeout_s)
            if not ping.delivered:
                estimator.add_failure(
                    now_s, self.config.ping_bytes, ping.elapsed_s)
                return self._probe_missed(health, breaker, now_s)
        probe_bytes = estimator.next_probe_bytes()
        result = channel.try_upload(
            probe_bytes, now_s, self._rng,
            timeout_s=self.config.probe_timeout_s)
        reply = (server.handle_load_query(now_s)
                 if result.delivered else None)
        if result.delivered and reply is not None:
            self._ingest_timings(server_id, now_s, ping, probe_bytes,
                                 result.elapsed_s)
            health.k = max(reply.k, 1.0)
            health.k_time_s = now_s
            health.misses = 0
            health.state = LIVE
            breaker.record_success(now_s)
            return True
        if result.delivered:
            # The link works but the server answered nothing: it is the
            # process that is gone, not the path.
            self._ingest_timings(server_id, now_s, ping, probe_bytes,
                                 result.elapsed_s)
        else:
            estimator.add_failure(now_s, probe_bytes, result.elapsed_s)
        return self._probe_missed(health, breaker, now_s)

    def _probe_missed(self, health: ServerHealth, breaker: CircuitBreaker,
                      now_s: float) -> bool:
        health.probe_failures += 1
        health.misses += 1
        health.state = (DEAD if health.misses >= self.config.dead_after_misses
                        else SUSPECT)
        breaker.record_failure(now_s)
        return False

    def _ingest_timings(self, server_id: int, now_s: float, ping,
                        probe_bytes: int, bulk_s: float) -> None:
        """Fold one delivered probe's timings into the estimators."""
        estimator = self.estimators[server_id]
        if ping is None:
            estimator.add_probe(now_s, probe_bytes, bulk_s)
            return
        delta_bytes = probe_bytes - self.config.ping_bytes
        delta_s = bulk_s - ping.elapsed_s
        if delta_bytes <= 0 or delta_s <= 0:
            # Degenerate pair (jitter inverted the ordering, or the bulk
            # size collapsed onto the ping): keep the uncorrected sample
            # rather than inventing a negative bandwidth.
            estimator.add_probe(now_s, probe_bytes, bulk_s)
            return
        estimator.add_probe(now_s, delta_bytes, delta_s)
        bandwidth = delta_bytes * 8 / delta_s
        latency = max(
            ping.elapsed_s - self.config.ping_bytes * 8 / bandwidth, 0.0)
        accepted = self.links[server_id].add(latency)
        self.last_probe[server_id] = ProbeReport(
            server_id=server_id, time_s=now_s, ping_s=ping.elapsed_s,
            bulk_s=bulk_s, bulk_bytes=probe_bytes, latency_s=latency,
            bandwidth_bps=bandwidth, accepted=accepted)

    def detect_restart(self, server_id: int, now_s: float) -> bool:
        """Notice a crash/restart cycle and wipe per-server learned state.

        A restarted server process has an empty load-factor window and a
        cold partition cache; the supervisor mirrors that by resetting
        ``k_s`` to 1 (stale immediately) and clearing the bandwidth
        window.  Returns True when a restart was detected.
        """
        plan = self._server(server_id).fault_plan
        if plan is None:
            return False
        health = self.health[server_id]
        restarts = plan.restarts_before(now_s)
        if restarts <= health.restarts_seen:
            return False
        health.restarts_seen = restarts
        health.k = 1.0
        health.k_time_s = -math.inf
        self.estimators[server_id].reset()
        # ``self.links`` deliberately survives the wipe: link latency is a
        # property of the *path*, not the server process, so everything
        # learned about it before the crash still holds after the restart.
        return True

    # -- request-outcome observations (fed by the gateway ports) ---------------

    def note_ok(self, server_id: int, now_s: float) -> None:
        """A real request (offload or load query) got a healthy reply."""
        health = self.health[server_id]
        health.misses = 0
        health.state = LIVE
        self.breakers[server_id].record_success(now_s)

    def note_failure(self, server_id: int, now_s: float) -> None:
        """A real request got no reply (crashed server or dead path)."""
        health = self.health[server_id]
        health.misses += 1
        health.state = (DEAD if health.misses >= self.config.dead_after_misses
                        else SUSPECT)
        self.breakers[server_id].record_failure(now_s)

    def note_busy(self, server_id: int, now_s: float) -> None:
        """A request was shed with BusyReply: alive, but saturated."""
        health = self.health[server_id]
        health.busy_count += 1
        health.misses = 0
        health.state = LIVE  # a rejection is still an answer

    # -- routing inputs ---------------------------------------------------------

    def k_for(self, server_id: int, now_s: float, fallback: float) -> float:
        """Freshest known ``k_s``, or ``fallback`` when unknown/expired."""
        health = self.health[server_id]
        if now_s - health.k_time_s > self.config.k_ttl_s:
            return fallback
        return health.k

    def bandwidth_for(self, server_id: int, fallback: float) -> float:
        """Per-server bandwidth estimate, or ``fallback`` with no samples."""
        estimator = self.estimators[server_id]
        if estimator.sample_count == 0:
            return fallback
        return estimator.estimate()

    def latency_for(self, server_id: int) -> float:
        """Learned link base latency of ``server_id`` (prior until probed)."""
        return self.links[server_id].estimate()

    def routable(self, server_id: int) -> bool:
        """May the gateway route new offloads to this server right now?"""
        return (not self.health[server_id].is_dead
                and not self.breakers[server_id].is_open)

    def live_servers(self) -> Tuple[int, ...]:
        """Server ids currently believed alive (LIVE or SUSPECT)."""
        return tuple(s.server_id for s in self.servers
                     if not self.health[s.server_id].is_dead)
