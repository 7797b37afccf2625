"""One event-driven driver for every system.

The paper's runtime (Fig. 3, §IV) is one loop: each device decides per
request, its profiler probes the link and queries the server's load on a
period, and each server's watchdog refreshes ``k``.  :class:`Driver` runs
that loop for any number of clients and servers on one
:class:`~repro.runtime.events.EventLoop`:

- every client's next request is an event, issued ``think_time_s`` after
  its previous request ended (``start + total + think``);
- profiler ticks (staggered across the clients of a fleet), one watchdog
  per server and the optional supervisor tick are periodic events;
- execution is *immediate* — ``request_inference`` resolves the whole
  request, retries included, at its issue instant — or *batched* under
  ``SystemConfig(batching=...)``: begin (decide + head + upload), arrive
  at the server's batch queue, flush one batched tail execution.

At one instant, requests fire after every other event (ticks, arrivals,
flushes), and otherwise in scheduling order.  A run fires every event up
to the horizon; once ``max_requests`` records exist it stops at the next
unissued request instead; then it drains in-flight batched requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from repro.runtime.batching import DynamicBatcher, PendingRequest
from repro.runtime.client import PendingOffload, UserDevice
from repro.runtime.events import EventLoop
from repro.runtime.messages import InferenceRecord
from repro.runtime.server import EdgeServer

if TYPE_CHECKING:
    from repro.runtime.supervisor import FleetSupervisor
    from repro.runtime.system import SystemConfig

#: Client ``i`` issues its first request at ``start + i * REQUEST_STAGGER_S``.
REQUEST_STAGGER_S = 0.003


class Driver:
    """Runs ``clients`` against ``servers`` on ``loop``.

    ``servers`` are the watchdog owners; batched execution queues at the
    first (batching is single-server: the gateway refuses it).
    ``stagger=False`` starts every client's periodic profiler one full
    period after the run starts, as the single-device system does.
    """

    def __init__(self, loop: EventLoop, config: SystemConfig,
                 clients: Sequence[UserDevice], servers: Sequence[EdgeServer], *,
                 supervisor: FleetSupervisor | None = None,
                 stagger: bool = True) -> None:
        self.loop = loop
        self.config = config
        self.clients = clients
        self.servers = servers
        self.supervisor = supervisor
        self.stagger = stagger

    def run(self, duration_s: float, max_requests: int | None = None,
            on_record: Callable[[InferenceRecord], None] | None = None,
            ) -> List[List[InferenceRecord]]:
        """Simulate ``duration_s`` seconds; returns each client's records."""
        loop, cfg = self.loop, self.config
        self._horizon = duration_s
        self._max_requests = max_requests
        self._on_record = on_record
        self._records: List[List[InferenceRecord]] = [[] for _ in self.clients]
        self._finished = 0
        self._in_flight = 0
        self._batcher = (DynamicBatcher(cfg.batching)
                         if cfg.batching is not None else None)

        # Warm up every profiler at the start (models load + first probe,
        # Fig. 3's "load models" step), then run them periodically.
        start = loop.now
        period = cfg.profiler_period_s
        for i, client in enumerate(self.clients):
            client.profiler_tick(start)
            # Stagger profiler periods so clients don't probe in lockstep.
            offset = ((i + 1) * period / (len(self.clients) + 1)
                      if self.stagger else period)
            loop.schedule_every(period, lambda c=client: c.profiler_tick(loop.now),
                                start_s=start + offset)
        for server in self.servers:
            loop.schedule_every(cfg.watchdog_period_s,
                                lambda s=server: s.watchdog_tick(loop.now))
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.tick(start)
            loop.schedule_every(supervisor.config.probe_period_s,
                                lambda: supervisor.tick(loop.now))
        for i in range(len(self.clients)):
            self._schedule(i, start + i * REQUEST_STAGGER_S)

        loop.run_until(duration_s)
        # Drain in-flight batched requests (arrivals and window flushes may
        # land shortly after the horizon).
        while self._in_flight > 0:
            loop.run_until(loop.now + max(cfg.batching.window_s, 1e-3))
        # An event left on the loop (a failed offload's fallback due after
        # the drain, a stale batch timer) keeps this driver alive until the
        # cyclic garbage collector runs; the records go to the caller
        # instead of living on with it.
        records, self._records = self._records, [[] for _ in self.clients]
        return records

    # -- request events ----------------------------------------------------

    def _schedule(self, i: int, at_s: float) -> None:
        # A failed (infinite) record never schedules again: the naive
        # client is stalled, exactly as a blocking RPC would leave it.  A
        # request fires last at its instant: it sees every tick there.
        if at_s < self._horizon:
            self.loop.schedule_at(max(at_s, self.loop.now), lambda: self._issue(i),
                                  last=True)

    def _issue(self, i: int) -> None:
        if self._max_requests is not None and self._finished >= self._max_requests:
            self.loop.stop()
        elif self._batcher is None:
            self._finish(i, self.clients[i].request_inference(self.loop.now))
        else:
            self._begin(i)

    def _finish(self, i: int, record: InferenceRecord) -> None:
        self._records[i].append(record)
        self._finished += 1
        if self._on_record is not None:
            self._on_record(record)
        self._schedule(i, record.start_s + record.total_s + self.config.think_time_s)

    # -- batched execution -------------------------------------------------
    #
    # All requests of a flush share one batched tail execution and finish
    # together; queueing delay lands in each record's ``server_s``, so a
    # client's next request is scheduled exactly as under immediate
    # execution.

    def _begin(self, i: int) -> None:
        loop, client = self.loop, self.clients[i]
        if client.breaker is not None and not client.breaker.allow_offload(loop.now):
            self._finish(i, client.fallback_record(None, loop.now, loop.now))
            return
        pending = client.begin_inference(loop.now)
        if isinstance(pending, InferenceRecord):
            self._finish(i, pending)
            return
        self._in_flight += 1
        if not pending.delivered:
            # The upload never made it; the device notices at its deadline
            # and falls back.
            self._fail(i, pending)
            return
        loop.schedule_at(pending.arrive_s, lambda: self._arrive(i, pending))

    def _fail(self, i: int, pending: PendingOffload,
              status: str = "fallback_local") -> None:
        """Resolve a doomed offload: local fallback or a stalled record.

        Batched mode fails fast — no retries through the queue; a resilient
        client falls back to local inference at the moment its deadline
        fires (or immediately for a rejection).
        """
        self._in_flight -= 1
        loop, client = self.loop, self.clients[i]
        if client.resilience is None:
            self._finish(i, client._failed_record(
                pending.request_id, pending.start_s, pending.partition_point,
                pending.estimated_bandwidth_bps, pending.k_used,
                device_s=pending.device_s, upload_s=pending.upload_s,
                overhead_s=pending.overhead_s,
                device_cache_hit=pending.device_cache_hit,
                exit_index=pending.exit_index,
            ))
            return
        resolve_s = loop.now if status == "rejected" else max(
            pending.deadline_s, loop.now)
        assert client.breaker is not None
        client.breaker.record_failure(resolve_s)
        loop.schedule_at(resolve_s, lambda: self._finish(i, client.fallback_record(
            pending.request_id, pending.start_s, loop.now,
            timeout_s=pending.timeout_s, status=status)))

    def _arrive(self, i: int, pending: PendingOffload) -> None:
        loop, server = self.loop, self.servers[0]
        # Requests co-batch only within one (exit, point) cell: tails of
        # different exit graphs (or cut depths) cannot share a batched
        # execution.  Exit-free requests key as exit -1, so mixed traffic
        # keeps every queue key mutually sortable.
        key = (-1 if pending.exit_index is None else pending.exit_index,
               pending.partition_point)
        if not server.available_at(loop.now):
            self._fail(i, pending)
            return
        sf = server.fault_plan
        if (sf is not None and sf.queue_limit is not None
                and self._batcher.queue_depth(key) >= sf.queue_limit):
            # Admission control sheds the request before it queues.
            server.rejected_count += 1
            self._fail(i, pending, status="rejected")
            return
        request = PendingRequest(request_id=pending.request_id, enqueue_s=loop.now,
                                 tensors=pending.transfers, context=(i, pending))
        flush_now, epoch = self._batcher.enqueue(key, request)
        if flush_now:
            self._flush(key)
        elif self._batcher.queue_depth(key) == 1:
            # This request opened the queue: arm its window timer.
            loop.schedule_at(loop.now + self.config.batching.window_s,
                             lambda: self._flush(key, epoch))

    def _flush(self, key: Tuple[int, int], epoch: int | None = None) -> None:
        loop = self.loop
        exit_key, point = key
        batch = self._batcher.take(key, epoch)
        if not batch:
            return
        replies = self.servers[0].handle_offload_batch(
            loop.now, batch, point, self.config.batching,
            exit_index=None if exit_key < 0 else exit_key,
        )
        if replies is None:
            # The server crashed between arrival and flush: the whole batch
            # dies; each client resolves at its own deadline.
            for request in batch:
                self._fail(*request.context)
            return
        # All requests leave the GPU together, one batch execution later.
        done_s = loop.now + replies[0].server_exec_s - replies[0].queue_s
        for request, reply in zip(batch, replies):
            i, pending = request.context
            client = self.clients[i]
            if done_s > pending.deadline_s:
                # Queueing + execution overshot this request's deadline: the
                # device already gave up waiting.
                self._fail(i, pending)
                continue
            budget = None
            if client.resilience is not None:
                budget = pending.deadline_s - done_s
            record = client.complete_inference(
                pending, reply, download_at_s=done_s, download_timeout_s=budget)
            if record.status == "failed" and client.resilience is not None:
                self._fail(i, pending)
                continue
            if client.breaker is not None and record.status != "failed":
                client.breaker.record_success(done_s)
            self._in_flight -= 1
            self._finish(i, record)
