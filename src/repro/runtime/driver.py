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
- each request is one client lifecycle
  (:meth:`~repro.runtime.client.UserDevice.lifecycle`), stepped
  *immediately* — ``request_inference`` resolves it, retries included,
  at its issue instant — or, under ``SystemConfig(batching=...)``, on
  events: the upload's arrival at the server's ``(exit, point)`` queue,
  the flush that answers it with one batched tail execution, and each
  wait as a scheduled resume.  A full queue answers ``BusyReply``, as
  the server's own admission control does.

At one instant, requests fire after every other event (ticks, arrivals,
flushes), and otherwise in scheduling order.  A run fires every event up
to the horizon; once ``max_requests`` records exist it stops at the next
unissued request instead; then it drains the requests in flight (issued,
with no record yet).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from repro.runtime.batching import DynamicBatcher, PendingRequest
from repro.runtime.client import Answer, Lifecycle, PendingOffload, UserDevice
from repro.runtime.events import EventLoop
from repro.runtime.messages import BusyReply, InferenceRecord
from repro.runtime.server import EdgeServer

if TYPE_CHECKING:
    from repro.runtime.supervisor import FleetSupervisor
    from repro.runtime.system import SystemConfig

#: Client ``i`` issues its first request at ``start + i * REQUEST_STAGGER_S``.
REQUEST_STAGGER_S = 0.003
#: Period of each device's runtime profiler, probe plus load query (§V-A).
PROFILER_PERIOD_S = 5.0


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
        self._batcher = DynamicBatcher() if cfg.batching is not None else None

        # Warm up every profiler at the start (models load + first probe,
        # Fig. 3's "load models" step), then run them periodically.
        start = loop.now
        period = PROFILER_PERIOD_S
        for i, client in enumerate(self.clients):
            client.profiler_tick(start)
            # Stagger profiler periods so clients don't probe in lockstep.
            offset = ((i + 1) * period / (len(self.clients) + 1)
                      if self.stagger else period)
            loop.schedule_every(period, lambda c=client: c.profiler_tick(loop.now),
                                start_s=start + offset)
        for server in self.servers:
            loop.schedule_every(server.watchdog.period_s,
                                lambda s=server: s.watchdog_tick(loop.now))
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.tick(start)
            loop.schedule_every(supervisor.config.probe_period_s,
                                lambda: supervisor.tick(loop.now))
        for i in range(len(self.clients)):
            self._schedule(i, start + i * REQUEST_STAGGER_S)

        loop.run_until(duration_s)
        # Drain batched requests in flight: arrivals, window flushes and
        # fallbacks due at deadlines may land shortly after the horizon.
        while self._in_flight > 0:
            loop.run_until(loop.now + max(cfg.batching.window_s, 1e-3))
        # An event left on the loop (a stale batch timer) keeps this driver
        # alive until the cyclic garbage collector runs; the records go to
        # the caller instead of living on with it.
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
            return
        # A request is in flight from its issue to its record.
        self._in_flight += 1
        client = self.clients[i]
        if self._batcher is None:
            self._finish(i, client.request_inference(self.loop.now))
        else:
            self._step(i, client.lifecycle(self.loop.now, batched=True))

    def _finish(self, i: int, record: InferenceRecord) -> None:
        self._in_flight -= 1
        self._records[i].append(record)
        self._finished += 1
        if self._on_record is not None:
            self._on_record(record)
        self._schedule(i, record.start_s + record.total_s + self.config.think_time_s)

    # -- batched execution -------------------------------------------------
    #
    # The driver steps each request's lifecycle on events: the upload's
    # arrival at its ``(exit, point)`` queue, the flush that answers it and
    # every wait the lifecycle asks for.  All requests of a flush share one
    # batched tail execution; queueing delay lands in each record's
    # ``server_s``, so a client's next request is scheduled exactly as
    # under immediate execution.

    def _step(self, i: int, request: Lifecycle, answer: Answer | None = None) -> None:
        try:
            step = request.send(answer)
        except StopIteration as done:
            self._finish(i, done.value)
            return
        if isinstance(step, PendingOffload):
            self.loop.schedule_at(step.arrive_s, lambda: self._arrive(i, request, step))
        else:
            self.loop.schedule_at(step, lambda: self._step(i, request))

    def _arrive(self, i: int, request: Lifecycle, pending: PendingOffload) -> None:
        loop, server = self.loop, self.servers[0]
        # Requests co-batch only within one (exit, point) cell: tails of
        # different exit graphs (or cut depths) cannot share a batched
        # execution.  Exit-free requests key as exit -1, so mixed traffic
        # keeps every queue key mutually sortable.
        key = (-1 if pending.exit_index is None else pending.exit_index,
               pending.partition_point)
        if not server.available_at(loop.now):
            self._step(i, request, (None, loop.now))
            return
        sf = server.fault_plan
        if (sf is not None and sf.queue_limit is not None
                and self._batcher.queue_depth(key) >= sf.queue_limit):
            # Admission control sheds the request before it queues.
            server.rejected_count += 1
            self._step(i, request, (BusyReply(pending.request_id, sf.retry_after_s),
                                    loop.now))
            return
        queued = PendingRequest(request_id=pending.request_id, enqueue_s=loop.now,
                                tensors=pending.transfers, context=(i, request))
        flush_now, epoch = self._batcher.enqueue(key, queued)
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
        # ``None``: the server crashed between arrival and flush, and the
        # whole batch dies.
        replies = self.servers[0].handle_offload_batch(
            loop.now, batch, point, self.config.batching,
            exit_index=None if exit_key < 0 else exit_key,
        ) or [None] * len(batch)
        for queued, reply in zip(batch, replies):
            self._step(*queued.context, (reply, loop.now))
