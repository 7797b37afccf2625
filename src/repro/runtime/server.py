"""The edge-server runtime.

Executes offloaded tail segments on the (contended) GPU, maintains the
influential factor ``k`` via :class:`~repro.core.load_factor.LoadFactorMonitor`,
runs the GPU-utilisation watchdog, and keeps a partition cache so repeated
partition points skip graph surgery (§III-A, §IV).

With a :class:`~repro.network.faults.ServerFaultPlan` the server can also
*break*: during a crash window every handler returns ``None`` (no reply —
the client's deadline is its only recourse), the first request after the
window hits a freshly restarted process (partition cache and load-factor
window wiped), and admission control bounds the accepted offload rate,
shedding excess load with :class:`~repro.runtime.messages.BusyReply`.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Sequence

import numpy as np

from repro.core.cache import CompileOnceCache, PartitionCache
from repro.core.engine import LoADPartEngine
from repro.core.load_factor import GpuWatchdog, LoadFactorMonitor
from repro.hardware.background import IDLE, LoadSchedule
from repro.hardware.gpu_model import GpuModel
from repro.hardware.gpu_scheduler import GpuScheduler
from repro.network.codec import EncodedTensor, decode_any
from repro.network.faults import ServerFaultPlan
from repro.nn.executor import (
    SegmentExecutor,
    _check_backend,
    graph_signature,
    init_parameters,
)
from repro.runtime.batching import BatchingConfig, PendingRequest
from repro.runtime.messages import BusyReply, LoadReply, OffloadReply

#: Cost of partitioning the graph + preparing the runtime on a cache miss.
#: The paper reports the amortised overhead is ~1% of inference time over
#: ~100 requests, which puts the one-off cost in the millisecond range.
PARTITION_OVERHEAD_S = 2.5e-3


class EdgeServer:
    """Simulated edge server: GPU execution, k monitoring, watchdog."""

    def __init__(
        self,
        engine: LoADPartEngine,
        load_schedule: LoadSchedule | None = None,
        gpu_model: GpuModel | None = None,
        scheduler: GpuScheduler | None = None,
        seed: int = 0,
        backend: str = "naive",
        functional: bool = False,
        model_seed: int = 0,
        fault_plan: ServerFaultPlan | None = None,
        server_id: int = 0,
        profile=None,
    ) -> None:
        self.engine = engine
        #: Identity of this server inside a sharded fleet (0 when alone).
        self.server_id = server_id
        #: This server's :class:`~repro.core.engine.ServerProfile` in a
        #: heterogeneous fleet (``None`` = the engine's shared model).
        #: Load monitoring divides observed by *this server's* predicted
        #: tail time — against the shared model, slow silicon would read
        #: as permanent queueing (k ≈ hardware scale even when idle).
        self.profile = profile
        self.load_schedule = load_schedule or LoadSchedule([(0.0, IDLE)])
        self.gpu_model = gpu_model or GpuModel()
        self.scheduler = scheduler or GpuScheduler()
        self.monitor = LoadFactorMonitor()
        self.watchdog = GpuWatchdog(self.monitor)
        self.cache = PartitionCache(engine.partitioner)
        self._rng = np.random.default_rng(seed)
        self.offload_count = 0
        self.fault_plan = fault_plan
        self._restarts_seen = 0
        self.rejected_count = 0
        self._admitted: Deque[float] = deque()
        self.backend = _check_backend(backend)
        self.functional = functional
        self._model_seed = model_seed
        self._model_params: Dict[str, np.ndarray] | None = None
        self._model_params_lock = threading.Lock()
        # Compiled tail executors keyed by (graph signature, partition
        # point, batch size): plans compile once and are reused across
        # requests and across the batching ladder's rungs.  Threads that
        # share this server and ask for one key at once get one compile.
        self._graph_sig = graph_signature(engine.graph)
        self._tail_executors: CompileOnceCache = CompileOnceCache()
        # Early-exit state, all lazy: per-exit partition caches, graph
        # signatures and head parameters.  Requests without an exit index
        # never touch any of it (the exit-free path is unchanged).
        self._exit_caches: Dict[int, PartitionCache] = {}
        self._exit_sigs: Dict[int, str] = {}
        self._exit_params: Dict[int, Dict[str, np.ndarray]] = {}

    # -- early exits -----------------------------------------------------------

    def _engine_for(self, exit_index: int | None) -> LoADPartEngine:
        if exit_index is None:
            return self.engine
        return self.engine.exit_engine(exit_index)

    def _cache_for(self, exit_index: int | None) -> PartitionCache:
        """Partition cache of one exit's graph (the backbone shares
        :attr:`cache` with exit-free traffic — same graph, same cuts)."""
        if exit_index is None or exit_index == self.engine.num_exits - 1:
            return self.cache
        cache = self._exit_caches.get(exit_index)
        if cache is None:
            cache = PartitionCache(self.engine.exit_engine(exit_index).partitioner)
            self._exit_caches[exit_index] = cache
        return cache

    def _sig_for(self, exit_index: int | None) -> str:
        if exit_index is None or exit_index == self.engine.num_exits - 1:
            return self._graph_sig
        sig = self._exit_sigs.get(exit_index)
        if sig is None:
            sig = graph_signature(self.engine.exit_engine(exit_index).graph)
            self._exit_sigs[exit_index] = sig
        return sig

    def _params_for(self, exit_index: int | None) -> Dict[str, np.ndarray]:
        """Model parameters of one exit's graph.

        Backbone nodes are seeded per parameter *name*, so the shared
        prefix of every exit graph carries bit-identical weights; only the
        exit's own head adds new entries.
        """
        if exit_index is None or exit_index == self.engine.num_exits - 1:
            return self.model_params
        params = self._exit_params.get(exit_index)
        if params is None:
            with self._model_params_lock:
                params = self._exit_params.get(exit_index)
                if params is None:
                    graph = self.engine.exit_engine(exit_index).graph
                    params = init_parameters(
                        (graph.node(n) for n in graph.topological_order()),
                        self._model_seed,
                    )
                    self._exit_params[exit_index] = params
        return params

    # -- functional execution --------------------------------------------------

    @property
    def model_params(self) -> Dict[str, np.ndarray]:
        """Parameters materialised from the preloaded model file (§III-A)."""
        if self._model_params is None:
            with self._model_params_lock:
                if self._model_params is None:
                    graph = self.engine.graph
                    self._model_params = init_parameters(
                        (graph.node(n) for n in graph.topological_order()),
                        self._model_seed,
                    )
        return self._model_params

    def _tail_executor(self, point: int, batch: int = 1,
                       exit_index: int | None = None) -> SegmentExecutor:
        key = (self._sig_for(exit_index), point, batch)
        cache = self._cache_for(exit_index)
        params = self._params_for(exit_index)
        return self._tail_executors.get_or_create(key, lambda: SegmentExecutor(
            cache.get(point).tail, params=params,
            backend=self.backend, batch=batch,
        ))

    @staticmethod
    def _decode_boundary(tensors: Dict[str, object]) -> Dict[str, np.ndarray]:
        """Materialise uploaded tensors: codec-encoded payloads are decoded
        on arrival, raw fp32 arrays pass through untouched."""
        return {
            name: decode_any(value) if isinstance(value, EncodedTensor)
            else value
            for name, value in tensors.items()
        }

    def _execute_tail(self, point: int, tensors: Dict[str, np.ndarray],
                      exit_index: int | None = None) -> Dict[str, np.ndarray]:
        """Run the tail segment on the uploaded boundary tensors."""
        partitioned = self._cache_for(exit_index).get(point)
        if partitioned.tail.is_empty:
            return {}
        decoded = self._decode_boundary(tensors)
        boundary = {name: decoded[name] for name in partitioned.tail.boundary_inputs}
        return self._tail_executor(point, exit_index=exit_index).run(boundary)

    def _execute_tail_batch(
        self, point: int, tensors_list: Sequence[Dict[str, np.ndarray]], padded: int,
        exit_index: int | None = None,
    ) -> List[Dict[str, np.ndarray]]:
        """Run one ``padded``-sample batched tail over stacked boundaries.

        The ``len(tensors_list)`` real samples are stacked along the batch
        axis and zero-padded up to ``padded``; per-request output slices
        keep their leading batch-1 axis, so each reply looks exactly like a
        solo :meth:`_execute_tail` result.
        """
        partitioned = self._cache_for(exit_index).get(point)
        if partitioned.tail.is_empty:
            return [{} for _ in tensors_list]
        executor = self._tail_executor(point, batch=padded, exit_index=exit_index)
        b = len(tensors_list)
        decoded_list = [self._decode_boundary(tensors) for tensors in tensors_list]
        boundary: Dict[str, np.ndarray] = {}
        for name, spec in partitioned.tail.boundary_inputs.items():
            stack = [np.asarray(tensors[name]) for tensors in decoded_list]
            if padded > b:
                stack.append(np.zeros(
                    ((padded - b) * spec.shape[0],) + tuple(spec.shape[1:]),
                    dtype=stack[0].dtype,
                ))
            boundary[name] = np.concatenate(stack, axis=0)
        outputs = executor.run(boundary)
        return [
            {name: out[i:i + 1] for name, out in outputs.items()}
            for i in range(b)
        ]

    # -- fault model ----------------------------------------------------------

    def available_at(self, now_s: float) -> bool:
        """Is the server process alive (not inside a crash window)?"""
        return self.fault_plan is None or not self.fault_plan.is_down(now_s)

    def _maybe_restart(self, now_s: float) -> None:
        """Wipe crash-volatile state when a crash window has elapsed.

        A restarted server has no partition cache (graph surgery redone on
        demand — the next request pays ``PARTITION_OVERHEAD_S`` again) and
        an empty load-factor window (``k`` restarts at 1 and must re-learn
        the load).  Model parameters reload from the preloaded file
        (§III-A), so functional outputs are unchanged.
        """
        if self.fault_plan is None:
            return
        restarts = self.fault_plan.restarts_before(now_s)
        if restarts > self._restarts_seen:
            self._restarts_seen = restarts
            self.cache.clear()
            for cache in self._exit_caches.values():
                cache.clear()
            self.monitor.reset()
            self._admitted.clear()

    def _admit(self, now_s: float, request_id: int) -> BusyReply | None:
        """Admission control: bounded accept rate, or a BusyReply."""
        plan = self.fault_plan
        if plan is None or plan.queue_limit is None:
            return None
        while self._admitted and self._admitted[0] < now_s - plan.admission_window_s:
            self._admitted.popleft()
        if len(self._admitted) >= plan.queue_limit:
            self.rejected_count += 1
            return BusyReply(request_id=request_id, retry_after_s=plan.retry_after_s)
        self._admitted.append(now_s)
        return None

    # -- request path ---------------------------------------------------------

    def handle_offload(self, now_s: float, request_id: int, point: int,
                       tensors: Dict[str, np.ndarray] | None = None,
                       arrivals: Dict[str, float] | None = None,
                       exit_index: int | None = None,
                       ) -> OffloadReply | BusyReply | None:
        """Execute the tail of partition ``point`` arriving at ``now_s``.

        When the server runs in functional mode and the device uploaded real
        boundary ``tensors``, the tail segment is actually executed and its
        outputs travel back on the reply; simulated timing is unaffected.

        ``arrivals`` is the streaming pipeline's gift: per-crossing-tensor
        availability instants (absolute, all ``<= now_s``, which is when the
        *last* tensor became available).  The tail then executes
        arrival-gated — each run of the release schedule starts as soon as
        its gating tensor has landed — so compute that overlapped the
        upload is hidden from ``server_exec_s``.  The reply's
        ``gpu_busy_s`` still carries the full occupancy for load
        accounting.  Without ``arrivals`` (monolithic upload) nothing
        changes: one scheduler pass, ``server_exec_s`` == busy time.

        Without a fault plan the return is always an :class:`OffloadReply`.
        With one, a crashed server returns ``None`` (no reply ever comes —
        the caller's deadline is its only recourse) and an overloaded one
        returns a :class:`BusyReply` instead of queueing without bound.
        """
        if not self.available_at(now_s):
            return None
        self._maybe_restart(now_s)
        busy = self._admit(now_s, request_id)
        if busy is not None:
            return busy
        engine = self._engine_for(exit_index)
        cache = self._cache_for(exit_index)
        cache_hit = point in cache
        partitioned = cache.get(point)
        overhead = 0.0 if cache_hit else PARTITION_OVERHEAD_S

        result_tensors = (
            self._execute_tail(point, tensors, exit_index=exit_index)
            if self.functional and tensors is not None
            else None
        )

        kernel_times = self.gpu_model.sample_kernel_times(engine.profiles, self._rng,
                                                          start=point)
        level = self.load_schedule.level_at(now_s)
        gpu_busy_s: float | None = None
        schedule = engine.release_schedule(point) if arrivals else ()
        if len(schedule) > 1:
            # Arrival-gated execution: split the kernel sequence at the
            # release gates; each segment starts at max(gate, previous
            # segment's finish).  A single-entry schedule degenerates to
            # the monolithic path below (same scheduler call, same RNG
            # draws).
            bounds = [j for _name, j in schedule] + [point + len(kernel_times)]
            busy_end = -math.inf
            gpu_busy = 0.0
            for (gate_name, jstart), jend in zip(schedule, bounds[1:]):
                seg = kernel_times[jstart - point:jend - point]
                seg_exec = self.scheduler.execute(seg, level, self._rng)
                gpu_busy += seg_exec
                start = max(arrivals.get(gate_name, now_s), busy_end)
                busy_end = start + seg_exec
            actual = max(busy_end - now_s, 0.0)
            gpu_busy_s = gpu_busy
        else:
            actual = self.scheduler.execute(kernel_times, level, self._rng)

        predicted = engine.predicted_server_time(point, profile=self.profile)
        if predicted > 0:
            # k tracks compute slowdown, so it is fed GPU occupancy — the
            # exposed (overlap-credited) time would make a loaded server
            # look idle whenever uploads hide its queueing.
            observed = gpu_busy_s if gpu_busy_s is not None else actual
            self.monitor.record(now_s, observed, predicted)
        self.offload_count += 1
        return OffloadReply(
            request_id=request_id,
            partition_point=point,
            server_exec_s=actual,
            result_bytes=partitioned.tail.result_bytes if not partitioned.tail.is_empty
            else 0,
            cache_hit=cache_hit,
            partition_overhead_s=overhead,
            tensors=result_tensors,
            gpu_busy_s=gpu_busy_s,
            exit_index=exit_index,
        )

    def handle_offload_batch(
        self,
        now_s: float,
        requests: Sequence[PendingRequest],
        point: int,
        batching: BatchingConfig,
        exit_index: int | None = None,
    ) -> List[OffloadReply] | None:
        """Execute one batched tail flush for ``requests`` at ``now_s``.

        The batch is padded up to the nearest ladder rung and runs once on
        the GPU; all requests finish together.  Each reply's
        ``server_exec_s`` is that request's *time at the server* — its
        queueing delay (``now_s - enqueue_s``) plus the shared batch
        execution time — and that same sum feeds the load-factor monitor,
        so ``k = observed/predicted`` keeps reflecting what clients truly
        experience under batching.  Replies are returned in request order.
        """
        if not requests:
            return []
        if not self.available_at(now_s):
            return None
        self._maybe_restart(now_s)
        engine = self._engine_for(exit_index)
        cache = self._cache_for(exit_index)
        cache_hit = point in cache
        partitioned = cache.get(point)
        overhead = 0.0 if cache_hit else PARTITION_OVERHEAD_S

        results: List[Dict[str, np.ndarray] | None]
        if self.functional and all(r.tensors is not None for r in requests):
            padded = batching.padded_size(len(requests))
            results = list(self._execute_tail_batch(
                point, [r.tensors for r in requests], padded,
                exit_index=exit_index,
            ))
        else:
            results = [None] * len(requests)

        kernel_times = self.gpu_model.sample_kernel_times(engine.profiles, self._rng,
                                                          start=point)
        scale = batching.batch_time_scale(batching.padded_size(len(requests)))
        level = self.load_schedule.level_at(now_s)
        exec_s = self.scheduler.execute(
            [kt * scale for kt in kernel_times], level, self._rng
        )

        predicted = engine.predicted_server_time(point, profile=self.profile)
        result_bytes = partitioned.tail.result_bytes if not partitioned.tail.is_empty else 0
        replies: List[OffloadReply] = []
        for i, request in enumerate(requests):
            queue_s = max(now_s - request.enqueue_s, 0.0)
            observed = queue_s + exec_s
            if predicted > 0:
                self.monitor.record(now_s, observed, predicted)
            self.offload_count += 1
            replies.append(OffloadReply(
                request_id=request.request_id,
                partition_point=point,
                server_exec_s=observed,
                result_bytes=result_bytes,
                cache_hit=cache_hit if i == 0 else True,
                partition_overhead_s=overhead if i == 0 else 0.0,
                tensors=results[i],
                queue_s=queue_s,
                batch_size=len(requests),
                exit_index=exit_index,
            ))
        return replies

    # -- profiler path -----------------------------------------------------------

    def handle_load_query(self, now_s: float) -> LoadReply | None:
        """The device profiler asks for the current load factor (§IV).

        Returns ``None`` when the server is inside a crash window (the
        query, like any other message, gets no reply).
        """
        if not self.available_at(now_s):
            return None
        self._maybe_restart(now_s)
        k = self.monitor.refresh(now_s)
        return LoadReply(k=k, gpu_utilization=self.gpu_utilization(now_s))

    def gpu_utilization(self, now_s: float) -> float:
        return self.load_schedule.level_at(now_s).utilization

    def watchdog_tick(self, now_s: float) -> bool:
        """Periodic GPU-utilisation check; resets k when the GPU recovers."""
        return self.watchdog.maybe_check(now_s, self.gpu_utilization(now_s))
