"""The user-end device runtime.

Runs the partition decision algorithm per request (on the device, to avoid
extra round-trips, §III-A), executes head segments on the local CPU,
uploads intermediate tensors, and hosts the runtime-profiler activities:
adaptive bandwidth probes, passive bandwidth measurements from actual
uploads, and the periodic load query that fetches the server's ``k``.

With a :class:`~repro.runtime.resilience.ResilienceConfig` the device also
survives a *broken* offload path instead of hanging on it: every offload
attempt carries a deadline derived from the engine's own latency
prediction, failures are retried with exponential backoff at the
re-decided partition point, a circuit breaker pins ``point = n`` after
consecutive failures (the §IV profiler tick doubles as the half-open
health probe), failed transfers feed the bandwidth estimator as evidence,
and a stale load factor stops steering decisions after a TTL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Generator, NamedTuple, Protocol, Tuple

import numpy as np

from repro.core.cache import CompileOnceCache, PartitionCache
from repro.core.engine import JointDecision, LoADPartEngine
from repro.core.partition_algorithm import PartitionDecision
from repro.graph.partitioner import PartitionedGraph
from repro.hardware.device_model import DeviceModel
from repro.network.channel import Channel, StreamResult
from repro.network.estimator import BandwidthEstimator
from repro.network.streaming import StreamingConfig
from repro.nn.executor import SegmentExecutor, _check_backend, init_parameters
from repro.runtime.messages import BusyReply, InferenceRecord, OffloadReply
from repro.runtime.resilience import CircuitBreaker, ResilienceConfig
from repro.runtime.server import PARTITION_OVERHEAD_S, EdgeServer


#: A server step's answer: the reply (``None`` when none ever comes) and
#: the stepper's clock when it came.
Answer = Tuple["OffloadReply | BusyReply | None", float]
#: One request's :meth:`UserDevice.lifecycle`: yields server steps and
#: waits, is sent answers, returns the record.
Lifecycle = Generator["PendingOffload | float", "Answer | None", InferenceRecord]


class DecisionPolicy(Protocol):
    """Pluggable decision strategies (LoADPart, Neurosurgeon, local, full)."""

    def decide(self, bandwidth_up: float, k: float = 1.0) -> PartitionDecision: ...


class Attempt(NamedTuple):
    """Where one attempt sits in its request: the fields its record takes
    from the request rather than from the attempt's own stages.

    ``start_s`` is when the request was issued, so the attempt's record
    charges ``wasted_s = attempt start - start_s`` (timeouts waited out,
    backoff, rejections) into its total; ``retries`` counts the offload
    attempts before this one.  Should the attempt resolve locally, its
    record carries ``timeout_s`` (the last offload attempt's deadline) and
    ``status``; an offload that completes is ``retried`` after a retry.
    """

    start_s: float
    retries: int = 0
    timeout_s: float = 0.0
    status: str = "ok"


@dataclass
class PendingOffload:
    """Device-side state of one offload whose server reply is outstanding.

    Produced by :meth:`UserDevice.begin_inference` when the decision is to
    offload; the request's :meth:`UserDevice.lifecycle` yields it as the
    attempt's server step and finishes the record via
    :meth:`UserDevice.complete_inference` from the server's answer.

    Under a resilient configuration ``timeout_s`` is the attempt's
    network-side deadline (upload + server + download budget, armed when
    the upload starts) and ``delivered`` records whether the upload made it
    at all — an undelivered offload's ``arrive_s`` is the instant the
    device gives up waiting, not a server arrival.
    """

    request_id: int
    start_s: float
    partition_point: int
    estimated_bandwidth_bps: float
    k_used: float
    device_s: float
    upload_s: float
    overhead_s: float
    device_cache_hit: bool
    arrive_s: float                       # when the upload lands at the server
    transfers: Dict[str, np.ndarray] | None
    head_outputs: Dict[str, np.ndarray] | None
    timeout_s: float = 0.0
    delivered: bool = True
    #: Streaming-path metadata (defaults describe the classic fp32
    #: monolithic upload, so non-streaming callers are untouched).
    #: ``decode_s`` is the *exposed* decode time beyond the upload's end;
    #: ``arrivals`` maps crossing-tensor producer name to the absolute
    #: instant it became available (decoded) on the server, feeding the
    #: server's arrival-gated execution.
    codec: str = "fp32"
    encode_s: float = 0.0
    decode_s: float = 0.0
    chunks: int = 1
    wire_bytes: int = 0
    arrivals: Dict[str, float] | None = None
    #: SLA class the request carries and the early exit the decision chose
    #: (``None``/``None`` on the classic full-network path).
    sla_s: float | None = None
    exit_index: int | None = None
    #: The request this offload is an attempt of (``None``: a first
    #: attempt, issued at ``start_s``).
    attempt: Attempt | None = None

    @property
    def deadline_s(self) -> float:
        """Absolute instant the device abandons this attempt."""
        if self.timeout_s <= 0:
            return math.inf
        return self.start_s + self.device_s + self.encode_s + self.timeout_s


class UserDevice:
    """Simulated user-end device (Raspberry Pi 4 class)."""

    def __init__(
        self,
        engine: LoADPartEngine,
        server: EdgeServer,
        channel: Channel,
        policy: DecisionPolicy | None = None,
        device_model: DeviceModel | None = None,
        estimator: BandwidthEstimator | None = None,
        seed: int = 1,
        backend: str = "naive",
        functional: bool = False,
        model_seed: int = 0,
        resilience: ResilienceConfig | None = None,
        streaming: StreamingConfig | None = None,
        sla_s: float | None = None,
    ) -> None:
        self.engine = engine
        self.server = server
        self.channel = channel
        self.policy = policy if policy is not None else engine
        self.streaming = streaming
        if streaming is not None and not hasattr(self.policy, "decide_joint"):
            raise ValueError(
                "streaming requires a policy with decide_joint (the "
                "LoADPart engine or a pinned joint policy); "
                f"got {type(self.policy).__name__}")
        self.sla_s = sla_s
        if sla_s is not None:
            if not math.isfinite(sla_s) or sla_s <= 0:
                raise ValueError(f"sla_s must be positive and finite, got {sla_s}")
            if streaming is not None:
                raise ValueError(
                    "per-request SLA classes are incompatible with streaming "
                    "uploads (the streamed joint decision has no exit axis)")
        self.device_model = device_model or DeviceModel()
        self.resilience = resilience
        if estimator is not None:
            self.estimator = estimator
        elif resilience is not None:
            # Failed transfers make old samples lie; bound their age.
            self.estimator = BandwidthEstimator(window_s=resilience.bandwidth_window_s)
        else:
            self.estimator = BandwidthEstimator()
        self.breaker: CircuitBreaker | None = None
        if resilience is not None:
            self.breaker = CircuitBreaker(
                resilience.failure_threshold, resilience.cooldown_s
            )
        self.cache = PartitionCache(engine.partitioner)
        self._rng = np.random.default_rng(seed)
        self._latest_k = 1.0
        self._k_time_s = -math.inf
        self._request_seq = 0
        self.backend = _check_backend(backend)
        self.functional = functional
        self._model_seed = model_seed
        self._model_params: Dict[str, np.ndarray] | None = None
        self._head_executors: CompileOnceCache = CompileOnceCache()
        # Early-exit state, lazy: per-exit partition caches and parameters.
        # Exit-free devices (and the final exit, whose graph *is* the
        # backbone) use ``self.cache`` / ``self.model_params`` directly.
        self._exit_caches: Dict[int, PartitionCache] = {}
        self._exit_params: Dict[int, Dict[str, np.ndarray]] = {}
        # Functional inputs come from a dedicated stream: ``self._rng`` keeps
        # driving the simulated timing draws, so InferenceRecords are
        # identical whether functional execution is on or off (and across
        # executor backends).
        self._data_rng = np.random.default_rng(seed + 0x5EED)
        #: Output tensor of the most recent functional inference.
        self.last_output: np.ndarray | None = None

    # -- runtime profiler activities (the paper's profiler thread) ------------

    def send_probe(self, now_s: float) -> float:
        """Upload an adaptive-size probe packet; returns its duration.

        In resilient mode the probe runs under ``probe_timeout_s`` and a
        failed probe is recorded as bandwidth *evidence* (an upper bound)
        instead of being silently unmeasurable.
        """
        probe_bytes = self.estimator.next_probe_bytes()
        if self.resilience is None:
            duration = self.channel.upload_time(probe_bytes, now_s, self._rng)
            self.estimator.add_probe(now_s, probe_bytes, duration)
            return duration
        result = self.channel.try_upload(
            probe_bytes, now_s, self._rng, timeout_s=self.resilience.probe_timeout_s
        )
        if result.delivered:
            self.estimator.add_probe(now_s, probe_bytes, result.elapsed_s)
        else:
            self.estimator.add_failure(now_s, probe_bytes, result.elapsed_s)
        self._last_probe_ok = result.delivered
        return result.elapsed_s

    def query_load(self, now_s: float) -> float:
        """Fetch the most recent influential factor from the server.

        A crashed server answers nothing; the device keeps its last ``k``
        (subject to the staleness TTL in resilient mode).
        """
        reply = self.server.handle_load_query(now_s)
        if reply is not None:
            self._latest_k = max(reply.k, 1.0)
            self._k_time_s = now_s
        return self._latest_k

    def profiler_tick(self, now_s: float) -> None:
        """One period of the runtime profiler: probe + load query (§IV).

        In resilient mode this tick is also the circuit breaker's half-open
        health probe: a tick whose probe *and* load query both succeed
        counts as path health (and closes an open breaker once the cooldown
        has elapsed); a failed tick counts as a path failure.
        """
        self._last_probe_ok = True
        self.send_probe(now_s)
        if self.resilience is None:
            self.query_load(now_s)
            return
        reply = self.server.handle_load_query(now_s) if self._last_probe_ok else None
        if reply is not None:
            self._latest_k = max(reply.k, 1.0)
            self._k_time_s = now_s
            assert self.breaker is not None
            self.breaker.record_success(now_s)
        else:
            assert self.breaker is not None
            self.breaker.record_failure(now_s)

    def _current_k(self, now_s: float) -> float:
        """The load factor the decision should use right now.

        Resilient mode expires ``k`` after ``k_ttl_s`` without a successful
        load query — a dead server's last (possibly huge) ``k`` must stop
        steering decisions once it can no longer be refreshed.
        """
        if (self.resilience is not None
                and now_s - self._k_time_s > self.resilience.k_ttl_s):
            return 1.0
        return self._latest_k

    # -- early exits -----------------------------------------------------------

    def _engine_for(self, exit_index: int | None) -> LoADPartEngine:
        if exit_index is None:
            return self.engine
        return self.engine.exit_engine(exit_index)

    def _cache_for(self, exit_index: int | None) -> PartitionCache:
        """Partition cache of one exit's graph (final exit == backbone ==
        :attr:`cache`, so exit-free and final-exit traffic share entries)."""
        if exit_index is None or exit_index == self.engine.num_exits - 1:
            return self.cache
        cache = self._exit_caches.get(exit_index)
        if cache is None:
            cache = PartitionCache(self.engine.exit_engine(exit_index).partitioner)
            self._exit_caches[exit_index] = cache
        return cache

    def _params_for(self, exit_index: int | None) -> Dict[str, np.ndarray]:
        """Parameters of one exit's graph; the shared backbone prefix is
        bit-identical across exits (parameters are seeded per name)."""
        if exit_index is None or exit_index == self.engine.num_exits - 1:
            return self.model_params
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
            graph = self.engine.graph
            self._model_params = init_parameters(
                (graph.node(n) for n in graph.topological_order()), self._model_seed
            )
        return self._model_params

    def _run_head(self, partitioned: PartitionedGraph,
                  exit_index: int | None = None) -> Tuple[
            Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Draw an input and execute the head; returns (outputs, transfers).

        ``outputs`` are the head's leaving tensors by producer name;
        ``transfers`` are the tensors that cross the cut (the raw input is
        forwarded, not recomputed, when it crosses).
        """
        graph = self._engine_for(exit_index).graph
        x = self._data_rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        outputs: Dict[str, np.ndarray] = {}
        if not partitioned.head.is_empty:
            point = partitioned.partition_point
            final = exit_index is None or exit_index == self.engine.num_exits - 1
            key = point if final else ("exit", exit_index, point)
            params = self._params_for(exit_index)
            executor = self._head_executors.get_or_create(
                key, lambda: SegmentExecutor(
                    partitioned.head, params=params, backend=self.backend,
                )
            )
            boundary = {name: x for name in partitioned.head.boundary_inputs}
            outputs = executor.run(boundary)
        transfers = {
            name: (x if name == graph.input_name else outputs[name])
            for name in partitioned.transfer_specs
        }
        return outputs, transfers

    # -- inference path ------------------------------------------------------

    def begin_inference(self, now_s: float, *, request_id: int | None = None,
                        force_local: bool = False,
                        sla_budget_s: float | None = None,
                        attempt: Attempt | None = None,
                        ) -> InferenceRecord | PendingOffload:
        """Decide, run the head, and upload; stop short of the server call.

        Local decisions complete immediately and return the finished
        :class:`InferenceRecord`; offload decisions return a
        :class:`PendingOffload` whose server reply the caller must obtain
        (synchronously via ``handle_offload`` or through a batch queue) and
        feed to :meth:`complete_inference`.

        ``request_id`` reuses an existing id (retries of the same logical
        request); ``force_local`` pins ``point = n`` regardless of the
        policy (open circuit breaker, fallback after failures).  In
        resilient mode a dropped/timed-out upload returns a
        :class:`PendingOffload` with ``delivered=False``; without
        resilience it returns a ``status="failed"`` record whose total is
        infinite — the device would wait forever.

        ``sla_budget_s`` is this attempt's remaining SLA budget (retries
        have already burned part of the class SLA); ``None`` means the full
        class SLA :attr:`sla_s` — which is also ``None`` on SLA-free
        devices, reproducing the classic path verbatim.

        ``attempt`` places a retry or a fallback in its request (``None``:
        a first attempt issued at ``now_s``); the local record, or the
        record :meth:`complete_inference` builds, takes its request-level
        fields from it.
        """
        if request_id is None:
            self._request_seq += 1
            request_id = self._request_seq
        bandwidth = self.estimator.estimate()
        k = self._current_k(now_s)
        budget = self.sla_s if sla_budget_s is None else sla_budget_s
        n = self.engine.num_nodes
        timeout_s = 0.0
        joint: JointDecision | None = None
        exit_index: int | None = None
        active = self.engine
        if force_local:
            # Degraded path: the full network, like any SLA-free fallback —
            # accuracy is never sacrificed blind (without a live decision).
            point = n
        else:
            if self.streaming is not None:
                joint = self.policy.decide_joint(bandwidth, k=k,
                                                 streaming=self.streaming)
                decision = joint
            elif (self.sla_s is not None
                    and hasattr(self.policy, "decide_exit")):
                decision = self.policy.decide_exit(budget, bandwidth, k=k)
                if self.engine.has_exits:
                    exit_index = decision.exit_index
                    active = self.engine.exit_engine(exit_index)
            else:
                decision = self.policy.decide(bandwidth, k=k)
            point = decision.point
            if self.resilience is not None and point < active.num_nodes:
                timeout_s = self.resilience.timeout_for(
                    decision.predicted_latency, budget)

        cache = self._cache_for(exit_index)
        device_cache_hit = point in cache
        partitioned = cache.get(point)
        overhead = 0.0 if device_cache_hit else PARTITION_OVERHEAD_S

        head_outputs: dict | None = None
        transfers: dict | None = None
        if self.functional:
            head_outputs, transfers = self._run_head(partitioned, exit_index)

        device_s = self.device_model.sample_graph_time(active.profiles, self._rng,
                                                       stop=point)

        if point == active.num_nodes:
            # Local inference: no network, no server involvement.
            if head_outputs is not None:
                self.last_output = head_outputs[active.graph.output_name]
            if attempt is None:
                attempt = Attempt(now_s)
            wasted = now_s - attempt.start_s
            total = device_s + overhead + wasted
            return InferenceRecord(
                request_id=request_id,
                start_s=attempt.start_s,
                partition_point=point,
                estimated_bandwidth_bps=bandwidth,
                k_used=k,
                device_s=device_s,
                upload_s=0.0,
                server_s=0.0,
                download_s=0.0,
                overhead_s=overhead,
                total_s=total,
                load_level=self.server.load_schedule.level_at(now_s).name,
                device_cache_hit=device_cache_hit,
                server_cache_hit=True,
                status=attempt.status,
                retries=attempt.retries,
                timeout_s=attempt.timeout_s,
                wasted_s=wasted,
                sla_s=self.sla_s,
                exit_index=exit_index,
                met_sla=(total <= self.sla_s
                         if self.sla_s is not None else None),
            )

        codec_name = joint.codec if joint is not None else "fp32"
        encode_s = joint.predicted_encode_s if joint is not None else 0.0
        decode_s = joint.predicted_decode_s if joint is not None else 0.0
        wire_bytes = (joint.wire_bytes if joint is not None
                      else partitioned.upload_bytes)
        streamed = joint is not None and joint.streamed
        if transfers is not None and codec_name != "fp32":
            # The functional payload really goes through the codec, so
            # lossy results are genuinely tolerance-bounded and lossless
            # ones genuinely bit-exact; simulated timing uses the declared
            # constants above, never these payloads.
            codec = self.engine.codec(codec_name)
            transfers = {name: codec.encode(arr)
                         for name, arr in transfers.items()}

        budget = timeout_s if self.resilience is not None else None
        arrivals: Dict[str, float] | None = None
        if streamed:
            assert self.streaming is not None
            chunk_sizes = self.streaming.plan_chunks(wire_bytes)
            result = self.channel.try_upload_stream(
                chunk_sizes, now_s, self._rng, timeout_s=budget,
                max_chunk_retries=self.streaming.max_chunk_retries,
                min_chunk_timeout_s=self.streaming.min_chunk_timeout_s,
            )
            if result.delivered:
                arrivals, decode_s = self._stream_arrivals(
                    point, codec_name, chunk_sizes, result,
                    now_s + device_s + encode_s)
        else:
            result = self.channel.try_upload(wire_bytes, now_s, self._rng,
                                             timeout_s=budget)
        if result.delivered:
            # Passive bandwidth measurement from the real transfer (§IV).
            self.estimator.add_passive(now_s, wire_bytes, result.elapsed_s)
        elif self.resilience is not None:
            # The failed transfer is still evidence: bandwidth was below
            # 8*bytes/elapsed, or the link is dark.
            self.estimator.add_failure(now_s, wire_bytes, result.elapsed_s)
        else:
            # A non-resilient device blocks on the dead transfer forever.
            return self._failed_record(
                request_id, now_s, point, bandwidth, k,
                device_s=device_s, upload_s=result.elapsed_s, overhead_s=overhead,
                device_cache_hit=device_cache_hit,
                codec=codec_name, encode_s=encode_s,
                chunks=getattr(result, "chunks", 1) or 1,
                exit_index=exit_index,
            )

        return PendingOffload(
            request_id=request_id,
            start_s=now_s,
            partition_point=point,
            estimated_bandwidth_bps=bandwidth,
            k_used=k,
            device_s=device_s,
            upload_s=result.elapsed_s,
            overhead_s=overhead,
            device_cache_hit=device_cache_hit,
            arrive_s=now_s + device_s + encode_s + result.elapsed_s + decode_s,
            transfers=transfers,
            head_outputs=head_outputs,
            timeout_s=timeout_s,
            delivered=result.delivered,
            codec=codec_name,
            encode_s=encode_s,
            decode_s=decode_s,
            chunks=len(chunk_sizes) if streamed else 1,
            wire_bytes=wire_bytes,
            arrivals=arrivals,
            sla_s=self.sla_s,
            exit_index=exit_index,
            attempt=attempt,
        )

    def _stream_arrivals(self, point: int, codec_name: str,
                         chunk_sizes, result: StreamResult, base_s: float,
                         ) -> Tuple[Dict[str, float], float]:
        """Per-tensor availability of a delivered stream.

        A crossing tensor is *available* once the chunk carrying its last
        wire byte has landed and the server's decoder — which works through
        tensors in wire order — has decoded it:
        ``avail_v = max(arrival_v, avail_{v-1}) + decode_v``.  Returns the
        absolute availability map (keyed by producer name) and the exposed
        decode time — how far the last availability trails the upload's
        end; earlier decodes hid behind the stream.
        """
        codec = self.engine.codec(codec_name)
        chunk_cum = list(accumulate(chunk_sizes))
        arrivals: Dict[str, float] = {}
        avail = 0.0
        wire_cum = 0
        ci = 0
        for name, nbytes, op in self.engine.cut_tensors(point):
            wire_cum += codec.wire_bytes(nbytes, op)
            while ci < len(chunk_cum) - 1 and chunk_cum[ci] < wire_cum:
                ci += 1
            arrival = result.offsets_s[ci]
            avail = max(arrival, avail) + codec.decode_time_s(float(nbytes))
            arrivals[name] = base_s + avail
        return arrivals, max(avail - result.elapsed_s, 0.0)

    def _failed_record(self, request_id: int, start_s: float, point: int,
                       bandwidth: float, k: float, *, device_s: float,
                       upload_s: float, overhead_s: float,
                       device_cache_hit: bool, server_s: float = 0.0,
                       codec: str = "fp32", encode_s: float = 0.0,
                       chunks: int = 1, exit_index: int | None = None,
                       ) -> InferenceRecord:
        """A request a non-resilient device can never finish (total = inf)."""
        return InferenceRecord(
            request_id=request_id,
            start_s=start_s,
            partition_point=point,
            estimated_bandwidth_bps=bandwidth,
            k_used=k,
            device_s=device_s,
            upload_s=upload_s,
            server_s=server_s,
            download_s=0.0,
            overhead_s=overhead_s,
            total_s=math.inf,
            load_level=self.server.load_schedule.level_at(start_s).name,
            device_cache_hit=device_cache_hit,
            server_cache_hit=False,
            status="failed",
            codec=codec,
            chunks=chunks,
            encode_s=encode_s,
            server_id=self.server.server_id,
            sla_s=self.sla_s,
            exit_index=exit_index,
            met_sla=False if self.sla_s is not None else None,
        )

    def complete_inference(self, pending: PendingOffload, reply: OffloadReply,
                           download_at_s: float, download_timeout_s: float,
                           ) -> InferenceRecord:
        """Finish a pending offload from the server's reply.

        ``download_at_s`` is when the result starts downloading — the upload
        arrival time under immediate execution, the batch completion time
        under dynamic batching.  A download that misses
        ``download_timeout_s`` (``inf`` for a trusting device) or never
        completes yields a ``status="failed"`` record; the lifecycle turns
        that into a retry, a fallback or a stall.
        """
        result = self.channel.try_download(
            reply.result_bytes, download_at_s, self._rng,
            timeout_s=download_timeout_s,
        )
        if not result.delivered:
            return self._failed_record(
                pending.request_id, pending.start_s, pending.partition_point,
                pending.estimated_bandwidth_bps, pending.k_used,
                device_s=pending.device_s, upload_s=pending.upload_s,
                overhead_s=pending.overhead_s + reply.partition_overhead_s,
                device_cache_hit=pending.device_cache_hit,
                server_s=reply.server_exec_s,
                codec=pending.codec, encode_s=pending.encode_s,
                chunks=pending.chunks,
                exit_index=pending.exit_index,
            )
        download_s = result.elapsed_s

        if reply.tensors is not None:
            out_name = self._engine_for(pending.exit_index).graph.output_name
            self.last_output = (
                reply.tensors[out_name] if out_name in reply.tensors
                else pending.head_outputs[out_name]  # output produced before the cut
            )

        attempt = pending.attempt
        if attempt is None:
            attempt = Attempt(pending.start_s)
        wasted = pending.start_s - attempt.start_s
        total = (
            pending.device_s
            + pending.encode_s
            + pending.upload_s
            + pending.decode_s
            + reply.server_exec_s
            + download_s
            + pending.overhead_s
            + reply.partition_overhead_s
            + wasted
        )
        return InferenceRecord(
            request_id=pending.request_id,
            start_s=attempt.start_s,
            partition_point=pending.partition_point,
            estimated_bandwidth_bps=pending.estimated_bandwidth_bps,
            k_used=pending.k_used,
            device_s=pending.device_s,
            upload_s=pending.upload_s,
            server_s=reply.server_exec_s,
            download_s=download_s,
            overhead_s=pending.overhead_s + reply.partition_overhead_s,
            total_s=total,
            load_level=self.server.load_schedule.level_at(download_at_s).name,
            device_cache_hit=pending.device_cache_hit,
            server_cache_hit=reply.cache_hit,
            server_queue_s=reply.queue_s,
            batch_size=reply.batch_size,
            status="retried" if attempt.retries else "ok",
            codec=pending.codec,
            chunks=pending.chunks,
            encode_s=pending.encode_s,
            decode_s=pending.decode_s,
            retries=attempt.retries,
            timeout_s=pending.timeout_s,
            wasted_s=wasted,
            server_id=self.server.server_id,
            sla_s=pending.sla_s,
            exit_index=pending.exit_index,
            met_sla=(total <= pending.sla_s
                     if pending.sla_s is not None else None),
        )

    def fallback_record(self, request_id: int | None, start_s: float, now_s: float,
                        *, retries: int = 0, timeout_s: float = 0.0,
                        status: str = "fallback_local") -> InferenceRecord:
        """Resolve a request by running the whole model locally at ``now_s``.

        ``now_s - start_s`` is the time already burned on the offload path
        (timeouts waited out, backoff, rejections); it lands in ``wasted_s``
        and in the total, because the user experienced it.  A ``None``
        ``request_id`` starts a new request (an open breaker's fallback).
        """
        record = self.begin_inference(
            now_s, request_id=request_id, force_local=True,
            attempt=Attempt(start_s, retries, timeout_s, status))
        assert isinstance(record, InferenceRecord)
        return record

    def request_inference(self, now_s: float) -> InferenceRecord:
        """Run one end-to-end inference starting at ``now_s``, at once: the
        server answers at the upload's arrival and waits cost nothing."""
        request, answer = self.lifecycle(now_s), None
        while True:
            try:
                step = request.send(answer)
            except StopIteration as done:
                return done.value
            answer = None
            if isinstance(step, PendingOffload):
                answer = (self.server.handle_offload(
                    step.arrive_s, step.request_id, step.partition_point,
                    tensors=step.transfers, arrivals=step.arrivals,
                    exit_index=step.exit_index), now_s)

    def lifecycle(self, now_s: float, *, batched: bool = False) -> Lifecycle:
        """One request issued at ``now_s``: decide → head → upload →
        server → download, with backoff, breaker, fallback and stall
        transitions.

        A generator that yields each attempt's server step as its
        :class:`PendingOffload`, answered with ``(reply, at_s)``: the
        server's :class:`OffloadReply`, a :class:`BusyReply`, or ``None``
        when no reply ever comes, and the stepper's clock.  It yields each
        wait as the instant to resume at, and returns the record.
        :meth:`request_inference` steps it at the issue instant; the
        batched :class:`~repro.runtime.driver.Driver` steps it on events.

        Two forks remain until the causal switch planned in ROADMAP: a
        ``batched`` request falls back at its first failure instead of
        retrying, and an immediate download starts at the upload's arrival
        instead of when the tail is done.
        """
        cfg, breaker, sla = self.resilience, self.breaker, self.sla_s
        if breaker is not None and not breaker.allow_offload(now_s):
            return self.fallback_record(None, now_s, now_s)
        clock = now_s
        retries = 0
        rejected = False
        request_id: int | None = None
        attempt: Attempt | None = None
        while True:
            # Retries have already burned part of the class SLA; the
            # attempt's decision and deadline run on what is left.
            budget = None if sla is None else max(sla - (clock - now_s), 0.0)
            pending = self.begin_inference(clock, request_id=request_id,
                                           sla_budget_s=budget, attempt=attempt)
            if isinstance(pending, InferenceRecord):
                # The decision itself chose local (after failures, the
                # degraded path: they fed the estimator and k), or a
                # trusting device's upload died and it waits forever.
                return pending
            request_id = pending.request_id
            reply, at_s = (yield pending) if pending.delivered else (None, clock)
            if isinstance(reply, OffloadReply):
                # The tail cannot start before the upload has landed.
                done_s = (max(at_s, pending.arrive_s) + reply.server_exec_s
                          - reply.queue_s)
                remaining = pending.deadline_s - done_s
                if remaining > 0:
                    record = self.complete_inference(
                        pending, reply,
                        download_at_s=done_s if batched else pending.arrive_s,
                        download_timeout_s=remaining)
                    if cfg is None or record.status != "failed":
                        if breaker is not None:
                            breaker.record_success(done_s)
                        return record
            if cfg is None:
                # Crashed (None) or shedding (BusyReply): a trusting device
                # understands neither and waits forever.
                return self._failed_record(
                    pending.request_id, pending.start_s, pending.partition_point,
                    pending.estimated_bandwidth_bps, pending.k_used,
                    device_s=pending.device_s, upload_s=pending.upload_s,
                    overhead_s=pending.overhead_s,
                    device_cache_hit=pending.device_cache_hit,
                    codec=pending.codec, encode_s=pending.encode_s,
                    chunks=pending.chunks,
                    exit_index=pending.exit_index,
                )
            busy = isinstance(reply, BusyReply)
            if busy:
                # A shed request is answered at once; the device honours
                # retry_after before trying again.  A rejection is an
                # answer, not a path failure.
                rejected = True
                clock = (pending.arrive_s + self.channel.params.base_latency_s
                         + reply.retry_after_s)
            else:
                # No timely answer: the deadline fires, or the stepper
                # noticed the failure after it.
                clock = max(pending.deadline_s, at_s)
                breaker.record_failure(clock)
            status = "rejected" if rejected else "fallback_local"
            if (batched or retries >= cfg.max_retries
                    or not breaker.allow_offload(clock)
                    # An exhausted SLA ends the retry loop: another attempt
                    # cannot meet the deadline, only waste more latency.
                    or (sla is not None and clock - now_s >= sla)):
                yield clock
                return self.fallback_record(
                    request_id, now_s, clock, retries=retries,
                    timeout_s=pending.timeout_s, status=status)
            retries += 1
            if not busy:
                clock += cfg.backoff_s(retries, float(self._rng.random()))
            yield clock
            attempt = Attempt(now_s, retries, pending.timeout_s, status)
