"""Streaming pipelined transport: chunked channel, joint decision, gated plans.

Covers the streaming stack bottom-up:

- :class:`StreamingConfig` validation and chunk planning;
- :meth:`Channel.try_upload_stream` semantics — single-chunk delegation,
  connection reuse (only the first chunk pays base latency), proportional
  per-chunk timeout shares, in-stream retries, and deterministic
  mid-stream fault charging under a :class:`FaultPlan`;
- the engine's joint ``(point, codec, chunking)`` scan — degenerate
  equivalence with Algorithm 1, bandwidth-driven codec/point shifts, the
  release schedule, ``joint_at`` pinning, and the stream-mode overlap
  bound;
- :class:`PlanStream` — arrival-gated plan execution bit-identical to
  monolithic runs;
- the runtime streamed path — a degenerate config is byte-identical to
  no streaming at all, lossless streamed runs reproduce the
  non-streaming output bit-for-bit, and a stalled request's record
  keeps the codec of the attempt it stalled on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.engine import CHUNK_OVERHEAD_S
from repro.graph.partitioner import GraphPartitioner
from repro.network.channel import Channel, NetworkParams
from repro.network.faults import FaultPlan, FaultyChannel, ServerFaultPlan
from repro.network.streaming import StreamingConfig, plan_chunks
from repro.network.traces import ConstantTrace
from repro.nn.executor import GraphExecutor
from repro.nn.plan import SegmentPlan
from repro.runtime.client import PendingOffload
from repro.runtime.multi import MultiClientSystem
from repro.runtime.system import OffloadingSystem, SystemConfig

BW = 8e6
QUIET = NetworkParams(base_latency_s=2.0e-3, jitter_sigma=0.0)


class TestStreamingConfig:
    def test_defaults_are_lossless(self):
        cfg = StreamingConfig()
        assert cfg.codecs == ("fp32", "zlib")
        assert not cfg.allow_lossy

    def test_lossy_requires_opt_in(self):
        with pytest.raises(ValueError, match="lossy"):
            StreamingConfig(codecs=("fp32", "int8"))
        cfg = StreamingConfig(codecs=("fp32", "int8"), allow_lossy=True)
        assert "int8" in cfg.codecs

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingConfig(chunk_bytes=100)
        with pytest.raises(ValueError):
            StreamingConfig(codecs=())
        with pytest.raises(ValueError, match="unknown codec"):
            StreamingConfig(codecs=("bf16",))

    def test_plan_chunks(self):
        assert plan_chunks(10, None) == (10,)
        assert plan_chunks(0, 4096) == (0,)
        assert plan_chunks(10000, 4096) == (4096, 4096, 1808)
        cfg = StreamingConfig(chunk_bytes=4096)
        assert cfg.plan_chunks(10000) == (4096, 4096, 1808)
        assert cfg.num_chunks(10000) == 3
        assert cfg.num_chunks(10) == 1


class TestChunkedChannel:
    def test_single_chunk_delegates_to_try_upload(self):
        ch = Channel(ConstantTrace(BW), NetworkParams(jitter_sigma=0.1))
        mono = ch.try_upload(50_000, 1.0, np.random.default_rng(3))
        stream = ch.try_upload_stream((50_000,), 1.0, np.random.default_rng(3))
        assert stream.delivered and stream.chunks == 1
        assert stream.elapsed_s == mono.elapsed_s  # identical RNG draws
        assert stream.offsets_s == (mono.elapsed_s,)

    def test_only_first_chunk_pays_base_latency(self):
        ch = Channel(ConstantTrace(BW), QUIET)
        rng = np.random.default_rng(0)
        mono = ch.try_upload(30_000, 0.0, rng)
        stream = ch.try_upload_stream((10_000,) * 3, 0.0, rng)
        assert stream.delivered
        # Noiseless: the chunked stream costs exactly the monolithic upload
        # (one connection), NOT 3x the per-message latency.
        assert stream.elapsed_s == pytest.approx(mono.elapsed_s)
        assert stream.offsets_s[-1] == pytest.approx(stream.elapsed_s)
        assert all(a < b for a, b in zip(stream.offsets_s, stream.offsets_s[1:]))

    def test_mid_stream_fault_charges_only_chunk_share(self):
        # Chunk 2 starts at 10 ms, inside the outage window: it is charged
        # its proportional timeout share (0.1 s = 0.3 * 10k/30k), retried
        # once in-stream, and the stream completes.
        plan = FaultPlan(outages=((0.005, 0.015),))
        ch = FaultyChannel(ConstantTrace(BW), plan, QUIET)
        res = ch.try_upload_stream(
            (10_000,) * 3, 0.0, np.random.default_rng(0),
            timeout_s=0.3, max_chunk_retries=1, min_chunk_timeout_s=0.05)
        assert res.delivered
        assert res.chunk_retries == 1
        chunk_s = 10_000 * 8 / BW
        expected = (QUIET.base_latency_s + chunk_s) + (0.1 + chunk_s) + chunk_s
        assert res.elapsed_s == pytest.approx(expected)
        assert len(res.offsets_s) == 3

    def test_mid_stream_fault_aborts_deterministically_without_retries(self):
        plan = FaultPlan(outages=((0.005, 0.015),))
        ch = FaultyChannel(ConstantTrace(BW), plan, QUIET)
        res = ch.try_upload_stream(
            (10_000,) * 3, 0.0, np.random.default_rng(0),
            timeout_s=0.3, max_chunk_retries=0, min_chunk_timeout_s=0.05)
        assert not res.delivered and res.timed_out
        assert res.failed_chunk == 1
        # Partial elapsed: delivered chunk 1 plus the failed chunk's share.
        assert res.elapsed_s == pytest.approx(
            QUIET.base_latency_s + 10_000 * 8 / BW + 0.1)
        assert len(res.offsets_s) == 1

    def test_fault_sequence_is_seed_deterministic(self):
        def run():
            plan = FaultPlan(drop_prob=0.4, seed=9)
            ch = FaultyChannel(ConstantTrace(BW), plan,
                               NetworkParams(jitter_sigma=0.1))
            return ch.try_upload_stream(
                (10_000,) * 4, 0.0, np.random.default_rng(2),
                timeout_s=0.5, max_chunk_retries=2, min_chunk_timeout_s=0.01)

        first, second = run(), run()
        assert first == second

    def test_budget_exhaustion_aborts(self):
        ch = Channel(ConstantTrace(1e5), QUIET)  # 0.8 s per 1 kB chunk
        res = ch.try_upload_stream(
            (1000,) * 4, 0.0, np.random.default_rng(0), timeout_s=0.1,
            max_chunk_retries=3, min_chunk_timeout_s=0.0)
        assert not res.delivered and res.timed_out

    def test_rejects_empty_and_negative(self):
        ch = Channel(ConstantTrace(BW), QUIET)
        with pytest.raises(ValueError):
            ch.try_upload_stream((), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ch.try_upload_stream((10, -1), 0.0, np.random.default_rng(0))


class TestJointDecision:
    def test_degenerate_config_reproduces_algorithm_1(self, squeezenet_engine):
        cfg = StreamingConfig(chunk_bytes=None, codecs=("fp32",))
        for bw in (1e6, 4e6, 2e7):
            base = squeezenet_engine.decide(bw, k=1.3)
            joint = squeezenet_engine.decide_joint(bw, k=1.3, streaming=cfg)
            assert joint.point == base.point
            assert joint.codec == "fp32" and not joint.streamed
            assert joint.predicted_latency == base.predicted_latency
            np.testing.assert_array_equal(
                joint.candidates[("fp32", "mono")], base.candidates)

    def test_codec_and_point_shift_with_bandwidth(self, squeezenet_engine):
        cfg = StreamingConfig()
        low = squeezenet_engine.decide_joint(4e6, streaming=cfg)
        high = squeezenet_engine.decide_joint(1e9, streaming=cfg)
        # Transfer-dominated: compression pays for its encode time.
        assert low.codec == "zlib"
        assert low.wire_bytes < squeezenet_engine.sizes[low.point]
        # Fat link: encoding is pure overhead, identity codec wins.
        assert high.codec == "fp32"
        assert low.point != high.point

    def test_stream_mode_bounded_by_mono_plus_overhead(self, engine_for):
        engine = engine_for("resnet18")
        cfg = StreamingConfig(chunk_bytes=16 * 1024)
        jd = engine.decide_joint(4e6, streaming=cfg)
        for name in cfg.codecs:
            mono = jd.candidates[(name, "mono")]
            stream = jd.candidates[(name, "stream")]
            finite = np.isfinite(stream)
            codec_wire = engine._wire_sizes(name)
            chunks = np.array([cfg.num_chunks(int(w)) for w in codec_wire])
            slack = (chunks - 1) * CHUNK_OVERHEAD_S + 1e-9
            assert np.all(stream[finite] <= mono[finite] + slack[finite])

    def test_stream_mode_wins_at_branchy_cuts(self, engine_for):
        """Cuts with multiple release entries genuinely overlap decode and
        tail compute with the upload: the streamed objective is strictly
        cheaper there."""
        engine = engine_for("resnet18")
        cfg = StreamingConfig(chunk_bytes=16 * 1024)
        jd = engine.decide_joint(4e6, streaming=cfg)
        mono = jd.candidates[("zlib", "mono")]
        stream = jd.candidates[("zlib", "stream")]
        branchy = [p for p in range(engine.num_nodes)
                   if len(engine.release_schedule(p)) > 1
                   and np.isfinite(stream[p])]
        assert branchy, "resnet18 must have multi-tensor cuts"
        assert all(stream[p] < mono[p] for p in branchy)

    def test_release_schedule_properties(self, engine_for):
        engine = engine_for("resnet18")
        for point in (5, 13, 21):
            schedule = engine.release_schedule(point)
            names = [name for name, _nb, _op in engine.cut_tensors(point)]
            assert schedule[0][1] == point  # the first tail node is gated
            gates = [g for g, _j in schedule]
            starts = [j for _g, j in schedule]
            assert all(g in names for g in gates)
            assert starts == sorted(set(starts))
            # Gates appear in wire order: the device serializes the tensor
            # the server needs soonest first.
            assert [names.index(g) for g in gates] == sorted(
                names.index(g) for g in gates)

    def test_joint_at_pins_point_and_mode(self, squeezenet_engine):
        cfg = StreamingConfig(chunk_bytes=4096)
        jd = squeezenet_engine.decide_joint(4e6, streaming=cfg)
        point = 49
        pinned = squeezenet_engine.joint_at(point, "zlib", True, 4e6,
                                            streaming=cfg)
        assert pinned.point == point and pinned.codec == "zlib"
        assert pinned.streamed and pinned.chunks > 1
        assert pinned.predicted_latency == pytest.approx(
            float(jd.candidates[("zlib", "stream")][point]))

    def test_joint_at_rejects_infeasible_stream(self, squeezenet_engine):
        # Every cut fits one chunk: the streamed mode never materialises.
        cfg = StreamingConfig(chunk_bytes=2 ** 22)
        with pytest.raises(ValueError, match="infeasible"):
            squeezenet_engine.joint_at(49, "zlib", True, 4e6, streaming=cfg)
        with pytest.raises(ValueError, match="no candidate"):
            squeezenet_engine.joint_at(
                49, "int8", False, 4e6,
                streaming=StreamingConfig(chunk_bytes=None))

    def test_decide_joint_requires_config(self, squeezenet_engine):
        with pytest.raises(ValueError, match="StreamingConfig"):
            squeezenet_engine.decide_joint(4e6)


@pytest.fixture
def fire_tail(fire_graph):
    """SqueezeNet-style fire tail with two crossing tensors (e1, e3 inputs)."""
    part = GraphPartitioner(fire_graph).partition(2)
    params = GraphExecutor(fire_graph, seed=0).params
    return part, params


class TestPlanStream:
    def test_bit_identical_to_run_any_feed_order(self, fire_tail, rng):
        part, params = fire_tail
        plan = SegmentPlan(part.tail, params=params)
        boundary = {
            name: rng.standard_normal(spec.shape).astype(np.float32)
            for name, spec in part.tail.boundary_inputs.items()
        }
        ref = plan.run(boundary)
        names = list(boundary)
        for order in (names, names[::-1]):
            stream = plan.begin_streaming()
            for name in order:
                stream.feed(name, boundary[name])
            out = stream.finish()
            assert set(out) == set(ref)
            for key in ref:
                np.testing.assert_array_equal(out[key], ref[key])

    def test_feed_validation(self, fire_tail, rng):
        part, params = fire_tail
        plan = SegmentPlan(part.tail, params=params)
        boundary = {
            name: rng.standard_normal(spec.shape).astype(np.float32)
            for name, spec in part.tail.boundary_inputs.items()
        }
        name = next(iter(boundary))
        stream = plan.begin_streaming()
        with pytest.raises(ValueError, match="unknown"):
            stream.feed("nope", boundary[name])
        with pytest.raises(ValueError, match="shape"):
            stream.feed(name, np.zeros((1, 1), dtype=np.float32))
        stream.feed(name, boundary[name])
        with pytest.raises(ValueError, match="already-fed"):
            stream.feed(name, boundary[name])
        with pytest.raises(ValueError, match="missing"):
            stream.finish()
        # finish() released the plan even on failure: a clean run works.
        ref = plan.run(boundary)
        assert set(ref) == set(part.tail.result_names)

    def test_abort_releases_the_plan(self, fire_tail, rng):
        part, params = fire_tail
        plan = SegmentPlan(part.tail, params=params)
        boundary = {
            name: rng.standard_normal(spec.shape).astype(np.float32)
            for name, spec in part.tail.boundary_inputs.items()
        }
        ref = plan.run(boundary)
        stream = plan.begin_streaming()
        stream.feed(next(iter(boundary)), boundary[next(iter(boundary))])
        stream.abort()
        stream.abort()  # idempotent
        again = plan.run(boundary)
        for key in ref:
            np.testing.assert_array_equal(again[key], ref[key])


def _run_system(engine, streaming, seed=7, max_requests=6):
    config = SystemConfig(seed=seed, policy="loadpart", functional=True,
                          backend="planned", streaming=streaming)
    system = OffloadingSystem(engine, config=config)
    timeline = system.run(5.0, max_requests=max_requests)
    return system, timeline


class TestRuntimeStreaming:
    def test_streaming_requires_loadpart(self):
        with pytest.raises(ValueError, match="loadpart"):
            SystemConfig(policy="local", streaming=StreamingConfig())
        with pytest.raises(ValueError, match="StreamingConfig"):
            SystemConfig(streaming="zlib")

    def test_degenerate_config_is_byte_identical(self, squeezenet_engine):
        plain_sys, plain = _run_system(squeezenet_engine, None)
        degen_sys, degen = _run_system(
            squeezenet_engine,
            StreamingConfig(chunk_bytes=None, codecs=("fp32",)))
        assert len(plain) == len(degen) > 0
        for a, b in zip(plain, degen):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert (plain_sys.device.last_output.tobytes()
                == degen_sys.device.last_output.tobytes())

    def test_lossless_streamed_run_reproduces_output(self, squeezenet_engine):
        plain_sys, _ = _run_system(squeezenet_engine, None)
        stream_sys, timeline = _run_system(
            squeezenet_engine, StreamingConfig(chunk_bytes=4096))
        assert len(timeline) > 0
        offloaded = [r for r in timeline if r.partition_point
                     < squeezenet_engine.num_nodes]
        assert offloaded, "squeezenet must offload at the default bandwidth"
        for record in offloaded:
            assert record.codec in ("fp32", "zlib")
            if record.codec == "zlib":
                assert record.encode_s > 0.0
                assert record.decode_s >= 0.0
            assert record.chunks >= 1
        # zlib is lossless and plans are bit-identical: the functional
        # output matches the non-streaming run even though the decision
        # (point, codec) differs.
        assert (stream_sys.device.last_output.tobytes()
                == plain_sys.device.last_output.tobytes())

    def test_streamed_records_carry_pipeline_fields(self, squeezenet_engine):
        """Pin the joint decision to streamed zlib at a fixed cut (via
        ``joint_at``) and drive the full runtime: chunked uploads, arrival
        gating and the pipeline fields on the records — with the lossless
        output still bit-identical to the plain run."""

        class PinnedStreamPolicy:
            def __init__(self, engine, point, codec):
                self._engine = engine
                self._point = point
                self._codec = codec

            def decide_joint(self, bandwidth, k=1.0, streaming=None,
                             **kwargs):
                return self._engine.joint_at(
                    self._point, self._codec, True, bandwidth, k=k,
                    streaming=streaming)

            def __getattr__(self, name):
                return getattr(self._engine, name)

        plain_sys, _ = _run_system(squeezenet_engine, None)
        config = SystemConfig(seed=7, policy="loadpart", functional=True,
                              backend="planned",
                              streaming=StreamingConfig(chunk_bytes=2048))
        system = OffloadingSystem(squeezenet_engine, config=config)
        system.device.policy = PinnedStreamPolicy(squeezenet_engine, 49, "zlib")
        timeline = system.run(5.0, max_requests=6)
        chunked = [r for r in timeline if r.chunks > 1]
        assert len(chunked) == len(timeline.records) > 0
        for record in chunked:
            assert record.partition_point == 49
            assert record.codec == "zlib"
            assert record.encode_s > 0.0 and record.decode_s >= 0.0
            assert record.completed and record.total_s > 0.0
        assert (system.device.last_output.tobytes()
                == plain_sys.device.last_output.tobytes())

    def test_stalled_records_keep_their_codec(self, squeezenet_engine):
        """A trusting device whose streamed upload lands on a crashed
        server waits forever; its record still names the attempt's codec,
        encode time and chunk count, like an upload or download stall."""
        config = SystemConfig(
            seed=1, streaming=StreamingConfig(chunk_bytes=4096),
            server_faults=ServerFaultPlan(crash_windows=((0.5, 3.0),)))
        system = MultiClientSystem(squeezenet_engine, 3, config=config)
        attempts = {}
        for index, client in enumerate(system.clients):
            def capture(*args, _begin=client.begin_inference, _index=index,
                        **kwargs):
                pending = _begin(*args, **kwargs)
                if isinstance(pending, PendingOffload):
                    attempts[_index, pending.request_id] = pending
                return pending

            client.begin_inference = capture
        result = system.run(3.0)
        stalled = [(index, record)
                   for index, timeline in enumerate(result.timelines)
                   for record in timeline if record.status == "failed"]
        assert len(stalled) == 3
        for index, record in stalled:
            pending = attempts[index, record.request_id]
            assert record.codec == pending.codec == "zlib"
            assert record.encode_s == pending.encode_s > 0.0
            assert record.chunks == pending.chunks
