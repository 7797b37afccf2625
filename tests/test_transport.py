"""Real-socket transport: loopback bit-exactness, streaming, error replies.

:mod:`repro.runtime.transport` is the asyncio face of the offload path.
These tests run a :class:`TransportServer` on an ephemeral loopback port
inside the test process (no subprocess, no pytest-asyncio — each test is
a sync function driving one ``asyncio.run``) and pin:

- monolithic fp32 and streamed-lossless requests reproduce local
  execution **bit-exactly**;
- lossy codecs stay within the codec's declared error bound;
- the server answers a bad request with an ``error`` reply and keeps
  serving the same connection;
- frame helpers round-trip headers and payloads.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model
from repro.network.codec import TensorCodec
from repro.nn import GraphExecutor, SegmentExecutor
from repro.runtime.transport import (
    OffloadOutcome,
    TransportClient,
    TransportServer,
    recv_frame,
    send_frame,
)

MODEL = "squeezenet"
SEED = 11
POINT = 47


@pytest.fixture(scope="module")
def local_reference():
    """(graph, reference output, boundary tensors at POINT)."""
    graph = build_model(MODEL)
    executor = GraphExecutor(graph, seed=SEED)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
    reference = executor.run(x)
    part = GraphPartitioner(graph).partition(POINT)
    head = SegmentExecutor(part.head, params=executor.params)
    boundary = head.run({graph.input_name: x})
    return graph, reference, boundary


def _with_session(coro_fn):
    """Start a server on an ephemeral port, connect, run, tear down.

    The teardown is bounded: a connection that fell out of step with its
    requests can leave the server without a shutdown frame, which must
    fail the test rather than hang it.
    """
    async def main():
        server = TransportServer(MODEL, seed=SEED)
        host, port = await server.start()
        client = await TransportClient.connect(host, port)
        try:
            return await coro_fn(client)
        finally:
            await client.shutdown_server()
            await client.close()
            await asyncio.wait_for(server.wait_closed(), timeout=30.0)
    return asyncio.run(main())


class TestLoopback:
    def test_monolithic_fp32_bit_exact(self, local_reference):
        _graph, reference, boundary = local_reference

        async def drive(client):
            return await client.offload(POINT, boundary)

        out = _with_session(drive)
        assert isinstance(out, OffloadOutcome)
        assert out.chunks == 1 and out.codec == "fp32"
        assert out.result.tobytes() == np.ascontiguousarray(reference).tobytes()
        assert out.tail_s <= out.server_s

    def test_streamed_lossless_bit_exact(self, local_reference):
        _graph, reference, boundary = local_reference

        async def drive(client):
            return await client.offload(POINT, boundary, codec="zlib",
                                        chunk_bytes=8192)

        out = _with_session(drive)
        assert out.chunks > 1 and out.codec == "zlib"
        assert out.result.tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_streamed_lossy_within_bound(self, local_reference):
        """int8 on the wire: the reply matches local execution of the
        round-tripped boundary, and the boundary error obeys the bound."""
        graph, _reference, boundary = local_reference

        async def drive(client):
            return await client.offload(POINT, boundary, codec="int8",
                                        chunk_bytes=8192)

        out = _with_session(drive)
        codec = TensorCodec("int8")
        for tensor in boundary.values():
            assert codec.max_abs_error(tensor) <= codec.error_bound(tensor)
        executor = GraphExecutor(graph, seed=SEED)
        part = GraphPartitioner(graph).partition(POINT)
        tail = SegmentExecutor(part.tail, params=executor.params)
        expected = tail.run({k: codec.round_trip(v)
                             for k, v in boundary.items()})[graph.output_name]
        assert out.result.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_wire_order_override_is_equivalent(self, local_reference):
        """Any permutation of the crossing tensors decodes to the same
        result — wire order only affects overlap, never the value."""
        _graph, reference, boundary = local_reference
        order = sorted(boundary, reverse=True)

        async def drive(client):
            return await client.offload(POINT, boundary, codec="zlib",
                                        chunk_bytes=4096, order=order)

        out = _with_session(drive)
        assert out.result.tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_multiple_requests_one_connection(self, local_reference):
        _graph, reference, boundary = local_reference

        async def drive(client):
            outs = []
            for chunk_bytes in (None, 16384, 4096):
                outs.append(await client.offload(
                    POINT, boundary, codec="zlib" if chunk_bytes else "fp32",
                    chunk_bytes=chunk_bytes))
            return outs

        ref_bytes = np.ascontiguousarray(reference).tobytes()
        for out in _with_session(drive):
            assert out.result.tobytes() == ref_bytes


class TestErrorHandling:
    def test_error_reply_keeps_connection_serving(self, local_reference):
        """Every rejected request gets exactly one error reply, monolithic
        or streamed, and valid requests on the same connection still
        succeed: a failed stream is read through its ``end`` frame."""
        _graph, reference, boundary = local_reference
        name = next(iter(boundary))
        misshapen = dict(boundary)
        misshapen[name] = np.ascontiguousarray(boundary[name][..., :-1])
        rejected = [
            dict(point=10 ** 6, boundary=boundary),  # invalid point
            dict(point=10 ** 6, boundary=boundary, chunk_bytes=4096),
            # A wrong tensor shape, detected mid-stream.
            dict(point=POINT, boundary=misshapen, chunk_bytes=4096),
        ]

        async def drive(client):
            outs = []
            for bad in rejected:
                with pytest.raises(RuntimeError, match="server error"):
                    await client.offload(**bad)
                for chunk_bytes in (None, 4096, None):
                    outs.append(await client.offload(
                        POINT, boundary, codec="zlib" if chunk_bytes else "fp32",
                        chunk_bytes=chunk_bytes))
            return outs

        outs = _with_session(drive)
        assert len(outs) == 9
        for out in outs:
            assert out.result.tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_bad_order_rejected_client_side(self, local_reference):
        _graph, _reference, boundary = local_reference
        twice = list(boundary) + [next(iter(boundary))]

        async def drive(client):
            with pytest.raises(ValueError, match="order must cover"):
                await client.offload(POINT, boundary, order=["nope"])
            for chunk_bytes in (None, 4096):
                # A duplicate name must not ship one tensor twice.
                with pytest.raises(ValueError, match="order must cover"):
                    await client.offload(POINT, boundary, order=twice,
                                         chunk_bytes=chunk_bytes)
            return True

        assert _with_session(drive)


class TestFrames:
    def test_frame_round_trip(self):
        async def main():
            reader = asyncio.StreamReader()

            class _Writer:
                def __init__(self):
                    self.buf = bytearray()

                def write(self, data):
                    self.buf.extend(data)

                async def drain(self):
                    pass

            writer = _Writer()
            header = {"op": "chunk", "request_id": 3}
            payload = b"\x00\x01" * 100
            await send_frame(writer, header, payload)
            reader.feed_data(bytes(writer.buf))
            reader.feed_eof()
            got_header, got_payload = await recv_frame(reader)
            assert got_header == header
            assert got_payload == payload

        asyncio.run(main())


class TestMidConnectionResets:
    """Satellite: resets mid-request never hang either endpoint.

    A truncated frame or a dropped socket during a streamed upload must
    leave the server serving subsequent clients, and the client must
    surface a failed :class:`~repro.network.channel.TransferResult`
    through :class:`TransportFailure` instead of blocking forever.
    """

    def _server_survives(self, sabotage, local_reference):
        """Run ``sabotage`` against a live server, then serve a clean client."""
        graph, reference, boundary = local_reference

        async def main():
            server = TransportServer(MODEL, seed=SEED)
            host, port = await server.start()
            try:
                await sabotage(host, port)
                # The wounded connection is gone; a fresh client still works.
                client = await TransportClient.connect(host, port)
                try:
                    out = await client.offload(POINT, boundary)
                finally:
                    await client.shutdown_server()
                    await client.close()
                return out
            finally:
                await server.wait_closed()

        out = asyncio.run(main())
        assert out.result.tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_truncated_frame_then_next_client_served(self, local_reference):
        import struct

        async def sabotage(host, port):
            _reader, writer = await asyncio.open_connection(host, port)
            # Declare a 100-byte header but deliver 5 bytes, then vanish.
            writer.write(struct.pack("!II", 100, 0) + b"trunc")
            await writer.drain()
            writer.close()

        self._server_survives(sabotage, local_reference)

    def test_dropped_socket_mid_stream_then_next_client_served(
            self, local_reference):
        _graph, _reference, boundary = local_reference

        from repro.runtime.transport import _tensor_meta

        async def sabotage(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            name = next(iter(boundary))
            enc = TensorCodec("fp32").encode(boundary[name])
            await send_frame(writer, {
                "op": "begin", "request_id": 1, "point": POINT,
                "tensors": [_tensor_meta(name, enc)],
            })
            # One chunk of the stream, then the socket dies mid-upload.
            await send_frame(writer, {"op": "chunk", "request_id": 1},
                             enc.payload[: max(len(enc.payload) // 2, 1)])
            writer.close()

        self._server_survives(sabotage, local_reference)

    def test_client_raises_transport_failure_on_reset(self, local_reference):
        """A server that hangs up mid-request surfaces a failed result."""
        from repro.runtime.transport import TransportFailure

        _graph, _reference, boundary = local_reference

        async def main():
            async def slam(reader, writer):
                await reader.read(64)   # swallow a little, then hang up
                writer.close()

            server = await asyncio.start_server(slam, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await TransportClient.connect(host, port)
            try:
                with pytest.raises(TransportFailure) as err:
                    await client.offload(POINT, boundary, timeout_s=5.0)
                return err.value
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        failure = asyncio.run(main())
        assert failure.result.delivered is False
        assert failure.result.nbytes > 0
        assert failure.result.elapsed_s < 5.0

    def test_client_times_out_on_silent_server(self, local_reference):
        """A reply that never comes raises at ``timeout_s``, never hangs."""
        from repro.runtime.transport import TransportFailure

        _graph, _reference, boundary = local_reference

        async def main():
            async def black_hole(reader, writer):
                while await reader.read(1 << 16):
                    pass            # consume everything, answer nothing

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await TransportClient.connect(host, port)
            try:
                with pytest.raises(TransportFailure) as err:
                    await client.offload(POINT, boundary, timeout_s=0.2)
                return err.value
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        failure = asyncio.run(main())
        assert failure.result.delivered is False
        assert failure.result.timed_out is True
        assert failure.result.elapsed_s == pytest.approx(0.2)
