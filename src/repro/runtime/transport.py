"""Asyncio streaming transport: the real-socket face of the offload path.

The simulation (:mod:`repro.runtime.client` / :mod:`repro.runtime.server`)
models chunked uploads and arrival-gated tail execution with declared
constants; this module is the same protocol over real TCP sockets, promoted
from ``examples/distributed_sockets.py``:

- length-prefixed frames (``!II`` header/payload lengths + JSON header),
- per-tensor codec encode on the device and decode on the server
  (:class:`~repro.network.codec.TensorCodec` — lossless codecs arrive
  bit-exact),
- a **streamed** mode that splits the concatenated encoded payload into
  chunks; the server decodes each crossing tensor as soon as its bytes are
  complete and feeds it into the tail plan's
  :meth:`~repro.nn.plan.SegmentPlan.begin_streaming` stream, so tail
  steps run while later tensors are still on the wire (the real-world
  counterpart of the engine's release-schedule pipelining).

Both endpoints build identical weights from the shared model definition
and seed, so no parameters cross the wire.  The server compiles one
:class:`~repro.nn.plan.SegmentPlan` per partition point through a
:class:`~repro.core.cache.CompileOnceCache` and serves requests
sequentially per connection.  Connections share the plans: a request
holds its point's :class:`asyncio.Lock` while it uses the plan, so a
second request for that point waits on the event loop, which keeps
reading every connection's frames meanwhile.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.cache import CompileOnceCache
from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model
from repro.network.channel import TransferResult
from repro.network.codec import EncodedTensor, TensorCodec, decode_any
from repro.network.streaming import plan_chunks
from repro.nn.executor import GraphExecutor
from repro.nn.plan import SegmentPlan

__all__ = [
    "OffloadOutcome",
    "TransportClient",
    "TransportFailure",
    "TransportServer",
    "recv_frame",
    "run_server",
    "send_frame",
]


class TransportFailure(RuntimeError):
    """A request died mid-connection (reset, truncation, timeout).

    Carries a failed :class:`~repro.network.channel.TransferResult` whose
    ``elapsed_s`` is the wall time the client spent before learning the
    request was lost — the same shape the simulated channel reports, so
    resilient callers handle real-socket failures and simulated ones with
    one code path.  The client never hangs: a dropped socket raises
    immediately, a silent server raises at ``timeout_s``.
    """

    def __init__(self, message: str, result: TransferResult) -> None:
        super().__init__(message)
        self.result = result

_LEN = struct.Struct("!II")


async def send_frame(writer: asyncio.StreamWriter, header: dict,
                     payload: bytes = b"") -> None:
    """One length-prefixed frame: JSON header + opaque payload bytes."""
    head = json.dumps(header).encode()
    writer.write(_LEN.pack(len(head), len(payload)))
    writer.write(head)
    writer.write(payload)
    await writer.drain()


async def recv_frame(reader: asyncio.StreamReader) -> Tuple[dict, bytes]:
    head_len, payload_len = _LEN.unpack(await reader.readexactly(_LEN.size))
    header = json.loads((await reader.readexactly(head_len)).decode())
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return header, payload


def _tensor_meta(name: str, enc: EncodedTensor) -> dict:
    return {
        "name": name,
        "codec": enc.codec,
        "shape": list(enc.shape),
        "scale": enc.scale,
        "zero_point": enc.zero_point,
        "nbytes": enc.nbytes,
    }


def _meta_tensor(meta: dict, payload: bytes) -> np.ndarray:
    return decode_any(EncodedTensor(
        codec=meta["codec"],
        shape=tuple(meta["shape"]),
        payload=payload,
        scale=float(meta.get("scale", 1.0)),
        zero_point=float(meta.get("zero_point", 0.0)),
    ))


@dataclass(frozen=True)
class OffloadOutcome:
    """One completed request as seen by the client."""

    result: np.ndarray
    #: Server wall time from request start to reply ready.
    server_s: float
    #: Server time exposed *after* the last payload byte arrived — the
    #: un-overlapped tail.  Streamed requests shrink this, monolithic
    #: requests pay the whole decode+execute here.
    tail_s: float
    wire_bytes: int
    chunks: int
    codec: str


class TransportServer:
    """Serves partition tails over TCP, monolithic or streamed."""

    def __init__(self, model: str, seed: int = 0,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.graph = build_model(model)
        self.params = GraphExecutor(self.graph, seed=seed).params
        self.partitioner = GraphPartitioner(self.graph)
        self.host = host
        self.port = port
        self._plans = CompileOnceCache()
        # Held by a request for as long as it uses its point's tail plan.
        # Waiting here yields to the event loop; blocking on the plan's own
        # lock would stall every connection, the holder's frames included.
        self._plan_locks: Dict[int, asyncio.Lock] = defaultdict(asyncio.Lock)
        self._server: asyncio.AbstractServer | None = None
        self._closed = asyncio.Event()

    def _tail_plan(self, point: int) -> SegmentPlan:
        def build() -> SegmentPlan:
            part = self.partitioner.partition(point)
            return SegmentPlan(part.tail, params=self.params)
        return self._plans.get_or_create(point, build)

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def wait_closed(self) -> None:
        await self._closed.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    header, payload = await recv_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                op = header.get("op")
                if op == "shutdown":
                    self._closed.set()
                    break
                try:
                    if op == "offload":
                        reply, body = await self._offload(header, payload)
                    elif op == "begin":
                        reply, body = await self._streamed(header, reader)
                    else:
                        raise ValueError(f"unknown op {op!r}")
                except asyncio.IncompleteReadError:
                    break
                except Exception as exc:  # report, keep serving
                    reply, body = {"op": "error",
                                   "request_id": header.get("request_id"),
                                   "message": f"{type(exc).__name__}: {exc}"}, b""
                await send_frame(writer, reply, body)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _reply(self, header: dict, result: np.ndarray, t0: float,
               t_last_byte: float) -> Tuple[dict, bytes]:
        done = time.perf_counter()
        out = np.ascontiguousarray(result)
        return {
            "op": "result",
            "request_id": header.get("request_id"),
            "shape": list(out.shape),
            "server_s": done - t0,
            "tail_s": done - t_last_byte,
        }, out.tobytes()

    async def _offload(self, header: dict, payload: bytes) -> Tuple[dict, bytes]:
        """Monolithic request: the whole payload precedes any execution."""
        t0 = time.perf_counter()
        point = int(header["point"])
        plan = self._tail_plan(point)
        boundary: Dict[str, np.ndarray] = {}
        cursor = 0
        for meta in header["tensors"]:
            nbytes = int(meta["nbytes"])
            boundary[meta["name"]] = _meta_tensor(
                meta, payload[cursor:cursor + nbytes])
            cursor += nbytes
        async with self._plan_locks[point]:
            results = plan.run(boundary)
        return self._reply(header, results[self.graph.output_name], t0, t0)

    async def _streamed(self, header: dict, reader: asyncio.StreamReader,
                        ) -> Tuple[dict, bytes]:
        """Streamed request: decode and feed tensors as their bytes land.

        A request that fails before its ``end`` frame is read through that
        frame before the error propagates, so the connection answers every
        request exactly once and the next request starts on its own frame.
        """
        t0 = time.perf_counter()
        request_id = header.get("request_id")
        ended = False
        t_last = t0
        try:
            point = int(header["point"])
            plan = self._tail_plan(point)
            metas: List[dict] = list(header["tensors"])
            ends = list(np.cumsum([int(m["nbytes"]) for m in metas]))
            async with self._plan_locks[point]:
                stream = plan.begin_streaming()
                try:
                    buf = bytearray()
                    next_tensor = 0
                    while True:
                        chunk_header, chunk = await recv_frame(reader)
                        cop = chunk_header.get("op")
                        ended = cop == "end"
                        if chunk_header.get("request_id") != request_id:
                            raise ValueError("interleaved request ids on one stream")
                        if cop == "chunk":
                            buf.extend(chunk)
                            t_last = time.perf_counter()
                            while (next_tensor < len(metas)
                                   and ends[next_tensor] <= len(buf)):
                                meta = metas[next_tensor]
                                start = ends[next_tensor] - int(meta["nbytes"])
                                stream.feed(meta["name"], _meta_tensor(
                                    meta, bytes(buf[start:ends[next_tensor]])))
                                next_tensor += 1
                        elif ended:
                            break
                        else:
                            raise ValueError(f"unexpected op {cop!r} mid-stream")
                    if next_tensor < len(metas):
                        raise ValueError("stream ended before all tensors arrived")
                    results = stream.finish()
                except BaseException:
                    stream.abort()
                    raise
        except BaseException as exc:
            if not ended and isinstance(exc, Exception) and not isinstance(
                    exc, (asyncio.IncompleteReadError, ConnectionError)):
                # Skip the failed request's remaining frames.
                while (await recv_frame(reader))[0].get("op") != "end":
                    pass
            raise
        return self._reply(header, results[self.graph.output_name], t0, t_last)


class TransportClient:
    """Device side: encodes crossing tensors and ships them, whole or chunked."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "TransportClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def offload(self, point: int, boundary: Dict[str, np.ndarray],
                      codec: str = "fp32", chunk_bytes: int | None = None,
                      order: Sequence[str] | None = None,
                      timeout_s: float | None = None) -> OffloadOutcome:
        """Ship one request; ``chunk_bytes`` selects the streamed mode.

        ``order`` fixes the wire order of the crossing tensors (the engine's
        first-consumer order maximises server-side overlap); default is the
        dict's own order.  ``timeout_s`` bounds the whole request: a reply
        that has not arrived by then — or a connection that resets mid-way
        — raises :class:`TransportFailure` carrying a failed
        :class:`~repro.network.channel.TransferResult`, never hangs.
        """
        self._next_id += 1
        request_id = self._next_id
        names = list(order) if order is not None else list(boundary)
        if len(names) != len(boundary) or set(names) != set(boundary):
            raise ValueError("order must cover exactly the boundary tensors")
        enc = TensorCodec(codec)
        encoded = [(name, enc.encode(boundary[name])) for name in names]
        metas = [_tensor_meta(name, e) for name, e in encoded]
        payload = b"".join(e.payload for _name, e in encoded)
        header = {
            "request_id": request_id,
            "point": int(point),
            "tensors": metas,
        }
        t0 = time.perf_counter()

        async def exchange() -> Tuple[dict, bytes, int]:
            if chunk_bytes is None:
                header["op"] = "offload"
                await send_frame(self._writer, header, payload)
                nchunks = 1
            else:
                header["op"] = "begin"
                await send_frame(self._writer, header)
                sizes = plan_chunks(len(payload), chunk_bytes)
                cursor = 0
                for size in sizes:
                    await send_frame(
                        self._writer,
                        {"op": "chunk", "request_id": request_id},
                        payload[cursor:cursor + size])
                    cursor += size
                await send_frame(self._writer,
                                 {"op": "end", "request_id": request_id})
                nchunks = max(len(sizes), 1)
            return *(await recv_frame(self._reader)), nchunks

        try:
            if timeout_s is not None:
                reply, body, chunks = await asyncio.wait_for(
                    exchange(), timeout=timeout_s)
            else:
                reply, body, chunks = await exchange()
        except asyncio.TimeoutError as exc:
            # Checked first: TimeoutError is an OSError subclass on
            # modern Pythons, and a silent server is not a dead link.
            raise TransportFailure(
                f"no reply within {timeout_s}s",
                TransferResult.failed(len(payload), timeout_s),
            ) from exc
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            elapsed = time.perf_counter() - t0
            raise TransportFailure(
                f"connection lost mid-request: {type(exc).__name__}",
                TransferResult(delivered=False, elapsed_s=elapsed,
                               nbytes=len(payload)),
            ) from exc
        if reply.get("op") == "error":
            raise RuntimeError(f"server error: {reply.get('message')}")
        if reply.get("request_id") != request_id:
            raise RuntimeError("out-of-order reply")
        result = np.frombuffer(body, dtype=np.float32).reshape(reply["shape"])
        return OffloadOutcome(
            result=result,
            server_s=float(reply["server_s"]),
            tail_s=float(reply["tail_s"]),
            wire_bytes=len(payload),
            chunks=chunks,
            codec=codec,
        )

    async def shutdown_server(self) -> None:
        await send_frame(self._writer, {"op": "shutdown"})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run_server(model: str, seed: int, port: int, ready=None,
               host: str = "127.0.0.1") -> None:
    """Blocking entry point for a server process (``multiprocessing`` target).

    ``ready`` is an optional ``multiprocessing.Event`` set once the socket
    is listening; the server exits after a client sends ``shutdown``.
    """
    async def main() -> None:
        server = TransportServer(model, seed=seed, host=host, port=port)
        await server.start()
        if ready is not None:
            ready.set()
        await server.wait_closed()

    asyncio.run(main())
