"""Real two-process offloading over TCP: the protocol, not a simulation.

A thin driver over :mod:`repro.runtime.transport`: spawns an edge-server
process, runs Algorithm 1's joint (point, codec) decision, executes the
head segment locally, then ships the crossing tensors twice — once as a
monolithic fp32 upload and once streamed in chunks with the decided codec
— and checks both replies against local execution.  The streamed request
lets the server decode tensors and run tail steps while later bytes
are still in flight; its ``tail_s`` (server time exposed after the last
byte) is the real-socket counterpart of the simulator's overlap credit.

Run:  python examples/distributed_sockets.py
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import numpy as np

from repro import GraphPartitioner, LoADPartEngine, OfflineProfiler, build_model
from repro.network.streaming import StreamingConfig
from repro.nn import GraphExecutor, SegmentExecutor
from repro.runtime.transport import TransportClient, run_server

MODEL = "squeezenet"
SEED = 42
HOST, PORT = "127.0.0.1", 47123
BANDWIDTH = 8e6


async def drive(engine: LoADPartEngine) -> None:
    graph = engine.graph
    # 4 KiB chunks so the streamed arm visibly pipelines (SqueezeNet's
    # compressed cut is ~15 kB; the 32 KiB default would be one chunk).
    streaming = StreamingConfig(chunk_bytes=4096)
    joint = engine.decide_joint(BANDWIDTH, streaming=streaming)
    point = joint.point
    part = GraphPartitioner(graph).partition(point)
    executor = GraphExecutor(graph, seed=SEED)

    rng = np.random.default_rng(1)
    x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
    reference = executor.run(x)

    head = SegmentExecutor(part.head, params=executor.params)
    wire_order = [name for name, _nb, _op in engine.cut_tensors(point)]
    client = await TransportClient.connect(HOST, PORT)
    try:
        for i in range(3):
            t0 = time.perf_counter()
            boundary = head.run({graph.input_name: x}) if point > 0 else {}
            if graph.input_name in part.transfer_specs:
                boundary[graph.input_name] = x
            device_s = time.perf_counter() - t0

            for label, codec, chunk_bytes in (
                ("monolithic fp32", "fp32", None),
                (f"streamed {joint.codec}", joint.codec, streaming.chunk_bytes),
            ):
                t1 = time.perf_counter()
                out = await client.offload(
                    point, boundary, codec=codec,
                    chunk_bytes=chunk_bytes, order=wire_order)
                round_trip_s = time.perf_counter() - t1
                err = float(np.abs(out.result - reference).max())
                print(f"request {i + 1} [{label:>16}]: p={point}, "
                      f"shipped {out.wire_bytes / 1e3:.1f} kB in {out.chunks} "
                      f"chunk(s), device {device_s * 1e3:.1f} ms, server "
                      f"{out.server_s * 1e3:.1f} ms (tail {out.tail_s * 1e3:.1f} ms), "
                      f"round-trip {round_trip_s * 1e3:.1f} ms, max|err|={err:.1e}")
                assert err < 1e-4
        await client.shutdown_server()
    finally:
        await client.close()


def main() -> None:
    ready = multiprocessing.Event()
    server = multiprocessing.Process(
        target=run_server, args=(MODEL, SEED, PORT, ready), daemon=True)
    server.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("server did not come up")

    graph = build_model(MODEL)
    report = OfflineProfiler(samples_per_category=250, seed=7).run()
    engine = LoADPartEngine(graph, report.user_predictor, report.edge_predictor)
    asyncio.run(drive(engine))
    server.join(timeout=5)
    print("distributed results identical to local execution")


if __name__ == "__main__":
    main()
