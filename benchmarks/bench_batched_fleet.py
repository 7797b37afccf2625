"""Server-side throughput of batched vs sequential tail execution.

Two layers are measured, matching the repo's split between the simulated
edge server and the functional array path:

- **Simulated T4 throughput** (the headline): requests/s the modeled GPU
  serves when concurrent offloads are stacked into one batch, vs serving
  them one at a time.  Batched GPU execution costs
  ``1 + (b - 1) * MARGINAL_SAMPLE_COST`` of one sample, so a batch of 4 at
  the 0.35 marginal cost serves ``4 / 2.05 = 1.95x`` the requests
  per GPU-second.  This is where batching pays on real serving hardware.
- **Host wall-clock** of the planned backend executing the same batch on
  real arrays, reported for transparency.  The bit-identity contract pins
  the exact BLAS call sequence (per-sample GEMM slabs, per-row GEMVs), so
  on a single-core CPU host batched and sequential execution do identical
  floating-point work and the wall ratio hovers around 1x — the batched
  plan's value on the host is *equivalence*, not speed.

Every batched run is verified per-sample bit-identical to independent
naive batch-1 runs before any timing is recorded.  A fleet-level section
runs the full :class:`MultiClientSystem` with and without dynamic batching
and reports completed requests, latency, and observed batch sizes.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_batched_fleet.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from records_digest import records_digest

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: (model, tail fraction): 0.0 = full offload (whole graph is the tail).
TAILS = (
    ("squeezenet", 0.0),
    ("resnet18", 0.0),
    ("mobilenet_v1", 0.5),
)

BATCHES = (1, 2, 4, 8)


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_tail(model_name: str, tail_fraction: float, repeats: int) -> dict:
    from repro.graph.partitioner import GraphPartitioner
    from repro.hardware.gpu_model import GpuModel
    from repro.models import build_model
    from repro.nn import SegmentExecutor
    from repro.profiling.features import profile_node
    from repro.runtime.batching import BatchingConfig

    graph = build_model(model_name)
    order = graph.topological_order()
    point = int(len(order) * tail_fraction)
    tail = GraphPartitioner(graph).partition(point).tail
    profiles = [profile_node(node, graph.input_specs_of(node))
                for node in tail.nodes if node.op not in ("make_tuple", "return")]

    batching = BatchingConfig()
    gpu = GpuModel()
    sample_gpu_s = gpu.mean_graph_time(profiles)

    sequential = SegmentExecutor(tail, seed=0, backend="planned", batch=1)
    naive = SegmentExecutor(tail, seed=0, params=sequential.params)

    rng = np.random.default_rng(3)
    entry = {
        "model": model_name,
        "partition_point": point,
        "tail_nodes": len(tail.nodes),
        "sim_sample_gpu_ms": round(sample_gpu_s * 1e3, 3),
        "batches": [],
    }
    for b in BATCHES:
        draws = [
            {name: rng.standard_normal(spec.shape).astype(np.float32)
             for name, spec in tail.boundary_inputs.items()}
            for _ in range(b)
        ]
        stacked = {
            name: np.concatenate([d[name] for d in draws], axis=0)
            for name in tail.boundary_inputs
        }
        batched = SegmentExecutor(tail, seed=0, params=sequential.params,
                                  backend="planned", batch=b)

        out = batched.run(stacked)
        bit_identical = True
        for i, draw in enumerate(draws):
            ref = naive.run(draw)
            for name, value in ref.items():
                if not np.array_equal(out[name][i:i + 1], value):
                    bit_identical = False

        host_seq_s = _time_best(lambda: [sequential.run(d) for d in draws], repeats)
        host_bat_s = _time_best(lambda: batched.run(stacked), repeats)

        # Simulated T4: sequential serving costs b full samples; batched
        # serving costs one batch at the ladder's marginal sample cost.
        padded = batching.padded_size(b)
        sim_seq_s = b * sample_gpu_s
        sim_bat_s = sample_gpu_s * batching.batch_time_scale(padded)
        entry["batches"].append({
            "batch": b,
            "padded": padded,
            "bit_identical": bit_identical,
            "sim_seq_rps": round(b / sim_seq_s, 1),
            "sim_batched_rps": round(b / sim_bat_s, 1),
            "sim_throughput_ratio": round(sim_seq_s / sim_bat_s, 3),
            "host_seq_ms": round(host_seq_s * 1e3, 3),
            "host_batched_ms": round(host_bat_s * 1e3, 3),
            "host_wall_ratio": round(host_seq_s / host_bat_s, 3),
        })
    return entry


def bench_fleet(duration_s: float = 4.0, clients: int = 24) -> dict:
    """Full fleet run, dynamic batching off vs on (same seed and horizon).

    24 always-offload clients saturate the shared GPU (utilization pins at
    1.0 without batching) — the regime where stacking concurrent tails
    into one batch visibly relieves contention.
    """
    from repro.core.engine import LoADPartEngine
    from repro.models import build_model
    from repro.profiling.offline import OfflineProfiler
    from repro.runtime.batching import BatchingConfig
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    report = OfflineProfiler(samples_per_category=150, seed=3).run()
    engine = LoADPartEngine(build_model("resnet50"),
                            report.user_predictor, report.edge_predictor)

    out = {}
    for label, batching in (("sequential", None),
                            ("batched", BatchingConfig(window_s=0.02))):
        config = SystemConfig(seed=7, policy="full", batching=batching)
        system = MultiClientSystem(engine, clients, config=config)
        result = system.run(duration_s)
        records = result.records
        out[label] = {
            "requests": len(records),
            "requests_per_s": round(len(records) / duration_s, 2),
            "mean_latency_ms": round(result.mean_latency() * 1e3, 2),
            "p95_latency_ms": round(result.percentile_latency(95) * 1e3, 2),
            "gpu_utilization": round(system.tracker.utilization(duration_s), 3),
            "mean_batch_size": round(
                float(np.mean([r.batch_size for r in records])), 2) if records else None,
            "max_batch_size": max((r.batch_size for r in records), default=0),
            "mean_queue_ms": round(
                float(np.mean([r.server_queue_s for r in records])) * 1e3, 3)
                if records else None,
            "records_digest": records_digest(records),
        }
    out["throughput_gain"] = round(
        out["batched"]["requests_per_s"] / out["sequential"]["requests_per_s"], 3
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per configuration (min reported)")
    parser.add_argument("--skip-fleet", action="store_true",
                        help="skip the (slow) full fleet simulation section")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    results = []
    for model_name, fraction in TAILS:
        entry = bench_tail(model_name, fraction, args.repeats)
        results.append(entry)
        for row in entry["batches"]:
            print(f"{model_name:13s} b={row['batch']}: "
                  f"sim {row['sim_seq_rps']:7.1f} -> {row['sim_batched_rps']:7.1f} rps "
                  f"({row['sim_throughput_ratio']:.2f}x)  "
                  f"host {row['host_seq_ms']:7.1f} -> {row['host_batched_ms']:7.1f} ms  "
                  f"bit_identical={row['bit_identical']}")

    ratios_at_4plus = [row["sim_throughput_ratio"] for e in results
                       for row in e["batches"] if row["batch"] >= 4]
    all_identical = all(row["bit_identical"] for e in results for row in e["batches"])
    report = {
        "benchmark": "batched_fleet",
        "statistic": "min",
        "repeats": args.repeats,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "min_throughput_ratio_at_batch4plus": round(min(ratios_at_4plus), 3),
        "all_bit_identical": all_identical,
        "results": results,
    }
    if not args.skip_fleet:
        print("\nfleet simulation (resnet50, 24 clients, policy=full):")
        report["fleet"] = bench_fleet()
        for label in ("sequential", "batched"):
            row = report["fleet"][label]
            print(f"  {label:10s} {row['requests']:4d} reqs "
                  f"({row['requests_per_s']:.1f}/s)  mean {row['mean_latency_ms']:.1f} ms  "
                  f"p95 {row['p95_latency_ms']:.1f} ms  "
                  f"max batch {row['max_batch_size']}")
        print(f"  end-to-end throughput gain {report['fleet']['throughput_gain']:.2f}x")

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nserver-side throughput at batch>=4: "
          f">={report['min_throughput_ratio_at_batch4plus']:.2f}x, "
          f"bit_identical={all_identical} -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
