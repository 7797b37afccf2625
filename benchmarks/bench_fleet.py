"""Sharded fleet under saturation: 1 vs 4 edge servers, crash mid-run.

Saturates a 100+ client fleet against the edge and crashes server 0 in
the middle of the horizon, three arms:

- ``naive_direct`` — the paper's runtime: every client talks straight to
  the single shared server with no deadlines and no failover.  The crash
  stalls clients (a blocking RPC never returns) and availability drops.
- ``fleet1``       — the same single server behind the gateway with the
  supervisor probing and resilient clients: the crash is detected,
  requests fall back and retry, availability recovers to 1.0 — but one
  GPU still carries everyone, so contention pushes ``k`` up and tail
  latency out.
- ``fleet4``       — four servers behind the gateway.  Server 0 crashes
  on the same schedule; the supervisor marks it dead, the joint
  ``(point, server)`` scan re-routes to the live siblings, and the load
  spreads across three healthy GPUs: availability 1.0 *and* a lower p95
  than the single-server fleet.

A heterogeneous cell pits a fast+near server against a slow+far one
(4x slower GPU, +30 ms link, half the uplink) under the same client
load, twice: ``hetero_aware`` gives the gateway per-server
``ServerProfile`` beliefs plus learned link penalties, ``hetero_blind``
routes with neither — so the aware arm anticipates the hardware gap
while the blind arm discovers it one mis-routed request at a time.  The
gate asserts the aware arm's p95 strictly beats the blind arm's.

The report also re-checks the degenerate identity (1-server gateway with
probes disabled == direct path, record for record) so the gate catches
any drift in the routing layer's zero-cost guarantee.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform

import numpy as np

from records_digest import records_digest

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

MODEL = "squeezenet"
CLIENTS = 100
DURATION_S = 8.0
CRASH_WINDOW = (2.5, 5.0)
BANDWIDTH_BPS = 50e6
THINK_TIME_S = 0.6
IDENTITY_CLIENTS = 3
IDENTITY_DURATION_S = 2.0


def _summarise(result, duration_s: float) -> dict:
    issued = len(result)
    completed = result.completed
    return {
        "issued": issued,
        "completed": len(completed),
        "availability": round(result.availability(), 4) if issued else None,
        "mean_ms": round(completed.mean_latency() * 1e3, 2) if len(completed) else None,
        "p95_ms": (round(completed.percentile_latency(95) * 1e3, 2)
                   if len(completed) else None),
        "throughput_rps": round(len(completed) / duration_s, 2),
        "local_fraction": round(result.local_fraction(), 4),
        "stalled_clients": sum(1 for t in result.timelines if t.availability() < 1.0),
        "records_digest": records_digest(result),
    }


def _breakdown(result, num_servers: int) -> list:
    """One row per server, over the requests whose final attempt it served.

    Fallbacks and rejections resolve on the local path, whose records
    carry no ``server_id``, so no row can count them.
    """
    rows = []
    for sid in range(num_servers):
        served = result.for_server(sid)
        completed = served.completed
        rows.append({
            "server_id": sid,
            "requests": len(served),
            "completed": len(completed),
            "availability": round(served.availability(), 4) if len(served) else None,
            "p95_ms": (round(completed.percentile_latency(95) * 1e3, 2)
                       if len(completed) else None),
            "failed": sum(1 for r in served if r.status == "failed"),
        })
    return rows


def run_naive(engine, seed: int, duration_s: float) -> dict:
    from repro.network.faults import ServerFaultPlan
    from repro.network.traces import ConstantTrace
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    config = SystemConfig(
        seed=seed,
        think_time_s=THINK_TIME_S,
        server_faults=ServerFaultPlan(crash_windows=(CRASH_WINDOW,)),
    )
    result = MultiClientSystem(
        engine, CLIENTS, bandwidth_trace=ConstantTrace(BANDWIDTH_BPS),
        config=config).run(duration_s)
    return _summarise(result, duration_s)


def run_fleet(engine, seed: int, duration_s: float, num_servers: int) -> dict:
    from repro.network.faults import ServerFaultPlan
    from repro.network.traces import ConstantTrace
    from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
    from repro.runtime.resilience import ResilienceConfig
    from repro.runtime.supervisor import SupervisorConfig
    from repro.runtime.system import SystemConfig

    config = SystemConfig(
        seed=seed,
        think_time_s=THINK_TIME_S,
        resilience=ResilienceConfig(max_retries=2),
    )
    server_faults = [None] * num_servers
    server_faults[0] = ServerFaultPlan(crash_windows=(CRASH_WINDOW,))
    system = GatewayFleetSystem(
        engine, CLIENTS, num_servers=num_servers,
        bandwidth_trace=ConstantTrace(BANDWIDTH_BPS),
        config=config,
        gateway_config=GatewayConfig(probes=SupervisorConfig(
            probe_period_s=0.5, dead_after_misses=2)),
        server_faults=server_faults,
    )
    result = system.run(duration_s)
    summary = _summarise(result, duration_s)
    summary["servers"] = _breakdown(result, len(system.servers))
    summary["restarts_seen"] = {
        sid: h.restarts_seen for sid, h in system.supervisor.health.items()}
    return summary


#: Heterogeneous cell: server 1's true hardware/link handicap vs server 0.
HETERO_GPU_SLOWDOWN = 4.0
HETERO_EXTRA_LATENCY_S = 0.03
HETERO_FAR_BANDWIDTH_BPS = 25e6


def run_hetero(engine, edge_predictor, seed: int, duration_s: float,
               aware: bool) -> dict:
    """Fast+near vs slow+far, with and without per-server beliefs.

    The *truth* is identical in both arms: server 1 runs a GPU with every
    rate divided by ``HETERO_GPU_SLOWDOWN``, sits ``HETERO_EXTRA_LATENCY_S``
    farther away, and has half the uplink.  Only the gateway's *belief*
    differs: the aware arm carries ``ServerProfile``s (scaled predictor,
    bandwidth prior, link-position prior) and learns link penalties from
    probe decomposition; the blind arm routes on the engine's shared
    predictor with single-upload probes.
    """
    from repro.core.engine import ServerProfile
    from repro.hardware.gpu_model import GpuModel, GpuParams
    from repro.network.channel import NetworkParams
    from repro.network.traces import ConstantTrace
    from repro.profiling.predictor import ScaledPredictor
    from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
    from repro.runtime.resilience import ResilienceConfig
    from repro.runtime.supervisor import SupervisorConfig
    from repro.runtime.system import SystemConfig

    s = HETERO_GPU_SLOWDOWN
    base = GpuParams()
    slow_gpu = GpuModel(GpuParams(
        conv_rate=base.conv_rate / s, dwconv_rate=base.dwconv_rate / s,
        matmul_rate=base.matmul_rate / s, mem_bandwidth=base.mem_bandwidth / s))
    profiles = None
    if aware:
        profiles = [
            ServerProfile(),
            ServerProfile(
                edge_predictor=ScaledPredictor(edge_predictor, s),
                bandwidth_bps=HETERO_FAR_BANDWIDTH_BPS,
                extra_latency_s=HETERO_EXTRA_LATENCY_S),
        ]
    config = SystemConfig(
        seed=seed,
        think_time_s=THINK_TIME_S,
        resilience=ResilienceConfig(max_retries=2),
    )
    system = GatewayFleetSystem(
        engine, CLIENTS, num_servers=2,
        bandwidth_trace=ConstantTrace(BANDWIDTH_BPS),
        config=config,
        gateway_config=GatewayConfig(probes=SupervisorConfig(
            probe_period_s=0.5, dead_after_misses=2, learn_links=aware)),
        gpu_models=[None, slow_gpu],
        network_params=[
            NetworkParams(),
            NetworkParams(base_latency_s=NetworkParams().base_latency_s
                          + HETERO_EXTRA_LATENCY_S)],
        bandwidth_traces=[ConstantTrace(BANDWIDTH_BPS),
                          ConstantTrace(HETERO_FAR_BANDWIDTH_BPS)],
        profiles=profiles,
    )
    result = system.run(duration_s)
    summary = _summarise(result, duration_s)
    summary["servers"] = _breakdown(result, len(system.servers))
    summary["routed_counts"] = dict(system.gateway.routed_counts)
    summary["learned_link_latency_s"] = {
        sid: round(system.supervisor.latency_for(sid), 5)
        for sid in system.supervisor.health}
    return summary


def check_degenerate_identity(engine, seed: int) -> bool:
    """1-server gateway, probes off: records must equal the direct path."""
    from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    config = SystemConfig(seed=seed)
    direct = MultiClientSystem(
        engine, IDENTITY_CLIENTS, config=config).run(IDENTITY_DURATION_S)
    degen = GatewayFleetSystem(
        engine, IDENTITY_CLIENTS, num_servers=1, config=config,
        gateway_config=GatewayConfig(probes=None)).run(IDENTITY_DURATION_S)
    return direct.records == degen.records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    from repro.core.engine import LoADPartEngine
    from repro.models import build_model
    from repro.profiling.offline import OfflineProfiler

    report_prof = OfflineProfiler(samples_per_category=150, seed=3).run()
    engine = LoADPartEngine(build_model(MODEL), report_prof.user_predictor,
                            report_prof.edge_predictor)

    arms = {
        "naive_direct": run_naive(engine, args.seed, args.duration),
        "fleet1": run_fleet(engine, args.seed, args.duration, num_servers=1),
        "fleet4": run_fleet(engine, args.seed, args.duration, num_servers=4),
        "hetero_blind": run_hetero(engine, report_prof.edge_predictor,
                                   args.seed, args.duration, aware=False),
        "hetero_aware": run_hetero(engine, report_prof.edge_predictor,
                                   args.seed, args.duration, aware=True),
    }
    degenerate_identical = check_degenerate_identity(engine, args.seed)

    for name, row in arms.items():
        p95 = f"{row['p95_ms']:.1f}" if row["p95_ms"] is not None else "-"
        print(f"{name:13s} issued {row['issued']:5d}  "
              f"avail {row['availability']:.3f}  p95 {p95} ms  "
              f"local {row['local_fraction']:.3f}  "
              f"stalled_clients {row['stalled_clients']}")
    print(f"degenerate identity: {degenerate_identical}")

    report = {
        "benchmark": "fleet",
        "model": MODEL,
        "clients": CLIENTS,
        "duration_s": args.duration,
        "crash_window_s": list(CRASH_WINDOW),
        "seed": args.seed,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        # Gate metrics: the 4-server fleet must ride through the crash at
        # full availability and beat the 1-server fleet's tail latency;
        # the degenerate 1-server gateway must stay a zero-cost wrapper.
        "fleet4_availability": arms["fleet4"]["availability"],
        "fleet1_p95_ms": arms["fleet1"]["p95_ms"],
        "fleet4_p95_ms": arms["fleet4"]["p95_ms"],
        "naive_availability": arms["naive_direct"]["availability"],
        # Heterogeneous gate: belief-aware routing must beat profile-blind
        # routing on tail latency against the same fast+near / slow+far truth.
        "hetero_aware_p95_ms": arms["hetero_aware"]["p95_ms"],
        "hetero_blind_p95_ms": arms["hetero_blind"]["p95_ms"],
        "degenerate_identical": degenerate_identical,
        "results": [{"arm": name, **row} for name, row in arms.items()],
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nfleet4 avail {report['fleet4_availability']:.3f}, "
          f"p95 {report['fleet4_p95_ms']:.1f} ms vs fleet1 "
          f"{report['fleet1_p95_ms']:.1f} ms; hetero aware p95 "
          f"{report['hetero_aware_p95_ms']:.1f} ms vs blind "
          f"{report['hetero_blind_p95_ms']:.1f} ms -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
