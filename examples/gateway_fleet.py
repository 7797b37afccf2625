"""Sharded fleet: four edge servers behind a health-probing gateway.

Saturates 60 clients against the edge and crashes server 0 mid-run,
twice — once with a single server behind the gateway, once with four.
Each offload is routed by the joint ``(partition point, server)`` scan
(`engine.decide_exit_fleet`) using the per-server load factors the
supervisor's probes keep fresh.  When server 0 dies the supervisor
marks it SUSPECT and then DEAD, client retries re-route to a live
sibling, and on restart the probe loop notices the wiped queue and
resets that server's ``k``.

The single-server fleet survives the crash (availability 1.0) but one
GPU carries everyone, so most requests retreat to local inference and
the tail stretches.  The four-server fleet absorbs the whole offered
load on the offload path: availability 1.0 *and* a far lower p95.

A third, heterogeneous arm mixes hardware: server 0 is fast and near,
server 1 runs a 4x slower GPU 30 ms farther away.  Per-server
``ServerProfile``s tell the router what each server *is* (a scaled edge
predictor, a bandwidth prior, a link-position prior), the supervisor
learns the actual link latencies from its two-size probes, and the
joint scan sends each request where it will actually finish soonest —
watch the routed counts concentrate on the fast shard.

Run:  python examples/gateway_fleet.py
"""

from repro import LoADPartEngine, OfflineProfiler, build_model
from repro.core.engine import ServerProfile
from repro.hardware.gpu_model import GpuModel, GpuParams
from repro.network.channel import NetworkParams
from repro.network.faults import ServerFaultPlan
from repro.network.traces import ConstantTrace
from repro.profiling.predictor import ScaledPredictor
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import SystemConfig

CLIENTS = 60
DURATION_S = 8.0
CRASH = (2.5, 5.0)          # server 0 dies mid-run, then restarts
SLOWDOWN = 4.0              # server 1's GPU handicap in the hetero arm
FAR_LATENCY_S = 0.03        # server 1's extra one-way link latency


def run(engine, num_servers: int):
    server_faults = [None] * num_servers
    server_faults[0] = ServerFaultPlan(crash_windows=(CRASH,))
    system = GatewayFleetSystem(
        engine, CLIENTS, num_servers=num_servers,
        bandwidth_trace=ConstantTrace(50e6),
        config=SystemConfig(seed=7, think_time_s=0.6,
                            resilience=ResilienceConfig(max_retries=2)),
        gateway_config=GatewayConfig(probes=SupervisorConfig(
            probe_period_s=0.5, dead_after_misses=2)),
        server_faults=server_faults,
    )
    return system, system.run(DURATION_S)


def run_heterogeneous(engine, edge_predictor):
    """Fast+near vs slow+far, routed by per-server beliefs."""
    base = GpuParams()
    slow_gpu = GpuModel(GpuParams(
        conv_rate=base.conv_rate / SLOWDOWN,
        dwconv_rate=base.dwconv_rate / SLOWDOWN,
        matmul_rate=base.matmul_rate / SLOWDOWN,
        mem_bandwidth=base.mem_bandwidth / SLOWDOWN))
    profiles = [
        ServerProfile(),
        ServerProfile(edge_predictor=ScaledPredictor(edge_predictor, SLOWDOWN),
                      extra_latency_s=FAR_LATENCY_S),
    ]
    system = GatewayFleetSystem(
        engine, CLIENTS, num_servers=2,
        bandwidth_trace=ConstantTrace(50e6),
        config=SystemConfig(seed=7, think_time_s=0.6,
                            resilience=ResilienceConfig(max_retries=2)),
        gateway_config=GatewayConfig(probes=SupervisorConfig(
            probe_period_s=0.5, dead_after_misses=2)),
        gpu_models=[None, slow_gpu],
        network_params=[NetworkParams(),
                        NetworkParams(base_latency_s=NetworkParams().base_latency_s
                                      + FAR_LATENCY_S)],
        profiles=profiles,
    )
    return system, system.run(DURATION_S)


def describe(label: str, system, result) -> None:
    print(f"\n{label}: {len(result)} requests, "
          f"availability {result.availability():.1%}, "
          f"local fraction {result.local_fraction():.1%}, "
          f"p95 {result.percentile_latency(95) * 1e3:.1f} ms")
    print("  server   requests   completed   p95(ms)   failed")
    for sid in range(len(system.servers)):
        served = result.for_server(sid)
        completed = served.completed
        p95 = (f"{completed.percentile_latency(95) * 1e3:7.1f}" if len(completed)
               else "      -")
        failed = sum(1 for r in served if r.status == "failed")
        print(f"  {sid:>6}   {len(served):8d}   {len(completed):9d}   "
              f"{p95}   {failed:6d}")
    restarts = {sid: h.restarts_seen for sid, h in system.supervisor.health.items()}
    print(f"  restarts seen by the supervisor: {restarts}")


def main() -> None:
    report = OfflineProfiler(samples_per_category=150, seed=3).run()
    engine = LoADPartEngine(
        build_model("squeezenet"), report.user_predictor, report.edge_predictor
    )

    for num_servers in (1, 4):
        system, result = run(engine, num_servers)
        describe(f"fleet of {num_servers}", system, result)

    print("\nBoth fleets ride through the crash at full availability; the")
    print("4-server fleet also keeps the work on the edge — the supervisor")
    print("routes around the dead shard instead of retreating to local.")

    system, result = run_heterogeneous(engine, report.edge_predictor)
    describe("heterogeneous fleet (fast+near vs 4x-slow+far)", system, result)
    learned = {sid: round(system.supervisor.latency_for(sid) * 1e3, 2)
               for sid in system.supervisor.health}
    print(f"  routed counts: {dict(system.gateway.routed_counts)}")
    print(f"  learned link latencies (ms): {learned}")
    print("\nThe profiles tell the router server 1 is slow and far before a")
    print("single request lands there; the probe decomposition then learns")
    print("the real link latencies, keeping bandwidth estimates honest.")


if __name__ == "__main__":
    main()
