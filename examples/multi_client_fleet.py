"""Fleet scenario: many devices sharing one edge server.

The paper's motivation — edge servers facing contention from the
offloaded tasks of many devices — made endogenous: the server's GPU load
comes from the fleet's own offloads. A LoADPart fleet self-stabilises
(clients retreat to local inference when the GPU saturates and return as
it drains), while a load-oblivious Neurosurgeon fleet piles onto the
saturated GPU.

Run:  python examples/multi_client_fleet.py
"""

from repro import LoADPartEngine, OfflineProfiler, SystemConfig, build_model
from repro.runtime.multi import MultiClientSystem


def main() -> None:
    report = OfflineProfiler(samples_per_category=250, seed=7).run()
    engine = LoADPartEngine(
        build_model("resnet50"), report.user_predictor, report.edge_predictor
    )

    print("fleet size   policy        mean(ms)   p95(ms)   local%   reqs/40s")
    print("----------   ------------  --------   -------   ------   --------")
    for num_clients in (8, 24, 64):
        for policy in ("loadpart", "neurosurgeon"):
            system = MultiClientSystem(
                engine, num_clients,
                config=SystemConfig(policy=policy, seed=5),
            )
            result = system.run(40.0)
            print(f"{num_clients:>10}   {policy:<12}  "
                  f"{result.mean_latency() * 1e3:8.1f}   "
                  f"{result.percentile_latency(95) * 1e3:7.1f}   "
                  f"{result.local_fraction() * 100:5.1f}%   "
                  f"{len(result):8d}")

    print("\nLoad-aware clients shed load to their own CPUs once the shared GPU")
    print("saturates; the oblivious fleet keeps offloading into the queue.")


if __name__ == "__main__":
    main()
