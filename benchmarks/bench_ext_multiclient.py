"""Extension — multi-client fleet on one edge server (paper's motivation).

Not a paper figure: quantifies the emergent fleet behaviour of load-aware
partitioning when the server contention is caused by the clients
themselves, closing the loop the paper's §I motivation describes.
"""

import pytest

from repro.core.engine import LoADPartEngine
from repro.experiments.reporting import render_table
from repro.models import build_model
from repro.runtime.multi import MultiClientSystem
from repro.runtime.system import SystemConfig


@pytest.fixture(scope="module")
def engine(trained_report):
    return LoADPartEngine(
        build_model("resnet50"),
        trained_report.user_predictor,
        trained_report.edge_predictor,
    )


def test_fleet_self_stabilisation(benchmark, engine, save_report):
    def run():
        rows = []
        for num_clients in (8, 24, 64):
            stats = {}
            for policy in ("loadpart", "neurosurgeon"):
                system = MultiClientSystem(
                    engine, num_clients, config=SystemConfig(policy=policy, seed=5)
                )
                stats[policy] = system.run(30.0)
            lp, bl = stats["loadpart"], stats["neurosurgeon"]
            rows.append(
                (num_clients,
                 f"{lp.mean_latency() * 1e3:.0f}", f"{bl.mean_latency() * 1e3:.0f}",
                 f"{(1 - lp.mean_latency() / bl.mean_latency()) * 100:.0f}%",
                 f"{lp.local_fraction() * 100:.0f}%", f"{bl.local_fraction() * 100:.0f}%",
                 f"{len(lp)}", f"{len(bl)}")
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ext_multiclient",
        render_table(
            ["clients", "LoADPart ms", "baseline ms", "latency cut",
             "LoADPart local%", "baseline local%", "LoADPart reqs", "baseline reqs"],
            rows,
        ),
    )
    # At fleet scale, the load-aware policy must win on latency and
    # throughput, with a visible retreat to local inference.
    big = rows[-1]
    assert float(big[3].rstrip("%")) > 10
    assert float(big[4].rstrip("%")) > 10
    assert int(big[6]) > int(big[7])
