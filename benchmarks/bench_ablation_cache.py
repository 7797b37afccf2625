"""Ablation — the partition cache (§III-A).

The paper: with the cache, partition overhead amortises to ~1% of the
inference time over ~100 offloading requests.  This benchmark measures
partitioning cost with and without the cache and checks the amortised
share.
"""

import pytest

from repro.core.cache import PartitionCache
from repro.experiments.context import default_engine
from repro.experiments.reporting import render_table
from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model


@pytest.fixture(scope="module")
def graph():
    return build_model("squeezenet")


def test_partition_without_cache(benchmark, graph):
    # A partitioner keeps every partition it builds, so each round times
    # the first partition of a fresh one: the graph surgery itself.
    benchmark.pedantic(GraphPartitioner.partition,
                       setup=lambda: ((GraphPartitioner(graph), 47), {}),
                       rounds=50)


def test_partition_with_cache(benchmark, graph):
    cache = PartitionCache(GraphPartitioner(graph))
    cache.get(47)  # warm
    benchmark(cache.get, 47)


def test_amortised_overhead_share(benchmark, save_report):
    """Simulated overhead share over 100 requests at one partition point."""
    from repro.network.traces import ConstantTrace
    from repro.runtime.system import OffloadingSystem, SystemConfig

    def run():
        engine = default_engine("squeezenet")
        system = OffloadingSystem(
            engine,
            bandwidth_trace=ConstantTrace(8e6),
            config=SystemConfig(seed=0),
        )
        timeline = system.run(duration_s=1e9, max_requests=100)
        total = sum(r.total_s for r in timeline)
        overhead = sum(r.overhead_s for r in timeline)
        return overhead / total, system.device.cache.hit_rate

    share, hit_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_cache",
        render_table(
            ["metric", "value", "paper"],
            [
                ("amortised partition overhead", f"{share * 100:.2f}%", "~1%"),
                ("device cache hit rate (100 reqs)", f"{hit_rate * 100:.1f}%", "-"),
            ],
        ),
    )
    assert share < 0.02, "amortised overhead should be ~1% as in the paper"
    assert hit_rate > 0.9
