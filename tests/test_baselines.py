"""Baseline strategies and the DADS-style min-cut."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    FullOffloadStrategy,
    LocalStrategy,
    NeurosurgeonStrategy,
    dads_min_cut,
)
from repro.graph.builder import GraphBuilder
from tests.helpers import prefix_point


def test_import_repro_leaves_networkx_unloaded():
    """networkx is imported by ``dads_min_cut`` alone, when it runs."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, repro; assert 'networkx' not in sys.modules, 'networkx loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestNeurosurgeon:
    def test_ignores_k(self, squeezenet_engine):
        strategy = NeurosurgeonStrategy(squeezenet_engine)
        assert strategy.decide(8e6, k=1.0).point == strategy.decide(8e6, k=500.0).point

    def test_tracks_bandwidth(self, squeezenet_engine):
        strategy = NeurosurgeonStrategy(squeezenet_engine)
        assert strategy.decide(1e6).point != strategy.decide(64e6).point

    def test_matches_loadpart_at_k1(self, alexnet_engine):
        strategy = NeurosurgeonStrategy(alexnet_engine)
        for bw in (1e6, 8e6, 64e6):
            assert strategy.decide(bw).point == alexnet_engine.decide(bw, k=1.0).point


class TestTrivialStrategies:
    def test_local_always_n(self, alexnet_engine):
        strategy = LocalStrategy(alexnet_engine)
        for bw in (1e6, 64e6):
            decision = strategy.decide(bw, k=100.0)
            assert decision.point == alexnet_engine.num_nodes
            assert decision.is_local

    def test_full_always_zero(self, alexnet_engine):
        strategy = FullOffloadStrategy(alexnet_engine)
        for bw in (1e6, 64e6):
            assert strategy.decide(bw).point == 0

    def test_latencies_read_from_candidates(self, alexnet_engine):
        local = LocalStrategy(alexnet_engine).decide(8e6)
        ref = alexnet_engine.decide(8e6)
        assert local.predicted_latency == pytest.approx(
            float(ref.candidates[alexnet_engine.num_nodes])
        )


class TestDadsMinCut:
    def _chain(self, n=6):
        b = GraphBuilder("c", (1, 4, 8, 8))
        x = b.input
        for i in range(n):
            x = b.conv(x, 4, kernel=3, padding=1, name=f"c{i}")
        b.output(x)
        return b.build()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_chain_matches_algorithm1(self, seed):
        """On chains, the general min-cut cannot beat the linear scan."""
        from repro.core.partition_algorithm import partition_decision

        graph = self._chain()
        rng = np.random.default_rng(seed)
        n = len(graph)
        device = rng.random(n).tolist()
        edge = (rng.random(n) * 0.01).tolist()
        bw = float(rng.uniform(1e5, 1e8))
        k = float(rng.uniform(1.0, 20.0))
        result = dads_min_cut(graph, device, edge, bw, k=k)
        decision = partition_decision(device, edge, graph.transmission_sizes(), bw, k=k)
        assert result.latency == pytest.approx(decision.predicted_latency, rel=1e-6)
        assert prefix_point(result, graph.topological_order()) == decision.point

    def test_never_worse_than_algorithm1_on_dags(self, squeezenet_engine):
        """The general cut space contains every topological prefix."""
        engine = squeezenet_engine
        for bw in (2e6, 8e6, 32e6):
            decision = engine.decide(bw)
            result = dads_min_cut(
                engine.graph, list(engine.device_times), list(engine.edge_times), bw
            )
            assert result.latency <= decision.predicted_latency * (1 + 1e-9)

    def test_close_to_algorithm1_on_dags(self, squeezenet_engine):
        """§III-D: block-interior cuts buy (almost) nothing."""
        engine = squeezenet_engine
        decision = engine.decide(8e6)
        result = dads_min_cut(
            engine.graph, list(engine.device_times), list(engine.edge_times), 8e6
        )
        assert result.latency >= 0.95 * decision.predicted_latency

    def test_extreme_k_puts_everything_on_device(self, diamond_graph):
        n = len(diamond_graph)
        result = dads_min_cut(diamond_graph, [0.01] * n, [0.01] * n, 8e6, k=1e6)
        assert len(result.device_nodes) == n

    def test_fast_network_fast_server_offloads_everything(self, diamond_graph):
        n = len(diamond_graph)
        result = dads_min_cut(diamond_graph, [1.0] * n, [1e-9] * n, 1e12)
        assert len(result.device_nodes) == 0

    def test_validation(self, diamond_graph):
        n = len(diamond_graph)
        with pytest.raises(ValueError):
            dads_min_cut(diamond_graph, [1.0] * (n - 1), [1.0] * n, 8e6)
        with pytest.raises(ValueError):
            dads_min_cut(diamond_graph, [1.0] * n, [1.0] * n, 0.0)
        with pytest.raises(ValueError):
            dads_min_cut(diamond_graph, [1.0] * n, [1.0] * n, 8e6, k=0.5)

    def test_matches_prefix_returns_none_for_non_prefix(self, diamond_graph):
        from repro.core.baselines import MinCutResult

        order = diamond_graph.topological_order()
        non_prefix = MinCutResult(device_nodes=frozenset({order[1]}), latency=1.0)
        assert prefix_point(non_prefix, order) is None
