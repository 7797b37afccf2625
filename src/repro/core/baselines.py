"""Baseline offloading strategies.

- :class:`NeurosurgeonStrategy` — the paper's §V-C baseline: partitions by
  bandwidth like LoADPart but is oblivious to the server computation load
  (always uses ``k = 1``).
- :class:`LocalStrategy` / :class:`FullOffloadStrategy` — the two trivial
  policies of Figs. 7/8.
- :func:`dads_min_cut` — a DADS-style min-cut solver over the full DAG cut
  space.  It is the O(n^3) alternative the paper contrasts Algorithm 1
  against: more general (it can cut inside blocks), but too slow for
  per-request dynamic decisions on a constrained device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence

from repro.core.engine import LoADPartEngine
from repro.core.partition_algorithm import PartitionDecision
from repro.graph.graph import ComputationGraph


class NeurosurgeonStrategy:
    """Bandwidth-aware, load-oblivious partitioning (Kang et al., 2017).

    Wraps a :class:`LoADPartEngine` but pins ``k = 1``: the partition point
    tracks bandwidth changes yet never reacts to server load, which is
    exactly how the paper configures its baseline.
    """

    def __init__(self, engine: LoADPartEngine) -> None:
        self.engine = engine

    def decide(self, bandwidth_up: float, k: float = 1.0) -> PartitionDecision:
        """``k`` is accepted for interface parity and deliberately ignored."""
        return self.engine.decide(bandwidth_up, k=1.0)


class LocalStrategy:
    """Always run the whole DNN on the user-end device."""

    def __init__(self, engine: LoADPartEngine) -> None:
        self.engine = engine

    def decide(self, bandwidth_up: float, k: float = 1.0) -> PartitionDecision:
        decision = self.engine.decide(bandwidth_up, k=k)
        n = self.engine.num_nodes
        return PartitionDecision(
            point=n,
            predicted_latency=float(decision.candidates[n]),
            candidates=decision.candidates,
        )


class FullOffloadStrategy:
    """Always upload the input and run the whole DNN on the edge server."""

    def __init__(self, engine: LoADPartEngine) -> None:
        self.engine = engine

    def decide(self, bandwidth_up: float, k: float = 1.0) -> PartitionDecision:
        decision = self.engine.decide(bandwidth_up, k=k)
        return PartitionDecision(
            point=0,
            predicted_latency=float(decision.candidates[0]),
            candidates=decision.candidates,
        )


# ---------------------------------------------------------------------------
# DADS-style min-cut over the full DAG cut space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinCutResult:
    """An optimal general cut: which nodes run on the device, and its cost."""

    device_nodes: FrozenSet[str]
    latency: float


def dads_min_cut(
    graph: ComputationGraph,
    device_times: Sequence[float],
    edge_times: Sequence[float],
    bandwidth_up: float,
    k: float = 1.0,
) -> MinCutResult:
    """Minimise device + transmission + k*server time over *all* DAG cuts.

    Builds the standard project-selection flow network: source = device
    side, sink = server side.  Cutting ``src -> v`` (cap ``k * g(v)``) puts
    ``v`` on the server; cutting ``v -> sink`` (cap ``f(v)``) keeps it on
    the device.  Each tensor gets an auxiliary node so a multi-consumer
    tensor pays its transmission cost once, and infinite reverse edges
    forbid server-to-device data flow (offloading is one-way).

    Complexity is that of a max-flow on ~2n nodes — the O(n^3)-ish cost the
    paper's Algorithm 1 avoids.
    """
    # Deferred: networkx is this function's alone, and importing it costs
    # every process that imports repro ~12 MB of resident memory.
    import networkx as nx

    order = graph.topological_order()
    n = len(order)
    if len(device_times) != n or len(edge_times) != n:
        raise ValueError("device/edge times must match the node count")
    if bandwidth_up <= 0:
        raise ValueError("upload bandwidth must be positive")
    if k < 1.0:
        raise ValueError("k must be >= 1")

    g = nx.DiGraph()
    src, dst = "__device__", "__server__"
    consumers = graph.consumers()

    def tensor_node(producer: str) -> str:
        return f"__tensor__{producer}"

    # Per-node assignment costs.
    for name, f_t, g_t in zip(order, device_times, edge_times):
        g.add_edge(src, name, capacity=k * g_t)  # pay server time if on server
        g.add_edge(name, dst, capacity=f_t)      # pay device time if on device
    # The graph input is produced on the device (pin to source).
    g.add_edge(src, graph.input_name, capacity=float("inf"))

    # Tensor transmission costs via auxiliary nodes.
    for producer in [graph.input_name] + order:
        consumer_names = consumers[producer]
        if not consumer_names:
            continue
        if producer == graph.input_name:
            size = graph.input_spec.nbytes
        else:
            out = graph.node(producer).output
            assert out is not None
            size = out.nbytes
        t = tensor_node(producer)
        g.add_edge(producer, t, capacity=size * 8 / bandwidth_up)
        for consumer in consumer_names:
            g.add_edge(t, consumer, capacity=float("inf"))
            # Forbid server -> device data flow.
            g.add_edge(consumer, producer, capacity=float("inf"))

    cut_value, (source_side, _sink_side) = nx.minimum_cut(g, src, dst)
    device_nodes = frozenset(name for name in order if name in source_side)
    return MinCutResult(device_nodes=device_nodes, latency=float(cut_value))
