"""Segment-to-subgraph partitioning (the paper's Fig. 5 procedure).

Given a computation graph and a partition point ``p`` on its topological
order, :class:`GraphPartitioner` materialises two executable *segments*:

- the **head** (positions ``1..p``, runs on the user-end device), and
- the **tail** (positions ``p+1..n``, runs on the edge server).

Following the paper, for every CNode in a segment whose direct predecessor
lies outside the segment, a boundary *Parameter* is generated (here:
a named boundary input with the predecessor's TensorSpec).  If more than one
tensor leaves a segment, a ``MakeTuple`` node is synthesised and linked to a
``Return`` node; otherwise the single leaving tensor feeds ``Return``
directly.

A partitioner builds each point's partition once and hands the same
object to every later caller: a :class:`PartitionedGraph` and its
segments are never modified after they are built, so a segment works out
its emptiness and result size once, on first use.  The per-device and
per-server :class:`~repro.core.cache.PartitionCache` instances keep
their own LRU and hit/miss bookkeeping on top, which is what the
simulated partition overhead is charged on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from repro.graph.graph import ComputationGraph, Cut, GraphError
from repro.graph.node import CNode, TensorSpec

#: Ops the partitioner synthesises around a segment's computation.
SCAFFOLD_OPS = frozenset({"make_tuple", "return"})


@dataclass
class Segment:
    """An executable slice of a computation graph.

    ``boundary_inputs`` are the tensors the segment receives from outside
    (the generated Parameters of Fig. 5); ``nodes`` are the computation
    nodes in topological order, including the synthesised MakeTuple/Return
    pair; ``result_names`` are the producer names whose tensors leave the
    segment, in a stable order.
    """

    name: str
    boundary_inputs: Dict[str, TensorSpec]
    nodes: List[CNode] = field(default_factory=list)
    result_names: Tuple[str, ...] = ()

    @cached_property
    def is_empty(self) -> bool:
        return not any(n.op not in SCAFFOLD_OPS for n in self.nodes)

    @property
    def compute_nodes(self) -> List[CNode]:
        """Nodes excluding the synthesised MakeTuple/Return scaffolding."""
        return [n for n in self.nodes if n.op not in SCAFFOLD_OPS]

    @cached_property
    def result_bytes(self) -> int:
        specs = {name: spec for name, spec in self.boundary_inputs.items()}
        for node in self.compute_nodes:
            assert node.output is not None
            specs[node.name] = node.output
        return sum(specs[name].nbytes for name in self.result_names)


@dataclass(frozen=True)
class PartitionedGraph:
    """The result of splitting a graph after topological position ``p``."""

    graph_name: str
    partition_point: int
    head: Segment
    tail: Segment
    transfer_specs: Dict[str, TensorSpec]

    @property
    def upload_bytes(self) -> int:
        return sum(spec.nbytes for spec in self.transfer_specs.values())


def _finalise(segment: Segment, results: List[Tuple[str, TensorSpec]]) -> None:
    """Attach MakeTuple/Return scaffolding for the tensors leaving a segment."""
    segment.result_names = tuple(name for name, _spec in results)
    if not results:
        return
    if len(results) > 1:
        tuple_name = f"{segment.name}.make_tuple"
        make_tuple = CNode(
            name=tuple_name,
            op="make_tuple",
            inputs=[name for name, _spec in results],
        )
        total = sum(spec.numel for _name, spec in results)
        make_tuple.output = TensorSpec((total,), results[0][1].dtype)
        segment.nodes.append(make_tuple)
        ret_input, ret_spec = tuple_name, make_tuple.output
    else:
        ret_input, ret_spec = results[0]
    ret = CNode(name=f"{segment.name}.return", op="return", inputs=[ret_input])
    ret.output = ret_spec
    segment.nodes.append(ret)


class GraphPartitioner:
    """Splits computation graphs into device/server segments.

    Each point is partitioned once; later calls return the same
    :class:`PartitionedGraph`.
    """

    def __init__(self, graph: ComputationGraph) -> None:
        graph.validate()
        self._graph = graph
        self._order = graph.topological_order()
        self._cuts = graph.cuts()
        self._partitions: Dict[int, PartitionedGraph] = {}

    @property
    def graph(self) -> ComputationGraph:
        return self._graph

    @property
    def cuts(self) -> List[Cut]:
        """The graph's cuts, positions ``0..n`` (see :meth:`ComputationGraph.cuts`)."""
        return self._cuts

    def partition(self, p: int) -> PartitionedGraph:
        """Split after topological position ``p`` (0 = full offload, n = local)."""
        partitioned = self._partitions.get(p)
        if partitioned is None:
            partitioned = self._partitions.setdefault(p, self._build(p))
        return partitioned

    def _build(self, p: int) -> PartitionedGraph:
        n = len(self._order)
        if not 0 <= p <= n:
            raise GraphError(f"partition point {p} out of range [0, {n}]")
        graph = self._graph
        head_names = set(self._order[:p])

        specs: Dict[str, TensorSpec] = {graph.input_name: graph.input_spec}
        for name in self._order:
            node = graph.node(name)
            assert node.output is not None
            specs[name] = node.output

        # Tensors crossing the cut, as computed by the graph's cut analysis.
        crossing = list(self._cuts[p].crossing)
        transfer_specs = {name: specs[name] for name in crossing}

        # --- head segment (user-end device) -------------------------------
        head = Segment(name=f"{graph.name}.head@{p}", boundary_inputs={})
        if p > 0:
            head.boundary_inputs[graph.input_name] = graph.input_spec
        head_results: List[Tuple[str, TensorSpec]] = []
        for name in self._order[:p]:
            head.nodes.append(graph.node(name))
        for name in crossing:
            if name == graph.input_name:
                continue  # the raw input is forwarded, not recomputed
            head_results.append((name, specs[name]))
        # The graph output may already be produced by the head even when p<n.
        out_name = graph.output_name
        if out_name in head_names and out_name not in crossing:
            head_results.append((out_name, specs[out_name]))
        _finalise(head, head_results)

        # --- tail segment (edge server) ------------------------------------
        tail = Segment(
            name=f"{graph.name}.tail@{p}",
            boundary_inputs=dict(transfer_specs),
        )
        tail_results: List[Tuple[str, TensorSpec]] = []
        for name in self._order[p:]:
            tail.nodes.append(graph.node(name))
        if out_name not in head_names:
            tail_results.append((out_name, specs[out_name]))
        _finalise(tail, tail_results)

        return PartitionedGraph(
            graph_name=graph.name,
            partition_point=p,
            head=head,
            tail=tail,
            transfer_specs=transfer_specs,
        )
