"""Computation-graph IR: the MindIR-equivalent substrate.

This package provides the graph representation that LoADPart partitions:

- :mod:`repro.graph.node` — ``TensorSpec``, ``CNode`` (computation node) and
  ``Parameter`` (weight node), mirroring MindSpore's MindIR taxonomy.
- :mod:`repro.graph.ops` — the op registry with shape inference, FLOPs
  (Table I of the paper) and parameter-shape rules for every supported op.
- :mod:`repro.graph.graph` — ``ComputationGraph`` with a deterministic
  topological order and cut/transmission-size analysis.
- :mod:`repro.graph.builder` — a fluent ``GraphBuilder`` used by the model zoo.
- :mod:`repro.graph.partitioner` — the segment-to-subgraph procedure of the
  paper's Fig. 5 (Parameter generation, MakeTuple/Return synthesis).
- :mod:`repro.graph.serialize` — JSON round-tripping of graphs.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.fusion import detect_fusion_groups, fuse_graph
from repro.graph.graph import ComputationGraph, Cut
from repro.graph.node import CNode, Parameter, TensorSpec
from repro.graph.ops import OP_REGISTRY, OpSpec, node_flops
from repro.graph.partitioner import GraphPartitioner, PartitionedGraph, Segment
from repro.graph.serialize import graph_from_json, graph_to_json

__all__ = [
    "CNode",
    "ComputationGraph",
    "Cut",
    "GraphBuilder",
    "GraphPartitioner",
    "OP_REGISTRY",
    "OpSpec",
    "Parameter",
    "PartitionedGraph",
    "Segment",
    "TensorSpec",
    "detect_fusion_groups",
    "fuse_graph",
    "graph_from_json",
    "graph_to_json",
    "node_flops",
]
