"""Layer fusion: the paper's stated extension (§VI).

Inference frameworks fuse a convolution/matmul *anchor* with its
element-wise epilogue (BiasAdd/BatchNorm/activation) into one kernel, so
summing single-layer predictions over-counts memory passes and kernel
launches.  The paper notes its procedure extends to fused layers given a
fusion-detection pass — this module provides that pass:

- :func:`detect_fusion_groups` finds anchor+epilogue chains whose
  intermediate tensors have no other consumers (the safety condition), and
- :func:`fuse_graph` rewrites the graph with fused operators
  (``fused_conv2d`` / ``fused_dwconv2d`` / ``fused_matmul``), preserving
  shapes, parameters and total FLOPs.

Fused operators carry an ``epilogue`` attribute (the tuple of absorbed op
names); they have their own prediction-model categories (``conv_fused``
etc., see :data:`repro.graph.ops.FUSED_CATEGORIES`) so the offline
profiler can train dedicated LR models for them, exactly as §VI suggests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.graph import ComputationGraph
from repro.graph.node import CNode

#: Ops that can anchor a fusion group, and the fused op they become.
FUSABLE_ANCHORS: Dict[str, str] = {
    "conv2d": "fused_conv2d",
    "dwconv2d": "fused_dwconv2d",
    "matmul": "fused_matmul",
}

#: Element-wise ops a fused kernel can absorb as its epilogue.
FUSABLE_EPILOGUE = ("bias_add", "batchnorm", "relu", "sigmoid", "tanh")

#: Maximum epilogue length (anchor + epilogue = one fused kernel).
MAX_EPILOGUE = 3


def detect_fusion_groups(graph: ComputationGraph) -> List[List[str]]:
    """Partition the node set into fusion groups, in topological order.

    Each group is an anchor followed by a maximal chain of fusable
    element-wise ops, where every intermediate tensor is consumed *only*
    by the next op in the chain (otherwise the intermediate must
    materialise and fusion is unsafe).  Non-fusable nodes form singleton
    groups.
    """
    order = graph.topological_order()
    consumers = graph.consumers()
    groups: List[List[str]] = []
    absorbed: set[str] = set()
    for name in order:
        if name in absorbed:
            continue
        node = graph.node(name)
        if node.op not in FUSABLE_ANCHORS:
            groups.append([name])
            continue
        group = [name]
        current = name
        while len(group) <= MAX_EPILOGUE:
            next_consumers = consumers[current]
            if len(next_consumers) != 1:
                break
            candidate = graph.node(next_consumers[0])
            if candidate.op not in FUSABLE_EPILOGUE:
                break
            group.append(candidate.name)
            absorbed.add(candidate.name)
            current = candidate.name
        groups.append(group)
    return groups


def fuse_graph(graph: ComputationGraph) -> ComputationGraph:
    """Rewrite ``graph`` with fused operators.

    The fused graph computes the identical function: every fused node
    carries the anchor's attributes plus an ``epilogue`` tuple, and its
    parameters are the concatenation of the group's parameters in
    execution order.  Node names: the fused node takes the *last* group
    member's name, so downstream references (including the graph output)
    stay valid without rewiring.
    """
    graph.validate()
    groups = detect_fusion_groups(graph)
    fused = ComputationGraph(f"{graph.name}.fused", graph.input_spec, graph.input_name)
    # Map original producer name -> name in the fused graph.
    alias: Dict[str, str] = {graph.input_name: graph.input_name}

    for group in groups:
        anchor = graph.node(group[0])
        inputs = [alias[dep] for dep in anchor.inputs]
        if len(group) == 1:
            fused.add_node(
                CNode(name=anchor.name, op=anchor.op, inputs=inputs,
                      attrs=dict(anchor.attrs))
            )
            alias[anchor.name] = anchor.name
            continue
        tail_name = group[-1]
        epilogue = tuple(graph.node(n).op for n in group[1:])
        attrs = dict(anchor.attrs)
        attrs["epilogue"] = epilogue
        params = []
        for member in group:
            params.extend(graph.node(member).params)
        node = CNode(
            name=tail_name,
            op=FUSABLE_ANCHORS[anchor.op],
            inputs=inputs,
            attrs=attrs,
            params=list(params),
        )
        fused.add_node(node)
        for member in group:
            alias[member] = tail_name

    fused.set_output(alias[graph.output_name])
    fused.validate()
    return fused
