"""Early-exit branches: BranchyNet-style side heads on a backbone graph.

An *exit* is a small classifier head (conv + pool + fc) hanging off an
intermediate backbone node.  A request served at exit ``e`` executes only
the backbone prefix that exit depends on plus its head — cheaper and less
accurate than the full network.  Each exit declares an **accuracy proxy**
(a scalar in ``(0, 1]``, e.g. held-out top-1): the engine maximises this
proxy subject to a latency SLA (see
:meth:`repro.core.engine.LoADPartEngine.decide_exit`).

Representation: every exit is its *own* :class:`ComputationGraph` — the
ancestor closure of the attach node (re-added in backbone topological
order, preserving node names) plus the head nodes.  Because executor
parameters are seeded per *name* (``nn.executor._param_rng``), the shared
backbone nodes carry bit-identical weights in every exit graph, and the
final exit — the backbone itself, unchanged — is byte-identical to the
plain model by construction.  Each exit graph is a valid partitionable
graph, so Algorithm 1's prefix/suffix machinery applies per exit without
modification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.graph.graph import ComputationGraph, GraphError
from repro.graph.node import CNode

#: Output channels of an exit head's 1x1 conv (clamped to the attach
#: tensor's channel count).
HEAD_CHANNELS = 32


@dataclass(frozen=True)
class ExitSpec:
    """Declaration of one early exit on a backbone.

    ``attach`` names the backbone node the head hangs off; ``accuracy``
    is the exit's declared accuracy proxy.
    """

    attach: str
    accuracy: float

    def __post_init__(self) -> None:
        if not 0.0 < self.accuracy <= 1.0:
            raise ValueError(f"accuracy proxy must be in (0, 1], got {self.accuracy}")


@dataclass(frozen=True)
class ExitBranch:
    """One realised exit: a standalone graph plus its metadata.

    ``index`` orders exits from earliest (0) to the final exit
    (``num_exits - 1``); the final branch's ``graph`` *is* the backbone
    object and its ``attach`` is ``None``.  ``accuracy`` values are
    nondecreasing in ``index`` — a later exit never loses accuracy.
    """

    index: int
    name: str
    attach: str | None
    accuracy: float
    graph: ComputationGraph

    @property
    def is_final(self) -> bool:
        return self.attach is None


def _ancestor_closure(backbone: ComputationGraph, attach: str) -> set:
    """All backbone nodes the ``attach`` node transitively depends on."""
    if attach not in backbone.nodes:
        raise GraphError(f"exit attach node {attach!r} not in {backbone.name!r}")
    keep = {attach}
    stack = [attach]
    while stack:
        for dep in backbone.node(stack.pop()).inputs:
            if dep != backbone.input_name and dep not in keep:
                keep.add(dep)
                stack.append(dep)
    return keep


def _clone_node(node: CNode) -> CNode:
    return CNode(name=node.name, op=node.op, inputs=list(node.inputs),
                 attrs=dict(node.attrs))


def build_exit_graph(
    backbone: ComputationGraph,
    spec: ExitSpec,
    name: str,
    num_classes: int,
) -> ComputationGraph:
    """Standalone graph for one exit: backbone prefix + classifier head.

    The kept backbone nodes are exactly the attach node's ancestor
    closure, re-added in backbone topological order under their original
    names (so per-name parameter seeding regenerates identical weights).
    The head is conv1x1+bias+relu → global_avgpool → flatten → fc when
    the attach tensor is 4-D, and just the fc when it is already flat.
    """
    keep = _ancestor_closure(backbone, spec.attach)
    g = ComputationGraph(f"{backbone.name}:{name}", backbone.input_spec,
                         backbone.input_name)
    for node_name in backbone.topological_order():
        if node_name in keep:
            g.add_node(_clone_node(backbone.node(node_name)))

    x = spec.attach
    attach_spec = backbone.node(spec.attach).output
    if len(attach_spec.shape) == 4:
        channels = min(HEAD_CHANNELS, attach_spec.shape[1])
        g.add_node(CNode(name=f"{name}.conv", op="conv2d", inputs=[x],
                         attrs={"out_channels": channels, "kernel": 1,
                                "stride": 1, "padding": 0}))
        g.add_node(CNode(name=f"{name}.bias", op="bias_add",
                         inputs=[f"{name}.conv"], attrs={}))
        g.add_node(CNode(name=f"{name}.relu", op="relu",
                         inputs=[f"{name}.bias"], attrs={}))
        g.add_node(CNode(name=f"{name}.pool", op="global_avgpool",
                         inputs=[f"{name}.relu"], attrs={}))
        g.add_node(CNode(name=f"{name}.flat", op="flatten",
                         inputs=[f"{name}.pool"], attrs={}))
        x = f"{name}.flat"
    g.add_node(CNode(name=f"{name}.fc", op="matmul", inputs=[x],
                     attrs={"out_features": num_classes}))
    g.add_node(CNode(name=f"{name}.fcbias", op="bias_add",
                     inputs=[f"{name}.fc"], attrs={}))
    g.set_output(f"{name}.fcbias")
    g.validate()
    return g


def build_exit_branches(
    backbone: ComputationGraph,
    specs: Sequence[ExitSpec],
    final_accuracy: float,
    num_classes: int = 1000,
) -> Tuple[ExitBranch, ...]:
    """Realise a backbone's exit set as standalone branch graphs.

    Returns one :class:`ExitBranch` per spec — ordered by backbone
    position of the attach node — plus the final branch, whose graph is
    the backbone object itself.  Accuracies must be nondecreasing from
    earliest exit to the final one.
    """
    if not 0.0 < final_accuracy <= 1.0:
        raise ValueError(f"final accuracy proxy must be in (0, 1], got {final_accuracy}")
    order = {n: i for i, n in enumerate(backbone.topological_order())}
    for spec in specs:
        if spec.attach not in order:
            raise GraphError(
                f"exit attach node {spec.attach!r} not in {backbone.name!r}")
    ranked = sorted(specs, key=lambda s: order[s.attach])
    if len({s.attach for s in ranked}) != len(ranked):
        raise ValueError("duplicate exit attach nodes")
    branches = []
    for i, spec in enumerate(ranked):
        name = f"exit{i}"
        branches.append(ExitBranch(
            index=i, name=name, attach=spec.attach, accuracy=spec.accuracy,
            graph=build_exit_graph(backbone, spec, name, num_classes)))
    branches.append(ExitBranch(
        index=len(ranked), name="final", attach=None,
        accuracy=final_accuracy, graph=backbone))
    accs = [b.accuracy for b in branches]
    if any(a > b for a, b in zip(accs, accs[1:])):
        raise ValueError(
            f"exit accuracies must be nondecreasing backbone-order, got {accs}")
    return tuple(branches)


def validate_exits(graph: ComputationGraph,
                   exits: Sequence[ExitBranch]) -> Tuple[ExitBranch, ...]:
    """Check an exit set against the backbone it claims to extend.

    Used by the engine: indices must run 0..m-1, the final branch must be
    the backbone graph itself (that is what makes the final-exit path
    byte-identical to the plain model), every branch must share the
    backbone's input, and accuracies must be nondecreasing.
    """
    exits = tuple(exits)
    if not exits:
        return exits
    if [b.index for b in exits] != list(range(len(exits))):
        raise ValueError("exit indices must run 0..m-1 in order")
    last = exits[-1]
    if last.graph is not graph or not last.is_final:
        raise ValueError("the last exit branch must be the backbone itself")
    for b in exits[:-1]:
        if b.is_final:
            raise ValueError("only the last branch may be the final exit")
        if b.graph.input_spec != graph.input_spec or \
                b.graph.input_name != graph.input_name:
            raise ValueError(f"exit {b.name!r} does not share the backbone input")
        if b.attach not in graph.nodes:
            raise ValueError(f"exit {b.name!r} attach {b.attach!r} not in backbone")
    accs = [b.accuracy for b in exits]
    if any(a > b for a, b in zip(accs, accs[1:])):
        raise ValueError(f"exit accuracies must be nondecreasing, got {accs}")
    return exits
