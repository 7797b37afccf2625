"""Block analysis of DAG architectures (§III-D).

The paper observes that cutting a DNN *inside* a multi-branch block
(Residual, Inception, Fire) always transmits several branch tensors whose
combined size is large — e.g. at least 1.25 MB inside InceptionV3's last
Inception block, more than its 1.02 MB input — so the optimal partition
point is (practically) never inside a block.  Cut positions whose width is
1 (a single tensor crosses) are exactly the block boundaries, which is what
reduces the search space and lets Algorithm 1 scan the topological order
linearly.

This module computes that evidence for any graph, and the reduced
candidate set used by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.graph import ComputationGraph


@dataclass(frozen=True)
class BlockCutReport:
    """Evidence for the §III-D claim, for one graph."""

    graph_name: str
    input_bytes: int
    #: cut positions where exactly one tensor crosses (block boundaries)
    width1_points: List[int]
    #: cut positions where several tensors cross (inside a block)
    multi_points: List[int]
    #: smallest transmission size among inside-block cuts (bytes); None if
    #: the graph is a pure chain
    min_multi_cut_bytes: int | None
    #: smallest transmission size among width-1 cuts after the first
    #: inside-block position (bytes)
    min_width1_cut_bytes: int


def candidate_points(graph: ComputationGraph) -> List[int]:
    """Partition points worth searching: width-1 cuts plus the endpoints.

    This is the reduced search space the block analysis justifies.  The
    full Algorithm 1 scan searches all n+1 positions anyway (it is O(n)
    either way); the benchmarks verify both give the same answer.
    """
    cuts = graph.cuts()
    n = len(cuts) - 1
    points = [c.index for c in cuts if c.width <= 1]
    if 0 not in points:
        points.insert(0, 0)
    if n not in points:
        points.append(n)
    return points


def block_cut_report(graph: ComputationGraph) -> BlockCutReport:
    """Measure transmission sizes of inside-block vs block-boundary cuts."""
    cuts = graph.cuts()
    n = len(cuts) - 1
    width1 = [c.index for c in cuts if c.width == 1]
    multi = [c.index for c in cuts if c.width > 1]
    min_multi = min((cuts[i].upload_bytes for i in multi), default=None)
    # Width-1 cuts strictly inside the network (exclude p=0 and p=n).
    inner_width1 = [i for i in width1 if 0 < i < n]
    min_width1 = min(
        (cuts[i].upload_bytes for i in inner_width1),
        default=graph.input_spec.nbytes,
    )
    return BlockCutReport(
        graph_name=graph.name,
        input_bytes=graph.input_spec.nbytes,
        width1_points=width1,
        multi_points=multi,
        min_multi_cut_bytes=min_multi,
        min_width1_cut_bytes=min_width1,
    )
