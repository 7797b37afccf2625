"""Per-node profiles and the hand-designed feature vectors of Table II.

A :class:`NodeProfile` condenses one computation node into the quantities
both the hardware cost models and the prediction models consume: FLOPs
(Table I), tensor geometry, and byte counts.  :func:`feature_vector` turns a
profile into the exact feature set of Table II for a given side
(``"edge"`` or ``"device"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.graph import ComputationGraph
from repro.graph.node import CNode, TensorSpec
from repro.graph.ops import node_flops, op_spec

SIDES = ("edge", "device")


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


@dataclass(frozen=True)
class NodeProfile:
    """Geometry and cost-relevant metadata of one computation node."""

    op: str
    category: str | None
    flops: int
    n: int
    c_in: int
    c_out: int
    h_in: int
    w_in: int
    h_out: int
    w_out: int
    k_h: int
    k_w: int
    pad_h: int
    pad_w: int
    input_bytes: int
    output_bytes: int
    param_bytes: int
    #: number of element-wise ops absorbed into a fused kernel (§VI ext.)
    epilogue_len: int = 0

    @property
    def anchor_flops(self) -> int:
        """FLOPs of the anchor alone (fused kernels exclude the epilogue)."""
        return self.flops - self.epilogue_len * self.output_elems

    @property
    def s_f(self) -> int:
        """Size of a single filter: C_in * K_H * K_W (paper §III-B)."""
        return self.c_in * self.k_h * self.k_w

    @property
    def padded_size(self) -> int:
        """Total size of the padded input feature map (DWConv feature)."""
        return self.n * self.c_in * (self.h_in + 2 * self.pad_h) * (self.w_in + 2 * self.pad_w)

    @property
    def output_elems(self) -> int:
        return self.output_bytes // 4


def profile_node(node: CNode, input_specs: Sequence[TensorSpec]) -> NodeProfile:
    """Build a :class:`NodeProfile` from a node and its input specs."""
    assert node.output is not None
    spec = op_spec(node.op)
    first = input_specs[0]
    out = node.output
    n = first.shape[0]
    c_in = first.shape[1] if first.rank >= 2 else 1
    h_in, w_in = (first.shape[2], first.shape[3]) if first.rank == 4 else (1, 1)
    c_out = out.shape[1] if out.rank >= 2 else 1
    h_out, w_out = (out.shape[2], out.shape[3]) if out.rank == 4 else (1, 1)
    if node.op == "global_avgpool":
        k_h, k_w = h_in, w_in
        pad_h = pad_w = 0
    elif "kernel" in node.attrs:
        k_h, k_w = _pair(node.attrs["kernel"])
        pad_h, pad_w = _pair(node.attrs.get("padding", 0))
    else:
        k_h = k_w = 1
        pad_h = pad_w = 0
    return NodeProfile(
        op=node.op,
        category=spec.category,
        flops=node_flops(node.op, input_specs, out, node.attrs),
        n=n,
        c_in=c_in,
        c_out=c_out,
        h_in=h_in,
        w_in=w_in,
        h_out=h_out,
        w_out=w_out,
        k_h=k_h,
        k_w=k_w,
        pad_h=pad_h,
        pad_w=pad_w,
        input_bytes=sum(s.nbytes for s in input_specs),
        output_bytes=out.nbytes,
        param_bytes=node.param_bytes,
        epilogue_len=len(node.attrs.get("epilogue", ())),
    )


def profile_graph(graph: ComputationGraph) -> List[NodeProfile]:
    """Profiles for every node, in topological order (the paper's L_1..L_n)."""
    return [
        profile_node(graph.node(name), graph.input_specs_of(graph.node(name)))
        for name in graph.topological_order()
    ]


# ---------------------------------------------------------------------------
# Table II feature vectors
# ---------------------------------------------------------------------------

#: Feature names per (category, side); identical across sides except for the
#: convolution kinds, exactly as laid out in Table II.
FEATURE_NAMES: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("conv", "edge"): ("flops", "s_f", "h_in*s_f", "c_out*s_f"),
    ("conv", "device"): ("flops", "n*c_out*s_f"),
    ("dwconv", "edge"): ("flops", "s_f", "padded_size"),
    ("dwconv", "device"): ("flops", "n*c_out*s_f"),
    ("matmul", "edge"): ("flops", "n*c_in", "n*c_out", "c_in*c_out"),
    ("matmul", "device"): ("flops", "n*c_in", "n*c_out", "c_in*c_out"),
    ("pooling", "edge"): ("flops", "n*c_in*h_in*w_in", "n*c_out*h_out*w_out", "h_out*w_out"),
    ("pooling", "device"): ("flops", "n*c_in*h_in*w_in", "n*c_out*h_out*w_out", "h_out*w_out"),
    ("bias_add", "edge"): ("flops",),
    ("bias_add", "device"): ("flops",),
    ("elementwise", "edge"): ("flops",),
    ("elementwise", "device"): ("flops",),
    ("batchnorm", "edge"): ("flops",),
    ("batchnorm", "device"): ("flops",),
    ("activation", "edge"): ("flops",),
    ("activation", "device"): ("flops",),
    # Fused kernels (§VI extension): the anchor's features plus the fused
    # epilogue size, trained as separate models per the paper's suggestion.
    ("conv_fused", "edge"): ("flops", "s_f", "h_in*s_f", "c_out*s_f", "epilogue_elems"),
    ("conv_fused", "device"): ("flops", "n*c_out*s_f", "epilogue_elems"),
    ("dwconv_fused", "edge"): ("flops", "s_f", "padded_size", "epilogue_elems"),
    ("dwconv_fused", "device"): ("flops", "n*c_out*s_f", "epilogue_elems"),
    ("matmul_fused", "edge"): ("flops", "n*c_in", "n*c_out", "c_in*c_out", "epilogue_elems"),
    ("matmul_fused", "device"): ("flops", "n*c_in", "n*c_out", "c_in*c_out", "epilogue_elems"),
}


def _feature_value(profile: NodeProfile, name: str) -> float:
    values = {
        "flops": float(profile.flops),
        "s_f": float(profile.s_f),
        "h_in*s_f": float(profile.h_in * profile.s_f),
        "c_out*s_f": float(profile.c_out * profile.s_f),
        "n*c_out*s_f": float(profile.n * profile.c_out * profile.s_f),
        "padded_size": float(profile.padded_size),
        "n*c_in": float(profile.n * profile.c_in),
        "n*c_out": float(profile.n * profile.c_out),
        "c_in*c_out": float(profile.c_in * profile.c_out),
        "n*c_in*h_in*w_in": float(profile.n * profile.c_in * profile.h_in * profile.w_in),
        "n*c_out*h_out*w_out": float(profile.n * profile.c_out * profile.h_out * profile.w_out),
        "h_out*w_out": float(profile.h_out * profile.w_out),
        "epilogue_elems": float(profile.epilogue_len * profile.output_elems),
    }
    return values[name]


def feature_vector(profile: NodeProfile, side: str) -> np.ndarray:
    """The Table II feature vector of a node for ``side`` in {edge, device}."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if profile.category is None:
        raise ValueError(f"op {profile.op!r} has no prediction-model category")
    names = FEATURE_NAMES[(profile.category, side)]
    return np.array([_feature_value(profile, name) for name in names], dtype=np.float64)


#: Superset of candidate features offered to the feature-selection step
#: (Table II was distilled from a pool like this via XGBoost importance).
CANDIDATE_FEATURES: Tuple[str, ...] = (
    "flops",
    "s_f",
    "h_in*s_f",
    "c_out*s_f",
    "n*c_out*s_f",
    "padded_size",
    "n*c_in",
    "n*c_out",
    "c_in*c_out",
    "n*c_in*h_in*w_in",
    "n*c_out*h_out*w_out",
    "h_out*w_out",
    "epilogue_elems",
)


def candidate_vector(profile: NodeProfile) -> np.ndarray:
    """All candidate feature values, for the GBT feature-selection step."""
    return np.array([_feature_value(profile, name) for name in CANDIDATE_FEATURES], dtype=np.float64)
