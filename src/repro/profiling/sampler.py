"""Uniform sampling of layer configurations for offline profiling.

The paper "investigates some common DNNs to decide the value ranges of
attributes of different computation nodes", then samples uniformly within
those ranges and profiles the sampled configurations (§III-B, step 3).
:class:`ConfigSampler` reproduces this: the ranges below are taken from the
model zoo (channels 3..1024, maps 7..224, kernels 1..11), and each draw is
turned into a :class:`~repro.profiling.features.NodeProfile` via the same
shape rules the real graphs use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.graph.graph import ComputationGraph
from repro.graph.node import CNode
from repro.profiling.features import NodeProfile, profile_node

#: Op kinds sampled per category; Table III reports some of them separately
#: (AvgPooling vs MaxPooling, Elem-wise Add vs other element-wise ops).
CATEGORY_OPS: Dict[str, Sequence[str]] = {
    "conv": ("conv2d",),
    "dwconv": ("dwconv2d",),
    "matmul": ("matmul",),
    "pooling": ("maxpool2d", "avgpool2d"),
    "bias_add": ("bias_add",),
    "elementwise": ("add",),
    "batchnorm": ("batchnorm",),
    "activation": ("relu", "sigmoid", "tanh"),
    # Fused kernels (§VI extension).
    "conv_fused": ("fused_conv2d",),
    "dwconv_fused": ("fused_dwconv2d",),
    "matmul_fused": ("fused_matmul",),
}

#: Epilogue chains sampled for fused kernels (as produced by the fusion pass).
_EPILOGUE_CHOICES = (
    ("bias_add",),
    ("bias_add", "relu"),
    ("batchnorm",),
    ("batchnorm", "relu"),
    ("bias_add", "sigmoid"),
)

_CHANNEL_CHOICES = (3, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 728, 1024)
_MAP_CHOICES = (7, 13, 14, 19, 27, 28, 37, 55, 56, 75, 112, 149, 224)
_CONV_KERNELS = (1, 3, 5, 7, 11)
_FC_FEATURES = (256, 512, 1000, 1024, 2048, 4096, 9216)

#: Realism bounds mirroring the model zoo: real CNN activations stay within
#: a few MB and single layers below a few GFLOPs.  Without these bounds the
#: independent draws above produce configurations (e.g. 1024 channels at
#: 224x224) that no common DNN contains, and the paper explicitly restricts
#: ranges to those found in common DNNs.
_MAX_ACTIVATION_ELEMS = 1_200_000
_MIN_ACTIVATION_ELEMS = 4_000
_MAX_CONV_FLOPS = 2.5e9


@dataclass(frozen=True)
class ProfiledSample:
    """One profiled configuration: geometry plus a measured time per side."""

    profile: NodeProfile
    device_time: float
    edge_time: float


class ConfigSampler:
    """Draws random-but-valid node configurations per category."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def sample_profiles(self, category: str, count: int) -> List[NodeProfile]:
        """``count`` profiles of the given category, ops cycled uniformly."""
        try:
            ops = CATEGORY_OPS[category]
        except KeyError:
            raise KeyError(f"unknown category {category!r}; known: {sorted(CATEGORY_OPS)}") from None
        return [self._sample_one(ops[i % len(ops)]) for i in range(count)]

    # -- internals ------------------------------------------------------------

    def _sample_one(self, op: str) -> NodeProfile:
        rng = self._rng
        if op.startswith("fused_"):
            base = self._sample_one(op.removeprefix("fused_"))
            epilogue = _EPILOGUE_CHOICES[int(rng.integers(0, len(_EPILOGUE_CHOICES)))]
            attrs = self._attrs_from_profile(base)
            attrs["epilogue"] = epilogue
            shape = (base.n, base.c_in) if base.op == "matmul" else (
                base.n, base.c_in, base.h_in, base.w_in
            )
            return self._build(op, shape, **attrs)
        if op == "conv2d":
            while True:
                c_in = int(rng.choice(_CHANNEL_CHOICES))
                c_out = int(rng.choice(_CHANNEL_CHOICES[1:]))
                kernel = int(rng.choice(_CONV_KERNELS))
                hw = int(rng.choice([m for m in _MAP_CHOICES if m >= kernel]))
                stride = int(rng.choice((1, 1, 2, 4)))
                if not self._realistic(c_in, hw):
                    continue
                flops = c_in * (hw // stride) ** 2 * kernel * kernel * c_out
                if flops <= _MAX_CONV_FLOPS:
                    break
            return self._build(op, (1, c_in, hw, hw), out_channels=c_out,
                               kernel=kernel, stride=stride, padding=kernel // 2)
        if op == "dwconv2d":
            while True:
                c_in = int(rng.choice(_CHANNEL_CHOICES[1:]))
                kernel = int(rng.choice((3, 5)))
                hw = int(rng.choice([m for m in _MAP_CHOICES if m >= kernel]))
                stride = int(rng.choice((1, 1, 2)))
                if self._realistic(c_in, hw):
                    break
            return self._build(op, (1, c_in, hw, hw), kernel=kernel,
                               stride=stride, padding=kernel // 2)
        if op == "matmul":
            c_in = int(rng.choice(_FC_FEATURES))
            c_out = int(rng.choice(_FC_FEATURES))
            return self._build(op, (1, c_in), out_features=c_out)
        if op in ("maxpool2d", "avgpool2d"):
            while True:
                kernel = int(rng.choice((2, 3)))
                c = int(rng.choice(_CHANNEL_CHOICES[1:]))
                hw = int(rng.choice([m for m in _MAP_CHOICES if m > kernel]))
                if self._realistic(c, hw):
                    break
            return self._build(op, (1, c, hw, hw), kernel=kernel, stride=2)
        # Element-wise family: bias_add, add, batchnorm, activations.
        while True:
            c = int(rng.choice(_CHANNEL_CHOICES))
            hw = int(rng.choice(_MAP_CHOICES))
            if self._realistic(c, hw):
                break
        shape = (1, c, hw, hw)
        if op == "add":
            return self._build(op, shape, n_inputs=2)
        return self._build(op, shape)

    @staticmethod
    def _attrs_from_profile(profile: NodeProfile) -> dict:
        """Reconstruct sampler attrs from an anchor profile (fused sampling)."""
        if profile.op == "matmul":
            return {"out_features": profile.c_out}
        # conv2d / dwconv2d share the spatial attribute set.
        stride_h = max(round((profile.h_in + 2 * profile.pad_h - profile.k_h)
                             / max(profile.h_out - 1, 1)), 1) if profile.h_out > 1 else 1
        attrs = {
            "kernel": (profile.k_h, profile.k_w),
            "stride": stride_h,
            "padding": (profile.pad_h, profile.pad_w),
        }
        if profile.op == "conv2d":
            attrs["out_channels"] = profile.c_out
        return attrs

    @staticmethod
    def _realistic(channels: int, hw: int) -> bool:
        elems = channels * hw * hw
        return _MIN_ACTIVATION_ELEMS <= elems <= _MAX_ACTIVATION_ELEMS

    def _build(self, op: str, input_shape, n_inputs: int = 1, **attrs) -> NodeProfile:
        graph = ComputationGraph(f"sample_{op}", _spec(input_shape))
        inputs = [graph.input_name] * n_inputs
        node = graph.add_node(CNode(name="sample", op=op, inputs=inputs, attrs=attrs))
        graph.set_output(node.name)
        return profile_node(node, graph.input_specs_of(node))


def _spec(shape):
    from repro.graph.node import TensorSpec

    return TensorSpec(tuple(int(d) for d in shape))
