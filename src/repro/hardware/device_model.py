"""Cost model of the user-end device (Raspberry Pi 4 class CPU).

The model produces the per-node "ground truth" execution times that the
paper obtains by measuring a physical Pi.  It is parametric and calibrated
against the absolute numbers the paper states explicitly:

- VGG16 local inference ~5.2 s, with the prefix up to its earliest viable
  partition point ~4.88 s (§V-B),
- Xception local inference ~1.8 s (§V-C),
- AlexNet local inference a few hundred ms (Figs. 1 and 7),
- ResNet18 local inference just under its 8 Mbps full-offload latency, so
  that local wins at 8 Mbps and full offloading wins at 16 Mbps (§V-B).

Structure per node::

    t = flops / (R_cat * eff) + traffic / BW_mem + setup + overhead

where ``eff`` captures real Cortex-A72 effects that a linear model cannot
fully express:

- few-channel convolutions vectorise poorly
  (``c_in / (c_in + c_half)``),
- working sets larger than the cache spill to LPDDR4
  (``1 / (1 + working_set / ws_half)``) — this is what makes VGG16's
  huge early feature maps so slow on the device,
- optionally, small output maps starve the cores of parallel work
  (``hw_out / (hw_out + hw_half)``; disabled by default with
  ``hw_half = 0``),

and ``setup`` is a per-convolution-kernel fixed cost (im2col buffers,
weight repacking, thread fork/join) that amortises away for large kernels:
``setup = C * F_half / (flops + F_half)``.  This is why networks made of
many tiny convolutions (SqueezeNet) run far below peak on the device while
AlexNet/VGG do not.  Fully-connected layers additionally stream their
weights from memory (``param_bytes / BW_mem``), which is what makes
AlexNet's FC block worth offloading (the p=8 -> 19 -> 27 trajectory of
Fig. 6).

These nonlinearities (plus lognormal measurement noise) are what make the
*device* conv prediction model the least accurate entry of Table III, as in
the paper (MAPE ~40%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.graph.ops import FUSED_ANCHOR_CATEGORY
from repro.profiling.features import NodeProfile


def lognormal_factor(rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative measurement noise with mean 1."""
    if sigma <= 0:
        return 1.0
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


class NodeCostModel:
    """Noiseless per-node means plus lognormal noise: the simulated truth.

    Subclasses provide ``mean_time(profile)`` and a frozen ``params`` with
    a ``noise_sigma``.  The runtime samples whole segments of one profile
    list — the engine's ``profiles``, cut at a partition point — so the
    per-node means are computed once per list and each segment's noise is
    one vector draw over a slice of them.  A list must not change after it
    has been sampled.
    """

    #: Profile lists whose means are kept at once; callers that pass a
    #: fresh list per call flush the table instead of growing it.
    MEANS_CACHE_LIMIT = 64

    def __init__(self) -> None:
        # Keyed by list identity; each entry holds its list, so an id
        # cannot be recycled while the entry lives.
        self._means: Dict[int, Tuple[Sequence[NodeProfile], np.ndarray]] = {}

    def mean_time(self, profile: NodeProfile) -> float:
        raise NotImplementedError

    def mean_times(self, profiles: Sequence[NodeProfile]) -> np.ndarray:
        """Per-node noiseless times of ``profiles`` (cached per list)."""
        entry = self._means.get(id(profiles))
        if entry is None or entry[0] is not profiles:
            if len(self._means) >= self.MEANS_CACHE_LIMIT:
                self._means.clear()
            entry = (profiles, np.array([self.mean_time(p) for p in profiles],
                                        dtype=np.float64))
            self._means[id(profiles)] = entry
        return entry[1]

    def sample_times(self, profiles: Sequence[NodeProfile], rng: np.random.Generator,
                     start: int = 0, stop: int | None = None) -> List[float]:
        """One noisy measurement of each node in ``profiles[start:stop]``.

        Bit-identical to :meth:`sample_time` per node in order: numpy's
        ``Generator`` fills a size-``n`` draw with the values, and leaves
        the state, of ``n`` scalar draws.  The values are Python floats.
        """
        means = self.mean_times(profiles)[start:stop]
        sigma = self.params.noise_sigma
        if sigma <= 0:
            return means.tolist()
        noise = rng.lognormal(-0.5 * sigma * sigma, sigma, size=len(means))
        return (means * noise).tolist()

    def sample_time(self, profile: NodeProfile, rng: np.random.Generator) -> float:
        """One noisy measurement of the node's execution time."""
        return self.mean_time(profile) * lognormal_factor(rng, self.params.noise_sigma)

    def mean_graph_time(self, profiles: Iterable[NodeProfile]) -> float:
        """Noiseless execution time of a whole graph (or node sequence)."""
        return sum(self.mean_time(p) for p in profiles)


@dataclass(frozen=True)
class DeviceParams:
    """Tunable constants of the device cost model (SI units: s, bytes, FLOP/s)."""

    conv_rate: float = 5.6e9           # peak effective conv FLOP/s
    conv_c_half: float = 3.0           # few-channel inefficiency knee
    conv_ws_half: float = 8.0e6        # cache-spill knee (bytes of working set)
    conv_hw_half: float = 0.0          # small-output-map knee (0 = disabled)
    conv_setup: float = 8.0e-3         # per-conv-kernel setup cost ceiling
    conv_setup_half_flops: float = 10.0e6  # setup amortisation knee
    pointwise_ws_discount: float = 0.3  # 1x1 convs stream; reduced cache cost
    dwconv_rate: float = 1.6e9         # depth-wise conv is memory bound on CPU
    matmul_rate: float = 1.5e9
    pool_rate: float = 3.0e9
    elementwise_rate: float = 6.0e9
    mem_bandwidth: float = 3.5e9       # effective LPDDR4 stream bandwidth, B/s
    node_overhead: float = 0.05e-3     # framework dispatch overhead per node
    im2col_traffic_factor: float = 0.25
    noise_sigma: float = 0.04


class DeviceModel(NodeCostModel):
    """Per-node execution-time model for the user-end device."""

    def __init__(self, params: DeviceParams | None = None) -> None:
        super().__init__()
        self.params = params or DeviceParams()

    # -- internals -----------------------------------------------------------

    def _conv_eff(self, profile: NodeProfile) -> float:
        p = self.params
        working_set = profile.input_bytes + profile.output_bytes
        if profile.k_h * profile.k_w == 1:
            # Pointwise (1x1) convolutions are plain GEMMs over pixels: they
            # stream memory linearly with no im2col blow-up, so the cache
            # penalty is much milder (Xception/ResNet bottlenecks).
            working_set *= p.pointwise_ws_discount
        channel_eff = profile.c_in / (profile.c_in + p.conv_c_half)
        cache_eff = 1.0 / (1.0 + working_set / p.conv_ws_half)
        hw_out = profile.h_out * profile.w_out
        parallel_eff = hw_out / (hw_out + p.conv_hw_half) if p.conv_hw_half > 0 else 1.0
        return channel_eff * cache_eff * parallel_eff

    def _conv_setup(self, anchor_flops: float) -> float:
        p = self.params
        return p.conv_setup * p.conv_setup_half_flops / (anchor_flops + p.conv_setup_half_flops)

    def _traffic_bytes(self, profile: NodeProfile) -> float:
        p = self.params
        if profile.category in ("conv", "dwconv", "conv_fused", "dwconv_fused"):
            reuse = (profile.k_h * profile.k_w) * p.im2col_traffic_factor
            return profile.input_bytes * reuse + profile.output_bytes + profile.param_bytes
        return profile.input_bytes + profile.output_bytes + profile.param_bytes

    # -- public API ------------------------------------------------------------

    def mean_time(self, profile: NodeProfile) -> float:
        """Noiseless execution time of one node, in seconds.

        Fused kernels (§VI extension) cost their anchor plus a nearly-free
        epilogue: the absorbed element-wise ops reuse registers instead of
        making extra memory passes, which is exactly the fusion benefit
        frameworks chase.
        """
        p = self.params
        category = profile.category
        if category is None:
            return 0.0
        anchor_flops = profile.anchor_flops
        anchor = FUSED_ANCHOR_CATEGORY.get(category, category)
        if anchor == "conv":
            compute = anchor_flops / (p.conv_rate * self._conv_eff(profile))
            compute += self._conv_setup(anchor_flops)
        elif anchor == "dwconv":
            compute = anchor_flops / p.dwconv_rate
        elif anchor == "matmul":
            compute = anchor_flops / p.matmul_rate
        elif anchor == "pooling":
            compute = anchor_flops / p.pool_rate
        else:  # bias_add, elementwise, batchnorm, activation
            compute = anchor_flops / p.elementwise_rate
        # Epilogue of a fused kernel: compute only, no extra memory traffic.
        compute += (profile.flops - anchor_flops) / p.elementwise_rate
        memory = self._traffic_bytes(profile) / p.mem_bandwidth
        return compute + memory + p.node_overhead

    def sample_graph_time(self, profiles: Sequence[NodeProfile], rng: np.random.Generator,
                          start: int = 0, stop: int | None = None) -> float:
        """Noisy local-inference time of ``profiles[start:stop]``."""
        return sum(self.sample_times(profiles, rng, start, stop), 0.0)
