"""Cost model of the edge-server GPU (NVIDIA Tesla T4 class).

Each computation node maps to one GPU kernel whose *service time* (the time
it occupies the GPU once scheduled) is::

    t = max(flops / (R_cat * occupancy) + traffic / BW_mem, t_min) + launch

``occupancy`` penalises kernels too small to fill the GPU — the dominant
nonlinearity of GPU latency prediction, and the reason the paper's edge
conv model has ~17% MAPE while its matmul model is near-linear.

Queueing behind background tasks is *not* part of this model: that is the
job of :class:`repro.hardware.gpu_scheduler.GpuScheduler`, mirroring the
paper's observation that load affects whole partitions between kernels, not
individual kernel service times (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.graph.ops import FUSED_ANCHOR_CATEGORY
from repro.hardware.device_model import NodeCostModel
from repro.profiling.features import NodeProfile


@dataclass(frozen=True)
class GpuParams:
    """Tunable constants of the GPU kernel model (s, bytes, FLOP/s)."""

    conv_rate: float = 4.0e12
    dwconv_rate: float = 0.4e12
    matmul_rate: float = 3.0e12
    occupancy_half_flops: float = 2.0e7   # kernels below ~20 MFLOP underfill the GPU
    mem_bandwidth: float = 250.0e9        # effective HBM/GDDR6 bandwidth, B/s
    launch_overhead: float = 8.0e-6       # per-kernel launch + framework dispatch
    min_kernel_time: float = 15.0e-6      # small kernels cannot beat this floor
    noise_sigma: float = 0.05


class GpuModel(NodeCostModel):
    """Per-kernel service-time model for the edge-server GPU at zero load."""

    def __init__(self, params: GpuParams | None = None) -> None:
        super().__init__()
        self.params = params or GpuParams()

    def _occupancy(self, flops: float) -> float:
        h = self.params.occupancy_half_flops
        return flops / (flops + h) if flops > 0 else 1.0

    def mean_time(self, profile: NodeProfile) -> float:
        """Noiseless service time of one kernel, in seconds.

        A fused kernel (§VI extension) pays one launch and one memory pass
        for the whole anchor+epilogue group — the fusion saving.
        """
        p = self.params
        category = profile.category
        if category is None:
            return 0.0
        anchor_flops = profile.anchor_flops
        anchor = FUSED_ANCHOR_CATEGORY.get(category, category)
        traffic = profile.input_bytes + profile.output_bytes + profile.param_bytes
        if anchor == "conv":
            compute = anchor_flops / (p.conv_rate * self._occupancy(anchor_flops))
        elif anchor == "dwconv":
            compute = anchor_flops / (p.dwconv_rate * self._occupancy(anchor_flops))
        elif anchor == "matmul":
            compute = anchor_flops / p.matmul_rate
        else:  # pooling and the element-wise family are bandwidth bound
            compute = 0.0
        body = max(compute + traffic / p.mem_bandwidth, p.min_kernel_time)
        return body + p.launch_overhead

    def kernel_times(self, profiles: Iterable[NodeProfile]) -> List[float]:
        """Noiseless service times for a kernel sequence (one per node)."""
        return [self.mean_time(p) for p in profiles]

    def sample_kernel_times(self, profiles: Sequence[NodeProfile], rng: np.random.Generator,
                            start: int = 0, stop: int | None = None) -> List[float]:
        """Noisy service times of the kernels ``profiles[start:stop]``."""
        return self.sample_times(profiles, rng, start, stop)
