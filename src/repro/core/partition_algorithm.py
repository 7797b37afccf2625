"""Algorithm 1 of the paper: the partition decision.

Solves Problem (1): pick the partition point ``p`` on the topological order
``L_0 .. L_n`` minimising

    t_p = sum_{i<=p} f(L_i)  +  s_p / B_u  +  sum_{i>p} g(L_i, k)  +  s_n / B_d

with ``p = n`` meaning local inference (no network terms).  Prefix sums of
``f`` and suffix sums of ``g`` make the scan O(n) time and O(n) space.

Following the paper's implementation (§IV): ``g(L_i, k) = k * M_edge(L_i)``,
so the suffix array is computed once from ``M_edge`` and ``k`` multiplies it
at decision time; the download term ``s_n / B_d`` is left out because the
result tensor of a discriminative DNN is tiny.

The tie-break matches the pseudo-code exactly: ``curVal <= minVal`` keeps
updating, so among equal-latency points the *latest* one wins (preferring
local execution when offloading buys nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PartitionDecision:
    """Result of one run of Algorithm 1.

    ``point`` is the chosen ``p`` (0 = full offloading, n = local
    inference); ``predicted_latency`` its objective value; ``candidates``
    the full objective vector (index = partition point), useful for
    plotting Fig. 1-style landscapes.
    """

    point: int
    predicted_latency: float
    candidates: np.ndarray

    @property
    def is_local(self) -> bool:
        return self.point == len(self.candidates) - 1

    @property
    def is_full_offload(self) -> bool:
        return self.point == 0


def compute_prefix_device(device_times: Sequence[float]) -> np.ndarray:
    """``prefix[i] = sum_{j<i} f(L_j)`` for i in 0..n (f(L_0)=0 is implicit)."""
    arr = np.asarray(device_times, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("device times must be non-negative")
    prefix = np.zeros(len(arr) + 1)
    np.cumsum(arr, out=prefix[1:])
    return prefix


def compute_suffix_edge(edge_times: Sequence[float]) -> np.ndarray:
    """``suffix[i] = sum_{j>=i} M_edge(L_j)`` for i in 0..n (+ suffix[n]=0).

    Index convention: ``suffix[p]`` is the *unit-k* server time of the tail
    when partitioning after point ``p`` (nodes at positions p+1..n, i.e.
    array indices p..n-1).
    """
    arr = np.asarray(edge_times, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("edge times must be non-negative")
    suffix = np.zeros(len(arr) + 1)
    np.cumsum(arr[::-1], out=suffix[:-1][::-1])
    return suffix


def partition_decision(
    device_times: Sequence[float],
    edge_times: Sequence[float],
    sizes: Sequence[int],
    bandwidth_up: float,
    k: float = 1.0,
    prefix: np.ndarray | None = None,
    suffix: np.ndarray | None = None,
) -> PartitionDecision:
    """Run Algorithm 1.

    Parameters
    ----------
    device_times, edge_times:
        Per-node predictions ``M_user(L_i)`` / ``M_edge(L_i)`` for the
        topological order (length n).
    sizes:
        Transmission sizes ``s_0..s_n`` in bytes (length n+1).
    bandwidth_up:
        Available upload bandwidth in bit/s.
    k:
        Influential factor of the server computation load (>= 1).
    prefix, suffix:
        Precomputed arrays (see :class:`~repro.core.engine.LoADPartEngine`),
        avoiding the O(n) cumsum on every call.
    """
    n = len(device_times)
    if len(edge_times) != n:
        raise ValueError("device_times and edge_times must have the same length")
    if len(sizes) != n + 1:
        raise ValueError(f"sizes must have length n+1={n + 1}, got {len(sizes)}")
    if bandwidth_up <= 0:
        raise ValueError("upload bandwidth must be positive")
    if k < 1.0:
        raise ValueError(f"the influential factor k must be >= 1, got {k}")
    if prefix is None:
        prefix = compute_prefix_device(device_times)
    if suffix is None:
        suffix = compute_suffix_edge(edge_times)

    sizes_arr = np.asarray(sizes, dtype=np.float64)
    candidates = prefix + k * suffix
    candidates[:-1] += sizes_arr[:-1] * 8 / bandwidth_up
    # candidates[n] is pure local inference: no network, no server term
    # (suffix[n] == 0 by construction).

    # The pseudo-code's `curVal <= minVal` keeps the LAST minimiser.
    best = int(len(candidates) - 1 - np.argmin(candidates[::-1]))
    return PartitionDecision(
        point=best,
        predicted_latency=float(candidates[best]),
        candidates=candidates,
    )
