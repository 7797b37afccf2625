"""LoADPart core: the paper's primary contribution.

- :mod:`partition_algorithm` — Algorithm 1: the O(n) prefix/suffix scan
  over the topological order that minimises Problem (1).
- :mod:`engine` — :class:`LoADPartEngine`, the per-model decision engine
  that precomputes the prefix/suffix arrays once and re-decides in O(n)
  as the bandwidth estimate and the load factor ``k`` change (§IV); its
  ``(exit, server, point)`` decision grid extends the scan to early exits
  and edge fleets.
- :mod:`load_factor` — the influential factor ``k`` of the server
  computation load, and the GPU-utilisation watchdog (§III-C, §IV).
- :mod:`cache` — the partition cache keyed by partition point (§III-A).
- :mod:`blocks` — the §III-D block analysis: cuts inside multi-branch
  blocks transmit more than width-1 cuts, justifying the linear scan.
- :mod:`baselines` — Neurosurgeon (bandwidth-aware, load-oblivious),
  local/full strategies, and a DADS-style min-cut solver.
"""

from repro.core.baselines import (
    FullOffloadStrategy,
    LocalStrategy,
    MinCutResult,
    NeurosurgeonStrategy,
    dads_min_cut,
)
from repro.core.blocks import BlockCutReport, block_cut_report, candidate_points
from repro.core.cache import PartitionCache
from repro.core.engine import GridDecision, LoADPartEngine, ServerProfile
from repro.core.load_factor import GpuWatchdog, LoadFactorMonitor
from repro.core.multi_tier import MultiTierDecision, multi_tier_decision
from repro.core.partition_algorithm import PartitionDecision, partition_decision

__all__ = [
    "BlockCutReport",
    "FullOffloadStrategy",
    "GpuWatchdog",
    "GridDecision",
    "LoADPartEngine",
    "LoadFactorMonitor",
    "LocalStrategy",
    "MinCutResult",
    "MultiTierDecision",
    "NeurosurgeonStrategy",
    "PartitionCache",
    "PartitionDecision",
    "ServerProfile",
    "block_cut_report",
    "candidate_points",
    "dads_min_cut",
    "multi_tier_decision",
    "partition_decision",
]
