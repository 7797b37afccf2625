"""Dynamic request batching for the shared edge server.

Serving-style batching (cf. the Edge AI serving literature in PAPERS.md):
offload requests that arrive at the server within a short window *at the
same partition point* are stacked into one ``n > 1`` planned tail
execution, amortising per-request GEMM setup across clients.  Three rules
keep the paper's load-feedback loop honest:

- **Ladder + padding.**  Batched plans compile per batch size, so sizes are
  drawn from a small ladder (default 1/2/4/8) and the last partial batch is
  zero-padded up to the nearest rung.  Every op in the planned backend is
  per-sample independent (per-sample GEMM slabs, per-row GEMVs, inference-
  mode batchnorm), so pad samples cannot perturb real ones and per-sample
  outputs stay bit-identical to the naive executor.
- **Queueing delay is server time.**  A request that waits ``w`` seconds for
  its batch to fill experienced ``w + exec`` seconds of server latency.
  That sum — not bare ``exec`` — is what
  :class:`~repro.core.load_factor.LoadFactorMonitor` must observe, or the
  influential factor ``k = observed/predicted`` would under-report load
  precisely when batching queues build up.
- **Busy time is counted once.**  The GPU runs the batch once, so
  :class:`~repro.runtime.multi.SharedLoadTracker` records the batch
  execution time once per flush, not once per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Default batch-size ladder; plans are compiled (and cached) per rung.
DEFAULT_LADDER: Tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True)
class BatchingConfig:
    """Dynamic-batching knobs for the multi-client runtime.

    ``marginal_sample_cost`` models GPU batching efficiency: a batch of
    ``b`` samples costs ``1 + (b - 1) * marginal_sample_cost`` times one
    sample (0 = perfectly parallel, 1 = purely sequential).  The default
    0.35 is in the range batched GEMMs achieve on a T4-class part.
    """

    window_s: float = 0.005
    max_batch: int = 8
    ladder: Tuple[int, ...] = DEFAULT_LADDER
    marginal_sample_cost: float = 0.35

    def __post_init__(self) -> None:
        if self.window_s < 0:
            raise ValueError("window_s must be non-negative")
        ladder = tuple(sorted(set(int(b) for b in self.ladder)))
        if not ladder or ladder[0] < 1:
            raise ValueError("ladder must contain positive batch sizes")
        object.__setattr__(self, "ladder", ladder)
        if not 1 <= self.max_batch <= ladder[-1]:
            raise ValueError(
                f"max_batch must be in [1, max(ladder)={ladder[-1]}], got {self.max_batch}"
            )
        if self.marginal_sample_cost < 0:
            raise ValueError("marginal_sample_cost must be non-negative")

    def padded_size(self, n: int) -> int:
        """Smallest ladder rung holding ``n`` samples."""
        if n < 1:
            raise ValueError("batch must hold at least one sample")
        for rung in self.ladder:
            if rung >= n:
                return rung
        raise ValueError(f"batch of {n} exceeds ladder maximum {self.ladder[-1]}")

    def batch_time_scale(self, padded: int) -> float:
        """Execution-time multiplier of a ``padded``-sample batch vs one sample."""
        return 1.0 + (padded - 1) * self.marginal_sample_cost


@dataclass
class PendingRequest:
    """One offload request waiting in a partition point's batch queue."""

    request_id: int
    enqueue_s: float                      # arrival time at the server
    tensors: Dict[str, Any] | None = None  # boundary tensors (functional mode)
    context: Any = None                    # opaque driver payload (e.g. client)


@dataclass
class _PointQueue:
    pending: List[PendingRequest] = field(default_factory=list)
    epoch: int = 0


class DynamicBatcher:
    """Per-partition-point FIFO queues with window/size flush triggers.

    The batcher only holds state; *when* to flush is the driver's call via
    the return values of :meth:`enqueue` (the event loop owns time).  Epochs
    guard against stale timer events: a window timer scheduled for a queue
    that was flushed early (by reaching ``max_batch``) must not fire twice.
    """

    def __init__(self, config: BatchingConfig) -> None:
        self.config = config
        self._queues: Dict[int, _PointQueue] = {}

    def enqueue(self, point: int, request: PendingRequest) -> Tuple[bool, int]:
        """Queue a request; returns ``(flush_now, epoch)``.

        ``flush_now`` is True when the queue just reached ``max_batch`` and
        must be flushed immediately.  Otherwise the caller should arm a
        window timer for ``epoch`` iff this request opened the queue.
        """
        q = self._queues.setdefault(point, _PointQueue())
        q.pending.append(request)
        return len(q.pending) >= self.config.max_batch, q.epoch

    def queue_depth(self, point: int) -> int:
        q = self._queues.get(point)
        return len(q.pending) if q is not None else 0

    def take(self, point: int, epoch: int | None = None) -> List[PendingRequest]:
        """Drain the queue at ``point`` (FIFO order) and bump its epoch.

        With ``epoch`` given, a stale flush (the queue was already flushed
        since the timer was armed) drains nothing.
        """
        q = self._queues.get(point)
        if q is None or not q.pending:
            return []
        if epoch is not None and epoch != q.epoch:
            return []
        batch, q.pending = q.pending, []
        q.epoch += 1
        return batch
