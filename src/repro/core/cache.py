"""The per-partition caches (§III-A).

Partitioning a DNN and preparing the runtime for the two subgraphs is not
free; the paper amortises it with a cache keyed by the partition point,
holding the partitioned computation graph and auxiliary structures.  Both
the device and the server keep one.  With the cache, partition overhead
amortises to ~1% of inference time over ~100 requests.

Here the partitioned graphs themselves live in the engine's one
:class:`~repro.graph.partitioner.GraphPartitioner`, which builds each
point once; :class:`PartitionCache` simulates the §III-A cache over it,
keeping the LRU and hit/miss bookkeeping that decides when the partition
overhead is charged.

The runtime prepared for a subgraph is a compiled executor;
:class:`CompileOnceCache` holds those (the server keys them by graph,
point and batch size) and builds each key's executor exactly once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, TypeVar

from repro.graph.partitioner import GraphPartitioner, PartitionedGraph


class PartitionCache:
    """The §III-A LRU cache of partition points over a shared partitioner.

    It remembers which points it holds, in LRU order, and counts hits and
    misses; the :class:`PartitionedGraph` itself comes from the
    partitioner, which builds each point once for every cache over it.
    A miss is what the runtime charges the partition overhead on, so two
    caches over one partitioner (a device and a server) miss separately,
    and a cleared cache (a restarted server) misses again.

    Thread-safe: threads sharing one device or server (for instance the
    builders of its :class:`CompileOnceCache`) can look up partitions
    concurrently, and an ``OrderedDict`` mid ``move_to_end``/``popitem``
    must never be observed torn.
    """

    def __init__(self, partitioner: GraphPartitioner, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._partitioner = partitioner
        self._capacity = capacity
        self._points: "OrderedDict[int, None]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, point: int) -> PartitionedGraph:
        """Fetch the partition for ``point``, counting a hit or a miss."""
        with self._lock:
            if point in self._points:
                self.hits += 1
                self._points.move_to_end(point)
                return self._partitioner.partition(point)
            self.misses += 1
            partitioned = self._partitioner.partition(point)
            self._points[point] = None
            if len(self._points) > self._capacity:
                self._points.popitem(last=False)
            return partitioned

    def __contains__(self, point: int) -> bool:
        with self._lock:
            return point in self._points

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._points.clear()
            self.hits = 0
            self.misses = 0


K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class _Cell:
    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class CompileOnceCache:
    """Keyed build-once cache safe under concurrent lookups.

    Exactly one caller per key runs the factory; every other caller blocks
    until the build finishes and then shares the same object (torn state is
    impossible: the key is published before the build, the value only
    after).  A failed build propagates its exception to all waiters and
    evicts the key so a later call may retry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: Dict[Hashable, _Cell] = {}
        self.builds = 0
        self.hits = 0

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = _Cell()
                self._cells[key] = cell
                builder = True
                self.builds += 1
            else:
                builder = False
                self.hits += 1
        if not builder:
            cell.event.wait()
            if cell.error is not None:
                raise cell.error
            return cell.value
        try:
            cell.value = factory()
        except BaseException as exc:
            cell.error = exc
            with self._lock:
                # Evict so the next caller can retry a transient failure.
                if self._cells.get(key) is cell:
                    del self._cells[key]
            cell.event.set()
            raise
        cell.event.set()
        return cell.value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            cell = self._cells.get(key)
        return cell is not None and cell.event.is_set() and cell.error is None

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()
