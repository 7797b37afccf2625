"""The per-partition caches (§III-A): partitions and compiled executors.

The compile-once layer (:class:`CompileOnceCache` and the per-plan
execution lock) is hammered from real threads.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.cache import CompileOnceCache, PartitionCache
from repro.graph.partitioner import GraphPartitioner
from repro.nn import SegmentExecutor
from repro.runtime.server import EdgeServer


@pytest.fixture
def cache(chain_graph):
    return PartitionCache(GraphPartitioner(chain_graph), capacity=3)


class TestCache:
    def test_miss_then_hit(self, cache):
        cache.get(2)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.get(2)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_returns_correct_partition(self, cache):
        part = cache.get(3)
        assert part.partition_point == 3

    def test_contains(self, cache):
        assert 2 not in cache
        cache.get(2)
        assert 2 in cache

    def test_lru_eviction(self, cache):
        for p in (0, 1, 2):
            cache.get(p)
        cache.get(0)      # refresh 0
        cache.get(3)      # evicts 1 (least recently used)
        assert 0 in cache and 3 in cache and 1 not in cache

    def test_hit_rate(self, cache):
        assert cache.hit_rate == 0.0
        cache.get(1)
        cache.get(1)
        cache.get(1)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_amortisation_paper_claim(self, cache):
        """Over ~100 requests at one point, nearly all are hits."""
        for _ in range(100):
            cache.get(4)
        assert cache.hit_rate >= 0.99

    def test_clear(self, cache):
        cache.get(1)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_capacity_validation(self, chain_graph):
        with pytest.raises(ValueError):
            PartitionCache(GraphPartitioner(chain_graph), capacity=0)

    def test_len_tracks_entries(self, cache):
        cache.get(0)
        cache.get(1)
        assert len(cache) == 2


class TestCompileOnceCache:
    def test_exactly_one_build_per_key_under_contention(self):
        cache = CompileOnceCache()
        built = []
        build_lock = threading.Lock()
        barrier = threading.Barrier(16)

        def factory(key):
            with build_lock:
                built.append(key)
            return object()

        def worker(i):
            barrier.wait()
            key = i % 4
            return key, cache.get_or_create(key, lambda: factory(key))

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(worker, range(16)))

        assert sorted(built) == [0, 1, 2, 3]  # exactly one build per key
        assert cache.builds == 4 and cache.hits == 12
        by_key = {}
        for key, value in results:
            # No torn state: every caller of a key sees the same object.
            assert by_key.setdefault(key, value) is value

    def test_failed_build_propagates_and_retries(self):
        cache = CompileOnceCache()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("transient")
            return "ok"

        with pytest.raises(OSError):
            cache.get_or_create("k", flaky)
        assert "k" not in cache
        assert cache.get_or_create("k", flaky) == "ok"
        assert "k" in cache

    def test_server_plan_cache_compiles_once_per_key(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, backend="planned",
                            functional=True)
        n = squeezenet_engine.num_nodes
        keys = [(n // 3, 1), (n // 3, 2), (2 * n // 3, 1)]
        barrier = threading.Barrier(12)

        def worker(i):
            barrier.wait()
            point, batch = keys[i % len(keys)]
            return (point, batch), server._tail_executor(point, batch)

        with ThreadPoolExecutor(max_workers=12) as pool:
            results = list(pool.map(worker, range(12)))

        assert server._tail_executors.builds == len(keys)
        by_key = {}
        for key, executor in results:
            assert by_key.setdefault(key, executor) is executor

    def test_concurrent_tail_execution_is_deterministic(self, squeezenet_engine):
        """Many threads through one cached plan: the per-plan execution
        lock must keep every result equal to a solo run."""
        server = EdgeServer(squeezenet_engine, backend="planned",
                            functional=True)
        graph = squeezenet_engine.graph
        point = squeezenet_engine.num_nodes // 2
        partitioned = server.cache.get(point)
        rng = np.random.default_rng(9)
        boundaries = []
        for _ in range(8):
            boundaries.append({
                name: rng.standard_normal(spec.shape).astype(np.float32)
                for name, spec in partitioned.tail.boundary_inputs.items()
            })
        refs = [
            SegmentExecutor(partitioned.tail, params=server.model_params).run(b)
            for b in boundaries
        ]
        executor = server._tail_executor(point)
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            return executor.run(boundaries[i])

        with ThreadPoolExecutor(max_workers=8) as pool:
            outs = list(pool.map(worker, range(8)))
        out_name = graph.output_name
        for out, ref in zip(outs, refs):
            assert np.array_equal(out[out_name], ref[out_name])
