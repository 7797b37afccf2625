"""Batch-native plans and dynamic batching: bit-identity and fleet order.

The batched contract is per-sample: a stacked ``n``-sample planned run must
equal ``n`` independent naive batch-1 runs bit for bit.  That only holds
because the planned backend issues the *identical* BLAS calls a batch-1
plan does (per-sample GEMM slabs over one shared im2col, per-row GEMVs) —
a single fused GEMM over the whole batch changes OpenBLAS's summation
order and breaks it.
"""

import numpy as np
import pytest

from repro.graph import fuse_graph
from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model
from repro.nn import BACKENDS, GraphExecutor, SegmentExecutor
from repro.nn.plan import GraphPlan, PlanError, SegmentPlan
from repro.runtime.batching import MAX_BATCH, BatchingConfig, DynamicBatcher, PendingRequest
from repro.runtime.multi import MultiClientSystem
from repro.runtime.system import OffloadingSystem, SystemConfig, Timeline
from tests.helpers import (
    SWEEP_ZOO,
    ZOO,
    assert_per_sample_bit_identical,
    sample_inputs,
    sampled_points,
)

BATCH = 3


class TestBatchedZooBitIdentity:
    """Stacked planned run == n independent naive runs, per sample."""

    @pytest.mark.parametrize("model_name", ZOO)
    def test_per_sample_bit_identical(self, model_name):
        graph = build_model(model_name)
        planned = GraphExecutor(graph, seed=0, backend="planned", batch=BATCH)
        assert_per_sample_bit_identical(graph, planned, BATCH)

    @pytest.mark.parametrize("model_name", [pytest.param("squeezenet", id="squeezenet")])
    def test_fused_batched_bit_identical(self, model_name):
        graph = fuse_graph(build_model(model_name))
        planned = GraphExecutor(graph, seed=0, backend="planned", batch=BATCH)
        assert_per_sample_bit_identical(graph, planned, BATCH)


class TestBatchedSegments:
    def test_batched_tail_segment_matches_naive(self):
        graph = build_model("squeezenet")
        point = len(graph.topological_order()) // 2
        tail = GraphPartitioner(graph).partition(point).tail
        planned = SegmentExecutor(tail, seed=0, backend="planned", batch=BATCH)
        naive = SegmentExecutor(tail, seed=0, params=planned.params)
        rng = np.random.default_rng(5)
        per_sample = []
        stacked = {}
        for name, spec in tail.boundary_inputs.items():
            draws = [rng.standard_normal(spec.shape).astype(np.float32)
                     for _ in range(BATCH)]
            per_sample.append((name, draws))
            stacked[name] = np.concatenate(draws, axis=0)
        out = planned.run(stacked)
        for i in range(BATCH):
            ref = naive.run({name: draws[i] for name, draws in per_sample})
            for name, value in ref.items():
                assert np.array_equal(out[name][i:i + 1], value)

    @pytest.mark.parametrize("model_name", SWEEP_ZOO)
    def test_zoo_batched_tails_match_naive(self, model_name):
        """Batch-4 tails at sampled partition points — the server-side path."""
        batch = 4
        graph = build_model(model_name)
        partitioner = GraphPartitioner(graph)
        params = GraphExecutor(graph, seed=0).params
        xs = sample_inputs(graph, batch)
        for point in sampled_points(graph, count=2):
            partitioned = partitioner.partition(point)
            head = SegmentExecutor(partitioned.head, params=params)
            tail_names = list(partitioned.tail.boundary_inputs)
            per_sample = []
            for x in xs:
                head_out = head.run({name: x for name
                                     in partitioned.head.boundary_inputs})
                per_sample.append({
                    name: (x if name == graph.input_name else head_out[name])
                    for name in tail_names
                })
            boundary = {
                name: np.concatenate([s[name] for s in per_sample], axis=0)
                for name in tail_names
            }
            out = SegmentExecutor(
                partitioned.tail, params=params, backend="planned", batch=batch,
            ).run(boundary)
            tail_naive = SegmentExecutor(partitioned.tail, params=params)
            for i, sample_boundary in enumerate(per_sample):
                for name, want in tail_naive.run(sample_boundary).items():
                    assert np.array_equal(out[name][i:i + 1], want), \
                        f"{model_name} point={point} sample {i} tensor {name}"

    def test_batch_shape_validation(self):
        graph = build_model("alexnet")
        plan = GraphPlan(graph, batch=2)
        with pytest.raises(ValueError):
            plan.run(sample_inputs(graph, 1)[0])  # batch-1 input into a batch-2 plan


class TestArgumentChecks:
    """A bad ``batch`` or ``backend`` is refused before any weight is built."""

    @pytest.fixture(autouse=True)
    def no_parameters(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("parameters initialised before the argument check")

        monkeypatch.setattr("repro.nn.executor.init_parameters", fail)
        monkeypatch.setattr("repro.nn.plan.init_parameters", fail)

    @pytest.fixture
    def graph_and_tail(self):
        graph = build_model("squeezenet")
        return graph, GraphPartitioner(graph).partition(10).tail

    @pytest.mark.parametrize("batch", [0, -2])
    def test_executors_reject_batch(self, graph_and_tail, batch):
        graph, tail = graph_and_tail
        for backend in BACKENDS:
            with pytest.raises(ValueError, match="batch must be >= 1"):
                GraphExecutor(graph, backend=backend, batch=batch)
            with pytest.raises(ValueError, match="batch must be >= 1"):
                SegmentExecutor(tail, backend=backend, batch=batch)

    @pytest.mark.parametrize("batch", [0, -2])
    def test_plans_reject_batch(self, graph_and_tail, batch):
        graph, tail = graph_and_tail
        with pytest.raises(PlanError, match="batch must be >= 1"):
            GraphPlan(graph, batch=batch)
        with pytest.raises(PlanError, match="batch must be >= 1"):
            SegmentPlan(tail, batch=batch)

    def test_executors_reject_backend(self, graph_and_tail):
        graph, tail = graph_and_tail
        with pytest.raises(ValueError, match="backend must be one of"):
            GraphExecutor(graph, backend="bogus")
        with pytest.raises(ValueError, match="backend must be one of"):
            SegmentExecutor(tail, backend="bogus")


class TestBatchingConfig:
    def test_padding_ladder(self):
        cfg = BatchingConfig()
        assert [cfg.padded_size(n) for n in (1, 2, 3, 4, 5, 8)] == [1, 2, 4, 4, 8, 8]
        with pytest.raises(ValueError):
            cfg.padded_size(9)

    def test_batch_time_scale(self):
        cfg = BatchingConfig()
        assert cfg.batch_time_scale(1) == 1.0
        assert cfg.batch_time_scale(4) == pytest.approx(2.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingConfig(window_s=-1.0)

    def test_single_client_system_rejects_batching(self, alexnet_engine):
        with pytest.raises(ValueError):
            OffloadingSystem(alexnet_engine,
                             config=SystemConfig(batching=BatchingConfig()))


class TestDynamicBatcher:
    def test_flush_on_max_batch(self):
        batcher = DynamicBatcher()
        for i in range(1, MAX_BATCH):
            full, _ = batcher.enqueue(3, PendingRequest(i, 0.0))
            assert not full
        full, _ = batcher.enqueue(3, PendingRequest(MAX_BATCH, 0.1))
        assert full
        assert [r.request_id for r in batcher.take(3)] == list(range(1, MAX_BATCH + 1))

    def test_stale_epoch_takes_nothing(self):
        batcher = DynamicBatcher()
        _, epoch = batcher.enqueue(3, PendingRequest(1, 0.0))
        batcher.take(3)            # flushed early (window timer now stale)
        batcher.enqueue(3, PendingRequest(2, 0.2))
        assert batcher.take(3, epoch) == []
        assert [r.request_id for r in batcher.take(3)] == [2]

    def test_queues_are_per_point(self):
        batcher = DynamicBatcher()
        batcher.enqueue(3, PendingRequest(1, 0.0))
        batcher.enqueue(7, PendingRequest(2, 0.0))
        assert batcher.queue_depth(3) == 1
        assert batcher.queue_depth(7) == 1
        assert [r.request_id for r in batcher.take(3)] == [1]
        assert [r.request_id for r in batcher.take(7)] == [2]


class TestBatchedFleet:
    @pytest.fixture(scope="class")
    def batching_config(self):
        return SystemConfig(
            seed=4, policy="full",
            batching=BatchingConfig(window_s=0.01),
        )

    def test_never_reorders_or_drops_request_ids(self, squeezenet_engine,
                                                 batching_config):
        system = MultiClientSystem(squeezenet_engine, 4, config=batching_config)
        result = system.run(1.0)
        assert len(result) > 0
        for timeline in result.timelines:
            ids = [r.request_id for r in timeline]
            # Per-client IDs are issued 1, 2, 3, ... — dropped or reordered
            # requests would leave a gap or an inversion.
            assert ids == list(range(1, len(ids) + 1))

    def test_batches_form_and_queueing_is_recorded(self, squeezenet_engine,
                                                   batching_config):
        system = MultiClientSystem(squeezenet_engine, 4, config=batching_config)
        result = system.run(1.0)
        records = result.records
        assert max(r.batch_size for r in records) > 1
        batched = [r for r in records if r.batch_size > 1]
        # Someone waited for the batch to fill, and that wait is part of
        # the server time the client observed.
        assert any(r.server_queue_s > 0 for r in batched)
        for r in batched:
            assert r.server_s >= r.server_queue_s

    def test_functional_batched_outputs_match_naive(self, squeezenet_engine):
        config = SystemConfig(
            seed=4, policy="full", functional=True, backend="planned",
            batching=BatchingConfig(window_s=0.01),
        )
        system = MultiClientSystem(squeezenet_engine, 3, config=config)
        result = system.run(0.5)
        graph = squeezenet_engine.graph
        naive = GraphExecutor(graph, seed=config.seed)
        for i, (client, timeline) in enumerate(zip(system.clients,
                                                   result.timelines)):
            assert client.last_output is not None
            # Replay the client's private data stream to recover its last
            # input (one draw per request), then check the batched planned
            # tail produced the bit-identical full-graph result.
            rng = np.random.default_rng(config.seed + 200 + i + 0x5EED)
            x = None
            for _ in range(len(timeline)):
                x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
            assert x is not None
            assert np.array_equal(client.last_output, naive.run(x))


class TestFleetResultEmpty:
    """A fleet run's Timeline with no records: every aggregate is NaN."""

    @staticmethod
    def _assert_all_nan(empty):
        for aggregate in (empty.mean_latency(), empty.percentile_latency(95),
                          empty.local_fraction(), empty.availability(),
                          empty.fallback_rate(), empty.sla_attainment()):
            assert np.isnan(aggregate)
        assert len(empty) == 0 and empty.exit_counts() == {}

    def test_empty_fleet_metrics_are_nan_not_raise(self):
        empty = Timeline()
        assert empty.timelines == ()
        self._assert_all_nan(empty)

    def test_empty_timelines_are_nan_too(self):
        empty = Timeline([], [])
        assert len(empty.timelines) == 2
        self._assert_all_nan(empty)
