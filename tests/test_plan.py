"""The planned backend: bit-identity with naive, liveness, workspace arena."""

import numpy as np
import pytest

from repro.graph import fuse_graph
from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model
from repro.nn import BACKENDS, GraphExecutor, SegmentExecutor
from repro.nn.plan import GraphPlan, PlanError, SegmentPlan, WorkspaceArena
from tests.helpers import SWEEP_ZOO, sampled_points

_FAST_MODELS = ("alexnet", "squeezenet", "mobilenet_v1", "mobilenet_v2", "resnet18")
_SLOW_MODELS = ("vgg16", "resnet50", "resnet101", "resnet152", "inception_v3", "xception")
ZOO = [pytest.param(m, id=m) for m in _FAST_MODELS] + [
    pytest.param(m, id=m, marks=pytest.mark.slow) for m in _SLOW_MODELS
]


def _input_for(graph, seed=42):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(graph.input_spec.shape).astype(np.float32)


class TestZooBitIdentity:
    """Planned outputs must equal naive outputs bit for bit, zoo-wide."""

    @pytest.mark.parametrize("model_name", ZOO)
    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
    def test_bit_identical_and_rerun_stable(self, model_name, fused):
        graph = build_model(model_name)
        if fused:
            graph = fuse_graph(graph)
        planned = GraphExecutor(graph, seed=0, backend="planned")
        naive = GraphExecutor(graph, seed=0, params=planned.params)
        x = _input_for(graph)
        ref = naive.run(x)
        first = planned.run(x)
        second = planned.run(x)  # exercises buffer reuse across runs
        assert first.dtype == np.float32
        assert np.array_equal(ref, first)
        assert np.array_equal(first, second)


class TestPlanSemantics:
    def test_same_output_and_keep_as_naive(self, chain_graph, rng):
        keep = ("relu", "pool")
        planned = GraphExecutor(chain_graph, seed=2, backend="planned")
        naive = GraphExecutor(chain_graph, seed=2, params=planned.params)
        x = rng.standard_normal(chain_graph.input_spec.shape).astype(np.float32)
        out_n = naive.run(x, keep=keep)
        out_p = planned.run(x, keep=keep)
        assert np.array_equal(out_n, out_p)
        assert set(planned.last_intermediates) == set(naive.last_intermediates)
        for name in keep:
            assert np.array_equal(
                naive.last_intermediates[name], planned.last_intermediates[name]
            )

    def test_diamond_and_fire_graphs(self, diamond_graph, fire_graph, rng):
        for graph in (diamond_graph, fire_graph):
            planned = GraphExecutor(graph, seed=1, backend="planned")
            naive = GraphExecutor(graph, seed=1, params=planned.params)
            x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
            assert np.array_equal(naive.run(x), planned.run(x))

    def test_rejects_wrong_input_shape_same_message(self, chain_graph):
        planned = GraphExecutor(chain_graph, backend="planned")
        with pytest.raises(ValueError, match="input shape"):
            planned.run(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_invalid_backend_rejected(self, chain_graph):
        with pytest.raises(ValueError, match="backend must be one of"):
            GraphExecutor(chain_graph, backend="jit")
        assert set(BACKENDS) == {"naive", "planned"}

    def test_stats_report_liveness_work(self, chain_graph):
        plan = GraphPlan(chain_graph)
        stats = plan.stats
        assert stats.steps > 0
        assert stats.inplace_steps >= 1       # bias/relu run on dying inputs
        assert stats.alias_steps >= 1         # flatten is a view
        assert stats.arena_bytes > 0

    def test_results_survive_later_runs(self, chain_graph, rng):
        plan = GraphPlan(chain_graph, seed=0)
        x1 = rng.standard_normal(chain_graph.input_spec.shape).astype(np.float32)
        x2 = rng.standard_normal(chain_graph.input_spec.shape).astype(np.float32)
        out1 = plan.run(x1)
        saved = out1.copy()
        plan.run(x2)
        assert np.array_equal(out1, saved), "returned tensor aliases the workspace"


class TestSegmentPlans:
    def _run_split(self, graph, params, point, head_backend, tail_backend):
        part = GraphPartitioner(graph).partition(point)
        x = _input_for(graph, seed=7)
        boundary = {}
        if point > 0:
            head = SegmentExecutor(part.head, params=params, backend=head_backend)
            boundary = dict(head.run({graph.input_name: x}))
        if graph.input_name in part.transfer_specs:
            boundary[graph.input_name] = x
        if part.tail.is_empty:
            return boundary[graph.output_name]
        tail = SegmentExecutor(part.tail, params=params, backend=tail_backend)
        return tail.run(boundary)[graph.output_name]

    @pytest.mark.parametrize("head_backend,tail_backend",
                             [("planned", "naive"), ("naive", "planned"),
                              ("planned", "planned")])
    def test_cross_backend_handoff_chain(self, chain_graph, head_backend, tail_backend):
        full = GraphExecutor(chain_graph, seed=0)
        ref = full.run(_input_for(chain_graph, seed=7))
        n = len(chain_graph.topological_order())
        for point in range(n + 1):
            got = self._run_split(chain_graph, full.params, point,
                                  head_backend, tail_backend)
            assert np.array_equal(ref, got), f"point {point}"

    def test_cross_backend_handoff_alexnet(self):
        graph = build_model("alexnet")
        full = GraphExecutor(graph, seed=0)
        ref = full.run(_input_for(graph, seed=7))
        mid = len(graph.topological_order()) // 2
        for hb, tb in (("planned", "naive"), ("naive", "planned")):
            got = self._run_split(graph, full.params, mid, hb, tb)
            assert np.array_equal(ref, got)

    def test_missing_boundary_same_message(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        plan = SegmentPlan(part.tail, seed=0)
        with pytest.raises(ValueError, match="missing boundary tensors"):
            plan.run({})

    def test_wrong_boundary_shape_same_message(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        plan = SegmentPlan(part.tail, seed=0)
        bad = {name: np.zeros((1, 1, 1, 1), dtype=np.float32)
               for name in part.tail.boundary_inputs}
        with pytest.raises(ValueError, match="has shape"):
            plan.run(bad)

    def test_unknown_result_raises_plan_error(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        part.tail.result_names = ("no-such-node",)
        with pytest.raises(PlanError, match="not produced"):
            SegmentPlan(part.tail, seed=0)


class TestZooSegments:
    """Planned head and tail segments equal naive ones at sampled points."""

    @pytest.mark.parametrize("model_name", SWEEP_ZOO)
    def test_planned_segments_match_naive(self, model_name):
        graph = build_model(model_name)
        params = GraphExecutor(graph, seed=0).params
        x = _input_for(graph)
        partitioner = GraphPartitioner(graph)
        for point in sampled_points(graph, count=2):
            part = partitioner.partition(point)
            head_in = {name: x for name in part.head.boundary_inputs}
            head_ref = SegmentExecutor(part.head, params=params).run(head_in)
            tail_in = {
                name: (x if name == graph.input_name else head_ref[name])
                for name in part.tail.boundary_inputs
            }
            tail_ref = SegmentExecutor(part.tail, params=params).run(tail_in)
            for segment, boundary, ref in ((part.head, head_in, head_ref),
                                           (part.tail, tail_in, tail_ref)):
                got = SegmentExecutor(segment, params=params,
                                      backend="planned").run(boundary)
                assert set(got) == set(ref)
                for name, want in ref.items():
                    assert np.array_equal(got[name], want), \
                        f"{model_name} {segment.name} point={point} tensor {name}"


class TestWorkspaceArena:
    def test_release_then_acquire_reuses(self):
        arena = WorkspaceArena()
        a = arena.acquire(128)
        arena.release(a)
        b = arena.acquire(64)
        assert b is a, "acquire hands back the pooled base buffer"
        assert arena.buffers == 1 and arena.reuses == 1

    def test_best_fit_prefers_smallest_adequate(self):
        arena = WorkspaceArena()
        big, small = arena.acquire(1000), arena.acquire(100)
        arena.release(big)
        arena.release(small)
        got = arena.acquire(80)
        assert got.size == 100

    def test_waste_cap_refuses_oversized_buffers(self):
        arena = WorkspaceArena()
        arena.release(arena.acquire(1000))
        got = arena.acquire(10, waste_cap=4)
        assert got.size == 10 and arena.buffers == 2

    def test_dtypes_do_not_mix(self):
        arena = WorkspaceArena()
        arena.release(arena.acquire(64, np.float32))
        got = arena.acquire(64, np.int32)
        assert got.dtype == np.int32 and arena.buffers == 2

    def test_persistent_never_pooled(self):
        arena = WorkspaceArena()
        buf = arena.persistent((4, 4), fill=-np.inf)
        assert np.all(np.isinf(buf))
        assert arena.persistent_bytes == buf.nbytes
        got = arena.acquire(16)
        assert got is not buf
