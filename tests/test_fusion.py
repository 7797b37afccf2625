"""Layer fusion (§VI extension): detection, rewriting, equivalence."""

import numpy as np
import pytest

from repro.graph.fusion import detect_fusion_groups, fuse_graph
from repro.graph.ops import FUSED_CATEGORIES
from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model
from repro.nn.executor import GraphExecutor, SegmentExecutor
from repro.profiling.features import profile_graph
from repro.profiling.offline import OfflineProfiler


class TestDetection:
    def test_chain_groups(self, chain_graph):
        groups = detect_fusion_groups(chain_graph)
        # conv+bias+relu fuse; pool and flat stay; fc absorbs nothing after it.
        assert ["conv", "bias", "relu"] in groups
        assert ["pool"] in groups and ["flat"] in groups

    def test_groups_cover_all_nodes_once(self, diamond_graph, fire_graph):
        for graph in (diamond_graph, fire_graph):
            groups = detect_fusion_groups(graph)
            flat = [n for g in groups for n in g]
            assert sorted(flat) == sorted(graph.nodes)

    def test_multi_consumer_intermediate_blocks_fusion(self):
        """The squeeze relu feeds two branches: fusion stops at the relu
        itself (which is a single consumer of the bias output), never past."""
        g = build_model("squeezenet")
        groups = detect_fusion_groups(g)
        by_anchor = {grp[0]: grp for grp in groups}
        assert by_anchor["fire2.squeeze.conv"] == [
            "fire2.squeeze.conv", "fire2.squeeze.post", "fire2.squeeze.relu"
        ]

    def test_branch_point_not_absorbed(self):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder("g", (1, 4, 8, 8))
        c = b.conv(b.input, 4, kernel=1, name="c")
        # bias output consumed by two reLUs: fusion must stop at the conv.
        bias = b.bias_add(c, name="bias")
        r1 = b.relu(bias, name="r1")
        r2 = b.sigmoid(bias, name="r2")
        out = b.add(r1, r2, name="out")
        b.output(out)
        g = b.build()
        groups = detect_fusion_groups(g)
        by_anchor = {grp[0]: grp for grp in groups}
        assert by_anchor["c"] == ["c", "bias"]

    def test_alexnet_summary(self):
        graph = build_model("alexnet")
        groups = detect_fusion_groups(graph)
        assert len(graph) == 27
        assert len(groups) == 12
        assert sum(1 for g in groups if len(g) > 1) == 8  # 5 conv + 3 fc stacks


class TestRewriting:
    def test_fused_graph_validates(self):
        for model in ("alexnet", "squeezenet", "resnet18"):
            fuse_graph(build_model(model)).validate()

    def test_flops_preserved_exactly(self):
        for model in ("alexnet", "vgg16", "resnet18", "squeezenet", "xception"):
            g = build_model(model)
            assert fuse_graph(g).total_flops() == g.total_flops(), model

    def test_params_preserved_exactly(self):
        g = build_model("alexnet")
        assert fuse_graph(g).total_param_bytes() == g.total_param_bytes()

    def test_output_shape_preserved(self):
        g = build_model("squeezenet")
        assert fuse_graph(g).output_spec == g.output_spec

    def test_node_count_shrinks_substantially(self):
        g = build_model("vgg16")
        fg = fuse_graph(g)
        assert len(fg) < 0.6 * len(g)

    def test_epilogue_attrs(self):
        fg = fuse_graph(build_model("alexnet"))
        fused_nodes = [n for n in fg.nodes.values() if n.op == "fused_conv2d"]
        assert len(fused_nodes) == 5
        assert all(n.attrs["epilogue"] == ("bias_add", "relu") for n in fused_nodes)

    def test_fused_names_keep_downstream_references(self):
        g = build_model("alexnet")
        fg = fuse_graph(g)
        # The graph output (fc8.bias) is itself absorbed into fused_matmul,
        # whose node keeps the tail name so the output reference is intact.
        assert fg.output_name == g.output_name

    def test_transmission_sizes_subset(self):
        """Fused cut sizes appear among the original cut sizes (fused cuts
        land on group boundaries, which exist in the unfused graph too)."""
        g = build_model("alexnet")
        fg = fuse_graph(g)
        assert set(fg.transmission_sizes()) <= set(g.transmission_sizes())


class TestExecutionEquivalence:
    @pytest.mark.parametrize("model", ["alexnet", "squeezenet", "resnet18"])
    def test_fused_matches_unfused(self, model, rng):
        g = build_model(model)
        fg = fuse_graph(g)
        x = rng.standard_normal(g.input_spec.shape).astype(np.float32)
        a = GraphExecutor(g, seed=11).run(x)
        b = GraphExecutor(fg, seed=11).run(x)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_partitioned_fused_execution(self, rng):
        g = build_model("alexnet")
        fg = fuse_graph(g)
        x = rng.standard_normal(g.input_spec.shape).astype(np.float32)
        executor = GraphExecutor(fg, seed=4)
        ref = executor.run(x)
        part = GraphPartitioner(fg).partition(5)
        head = SegmentExecutor(part.head, params=executor.params)
        tail = SegmentExecutor(part.tail, params=executor.params)
        boundary = head.run({fg.input_name: x})
        got = tail.run(boundary)[fg.output_name]
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)


class TestCostModels:
    def test_fusion_saves_time_on_both_sides(self):
        from repro.hardware import DeviceModel, GpuModel

        g = build_model("resnet18")
        fg = fuse_graph(g)
        dev, gpu = DeviceModel(), GpuModel()
        assert dev.mean_graph_time(profile_graph(fg)) < dev.mean_graph_time(profile_graph(g))
        assert gpu.mean_graph_time(profile_graph(fg)) < gpu.mean_graph_time(profile_graph(g))

    def test_fused_profiles_carry_epilogue(self):
        fg = fuse_graph(build_model("alexnet"))
        profiles = profile_graph(fg)
        fused = [p for p in profiles if p.category == "conv_fused"]
        assert fused and all(p.epilogue_len == 2 for p in fused)
        assert all(p.anchor_flops < p.flops for p in fused)


class TestFusedPrediction:
    @pytest.fixture(scope="class")
    def fused_report(self):
        return OfflineProfiler(samples_per_category=120, seed=5, include_fused=True).run()

    def test_supports_fused_flag(self, fused_report, trained_report):
        assert set(FUSED_CATEGORIES) <= set(fused_report.user_predictor.models)
        assert not set(FUSED_CATEGORIES) & set(trained_report.user_predictor.models)

    def test_plain_predictor_rejects_fused_graphs(self, trained_report):
        profiles = profile_graph(fuse_graph(build_model("alexnet")))
        fused_profile = next(p for p in profiles if p.category == "conv_fused")
        with pytest.raises(KeyError, match="include_fused"):
            trained_report.user_predictor.predict(fused_profile)

    def test_fused_engine_decisions(self, fused_report):
        from repro.core import LoADPartEngine

        fg = fuse_graph(build_model("alexnet"))
        engine = LoADPartEngine(fg, fused_report.user_predictor, fused_report.edge_predictor)
        assert engine.decide(1e6).point == engine.num_nodes       # local
        assert 0 <= engine.decide(64e6).point <= 4                # early offload


class TestFusedSerialisation:
    def test_fused_graph_round_trips(self):
        from repro.graph.serialize import graph_from_json, graph_to_json

        fg = fuse_graph(build_model("alexnet"))
        restored = graph_from_json(graph_to_json(fg))
        assert restored.total_flops() == fg.total_flops()
        assert restored.node(restored.topological_order()[0]).attrs.get("epilogue") \
            == fg.node(fg.topological_order()[0]).attrs.get("epilogue")
