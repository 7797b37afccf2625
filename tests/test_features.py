"""NodeProfile and the Table II feature vectors."""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.profiling.features import (
    CANDIDATE_FEATURES,
    FEATURE_NAMES,
    candidate_vector,
    feature_vector,
    profile_graph,
    profile_node,
)


def make_profile(op, input_shape, **attrs):
    b = GraphBuilder("t", input_shape)
    if op == "add":
        name = b.add(b.input, b.input)
    else:
        name = b.node(op, [b.input], **attrs)
    node = b.graph.node(name)
    return profile_node(node, b.graph.input_specs_of(node))


class TestNodeProfile:
    def test_conv_geometry(self):
        p = make_profile("conv2d", (1, 3, 224, 224), out_channels=64, kernel=11,
                         stride=4, padding=2)
        assert (p.c_in, p.c_out) == (3, 64)
        assert (p.h_out, p.w_out) == (55, 55)
        assert (p.k_h, p.k_w) == (11, 11)
        assert p.s_f == 3 * 11 * 11
        assert p.flops == 1 * 3 * 55 * 55 * 121 * 64
        assert p.category == "conv"

    def test_padded_size(self):
        p = make_profile("dwconv2d", (1, 8, 10, 10), kernel=3, padding=1)
        assert p.padded_size == 8 * 12 * 12

    def test_matmul_geometry(self):
        p = make_profile("matmul", (1, 128), out_features=64)
        assert (p.c_in, p.c_out) == (128, 64)
        assert (p.h_in, p.w_in) == (1, 1)
        assert p.param_bytes == 128 * 64 * 4

    def test_global_pool_kernel_is_input_map(self):
        p = make_profile("global_avgpool", (1, 16, 7, 7))
        assert (p.k_h, p.k_w) == (7, 7)

    def test_add_input_bytes_counts_both(self):
        p = make_profile("add", (1, 4, 4, 4))
        assert p.input_bytes == 2 * 4 * 16 * 4

    def test_bytes(self):
        p = make_profile("relu", (1, 4, 4, 4))
        assert p.input_bytes == p.output_bytes == 4 * 16 * 4


class TestFeatureVectors:
    def test_conv_edge_features(self):
        p = make_profile("conv2d", (1, 16, 28, 28), out_channels=32, kernel=3, padding=1)
        v = feature_vector(p, "edge")
        s_f = 16 * 9
        expected = [p.flops, s_f, 28 * s_f, 32 * s_f]
        np.testing.assert_array_equal(v, expected)

    def test_conv_device_features(self):
        p = make_profile("conv2d", (1, 16, 28, 28), out_channels=32, kernel=3, padding=1)
        v = feature_vector(p, "device")
        np.testing.assert_array_equal(v, [p.flops, 1 * 32 * 16 * 9])

    def test_dwconv_edge_includes_padded_size(self):
        p = make_profile("dwconv2d", (1, 8, 10, 10), kernel=3, padding=1)
        v = feature_vector(p, "edge")
        assert v[2] == p.padded_size

    def test_matmul_features_both_sides_equal(self):
        p = make_profile("matmul", (1, 128), out_features=64)
        np.testing.assert_array_equal(feature_vector(p, "edge"), feature_vector(p, "device"))
        np.testing.assert_array_equal(
            feature_vector(p, "edge"), [128 * 64, 128, 64, 128 * 64]
        )

    def test_pooling_features(self):
        p = make_profile("maxpool2d", (1, 8, 8, 8), kernel=2)
        v = feature_vector(p, "edge")
        np.testing.assert_array_equal(v, [8 * 4 * 4 * 4, 8 * 64, 8 * 16, 16])

    def test_scalar_categories_get_flops_only(self):
        for op in ("bias_add", "relu", "batchnorm"):
            p = make_profile(op, (1, 4, 4, 4))
            assert feature_vector(p, "edge").tolist() == [64.0]
            assert feature_vector(p, "device").tolist() == [64.0]

    def test_rejects_bad_side(self):
        p = make_profile("relu", (1, 4))
        with pytest.raises(ValueError, match="side"):
            feature_vector(p, "cloud")

    def test_rejects_uncategorised_op(self):
        p = make_profile("flatten", (1, 4, 4, 4))
        with pytest.raises(ValueError, match="category"):
            feature_vector(p, "edge")

    def test_feature_names_cover_all_categories_and_sides(self):
        from repro.graph.ops import CATEGORIES

        for category in CATEGORIES:
            for side in ("edge", "device"):
                assert (category, side) in FEATURE_NAMES

    def test_candidate_vector_shape(self):
        p = make_profile("conv2d", (1, 16, 28, 28), out_channels=32, kernel=3, padding=1)
        assert candidate_vector(p).shape == (len(CANDIDATE_FEATURES),)

    def test_table2_selection_subset_of_candidates(self):
        for names in FEATURE_NAMES.values():
            assert set(names) <= set(CANDIDATE_FEATURES)


class TestProfileGraph:
    def test_order_and_length(self, chain_graph):
        profiles = profile_graph(chain_graph)
        assert len(profiles) == len(chain_graph)
        assert [p.op for p in profiles] == [
            chain_graph.node(n).op for n in chain_graph.topological_order()
        ]
