"""Config sampler: validity, realism bounds, determinism."""

import pytest

from repro.graph.ops import CATEGORIES
from repro.profiling.sampler import (
    _MAX_ACTIVATION_ELEMS,
    _MAX_CONV_FLOPS,
    CATEGORY_OPS,
    ConfigSampler,
)


class TestSampling:
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_category_produces_requested_count(self, category):
        profiles = ConfigSampler(seed=0).sample_profiles(category, 20)
        assert len(profiles) == 20
        assert all(p.category == category for p in profiles)

    def test_unknown_category(self):
        with pytest.raises(KeyError):
            ConfigSampler().sample_profiles("attention", 5)

    def test_ops_cycle_within_category(self):
        profiles = ConfigSampler(seed=1).sample_profiles("pooling", 10)
        ops = {p.op for p in profiles}
        assert ops == set(CATEGORY_OPS["pooling"])

    def test_deterministic_given_seed(self):
        a = ConfigSampler(seed=42).sample_profiles("conv", 15)
        b = ConfigSampler(seed=42).sample_profiles("conv", 15)
        assert a == b

    def test_different_seeds_differ(self):
        a = ConfigSampler(seed=1).sample_profiles("conv", 15)
        b = ConfigSampler(seed=2).sample_profiles("conv", 15)
        assert a != b


class TestRealismBounds:
    def test_conv_respects_flop_cap(self):
        for p in ConfigSampler(seed=3).sample_profiles("conv", 200):
            assert p.flops <= _MAX_CONV_FLOPS

    def test_activation_sizes_bounded(self):
        for category in ("conv", "dwconv", "pooling", "elementwise"):
            for p in ConfigSampler(seed=4).sample_profiles(category, 100):
                assert p.c_in * p.h_in * p.w_in <= _MAX_ACTIVATION_ELEMS

    def test_all_profiles_have_positive_flops(self):
        for category in CATEGORIES:
            for p in ConfigSampler(seed=5).sample_profiles(category, 30):
                assert p.flops > 0

    def test_conv_output_dims_valid(self):
        for p in ConfigSampler(seed=6).sample_profiles("conv", 100):
            assert p.h_out >= 1 and p.w_out >= 1
