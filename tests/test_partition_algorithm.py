"""Algorithm 1: correctness against brute force, tie-breaking, constraints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition_algorithm import (
    compute_prefix_device,
    compute_suffix_edge,
    partition_decision,
)
from tests.helpers import ZOO, brute_force


times = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


class TestAgainstBruteForce:
    @given(
        device=times,
        seed=st.integers(0, 2**31),
        bw=st.floats(1e5, 1e8),
        k=st.floats(1.0, 500.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, device, seed, bw, k):
        rng = np.random.default_rng(seed)
        n = len(device)
        edge = rng.random(n).tolist()
        sizes = (rng.integers(0, 10**6, n + 1)).tolist()
        sizes[n] = 0
        decision = partition_decision(device, edge, sizes, bw, k=k)
        bf_p, bf_val = brute_force(device, edge, sizes, bw, k)
        assert decision.point == bf_p
        assert decision.predicted_latency == pytest.approx(bf_val, rel=1e-9, abs=1e-12)


class TestZooAgainstBruteForce:
    """Algorithm 1 == brute-force argmin on every *real* zoo profile.

    The synthetic sweeps above draw random per-node times; this property
    runs the same check over the profiled device/edge times and transfer
    sizes of every zoo model, with random network conditions — the inputs
    the online decision loop actually sees.
    """

    @pytest.mark.parametrize("model_name", ZOO)
    @given(bw=st.floats(1e5, 1e8), k=st.floats(1.0, 500.0))
    @settings(max_examples=30, deadline=None)
    def test_zoo_profiles_match_brute_force(self, engine_for, model_name, bw, k):
        engine = engine_for(model_name)
        device, edge, sizes = (engine.device_times, engine.edge_times,
                               engine.sizes)
        decision = partition_decision(device, edge, sizes, bw, k=k)
        bf_p, bf_val = brute_force(device, edge, sizes, bw, k)
        assert decision.point == bf_p
        assert decision.predicted_latency == pytest.approx(
            bf_val, rel=1e-9, abs=1e-12)


class TestSemantics:
    def test_tie_break_prefers_latest(self):
        # All candidates equal: zero compute both sides, zero sizes.
        n = 5
        decision = partition_decision([0.0] * n, [0.0] * n, [0] * (n + 1), 8e6)
        assert decision.point == n  # local preferred on ties

    def test_huge_k_forces_local(self, alexnet_engine):
        device = alexnet_engine.device_times
        edge = alexnet_engine.edge_times
        sizes = alexnet_engine.sizes
        decision = partition_decision(device, edge, sizes, 8e6, k=1e6)
        assert decision.point == len(device)

    def test_fast_network_slow_device_forces_full_offload(self):
        device = [1.0, 1.0, 1.0]
        edge = [1e-6, 1e-6, 1e-6]
        sizes = [100, 100, 100, 0]
        decision = partition_decision(device, edge, sizes, 1e9)
        assert decision.point == 0

    def test_candidates_vector_shape(self):
        decision = partition_decision([0.1] * 4, [0.01] * 4, [10] * 4 + [0], 8e6)
        assert decision.candidates.shape == (5,)
        assert decision.predicted_latency == decision.candidates[decision.point]

    def test_is_local_and_full_flags(self):
        n = 3
        local = partition_decision([1e-9] * n, [1.0] * n, [10**9] * n + [0], 1e3)
        assert local.is_local and not local.is_full_offload
        full = partition_decision([10.0] * n, [1e-9] * n, [0, 10, 10, 0], 1e9)
        assert full.is_full_offload and not full.is_local

    def test_k_monotonically_discourages_offloading(self, alexnet_engine):
        """Larger k never moves the partition point earlier."""
        last_point = 0
        for k in (1.0, 2.0, 5.0, 10.0, 50.0, 200.0):
            point = alexnet_engine.decide(8e6, k=k).point
            assert point >= last_point
            last_point = point

    def test_bandwidth_monotonically_encourages_offloading(self, alexnet_engine):
        """More bandwidth never moves the partition point later."""
        last_point = alexnet_engine.num_nodes
        for bw in (1e6, 2e6, 4e6, 8e6, 16e6, 32e6, 64e6):
            point = alexnet_engine.decide(bw).point
            assert point <= last_point
            last_point = point


class TestValidation:
    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k"):
            partition_decision([1.0], [1.0], [1, 0], 8e6, k=0.5)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            partition_decision([1.0], [1.0], [1, 0], 0.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            partition_decision([1.0, 2.0], [1.0], [1, 1, 0], 8e6)
        with pytest.raises(ValueError):
            partition_decision([1.0], [1.0], [1, 1, 0], 8e6)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            partition_decision([-1.0], [1.0], [1, 0], 8e6)
        with pytest.raises(ValueError):
            partition_decision([1.0], [-1.0], [1, 0], 8e6)


class TestHelpers:
    def test_prefix_semantics(self):
        prefix = compute_prefix_device([1.0, 2.0, 3.0])
        np.testing.assert_allclose(prefix, [0, 1, 3, 6])

    def test_suffix_semantics(self):
        suffix = compute_suffix_edge([1.0, 2.0, 3.0])
        np.testing.assert_allclose(suffix, [6, 5, 3, 0])

    def test_precomputed_arrays_match_direct(self, alexnet_engine):
        direct = partition_decision(
            alexnet_engine.device_times,
            alexnet_engine.edge_times,
            alexnet_engine.sizes,
            8e6,
            k=3.0,
        )
        via_engine = alexnet_engine.decide(8e6, k=3.0)
        assert direct.point == via_engine.point
        np.testing.assert_allclose(direct.candidates, via_engine.candidates)


class TestDecideExitPins:
    """Deterministic (exit, point) pins on the profiled squeezenet exits."""

    def test_sla_none_is_decide_bitwise(self, squeezenet_exit_engine):
        eng = squeezenet_exit_engine
        plain = eng.decide(8e6, k=3.0)
        ed = eng.decide_exit(None, 8e6, k=3.0)
        assert ed.exit_index == eng.num_exits - 1
        assert ed.feasible is True
        assert ed.point == plain.point
        assert ed.predicted_latency == plain.predicted_latency
        assert np.array_equal(ed.candidates[0][0], plain.candidates)
        assert ed.exits == (eng.num_exits - 1,)

    def test_generous_sla_keeps_full_accuracy(self, squeezenet_exit_engine):
        eng = squeezenet_exit_engine
        plain = eng.decide(8e6, k=1.0)
        ed = eng.decide_exit(60.0, 8e6, k=1.0)
        assert ed.exit_index == eng.num_exits - 1
        assert ed.feasible is True
        assert ed.accuracy == eng.exit_accuracy()
        assert ed.point == plain.point
        assert ed.predicted_latency == plain.predicted_latency

    def test_impossible_sla_falls_back_to_fastest(self, squeezenet_exit_engine):
        eng = squeezenet_exit_engine
        ed = eng.decide_exit(1e-9, 8e6, k=1.0)
        assert ed.feasible is False
        latencies = ed.row_latencies[:, 0].tolist()
        assert ed.predicted_latency == min(latencies)
        assert ed.exit_index == latencies.index(min(latencies))

    def test_tight_sla_trades_accuracy_for_latency(self, squeezenet_exit_engine):
        eng = squeezenet_exit_engine
        full = eng.decide(8e6, k=1.0).predicted_latency
        fastest = min(
            eng.exit_engine(e).decide(8e6, k=1.0).predicted_latency
            for e in range(eng.num_exits))
        assert fastest < full  # early exits genuinely cheaper
        sla = (fastest + full) / 2
        ed = eng.decide_exit(sla, 8e6, k=1.0)
        assert ed.feasible is True
        assert ed.exit_index < eng.num_exits - 1
        assert ed.predicted_latency <= sla
        assert ed.accuracy < eng.exit_accuracy()
        # Latest feasible: every later exit misses the deadline.
        for e in range(ed.exit_index + 1, eng.num_exits):
            assert ed.row_latencies[e, 0] > sla

    def test_accuracy_monotone_over_sla_grid(self, squeezenet_exit_engine):
        eng = squeezenet_exit_engine
        grid = [0.001, 0.01, 0.05, 0.1, 0.5, 2.0, 60.0]
        accs = [eng.decide_exit(s, 8e6, k=1.0).accuracy for s in grid]
        assert accs == sorted(accs)

    def test_invalid_sla_rejected(self, squeezenet_exit_engine):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sla_s"):
                squeezenet_exit_engine.decide_exit(bad, 8e6)

    def test_exit_free_engine_decide_exit_is_decide(self, alexnet_engine):
        eng = alexnet_engine
        plain = eng.decide(8e6, k=2.0)
        for sla in (None, 0.05, 100.0):
            ed = eng.decide_exit(sla, 8e6, k=2.0)
            assert ed.exit_index == 0
            assert ed.point == plain.point
            assert ed.predicted_latency == plain.predicted_latency
            assert ed.accuracy == 1.0
