"""GPU kernel model and the time-sliced contention scheduler."""

import numpy as np
import pytest

from repro.hardware.background import IDLE, U100H, U100L, U30, U90
from repro.hardware.device_model import lognormal_factor
from repro.hardware.gpu_model import GpuModel, GpuParams
from repro.hardware.gpu_scheduler import GpuScheduler
from repro.models import MODEL_BUILDERS, build_model
from repro.profiling.features import profile_graph
from tests.test_features import make_profile


@pytest.fixture(scope="module")
def gpu():
    return GpuModel()


@pytest.fixture(scope="module")
def scheduler():
    return GpuScheduler()


class TestGpuModel:
    def test_kernel_floor(self, gpu):
        tiny = make_profile("relu", (1, 4, 4, 4))
        assert gpu.mean_time(tiny) >= gpu.params.min_kernel_time

    def test_launch_overhead_included(self, gpu):
        tiny = make_profile("relu", (1, 4, 4, 4))
        assert gpu.mean_time(tiny) >= gpu.params.min_kernel_time + gpu.params.launch_overhead

    def test_occupancy_penalises_small_convs(self, gpu):
        small = make_profile("conv2d", (1, 16, 14, 14), out_channels=16, kernel=1)
        big = make_profile("conv2d", (1, 256, 56, 56), out_channels=256, kernel=3, padding=1)
        assert gpu.mean_time(small) / small.flops > gpu.mean_time(big) / big.flops

    def test_uncategorised_free(self, gpu):
        assert gpu.mean_time(make_profile("flatten", (1, 4, 4, 4))) == 0.0

    def test_server_is_orders_faster_than_device(self, gpu):
        from repro.hardware.device_model import DeviceModel

        profiles = profile_graph(build_model("vgg16"))
        server = gpu.mean_graph_time(profiles)
        device = DeviceModel().mean_graph_time(profiles)
        assert device > 100 * server

    def test_idle_server_times_are_milliseconds(self, gpu):
        """Fig. 1: server compute is negligible when idle."""
        for model in ("alexnet", "vgg16", "resnet50"):
            total = gpu.mean_graph_time(profile_graph(build_model(model)))
            assert total < 0.03, model

    def test_kernel_times_match_mean(self, gpu, chain_graph):
        profiles = profile_graph(chain_graph)
        assert sum(gpu.kernel_times(profiles)) == pytest.approx(
            gpu.mean_graph_time(profiles)
        )

    def test_sampled_kernels_near_mean(self, gpu, rng, chain_graph):
        profiles = profile_graph(chain_graph)
        totals = [sum(gpu.sample_kernel_times(profiles, rng)) for _ in range(300)]
        assert np.mean(totals) == pytest.approx(gpu.mean_graph_time(profiles), rel=0.03)


def scalar_kernel_times(gpu, profiles, rng):
    """Scalar reference: one draw per kernel, in order."""
    sigma = gpu.params.noise_sigma
    return [gpu.mean_time(p) * lognormal_factor(rng, sigma) for p in profiles]


@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
class TestSegmentSampling:
    """Vector segment draws against the per-kernel scalar reference."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_bit_identical_to_scalar_draws(self, model, seed):
        gpu = GpuModel()
        profiles = profile_graph(build_model(model))
        n = len(profiles)
        for point in (0, n // 2, n):
            vec, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            head = gpu.sample_kernel_times(profiles, vec, stop=point)
            tail = gpu.sample_kernel_times(profiles, vec, start=point)
            assert head == scalar_kernel_times(gpu, profiles[:point], ref)
            assert tail == scalar_kernel_times(gpu, profiles[point:], ref)
            assert all(type(t) is float for t in head + tail)
            assert vec.bit_generator.state == ref.bit_generator.state

    def test_zero_sigma_consumes_no_draws(self, model):
        gpu = GpuModel(GpuParams(noise_sigma=0.0))
        profiles = profile_graph(build_model(model))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        n = len(profiles)
        for point in (0, n // 2, n):
            tail = gpu.sample_kernel_times(profiles, rng, start=point)
            assert tail == gpu.kernel_times(profiles[point:])
            assert all(type(t) is float for t in tail)
        assert rng.bit_generator.state == before


class TestScheduler:
    def test_idle_is_sum_of_kernels(self, scheduler):
        kernels = [1e-3, 2e-3, 0.5e-3]
        assert scheduler.execute(kernels, IDLE) == pytest.approx(sum(kernels))

    def test_empty_sequence(self, scheduler, rng):
        assert scheduler.execute([], U100H, rng) == 0.0

    def test_load_requires_rng(self, scheduler):
        with pytest.raises(ValueError, match="Generator"):
            scheduler.execute([1e-3], U100H)

    def test_load_never_speeds_up(self, scheduler, rng):
        kernels = [0.2e-3] * 30
        base = sum(kernels)
        for _ in range(50):
            assert scheduler.execute(kernels, U100H, rng) >= base

    def test_mean_ordering_by_level(self, scheduler, rng):
        kernels = [0.1e-3] * 50
        means = {}
        for level in (U30, U90, U100L, U100H):
            means[level.name] = np.mean(
                [scheduler.execute(kernels, level, rng) for _ in range(300)]
            )
        assert means["30%"] < means["90%"] < means["100%(l)"] < means["100%(h)"]

    def test_variance_grows_with_load(self, scheduler, rng):
        """Fig. 2: latencies fluctuate strongly under heavy load."""
        kernels = [0.1e-3] * 50
        std_low = np.std([scheduler.execute(kernels, U30, rng) for _ in range(300)])
        std_high = np.std([scheduler.execute(kernels, U100H, rng) for _ in range(300)])
        assert std_high > 5 * std_low

    def test_single_short_kernel_barely_affected_at_moderate_load(self, scheduler, rng):
        """§III-C: a single kernel usually completes in its slice."""
        single = [0.2e-3]
        samples = [scheduler.execute(single, U30, rng) for _ in range(2000)]
        unaffected = sum(1 for s in samples if s == pytest.approx(single[0], rel=1e-9))
        assert unaffected / len(samples) > 0.9

    def test_many_kernel_partition_suffers_more_than_single(self, scheduler, rng):
        """§III-C: partitions of many kernels are interrupted between kernels."""
        total = 2e-3
        single_slow = np.mean(
            [scheduler.execute([total], U100H, rng) for _ in range(300)]
        ) / total
        many_slow = np.mean(
            [scheduler.execute([total / 40] * 40, U100H, rng) for _ in range(300)]
        ) / total
        assert many_slow > 2 * single_slow

    def test_100h_worse_than_100l_at_equal_utilisation(self, scheduler, rng):
        kernels = [0.1e-3] * 40
        low = np.mean([scheduler.execute(kernels, U100L, rng) for _ in range(300)])
        high = np.mean([scheduler.execute(kernels, U100H, rng) for _ in range(300)])
        assert high > 2 * low

    def test_mean_execute_approximates_empirical(self, scheduler, rng):
        kernels = [0.15e-3] * 60
        empirical = np.mean([scheduler.execute(kernels, U100L, rng) for _ in range(2000)])
        analytic = scheduler.mean_execute(kernels, U100L)
        assert analytic == pytest.approx(empirical, rel=0.15)

    def test_mean_slowdown_at_idle_is_one(self, scheduler):
        kernels = [1e-3] * 5
        assert scheduler.mean_execute(kernels, IDLE) == sum(kernels)

    def test_forced_yield_after_slice_exhaustion(self, rng):
        """A kernel longer than the slice forces a yield before the next."""
        scheduler = GpuScheduler(time_slice_s=1e-3)
        kernels = [5e-3, 1e-6]
        # Under saturation the second kernel always waits.
        samples = [scheduler.execute(kernels, U100H, rng) for _ in range(100)]
        assert min(samples) > sum(kernels)

    def test_invalid_slice(self):
        with pytest.raises(ValueError):
            GpuScheduler(time_slice_s=0.0)
