"""Device cost model: structure, calibration bands, noise."""

import numpy as np
import pytest

from repro.hardware.device_model import DeviceModel, DeviceParams, lognormal_factor
from repro.models import MODEL_BUILDERS, build_model
from repro.profiling.features import profile_graph
from tests.test_features import make_profile


@pytest.fixture(scope="module")
def device():
    return DeviceModel()


class TestStructure:
    def test_uncategorised_nodes_are_free(self, device):
        p = make_profile("flatten", (1, 8, 4, 4))
        assert device.mean_time(p) == 0.0

    def test_monotone_in_flops(self, device):
        small = make_profile("conv2d", (1, 64, 28, 28), out_channels=64, kernel=3, padding=1)
        large = make_profile("conv2d", (1, 64, 28, 28), out_channels=256, kernel=3, padding=1)
        assert device.mean_time(large) > device.mean_time(small)

    def test_few_channel_penalty(self, device):
        # Same FLOPs, different channel balance: 3-in is less efficient.
        few = make_profile("conv2d", (1, 3, 56, 56), out_channels=64, kernel=3, padding=1)
        many = make_profile("conv2d", (1, 64, 56, 56), out_channels=3, kernel=3, padding=1)
        assert few.flops == many.flops
        assert device.mean_time(few) > device.mean_time(many)

    def test_cache_spill_penalty(self, device):
        # Equal FLOPs; the large-map config has a far bigger working set.
        big_map = make_profile("conv2d", (1, 16, 112, 112), out_channels=64, kernel=3, padding=1)
        small_map = make_profile("conv2d", (1, 256, 28, 28), out_channels=64, kernel=3, padding=1)
        assert big_map.flops == small_map.flops
        per_flop_big = device.mean_time(big_map) / big_map.flops
        per_flop_small = device.mean_time(small_map) / small_map.flops
        assert per_flop_big > per_flop_small

    def test_setup_cost_amortises(self, device):
        tiny = make_profile("conv2d", (1, 64, 14, 14), out_channels=16, kernel=1)
        per_flop_tiny = device.mean_time(tiny) / tiny.flops
        big = make_profile("conv2d", (1, 256, 56, 56), out_channels=256, kernel=3, padding=1)
        per_flop_big = device.mean_time(big) / big.flops
        assert per_flop_tiny > 3 * per_flop_big

    def test_matmul_includes_weight_streaming(self, device):
        p = make_profile("matmul", (1, 9216), out_features=4096)
        weight_stream = p.param_bytes / device.params.mem_bandwidth
        assert device.mean_time(p) > weight_stream

    def test_pointwise_cache_discount(self):
        params = DeviceParams()
        device = DeviceModel(params)
        pw = make_profile("conv2d", (1, 728, 37, 37), out_channels=728, kernel=1)
        spatial = make_profile("conv2d", (1, 728, 37, 37), out_channels=728, kernel=3, padding=1)
        # The 3x3 has 9x the FLOPs; per-FLOP it must still be slower than
        # the streaming 1x1 at this working-set size.
        assert device.mean_time(spatial) / spatial.flops > device.mean_time(pw) / pw.flops


class TestCalibration:
    """Local-inference times against the paper's stated values."""

    @pytest.mark.parametrize("model,lo,hi", [
        ("alexnet", 0.20, 0.40),     # Figs. 1/7 imply a few hundred ms
        ("vgg16", 4.6, 6.5),         # paper: ~5.2 s
        ("xception", 1.5, 2.6),      # paper: ~1.8 s
        ("resnet18", 0.40, 0.61),    # must be under the 8 Mbps full-offload time
        ("squeezenet", 0.15, 0.40),
        ("resnet50", 0.8, 1.7),
    ])
    def test_local_inference_bands(self, device, model, lo, hi):
        total = device.mean_graph_time(profile_graph(build_model(model)))
        assert lo <= total <= hi, f"{model}: {total:.3f}s outside [{lo}, {hi}]"

    def test_resnet18_local_beats_8mbps_offload(self, device):
        """§V-B/V-C: ResNet18 runs locally at 8 Mbps."""
        graph = build_model("resnet18")
        local = device.mean_graph_time(profile_graph(graph))
        upload = graph.input_spec.nbytes * 8 / 8e6
        assert local < upload

    def test_vgg_prefix_dwarfs_1mbps_upload(self, device):
        """§V-B: any VGG16 prefix on the device loses to uploading raw input."""
        graph = build_model("vgg16")
        profiles = profile_graph(graph)
        upload_1mbps = graph.input_spec.nbytes * 8 / 1e6
        sizes = graph.transmission_sizes()
        device_prefix = 0.0
        for i, profile in enumerate(profiles, start=1):
            device_prefix += device.mean_time(profile)
            if sizes[i] < graph.input_spec.nbytes:
                # Earliest viable partition point: prefix must already lose.
                assert device_prefix + sizes[i] * 8 / 1e6 > upload_1mbps
                break


class TestNoise:
    def test_lognormal_factor_mean_one(self, rng):
        samples = [lognormal_factor(rng, 0.1) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)

    def test_zero_sigma_is_deterministic(self, rng):
        assert lognormal_factor(rng, 0.0) == 1.0

    def test_sample_time_close_to_mean(self, device, rng):
        p = make_profile("conv2d", (1, 64, 28, 28), out_channels=64, kernel=3, padding=1)
        samples = [device.sample_time(p, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(device.mean_time(p), rel=0.02)

    def test_sample_graph_time_positive(self, device, rng, chain_graph):
        assert device.sample_graph_time(profile_graph(chain_graph), rng) > 0


def scalar_graph_time(model, profiles, rng):
    """Scalar reference: one draw per node, summed with the built-in sum."""
    sigma = model.params.noise_sigma
    return sum(model.mean_time(p) * lognormal_factor(rng, sigma) for p in profiles)


@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
class TestSegmentSampling:
    """Vector segment draws against the per-node scalar reference."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_bit_identical_to_scalar_draws(self, model, seed):
        device = DeviceModel()
        profiles = profile_graph(build_model(model))
        n = len(profiles)
        for point in (0, n // 2, n):
            vec, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            head = device.sample_graph_time(profiles, vec, stop=point)
            tail = device.sample_graph_time(profiles, vec, start=point)
            assert head == scalar_graph_time(device, profiles[:point], ref)
            assert tail == scalar_graph_time(device, profiles[point:], ref)
            assert type(head) is float and type(tail) is float
            assert vec.bit_generator.state == ref.bit_generator.state

    def test_zero_sigma_consumes_no_draws(self, model):
        device = DeviceModel(DeviceParams(noise_sigma=0.0))
        profiles = profile_graph(build_model(model))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        n = len(profiles)
        for point in (0, n // 2, n):
            head = device.sample_graph_time(profiles, rng, stop=point)
            assert head == sum(device.mean_time(p) for p in profiles[:point])
            assert type(head) is float
        assert rng.bit_generator.state == before


class TestMeanTable:
    def test_means_cached_per_list_identity(self, device, chain_graph):
        profiles = profile_graph(chain_graph)
        table = device.mean_times(profiles)
        assert device.mean_times(profiles) is table
        assert table.tolist() == [device.mean_time(p) for p in profiles]
        copy = list(profiles)
        assert device.mean_times(copy) is not table
        assert device.mean_times(copy).tolist() == table.tolist()

    def test_fresh_lists_do_not_grow_the_table(self, chain_graph):
        device = DeviceModel()
        for _ in range(3 * device.MEANS_CACHE_LIMIT):
            device.mean_times(profile_graph(chain_graph))
        assert len(device._means) <= device.MEANS_CACHE_LIMIT
