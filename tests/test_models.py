"""Model zoo: structure, shapes, FLOPs, paper-specific facts."""

import pytest

from repro.models import EVALUATED_MODELS, build_model, list_models


class TestRegistry:
    def test_list_models(self):
        models = list_models()
        for name in ("alexnet", "vgg16", "resnet18", "resnet50", "resnet101",
                     "resnet152", "squeezenet", "xception", "inception_v3",
                     "mobilenet_v1", "mobilenet_v2"):
            assert name in models

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("lenet")

    def test_build_model_fresh(self):
        assert build_model("alexnet") is not build_model("alexnet")

    def test_evaluated_models_are_the_papers_six(self):
        assert set(EVALUATED_MODELS) == {
            "alexnet", "squeezenet", "vgg16", "resnet18", "resnet50", "xception"
        }


class TestInputShapes:
    """§V-A: SqueezeNet 227, Xception/Inception 299, rest 224."""

    @pytest.mark.parametrize("model,size", [
        ("alexnet", 224), ("vgg16", 224), ("resnet18", 224), ("resnet50", 224),
        ("squeezenet", 227), ("xception", 299), ("inception_v3", 299),
        ("mobilenet_v1", 224), ("mobilenet_v2", 224),
    ])
    def test_input_shape(self, model, size):
        assert build_model(model).input_spec.shape == (1, 3, size, size)

    @pytest.mark.parametrize("model", list_models())
    def test_output_is_1000_classes(self, model):
        assert build_model(model).output_spec.shape == (1, 1000)


class TestStructure:
    def test_alexnet_has_27_nodes(self):
        """Matches the paper: p=27 is local inference for AlexNet."""
        assert len(build_model("alexnet")) == 27

    def test_alexnet_partition_landmarks(self):
        g = build_model("alexnet")
        order = g.topological_order()
        assert order[3] == "maxpool1"    # p=4 cuts right after MaxPool-1
        assert order[7] == "maxpool2"    # p=8 cuts right after MaxPool-2 (Fig. 1)
        assert order[18] == "flatten"    # p=19 cuts right after Flatten

    def test_vgg16_has_13_convs(self):
        g = build_model("vgg16")
        convs = [n for n in g.nodes.values() if n.op == "conv2d"]
        assert len(convs) == 13

    def test_resnet_depths(self):
        for depth, blocks in ((18, 8), (50, 16), (101, 33), (152, 50)):
            g = build_model(f"resnet{depth}")
            adds = [n for n in g.nodes.values() if n.op == "add"]
            assert len(adds) == blocks

    def test_squeezenet_has_8_fires(self):
        g = build_model("squeezenet")
        concats = [n for n in g.nodes.values() if n.op == "concat"]
        assert len(concats) == 8

    def test_squeezenet_squeeze_cuts_are_narrow(self):
        """The squeeze bottleneck is why partial offloading pays off."""
        g = build_model("squeezenet")
        sizes = g.transmission_sizes()
        # Some interior cut must be far smaller than the input.
        assert min(sizes[1:-1]) < g.input_spec.nbytes / 5

    def test_xception_uses_dwconv(self):
        g = build_model("xception")
        dws = [n for n in g.nodes.values() if n.op == "dwconv2d"]
        assert len(dws) == 34  # 2 per sepconv block x 17 sepconvs

    def test_mobilenet_v1_structure(self):
        g = build_model("mobilenet_v1")
        dws = [n for n in g.nodes.values() if n.op == "dwconv2d"]
        assert len(dws) == 13

    def test_mobilenet_v2_residuals(self):
        g = build_model("mobilenet_v2")
        adds = [n for n in g.nodes.values() if n.op == "add"]
        assert len(adds) == 10  # inverted residuals with stride 1, equal dims

    def test_resnet_block_interior_cut_width(self):
        g = build_model("resnet18")
        widths = {c.index: c.width for c in g.cuts()}
        assert max(widths.values()) >= 2  # cuts inside residual blocks

    @pytest.mark.parametrize("model", list_models())
    def test_all_models_validate(self, model):
        build_model(model).validate()

    @pytest.mark.parametrize("model", list_models())
    def test_all_models_have_positive_flops(self, model):
        assert build_model(model).total_flops() > 1e8


class TestFlopsReference:
    """Totals against well-known literature numbers (MAC counts)."""

    @pytest.mark.parametrize("model,lo,hi", [
        ("alexnet", 0.65, 0.80),
        ("vgg16", 15.0, 16.0),
        ("resnet18", 1.7, 2.0),
        ("resnet50", 3.8, 4.3),
        ("resnet101", 7.5, 8.1),
        ("resnet152", 11.2, 11.9),
        ("inception_v3", 5.3, 6.0),
        ("xception", 8.0, 9.0),
        ("squeezenet", 0.3, 0.45),
        ("mobilenet_v1", 0.5, 0.65),
        ("mobilenet_v2", 0.28, 0.36),
    ])
    def test_gflops_in_range(self, model, lo, hi):
        assert lo <= build_model(model).total_flops() / 1e9 <= hi

    @pytest.mark.parametrize("model,lo,hi", [
        ("alexnet", 230, 260),     # ~61M params
        ("vgg16", 520, 560),       # ~138M params
        ("resnet50", 95, 110),     # ~25.5M params
        ("squeezenet", 4.5, 5.5),  # ~1.24M params
    ])
    def test_param_megabytes(self, model, lo, hi):
        assert lo <= build_model(model).total_param_bytes() / 1e6 <= hi
