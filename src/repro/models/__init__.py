"""Model zoo: the DNNs the paper evaluates or uses as background load.

Evaluated (paper §V): AlexNet, VGG16, ResNet18, ResNet50, SqueezeNet,
Xception.  Used elsewhere: ResNet101 (Fig. 2), ResNet152 (background load
generator), InceptionV3 (the §III-D block-cut analysis).

All models are built as :class:`~repro.graph.graph.ComputationGraph` objects
with batch size 1 and the input sizes of the paper: 1x3x227x227 for
SqueezeNet, 1x3x299x299 for Xception/InceptionV3, 1x3x224x224 otherwise.
"""

from typing import Callable, Dict, List, Tuple

from repro.graph.exits import ExitBranch, build_exit_branches
from repro.graph.graph import ComputationGraph
from repro.models.alexnet import build_alexnet
from repro.models.inception import build_inception_v3
from repro.models.mobilenet import (
    build_mobilenet_v1,
    build_mobilenet_v2,
    mobilenet_exit_specs,
)
from repro.models.resnet import build_resnet, resnet_exit_specs
from repro.models.squeezenet import build_squeezenet, squeezenet_exit_specs
from repro.models.vgg import build_vgg16
from repro.models.xception import build_xception

MODEL_BUILDERS: Dict[str, Callable[[], ComputationGraph]] = {
    "alexnet": build_alexnet,
    "vgg16": build_vgg16,
    "resnet18": lambda: build_resnet(18),
    "resnet50": lambda: build_resnet(50),
    "resnet101": lambda: build_resnet(101),
    "resnet152": lambda: build_resnet(152),
    "squeezenet": build_squeezenet,
    "xception": build_xception,
    "inception_v3": build_inception_v3,
    "mobilenet_v1": build_mobilenet_v1,
    "mobilenet_v2": build_mobilenet_v2,
}

#: The six DNNs of the paper's evaluation section, in its order.
EVALUATED_MODELS: List[str] = [
    "alexnet",
    "squeezenet",
    "vgg16",
    "resnet18",
    "resnet50",
    "xception",
]

#: Families carrying declared early-exit sets (BranchyNet-style heads).
#: Each entry maps to a zero-arg callable returning ``(specs, final_acc)``.
EXIT_MODEL_SPECS: Dict[str, Callable[[], tuple]] = {
    "resnet18": resnet_exit_specs,
    "mobilenet_v1": mobilenet_exit_specs,
    "squeezenet": squeezenet_exit_specs,
}


def build_model(name: str) -> ComputationGraph:
    """Build a fresh computation graph for ``name`` (no caching)."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}") from None
    return builder()


def list_models() -> List[str]:
    return sorted(MODEL_BUILDERS)


def build_exit_model(name: str) -> Tuple[ComputationGraph, Tuple[ExitBranch, ...]]:
    """Build ``name``'s backbone plus its declared early-exit branches.

    The returned branch tuple ends with the backbone itself (the final
    exit), ready to pass straight to ``LoADPartEngine(exits=...)``.
    """
    try:
        spec_fn = EXIT_MODEL_SPECS[name]
    except KeyError:
        raise KeyError(
            f"model {name!r} declares no exits; available: {sorted(EXIT_MODEL_SPECS)}"
        ) from None
    graph = build_model(name)
    specs, final_accuracy = spec_fn()
    return graph, build_exit_branches(graph, specs, final_accuracy)


__all__ = [
    "EVALUATED_MODELS",
    "EXIT_MODEL_SPECS",
    "MODEL_BUILDERS",
    "build_exit_model",
    "build_alexnet",
    "build_inception_v3",
    "build_mobilenet_v1",
    "build_mobilenet_v2",
    "build_model",
    "build_resnet",
    "build_squeezenet",
    "build_vgg16",
    "build_xception",
    "list_models",
]
