"""LoADPart reproduction: load-aware dynamic DNN partitioning for edge offloading.

Reimplementation of *LoADPart: Load-Aware Dynamic Partition of Deep Neural
Networks for Edge Offloading* (Liu, Zheng, Li, Guo — ICDCS 2022), together
with every substrate it needs: a computation-graph IR with a NumPy
executor, a 9-model zoo, calibrated device/GPU cost models with a
contention simulator, a network substrate, the offline profiling pipeline
(NNLS prediction models), and a discrete-event device-server runtime.

Quickstart::

    from repro import OfflineProfiler, LoADPartEngine, build_model

    report = OfflineProfiler().run()          # train M_user / M_edge
    engine = LoADPartEngine(
        build_model("alexnet"), report.user_predictor, report.edge_predictor
    )
    decision = engine.decide(bandwidth_up=8e6, k=1.0)
    print(decision.point, decision.predicted_latency)

See ``examples/`` for end-to-end scenarios and ``repro.experiments`` for
the regenerators of every table and figure in the paper.
"""

from repro.core import (
    FullOffloadStrategy,
    LoADPartEngine,
    LoadFactorMonitor,
    GpuWatchdog,
    LocalStrategy,
    NeurosurgeonStrategy,
    PartitionCache,
    PartitionDecision,
    dads_min_cut,
    partition_decision,
)
from repro.graph import (
    ComputationGraph,
    GraphBuilder,
    GraphPartitioner,
    PartitionedGraph,
    TensorSpec,
    fuse_graph,
    graph_from_json,
    graph_to_json,
)
from repro.hardware import (
    DeviceModel,
    DeviceParams,
    GpuModel,
    GpuParams,
    GpuScheduler,
    LOAD_LEVELS,
    LoadLevel,
    LoadSchedule,
    fig9_schedule,
)
from repro.models import EVALUATED_MODELS, build_model, list_models
from repro.network import BandwidthEstimator, Channel, ConstantTrace, StepTrace, TensorCodec, fig6_trace
from repro.nn import BACKENDS, GraphExecutor, GraphPlan, SegmentExecutor, SegmentPlan
from repro.profiling import LatencyPredictor, OfflineProfiler
from repro.runtime import MultiClientSystem, OffloadingSystem, SystemConfig

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "BandwidthEstimator",
    "Channel",
    "ComputationGraph",
    "ConstantTrace",
    "DeviceModel",
    "DeviceParams",
    "EVALUATED_MODELS",
    "FullOffloadStrategy",
    "GpuModel",
    "GpuParams",
    "GpuScheduler",
    "GpuWatchdog",
    "GraphBuilder",
    "GraphExecutor",
    "GraphPartitioner",
    "GraphPlan",
    "LOAD_LEVELS",
    "LatencyPredictor",
    "LoADPartEngine",
    "LoadFactorMonitor",
    "LoadLevel",
    "LoadSchedule",
    "LocalStrategy",
    "NeurosurgeonStrategy",
    "OfflineProfiler",
    "OffloadingSystem",
    "PartitionCache",
    "PartitionDecision",
    "PartitionedGraph",
    "SegmentExecutor",
    "SegmentPlan",
    "MultiClientSystem",
    "StepTrace",
    "SystemConfig",
    "TensorCodec",
    "fuse_graph",
    "TensorSpec",
    "build_model",
    "dads_min_cut",
    "fig6_trace",
    "fig9_schedule",
    "graph_from_json",
    "graph_to_json",
    "list_models",
    "partition_decision",
]
