"""Fig. 9 — load-aware partitioning vs Neurosurgeon under varying load.

The headline experiment.  Upload bandwidth is fixed at 8 Mbps; the server
GPU background load follows the schedule 0% -> 100%(l) -> 100%(h) -> 0%.
LoADPart and the Neurosurgeon baseline (bandwidth-aware, load-oblivious)
each run the full runtime; the result per model is the latency/partition
time series plus the paper's summary statistics:

- mean end-to-end latency reduction vs the baseline, and
- the maximum reduction over sliding windows (the paper's "up to X% in
  some specific cases").

Paper values: AlexNet -4.95% mean / -39.4% max; SqueezeNet -14.2% mean /
-32.3% max; VGG16, Xception and ResNet18 unchanged (their optimal policy
is load-independent); ResNet50 close to baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.context import default_engine
from repro.experiments.reporting import ms, pct, render_table
from repro.hardware.background import fig9_schedule
from repro.models import EVALUATED_MODELS
from repro.network.traces import ConstantTrace
from repro.runtime.system import OffloadingSystem, SystemConfig, Timeline


@dataclass(frozen=True)
class Fig9ModelResult:
    model: str
    loadpart: Timeline
    baseline: Timeline
    mean_reduction: float
    max_window_reduction: float
    loadpart_points: Tuple[int, ...]
    baseline_points: Tuple[int, ...]


@dataclass(frozen=True)
class Fig9Result:
    duration_s: float
    per_model: Dict[str, Fig9ModelResult]


def _window_reduction(loadpart: Timeline, baseline: Timeline,
                      duration_s: float, window_s: float = 10.0) -> float:
    """Max latency reduction over aligned time windows."""
    best = 0.0
    t = 0.0
    while t < duration_s:
        lp = loadpart.between(t, t + window_s)
        bl = baseline.between(t, t + window_s)
        if len(lp) >= 3 and len(bl) >= 3:
            reduction = 1.0 - lp.mean_latency() / bl.mean_latency()
            best = max(best, reduction)
        t += window_s
    return best


def run_fig9(
    models: Sequence[str] = tuple(EVALUATED_MODELS),
    duration_s: float = 260.0,
    bandwidth_bps: float = 8e6,
    seed: int = 0,
) -> Fig9Result:
    per_model: Dict[str, Fig9ModelResult] = {}
    for model in models:
        engine = default_engine(model)
        timelines: Dict[str, Timeline] = {}
        for policy in ("loadpart", "neurosurgeon"):
            system = OffloadingSystem(
                engine,
                bandwidth_trace=ConstantTrace(bandwidth_bps),
                load_schedule=fig9_schedule(),
                config=SystemConfig(policy=policy, seed=seed),
            )
            timelines[policy] = system.run(duration_s)
        lp, bl = timelines["loadpart"], timelines["neurosurgeon"]
        per_model[model] = Fig9ModelResult(
            model=model,
            loadpart=lp,
            baseline=bl,
            mean_reduction=1.0 - lp.mean_latency() / bl.mean_latency(),
            max_window_reduction=_window_reduction(lp, bl, duration_s),
            loadpart_points=tuple(sorted(set(lp.points.tolist()))),
            baseline_points=tuple(sorted(set(bl.points.tolist()))),
        )
    return Fig9Result(duration_s=duration_s, per_model=per_model)


PAPER_FIG9 = {
    "alexnet": (0.0495, 0.394),
    "squeezenet": (0.142, 0.323),
    "vgg16": (0.0, 0.0),
    "resnet18": (0.0, 0.0),
    "resnet50": (0.0, 0.0),
    "xception": (0.0, 0.0),
}


def format_fig9(result: Fig9Result) -> str:
    rows = []
    for model, r in result.per_model.items():
        paper_mean, paper_max = PAPER_FIG9.get(model, (float("nan"), float("nan")))
        rows.append(
            (
                model,
                ms(r.loadpart.mean_latency()),
                ms(r.baseline.mean_latency()),
                pct(r.mean_reduction),
                pct(r.max_window_reduction),
                f"{paper_mean * 100:.1f}%/{paper_max * 100:.1f}%",
                ",".join(map(str, r.loadpart_points)),
                ",".join(map(str, r.baseline_points)),
            )
        )
    table = render_table(
        [
            "model", "LoADPart(ms)", "baseline(ms)", "mean reduction",
            "max reduction", "paper mean/max", "LoADPart p", "baseline p",
        ],
        rows,
    )
    return table + (
        "\n(VGG16/Xception/ResNet18: paper reports no baseline difference; "
        "ResNet50 close to baseline)"
    )

