"""Availability of the resilient offload path under injected faults.

Four deterministic fault scenarios run twice each — once with the legacy
trusting client (the paper's runtime, which blocks forever on a dead
transfer or a silent server) and once with the resilient client
(deadlines from the engine's own latency prediction, bounded retries with
exponential backoff, circuit breaker with probe-driven recovery, local
fallback):

- ``no_fault``      — sanity: both arms must behave identically.
- ``flaky_link``    — per-transfer drop probability + latency spikes.
- ``server_crash``  — the server dies for a window mid-run (cache and
  load-factor state are wiped on restart).
- ``overload``      — a client fleet overwhelms bounded admission; the
  server sheds load with BusyReply.

Headline metrics: **availability** (completed / issued), **fallback rate**
(requests resolved locally after giving up on the offload path), and
completed-request latency.  A ``stalled`` arm stopped issuing requests
before the horizon because a request never completed — that is what
resilience buys us out of.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform

import numpy as np

from records_digest import records_digest

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

MODEL = "squeezenet"
DURATION_S = 60.0
OVERLOAD_DURATION_S = 20.0
OVERLOAD_CLIENTS = 8


def _scenarios():
    from repro.network.faults import FaultPlan, ServerFaultPlan

    return {
        "no_fault": {},
        "flaky_link": {
            "faults": FaultPlan(drop_prob=0.08, latency_spike_prob=0.05,
                                latency_spike_s=0.25, seed=11),
        },
        "server_crash": {
            "server_faults": ServerFaultPlan(crash_windows=((10.0, 25.0),)),
        },
        "overload": {
            "server_faults": ServerFaultPlan(queue_limit=4, retry_after_s=0.05,
                                             admission_window_s=0.25),
        },
    }


def _summarise(timeline, duration_s: float) -> dict:
    records = timeline.records
    issued = len(records)
    completed = timeline.completed
    statuses: dict = {}
    for r in records:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    return {
        "issued": issued,
        "completed": len(completed),
        "availability": round(timeline.availability(), 4) if issued else None,
        "fallback_rate": round(timeline.fallback_rate(), 4) if issued else None,
        "retries_per_request": round(
            sum(r.retries for r in records) / issued, 4) if issued else None,
        "mean_ms": round(completed.mean_latency() * 1e3, 2) if len(completed) else None,
        "p95_ms": (round(completed.percentile_latency(95) * 1e3, 2)
                   if len(completed) else None),
        "throughput_rps": round(len(completed) / duration_s, 2),
        "statuses": statuses,
        "stalled": len(completed) < issued,
        "records_digest": records_digest(records),
    }


def run_single(engine, scenario: dict, resilience, seed: int, duration_s: float):
    from repro.runtime.system import OffloadingSystem, SystemConfig

    config = SystemConfig(seed=seed, resilience=resilience, **scenario)
    return OffloadingSystem(engine, config=config).run(duration_s)


def run_fleet(engine, scenario: dict, resilience, seed: int, duration_s: float):
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    # policy="full" keeps every client on the offload path, so bounded
    # admission is actually contended.
    config = SystemConfig(seed=seed, policy="full", resilience=resilience,
                          **scenario)
    return MultiClientSystem(engine, OVERLOAD_CLIENTS, config=config).run(duration_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    from repro.core.engine import LoADPartEngine
    from repro.models import build_model
    from repro.profiling.offline import OfflineProfiler
    from repro.runtime.resilience import ResilienceConfig

    report_prof = OfflineProfiler(samples_per_category=150, seed=3).run()
    engine = LoADPartEngine(build_model(MODEL), report_prof.user_predictor,
                            report_prof.edge_predictor)
    resilience = ResilienceConfig()

    results = []
    for name, scenario in _scenarios().items():
        fleet = name == "overload"
        duration = OVERLOAD_DURATION_S if fleet else args.duration
        runner = run_fleet if fleet else run_single
        arms = {}
        for arm, cfg in (("naive", None), ("resilient", resilience)):
            arms[arm] = _summarise(runner(engine, scenario, cfg, args.seed, duration),
                                   duration)
        results.append({"scenario": name, "duration_s": duration,
                        "clients": OVERLOAD_CLIENTS if fleet else 1,
                        "arms": arms})
        for arm in ("naive", "resilient"):
            row = arms[arm]
            mean = f"{row['mean_ms']:.1f}" if row["mean_ms"] is not None else "-"
            print(f"{name:13s} {arm:10s} issued {row['issued']:4d}  "
                  f"avail {row['availability']:.3f}  "
                  f"fallback {row['fallback_rate']:.3f}  mean {mean} ms  "
                  f"stalled={row['stalled']}")

    res_avail = [r["arms"]["resilient"]["availability"] for r in results]
    no_fault = results[0]["arms"]
    report = {
        "benchmark": "resilience",
        "model": MODEL,
        "seed": args.seed,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        # Gate metrics: the resilient arm must complete everything, and
        # resilience must cost nothing when nothing fails.
        "min_resilient_availability": min(res_avail),
        "no_fault_mean_delta_ms": round(
            abs(no_fault["resilient"]["mean_ms"] - no_fault["naive"]["mean_ms"]), 3),
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nmin resilient availability {report['min_resilient_availability']:.3f}, "
          f"no-fault mean delta {report['no_fault_mean_delta_ms']:.3f} ms "
          f"-> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
