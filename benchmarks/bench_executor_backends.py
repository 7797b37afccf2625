"""End-to-end executor backend benchmark: naive vs planned.

Times repeated whole-graph inference for one representative of each of the
seven model families (the compile-once / run-many regime the planned
backend is designed for), verifies bit-identity of the outputs, and writes
``BENCH_executor.json``.

The reported statistic is the **minimum** over repetitions: on shared or
thermally-throttled hosts the minimum is the stable estimate of what the
code costs, while means absorb scheduler noise.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_executor_backends.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

#: One representative per family named in the paper's evaluation set.
FAMILIES = {
    "AlexNet": "alexnet",
    "VGG": "vgg16",
    "ResNet": "resnet18",
    "SqueezeNet": "squeezenet",
    "MobileNet": "mobilenet_v1",
    "Inception": "inception_v3",
    "Xception": "xception",
}

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_executor.json"


def _time_runs(run, x, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(x)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_model(model_name: str, repeats: int, seed: int = 0) -> dict:
    from repro.models import build_model
    from repro.nn import GraphExecutor
    from repro.nn.executor import init_parameters
    from repro.nn.plan import GraphPlan

    graph = build_model(model_name)
    # Parameter materialisation is a shared cost of both backends (the
    # naive executor pays the identical init), so compile_ms times only
    # what the planned backend adds: plan compilation + autotuning.
    params = init_parameters((graph.node(n) for n in graph.topological_order()), seed)
    # The plan is built ``repeats`` times: the first build is the one run
    # and described below, and compile_ms is the fastest build.
    t0 = time.perf_counter()
    plan = GraphPlan(graph, seed=seed, params=params)
    compile_s = time.perf_counter() - t0
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        GraphPlan(graph, seed=seed, params=params)
        compile_s = min(compile_s, time.perf_counter() - t0)
    naive = GraphExecutor(graph, seed=seed, params=plan.params)
    x = np.random.default_rng(1).standard_normal(graph.input_spec.shape).astype(np.float32)

    ref = naive.run(x)
    out = plan.run(x)
    bit_identical = bool(np.array_equal(ref, out) and np.array_equal(out, plan.run(x)))

    naive_s = _time_runs(naive.run, x, repeats)
    planned_s = _time_runs(plan.run, x, repeats)
    stats = plan.stats
    return {
        "model": model_name,
        "naive_ms": round(naive_s * 1e3, 3),
        "planned_ms": round(planned_s * 1e3, 3),
        "speedup": round(naive_s / planned_s, 3),
        "bit_identical": bit_identical,
        "compile_ms": round(compile_s * 1e3, 3),
        "plan": {
            "steps": stats.steps,
            "inplace_steps": stats.inplace_steps,
            "alias_steps": stats.alias_steps,
            "arena_bytes": stats.arena_bytes,
            "persistent_bytes": stats.persistent_bytes,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per backend (min is reported)")
    parser.add_argument("--models", nargs="*", default=None,
                        help="model names (default: one per family)")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    if args.models:
        # Accept either builder names ("alexnet") or family labels ("AlexNet").
        family_by_lower = {f.lower(): (f, m) for f, m in FAMILIES.items()}
        targets = {}
        for name in args.models:
            family, model_name = family_by_lower.get(name.lower(), (name, name))
            targets[family] = model_name
    else:
        targets = FAMILIES

    results = {}
    for family, model_name in targets.items():
        try:
            entry = bench_model(model_name, args.repeats)
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
        results[family] = entry
        print(f"{family:12s} ({model_name}): naive {entry['naive_ms']:9.1f} ms  "
              f"planned {entry['planned_ms']:9.1f} ms  "
              f"speedup {entry['speedup']:.2f}x  bit_identical={entry['bit_identical']}")

    speedups = [entry["speedup"] for entry in results.values()]
    geomean = float(np.exp(np.mean(np.log(speedups))))
    report = {
        "benchmark": "executor_backends",
        "statistic": "min",
        "repeats": args.repeats,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "geomean_speedup": round(geomean, 3),
        "all_bit_identical": all(e["bit_identical"] for e in results.values()),
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\ngeomean speedup {geomean:.2f}x -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
