"""End-to-end benchmark of the repository: one workload per process.

    python3 benchmarks/e2e/run.py --workload fleet_crash --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 7            # every workload, one process each

A run sets the workload up (imports, profiler training, engine and
system build, first request), repeats the workload's fixed episode until
another repeat would overrun ``--seconds``, checks the outputs, and
prints each metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace 1`` its ``per_layer`` metrics.  A full result (host block,
checks, raw episode times) lands in ``--out``; a traced run also writes
a Chrome trace-event file there.  The exit code is non-zero when a check
fails or the program cannot be imported.

Host-clock metrics (``host_rps``, ``setup_s``, the loopback latencies)
are rescaled to a reference host speed: a fixed calibration task is
timed after the set-up and around every episode, and each wall time is
divided by its slowdown, the calibration time around it over
``REFERENCE_CALIBRATION_S``.  On a shared machine whose speed drifts by
tens of percent over minutes, this keeps a slower host from reading as a
slower program.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# Before numpy loads: default BLAS thread pools oversubscribe the cores of
# a small host and make every wall-clock number noisy.  Child processes
# (the loopback server, set-up probes) inherit the caps.
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".e2e_out"
#: Set-up is timed in this process and in this many fresh processes;
#: ``setup_s`` is the median.
SETUP_PROBES = 2
#: Seconds :func:`calibration_s` takes on the reference host (2 vCPUs,
#: x86-64, Python 3.11, numpy 2.4 on OpenBLAS, nothing else running).
REFERENCE_CALIBRATION_S = 0.0162


def calibration_s() -> float:
    """Wall time of a fixed task: an interpreter loop and float32 GEMMs,
    the two kinds of work the workloads' host time is made of.  The best
    of five repeats, so that one preempted repeat does not count."""
    a = np.full((256, 256), 0.5, dtype=np.float32)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(160_000):
            total += i * i
        for _ in range(24):
            a @ a
        best = min(best, time.perf_counter() - t0)
    return best


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_workloads():
    """Import the program from this checkout's ``src`` (never elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'repro'} not found; run from a "
                         "checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAPS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def setup_sample_s() -> float:
    """This process's set-up time so far, at reference speed."""
    wall = time.perf_counter() - _STARTED
    return wall * REFERENCE_CALIBRATION_S / calibration_s()


def setup_probe(args) -> float:
    """Set-up time of a fresh process (imports included)."""
    out = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--scale", str(args.scale), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


class Tally:
    """What the repeated episodes of one run add up to."""

    def __init__(self) -> None:
        self.kept = None
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.rps = {False: [], True: []}       # traced -> reference-speed rates
        self.wall_s = {False: [], True: []}
        self.calibration_s: list = []
        self.wall_latencies_s: list = []       # reference-speed, untraced
        self.span_stats = None


def run_episodes(wl, state, seconds: float, tracer, trace_path) -> Tally:
    """Run rounds until another round would overrun ``seconds``.

    A round is one untraced episode, plus one traced episode when tracing.
    Per-layer statistics cover the traced set-up and the first traced
    episode; later traced episodes only measure the tracing overhead.
    """
    tally = Tally()
    tally.calibration_s.append(calibration_s())
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for traced in ((False, True) if tracer is not None else (False,)):
            if traced and tally.span_stats is not None:
                tracer.clear()
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                episode = wl.episode(state)
                wall = time.perf_counter() - t0
            tally.calibration_s.append(calibration_s())
            # How much slower than the reference host the episode ran.
            slowdown = (sum(tally.calibration_s[-2:])
                        / (2 * REFERENCE_CALIBRATION_S))
            round_s += wall
            if traced and tally.span_stats is None:
                tally.span_stats = tracer.stats()
                tracer.write_chrome(trace_path)
            n = len(episode.records)
            tally.attempted += n
            tally.failed += wl.failed(state, episode)
            tally.wall_s[traced].append(wall)
            tally.rps[traced].append(n / wall * slowdown)
            if wl.wall_clock and not traced:
                tally.wall_latencies_s.append(wl.latencies_s(episode) / slowdown)
            tally.kept, problems = wl.keep(tally.kept, episode)
            tally.problems += problems
        if time.perf_counter() - start + round_s > seconds:
            return tally


def measure(wl, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        state = wl.setup(args.seed, args.scale)
    setup_s = [setup_sample_s()]
    trace_path = args.out / f"{wl.name}-seed{args.seed}.trace.json"
    try:
        wl.prepare_checks(state)
        tally = run_episodes(wl, state, args.seconds, tracer, trace_path)
        # The program's own peak: the checks below run reference models.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = tally.problems + wl.check(state, tally.kept)
    finally:
        wl.close(state)
    episode = tally.kept

    if args.trace:
        metrics = wl.layer_metrics(state, episode)
        for group, stats in tally.span_stats.items():
            for key, value in stats.items():
                metrics[f"{group}.{key}"] = value
        metrics["trace.overhead_frac"] = 1.0 - (
            statistics.median(tally.rps[True]) / statistics.median(tally.rps[False]))
    else:
        setup_s += [setup_probe(args) for _ in range(SETUP_PROBES)]
        lat_ms = 1e3 * (np.concatenate(tally.wall_latencies_s) if wl.wall_clock
                        else wl.latencies_s(episode))
        metrics = {
            "latency_p50_ms": float(np.percentile(lat_ms, 50)),
            "latency_p99_ms": float(np.percentile(lat_ms, 99)),
            "deadline_met_frac": wl.deadline_met_frac(state, episode),
            "mean_accuracy": wl.mean_accuracy(state, episode),
            "host_rps": statistics.median(tally.rps[False]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb + state.get("server_peak_rss_mb", 0.0),
        }
    declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "host": host_info(),
        "problems": problems,
        "episode_wall_s": tally.wall_s[False],
        "traced_episode_wall_s": tally.wall_s[True],
        "calibration_s": tally.calibration_s,
        "setup_samples_s": setup_s,
        "records_digest": wl.digest(episode),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    status = 0
    for workload in load_benchmark()["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--out", str(args.out)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every episode (smoke tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         f"from {sorted(workloads.WORKLOADS)} or 'all'")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        state = wl.setup(args.seed, args.scale)
        setup_s = setup_sample_s()
        wl.close(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    result = measure(wl, args)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"CHECK FAILED [{wl.name}]: {problem}")
    for metric, m in result["metrics"].items():
        print(f"{wl.name} {metric} = {m['value']:.6g} {m['unit']}")
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
