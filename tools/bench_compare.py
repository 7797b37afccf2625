"""Compare two benchmark reports and gate on regressions.

Intended as the perf check between a baseline run (e.g. from the main
branch) and a candidate run::

    python tools/bench_compare.py baseline.json candidate.json

Exits non-zero when the candidate regresses by more than the threshold
(default 15%) on any entry present in both reports.

For ``BENCH_executor.json`` reports, ``--metric planned_ms`` (the default)
gates on absolute planned-backend milliseconds — right when both reports
come from the same host.  ``--metric speedup`` gates on the naive/planned
speedup ratio instead, which cancels host speed and is the right choice
when the baseline report was committed from a different machine (e.g. CI).

``BENCH_resilience.json`` reports are detected automatically and gated on
the resilient arm's **availability** (fractional drop vs baseline) and
**fallback rate** (absolute increase) per fault scenario — host speed
plays no role in either, so they compare cleanly across machines.

``BENCH_parallel.json`` reports are also detected automatically.  They
gate on the candidate's own numbers rather than the baseline's, because
chain-parallel speedup depends on core count and the baseline may have
been committed from a different machine: at least one branchy model must
reach the 1.2x speedup floor (skipped, loudly, when the candidate host
has fewer than two CPUs — parallelism cannot pay off there), no serial
control model may slow down more than 5%, and bit-identity must hold
everywhere.

``BENCH_parallel_samples.json`` reports gate the same way on the 2-D
(sample × chain) grid: at least one ``sample_parallel`` cell must reach
the 1.2x floor on 2+ CPU hosts, ``serial_control`` cells (threads=1 on a
single-chain backbone) stay within 5%, and bit-identity — sample-parallel
output vs the serial batched plan vs per-sample naive runs — is enforced
unconditionally.  ``chain_only`` and ``branchy_serial`` cells are
informational (the former is gated by the parallel_chains report, the
latter carries PR 4's accepted chain-compile overhead).

``BENCH_fleet.json`` reports gate on the candidate alone: the 4-server
fleet must complete every request (availability 1.0) while server 0
crashes mid-run, its p95 must beat the saturated 1-server fleet's, the
degenerate 1-server gateway must have stayed record-identical to the
direct client-server path, and on the heterogeneous (fast+near vs
slow+far) cell the profile-aware arm's p95 must strictly beat the
profile-blind arm's.

``BENCH_streaming.json`` reports gate on the candidate's own numbers (they
come from the declared cost model, so host speed cancels entirely):
streamed lossless uploads must beat the monolithic fp32 upload by at
least 1.3x at every pinned transfer-dominated (≤8 Mbps) cell, the joint
``(point, codec, chunking)`` policy may not regress the plain Algorithm 1
decision by more than 5% at any bandwidth, and every model must shift its
``(point, codec)`` choice across the sweep.  The discrete choices must also
equal the baseline's: each model's pinned point, and the point, codec,
mode and chunk count of every decision row.  Latencies are not pinned:
they come from predictors trained on the host and can differ in the last
digit across machines.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_THRESHOLD = 0.15

#: parallel_chains gates: ≥1.2x on at least one branchy model (multi-core
#: hosts only), and serial single-chain controls within 5% of their
#: serial-plan time.
BRANCHY_SPEEDUP_FLOOR = 1.2
SERIAL_CONTROL_TOLERANCE = 0.05

#: parallel_samples gate: ≥1.2x on at least one (batch, threads) cell
#: that schedules samples in parallel (multi-core hosts only).
SAMPLE_SPEEDUP_FLOOR = 1.2

#: streaming gates: streamed-lossless uploads must beat monolithic fp32
#: by ≥1.3x at every transfer-dominated (≤8 Mbps) pinned cell, the joint
#: policy may not regress the plain decision by more than 5% anywhere,
#: and each model's sweep must shift its (point, codec) choice.
STREAMING_LOW_BW_FLOOR = 1.3
STREAMING_POLICY_TOLERANCE = 0.05


def load(path: pathlib.Path) -> dict:
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    if "results" not in report:
        raise SystemExit(f"{path}: not a benchmark report (no 'results')")
    return report


def compare_resilience(baseline: dict, candidate: dict,
                       threshold: float) -> list[str]:
    """Gate the resilient arm's availability and fallback rate per scenario."""
    regressions: list[str] = []
    base = {r["scenario"]: r["arms"]["resilient"] for r in baseline["results"]}
    cand = {r["scenario"]: r["arms"]["resilient"] for r in candidate["results"]}
    common = sorted(set(base) & set(cand))
    if not common:
        raise SystemExit("reports share no scenarios; nothing to compare")
    for name in common:
        b_avail, c_avail = base[name]["availability"], cand[name]["availability"]
        b_fb, c_fb = base[name]["fallback_rate"], cand[name]["fallback_rate"]
        # Availability drops fractionally; fallback rate (already a
        # fraction of requests) is compared as an absolute increase.
        avail_loss = 1.0 - c_avail / b_avail if b_avail else 0.0
        fb_gain = c_fb - b_fb
        marker = ""
        if avail_loss > threshold:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: availability {b_avail:.3f} -> {c_avail:.3f} "
                f"({avail_loss * 100:+.1f}% > {threshold * 100:.0f}%)")
        if fb_gain > threshold:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: fallback rate {b_fb:.3f} -> {c_fb:.3f} "
                f"(+{fb_gain:.3f} > {threshold:.2f})")
        print(f"{name:13s} avail {b_avail:.3f} -> {c_avail:.3f}  "
              f"fallback {b_fb:.3f} -> {c_fb:.3f}{marker}")
    only = sorted(set(base) ^ set(cand))
    if only:
        print(f"(not compared, present in one report only: {', '.join(only)})")
    return regressions


def compare_fleet(baseline: dict, candidate: dict,
                  threshold: float) -> list[str]:
    """Gate the sharded-fleet report on the candidate's own numbers.

    Four hard gates, all host-speed-free: the 4-server fleet must ride
    through the mid-run crash at availability 1.0, its p95 must beat the
    1-server fleet's p95 at the same saturation, the degenerate 1-server
    gateway must have stayed record-identical to the direct path, and
    profile-aware routing must beat profile-blind routing on p95 in the
    heterogeneous cell.  The baseline is printed for side-by-side
    context only.
    """
    regressions: list[str] = []
    b4, c4 = baseline["fleet4_availability"], candidate["fleet4_availability"]
    bp1, cp1 = baseline["fleet1_p95_ms"], candidate["fleet1_p95_ms"]
    bp4, cp4 = baseline["fleet4_p95_ms"], candidate["fleet4_p95_ms"]
    print(f"fleet4 availability {b4:.3f} -> {c4:.3f}")
    print(f"fleet1 p95 {bp1:.1f} -> {cp1:.1f} ms")
    print(f"fleet4 p95 {bp4:.1f} -> {cp4:.1f} ms")
    print(f"degenerate identical: {baseline['degenerate_identical']} -> "
          f"{candidate['degenerate_identical']}")
    if c4 < 1.0:
        regressions.append(
            f"fleet4 availability {c4:.4f} < 1.0 "
            "(the 4-server fleet dropped requests during the crash)")
    if cp4 >= cp1:
        regressions.append(
            f"fleet4 p95 {cp4:.1f} ms >= fleet1 p95 {cp1:.1f} ms "
            "(sharding bought no tail latency at saturation)")
    if not candidate["degenerate_identical"]:
        regressions.append(
            "degenerate 1-server gateway diverged from the direct path")
    # Heterogeneous cell (reports that predate it skip the gate).
    ca = candidate.get("hetero_aware_p95_ms")
    cb = candidate.get("hetero_blind_p95_ms")
    if ca is not None and cb is not None:
        ba = baseline.get("hetero_aware_p95_ms")
        bb = baseline.get("hetero_blind_p95_ms")
        context = (f"{ba:.1f} -> " if ba is not None else "")
        print(f"hetero aware p95 {context}{ca:.1f} ms vs blind "
              f"{(f'{bb:.1f} -> ' if bb is not None else '')}{cb:.1f} ms")
        if ca >= cb:
            regressions.append(
                f"hetero aware p95 {ca:.1f} ms >= blind p95 {cb:.1f} ms "
                "(per-server profiles bought no tail latency on the "
                "fast+near / slow+far fleet)")
    return regressions


def compare_exits(baseline: dict, candidate: dict,
                  threshold: float) -> list[str]:
    """Gate the early-exit report on the candidate's own numbers.

    Four hard gates, all host-speed-free (the timeline is simulated):
    under strict deadlines the exit-carrying engine must strictly beat
    the full-network-only arm on SLA attainment, the slack class must
    lose no attainment and must keep the full network's accuracy (its
    worst-served exit is the final one), and the exit-free degenerate
    cell must have stayed record-identical to the plain engine.  The
    baseline is printed for side-by-side context only.
    """
    regressions: list[str] = []
    bfs = baseline["full_strict_attainment"]
    bes = baseline["exits_strict_attainment"]
    cfs = candidate["full_strict_attainment"]
    ces = candidate["exits_strict_attainment"]
    print(f"strict attainment: full-net {bfs:.3f} -> {cfs:.3f}  "
          f"exits {bes:.3f} -> {ces:.3f}")
    print(f"slack attainment:  full-net "
          f"{baseline['full_slack_attainment']:.3f} -> "
          f"{candidate['full_slack_attainment']:.3f}  exits "
          f"{baseline['exits_slack_attainment']:.3f} -> "
          f"{candidate['exits_slack_attainment']:.3f}")
    print(f"slack min accuracy {baseline['exits_slack_min_accuracy']} -> "
          f"{candidate['exits_slack_min_accuracy']} "
          f"(full net {candidate['full_net_accuracy']})")
    print(f"degenerate identical: {baseline['degenerate_identical']} -> "
          f"{candidate['degenerate_identical']}")
    if ces <= cfs:
        regressions.append(
            f"exits strict attainment {ces:.4f} <= full-net-only "
            f"{cfs:.4f} (the exit axis bought no deadline attainment)")
    if candidate["exits_slack_attainment"] < candidate["full_slack_attainment"]:
        regressions.append(
            f"slack attainment {candidate['exits_slack_attainment']:.4f} "
            f"with exits < {candidate['full_slack_attainment']:.4f} without "
            "(exits cost the slack class deadlines)")
    if candidate["exits_slack_min_accuracy"] < candidate["full_net_accuracy"]:
        regressions.append(
            f"slack class served below full accuracy "
            f"({candidate['exits_slack_min_accuracy']} < "
            f"{candidate['full_net_accuracy']}): a slack request was "
            "degraded to an early exit it did not need")
    if not candidate["degenerate_identical"]:
        regressions.append(
            "exit-free degenerate cell diverged from the plain engine")
    return regressions


def compare_parallel(baseline: dict, candidate: dict,
                     threshold: float) -> list[str]:
    """Gate chain-parallel execution on the candidate's own report.

    Speedup is a property of the candidate host's core count, so the
    baseline is used for side-by-side context only; the hard gates are
    the branchy speedup floor, the serial-control regression bound, and
    bit-identity.
    """
    regressions: list[str] = []
    base_results = baseline["results"]
    cand_results = candidate["results"]
    cpus = (candidate.get("host") or {}).get("cpus") or 0
    branchy_best: tuple[str, float] | None = None
    for name in sorted(cand_results):
        entry = cand_results[name]
        speedup = entry["speedup"]
        marker = ""
        if not entry.get("bit_identical", False):
            marker = "  <-- REGRESSION"
            regressions.append(f"{name}: parallel output not bit-identical")
        if entry["role"] == "branchy":
            if branchy_best is None or speedup > branchy_best[1]:
                branchy_best = (name, speedup)
        elif speedup < 1.0 - SERIAL_CONTROL_TOLERANCE:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: serial control slowed {entry['serial_ms']:.1f} -> "
                f"{entry['parallel_ms']:.1f} ms ({speedup:.2f}x < "
                f"{1.0 - SERIAL_CONTROL_TOLERANCE:.2f}x)")
        base = base_results.get(name)
        context = (f"baseline {base['speedup']:.2f}x  " if base else "")
        print(f"{name:12s} ({entry['role']:14s}) serial "
              f"{entry['serial_ms']:9.1f} ms  parallel "
              f"{entry['parallel_ms']:9.1f} ms  {context}"
              f"speedup {speedup:.2f}x{marker}")
    if branchy_best is None:
        raise SystemExit("candidate report has no branchy models; "
                         "nothing to gate")
    if cpus >= 2:
        if branchy_best[1] < BRANCHY_SPEEDUP_FLOOR:
            regressions.append(
                f"best branchy speedup {branchy_best[1]:.2f}x "
                f"({branchy_best[0]}) below the "
                f"{BRANCHY_SPEEDUP_FLOOR:.1f}x floor on {cpus} cpus")
        else:
            print(f"\nbranchy floor met: {branchy_best[0]} "
                  f"{branchy_best[1]:.2f}x >= {BRANCHY_SPEEDUP_FLOOR:.1f}x "
                  f"on {cpus} cpus")
    else:
        print(f"\nbranchy speedup floor skipped: candidate host has "
              f"{cpus} cpu(s); chain parallelism cannot pay off")
    return regressions


def compare_parallel_samples(baseline: dict, candidate: dict,
                             threshold: float) -> list[str]:
    """Gate per-sample parallel batched plans on the candidate's report.

    Mirrors :func:`compare_parallel`: speedup depends on the candidate
    host's core count, so the baseline provides side-by-side context only.
    Hard gates are the sample-parallel speedup floor (2+ CPU hosts), the
    serial-control bound, and bit-identity everywhere.
    """
    regressions: list[str] = []
    base_results = baseline["results"]
    cand_results = candidate["results"]
    cpus = (candidate.get("host") or {}).get("cpus") or 0
    best: tuple[str, float] | None = None
    for name in sorted(cand_results):
        entry = cand_results[name]
        speedup = entry["speedup"]
        marker = ""
        if not entry.get("bit_identical", False):
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: sample-parallel output not bit-identical")
        if entry["role"] == "sample_parallel":
            if best is None or speedup > best[1]:
                best = (name, speedup)
        elif (entry["role"] == "serial_control"
              and speedup < 1.0 - SERIAL_CONTROL_TOLERANCE):
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: serial control slowed {entry['serial_ms']:.1f} -> "
                f"{entry['parallel_ms']:.1f} ms ({speedup:.2f}x < "
                f"{1.0 - SERIAL_CONTROL_TOLERANCE:.2f}x)")
        base = base_results.get(name)
        context = (f"baseline {base['speedup']:.2f}x  " if base else "")
        print(f"{name:18s} ({entry['role']:15s}) serial "
              f"{entry['serial_ms']:9.1f} ms  parallel "
              f"{entry['parallel_ms']:9.1f} ms  {context}"
              f"speedup {speedup:.2f}x{marker}")
    if best is None:
        raise SystemExit("candidate report has no sample_parallel cells; "
                         "nothing to gate")
    if cpus >= 2:
        if best[1] < SAMPLE_SPEEDUP_FLOOR:
            regressions.append(
                f"best sample-parallel speedup {best[1]:.2f}x ({best[0]}) "
                f"below the {SAMPLE_SPEEDUP_FLOOR:.1f}x floor on {cpus} cpus")
        else:
            print(f"\nsample-parallel floor met: {best[0]} "
                  f"{best[1]:.2f}x >= {SAMPLE_SPEEDUP_FLOOR:.1f}x "
                  f"on {cpus} cpus")
    else:
        print(f"\nsample-parallel speedup floor skipped: candidate host has "
              f"{cpus} cpu(s); sample parallelism cannot pay off")
    return regressions


#: The discrete fields of a streaming decision row that must equal the
#: baseline's.
STREAMING_CHOICE_FIELDS = ("point", "codec", "streamed", "chunks")


def streaming_choice_changes(name: str, base: dict, entry: dict) -> list[str]:
    """Where a model's discrete streaming choices differ from the baseline.

    Compares the pinned point and, per bandwidth, the decision row's
    :data:`STREAMING_CHOICE_FIELDS`; every decision must be present in
    both reports.
    """
    changes = []
    if entry["pinned_point"] != base["pinned_point"]:
        changes.append(f"{name}: pinned point {base['pinned_point']} -> "
                       f"{entry['pinned_point']}")
    base_rows = {row["bandwidth_mbps"]: row for row in base["decisions"]}
    cand_rows = {row["bandwidth_mbps"]: row for row in entry["decisions"]}
    for mbps in sorted(set(base_rows) | set(cand_rows)):
        if mbps not in base_rows or mbps not in cand_rows:
            changes.append(f"{name}: {mbps:g} Mbps decision present in one "
                           "report only")
            continue
        was = tuple(base_rows[mbps][f] for f in STREAMING_CHOICE_FIELDS)
        now = tuple(cand_rows[mbps][f] for f in STREAMING_CHOICE_FIELDS)
        if was != now:
            changes.append(
                f"{name}: {mbps:g} Mbps decision (point, codec, streamed, "
                f"chunks) {was} -> {now}")
    return changes


def compare_streaming(baseline: dict, candidate: dict,
                      threshold: float) -> list[str]:
    """Gate streamed+codec offloading on its report and its baseline.

    All numbers come from the engine's declared cost model, so they are
    host-independent.  Hard gates: the transfer-bound speedup floor at
    low bandwidth, the joint-policy regression bound, a demonstrable
    (point, codec) shift across each model's bandwidth sweep, and the
    discrete choices of every model the baseline also reports
    (:func:`streaming_choice_changes`).
    """
    regressions: list[str] = []
    base_results = baseline["results"]
    cand_results = candidate["results"]
    low_bw = candidate.get("low_bw_mbps", 8.0)
    for name in sorted(cand_results):
        entry = cand_results[name]
        base = base_results.get(name)
        low_ratio = entry["min_low_bw_ratio"]
        policy_reg = entry["max_policy_regression"]
        marker = ""
        if base is not None:
            changes = streaming_choice_changes(name, base, entry)
            if changes:
                marker = "  <-- CHANGED"
                regressions += changes
        if low_ratio < STREAMING_LOW_BW_FLOOR:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: transfer-bound ratio {low_ratio:.2f}x at "
                f"<= {low_bw:.0f} Mbps below the "
                f"{STREAMING_LOW_BW_FLOOR:.1f}x floor")
        if policy_reg > STREAMING_POLICY_TOLERANCE:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: joint policy regresses the plain decision by "
                f"{policy_reg * 100:+.1f}% > "
                f"{STREAMING_POLICY_TOLERANCE * 100:.0f}%")
        shifts = {tuple(s) for s in entry["distinct_point_codec"]}
        if len(shifts) < 2:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: decision never shifts (point, codec) across the "
                f"bandwidth sweep: {sorted(shifts)}")
        context = (f"baseline {base['min_low_bw_ratio']:.2f}x  "
                   if base else "")
        print(f"{name:14s} pinned p={entry['pinned_point']:3d}  low-bw ratio "
              f"{context}candidate {low_ratio:.2f}x  policy regression "
              f"{policy_reg * 100:+.2f}%  "
              f"{len(shifts)} (point, codec) choices{marker}")
    if not cand_results:
        raise SystemExit("candidate report has no models; nothing to gate")
    return regressions


def compare(baseline: dict, candidate: dict, threshold: float,
            metric: str = "planned_ms") -> list[str]:
    """Returns a list of human-readable regression messages (empty = pass)."""
    regressions: list[str] = []
    base_results = baseline["results"]
    cand_results = candidate["results"]
    common = sorted(set(base_results) & set(cand_results))
    if not common:
        raise SystemExit("reports share no models; nothing to compare")
    for name in common:
        base_ms = base_results[name]["planned_ms"]
        cand_ms = cand_results[name]["planned_ms"]
        base_speedup = base_results[name]["speedup"]
        cand_speedup = cand_results[name]["speedup"]
        if metric == "planned_ms":
            # Positive = candidate slower, in fractional planned-time terms.
            loss = cand_ms / base_ms - 1.0
        else:
            # Positive = candidate's speedup shrank, host speed cancelled.
            loss = 1.0 - cand_speedup / base_speedup
        marker = ""
        if loss > threshold:
            marker = "  <-- REGRESSION"
            regressions.append(
                f"{name}: {metric} {base_ms:.1f} -> {cand_ms:.1f} ms / "
                f"{base_speedup:.2f}x -> {cand_speedup:.2f}x "
                f"({loss * 100:+.1f}% > {threshold * 100:.0f}%)"
            )
        print(f"{name:12s} planned {base_ms:9.1f} -> {cand_ms:9.1f} ms "
              f"({(cand_ms / base_ms - 1.0) * 100:+6.1f}%)  speedup "
              f"{base_speedup:.2f}x -> {cand_speedup:.2f}x{marker}")
    only = sorted(set(base_results) ^ set(cand_results))
    if only:
        print(f"(not compared, present in one report only: {', '.join(only)})")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--metric", choices=("planned_ms", "speedup"),
                        default="planned_ms",
                        help="gate on absolute planned time (same-host reports) "
                             "or on the naive/planned speedup (cross-host)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    for kind in ("resilience", "parallel_chains", "parallel_samples",
                 "streaming", "fleet", "exits"):
        if (baseline.get("benchmark") == kind) != (candidate.get("benchmark") == kind):
            raise SystemExit(f"cannot compare a {kind} report against "
                             "a different benchmark type")
    if baseline.get("benchmark") == "resilience":
        regressions = compare_resilience(baseline, candidate, args.threshold)
    elif baseline.get("benchmark") == "parallel_chains":
        regressions = compare_parallel(baseline, candidate, args.threshold)
    elif baseline.get("benchmark") == "parallel_samples":
        regressions = compare_parallel_samples(baseline, candidate,
                                               args.threshold)
    elif baseline.get("benchmark") == "streaming":
        regressions = compare_streaming(baseline, candidate, args.threshold)
    elif baseline.get("benchmark") == "fleet":
        regressions = compare_fleet(baseline, candidate, args.threshold)
    elif baseline.get("benchmark") == "exits":
        regressions = compare_exits(baseline, candidate, args.threshold)
    else:
        regressions = compare(baseline, candidate,
                              args.threshold, metric=args.metric)
    if regressions:
        print("\nregressions over threshold:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno regressions over threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
