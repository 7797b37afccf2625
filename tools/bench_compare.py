"""Gate a benchmark report against its committed baseline.

    python tools/bench_compare.py BENCH_fleet.json candidate.json

Simulated outcomes are deterministic, so every value outside the
``host`` block is exact by default: it must be present in both reports
and equal.  A moved number is a change in behaviour and fails the gate
until the same change re-baselines the committed report and says why in
CHANGES.md.  The four simulation reports (fleet, exits, resilience,
batched fleet) carry a ``records_digest`` per arm, so the pin covers
every record of a run, not only its summary numbers.

:data:`GATES`, keyed by each report's ``benchmark`` field, lists only
the exceptions to exactness and the report's claims:

- ``scaled``: ``(pattern, op, factor, same_host)`` rows; the candidate
  value must satisfy ``candidate op factor * baseline``.  Host timings
  may rise 15%, compared only when both ``host`` blocks are equal;
  ratios such as ``speedup`` cancel host speed and may drop 15% on any
  host.
- ``free``: values not compared, such as run parameters CI sets
  differently.
- ``subset``: a block whose entries the candidate may run a subset of.
- ``claims``: ``(path, op, path-or-constant)`` rows checked on the
  candidate alone.  A path that matches nothing fails.

Patterns are :mod:`fnmatch` patterns over paths such as
``results[scenario=overload].arms.resilient.availability``: a list of
objects is keyed by each object's first field.  Exit status 0 means the
gate passed; 1 lists every failing path; a report that cannot be read,
or has no gate, exits with a message.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import sys
from fnmatch import fnmatch

OPS = {
    "==": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "len>=": lambda value, n: len(value) >= n,
}

GATES = {
    "executor_backends": {
        "scaled": [("results.*.planned_ms", "<=", 1.15, True),
                   ("results.*.speedup", ">=", 0.85, False)],
        # CI runs two of the seven models with fewer repeats; the geomean
        # summarises whichever models ran.  The naive reference and the
        # one-shot compile are reported, not gated: two compiles of one
        # model on a 2-vCPU host differed by up to 68%.
        "free": ["repeats", "geomean_speedup", "results.*.naive_ms",
                 "results.*.compile_ms"],
        "subset": "results",
        "claims": [("all_bit_identical", "==", True)],
    },
    "batched_fleet": {
        # Host wall-clock is reported for transparency (the batched plan
        # buys bit identity, not host speed): two default runs on a 2-vCPU
        # host differed by more than 15% at 5 of its 36 values.
        "free": ["repeats", "*.host_*"],
        "claims": [
            ("all_bit_identical", "==", True),
            ("fleet.batched.requests_per_s", ">", "fleet.sequential.requests_per_s"),
        ],
    },
    "resilience": {
        "claims": [("min_resilient_availability", "==", 1.0)],
    },
    "fleet": {
        "claims": [
            ("fleet4_availability", "==", 1.0),
            ("fleet4_p95_ms", "<", "fleet1_p95_ms"),
            ("hetero_aware_p95_ms", "<", "hetero_blind_p95_ms"),
            ("degenerate_identical", "==", True),
        ],
    },
    "exits": {
        "claims": [
            ("exits_strict_attainment", ">", "full_strict_attainment"),
            ("exits_slack_attainment", ">=", "full_slack_attainment"),
            ("exits_slack_min_accuracy", ">=", "full_net_accuracy"),
            ("degenerate_identical", "==", True),
        ],
    },
    "streaming": {
        # Streamed lossless uploads beat monolithic fp32 by 1.3x where the
        # link binds, the joint policy loses at most 5% to Algorithm 1,
        # and each model's sweep shifts its (point, codec) choice.
        "claims": [
            ("results.*.min_low_bw_ratio", ">=", 1.3),
            ("results.*.max_policy_regression", "<=", 0.05),
            ("results.*.distinct_point_codec", "len>=", 2),
        ],
    },
}


def load(path: pathlib.Path) -> dict:
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    if not isinstance(report, dict) or "benchmark" not in report:
        raise SystemExit(f"{path}: not a benchmark report (no 'benchmark' field)")
    return report


def flatten(node, path: str = "", out: dict | None = None) -> dict:
    """Leaf values of a report keyed by path; ``host`` is left out."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for key, value in node.items():
            if path or key != "host":
                flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list) and node and all(
            isinstance(item, dict) and item for item in node):
        for item in node:
            field, label = next(iter(item.items()))
            flatten(item, f"{path}[{field}={label}]", out)
    elif path in out:
        raise SystemExit(f"two entries of a report share the path {path}")
    else:
        out[path] = node
    return out


def gate(baseline: dict, candidate: dict) -> list[str]:
    """Every way the candidate fails its gate (empty = pass)."""
    kind, cand_kind = baseline["benchmark"], candidate["benchmark"]
    if kind != cand_kind:
        raise SystemExit(f"cannot gate a candidate of benchmark {cand_kind!r} "
                         f"against a {kind!r} baseline")
    if kind not in GATES:
        raise SystemExit(f"no gate for benchmark {kind!r} (baseline and "
                         f"candidate); known: {', '.join(GATES)}")
    spec = GATES[kind]
    base, cand = flatten(baseline), flatten(candidate)
    same_host = baseline.get("host") == candidate.get("host")
    if "subset" in spec:
        prefix = spec["subset"] + "."
        ran = {path.split(".")[1] for path in cand if path.startswith(prefix)}
        base = {path: value for path, value in base.items()
                if not path.startswith(prefix) or path.split(".")[1] in ran}
    failures = []
    for path in sorted(base.keys() | cand.keys()):
        if any(fnmatch(path, pattern) for pattern in spec.get("free", ())):
            continue
        if path not in cand or path not in base:
            failures.append(f"{path}: only in the "
                            f"{'baseline' if path in base else 'candidate'}")
            continue
        b, c = base[path], cand[path]
        row = next((row for row in spec.get("scaled", ())
                    if fnmatch(path, row[0])), None)
        if row is None:
            if b != c:
                failures.append(f"{path}: {b!r} -> {c!r}")
        elif (same_host or not row[3]) and not OPS[row[1]](c, row[2] * b):
            failures.append(f"{path}: {b!r} -> {c!r} (must be {row[1]} "
                            f"{row[2]:g} x baseline)")
    for pattern, op, right in spec["claims"]:
        paths = [path for path in cand if fnmatch(path, pattern)]
        if not paths:
            failures.append(f"claim {pattern} {op} {right}: no such value")
        for path in paths:
            value = cand.get(right) if isinstance(right, str) else right
            if value is None or not OPS[op](cand[path], value):
                failures.append(f"claim {path} {op} {right}: "
                                f"{cand[path]!r} vs {value!r}")
    print(f"{kind}: {len(cand)} values, {len(spec['claims'])} claims, "
          f"{'same' if same_host else 'different'} host")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    args = parser.parse_args(argv)
    failures = gate(load(args.baseline), load(args.candidate))
    if failures:
        print(f"\n{len(failures)} failures against {args.baseline}:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
