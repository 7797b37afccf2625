"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/e2e/compare.py BASE_DIR/ CANDIDATE_DIR/

Each directory holds the result files ``run.py --trace 0 --out DIR``
wrote (one per workload and seed).  For every workload and end-to-end
metric the report gives each side's median and quartiles and a verdict
under the metric's direction and bound from ``BENCHMARK.json``:

- ``worse`` / ``better`` — the medians differ by more than the bound;
- ``unchanged`` — they differ by less;
- ``unresolved`` — a side's quartile spread (as a share of its median) is
  wider than the bound, so the runs cannot tell, unless every candidate
  run reads better than every base run.

Simulated metrics are exact functions of the seed, so the report also
counts the seeds both sides ran at which a metric reads exactly the same:
any difference there is a change of behaviour, however small.  The exit
code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(directory: pathlib.Path) -> Dict[str, Dict[str, Dict[int, float]]]:
    """workload -> metric -> seed -> value over the directory's untraced runs."""
    runs: Dict[str, Dict[str, Dict[int, float]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        metrics = runs.setdefault(result["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, {})[result["seed"]] = m["value"]
    return runs


def summary(values: List[float]):
    """(median, first quartile, third quartile, spread as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: List[float], cand: List[float], better: str, bound: float):
    b, c = summary(base), summary(cand)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c[0] - b[0]) / abs(b[0]) if b[0] else 0.0
    if max(b[3], c[3]) > bound:
        all_better = (max(cand) < min(base) if better == "lower"
                      else min(cand) > max(base))
        return ("better" if all_better else "unresolved"), worse_by, b, c
    if worse_by > bound:
        return "worse", worse_by, b, c
    if worse_by < -bound:
        return "better", worse_by, b, c
    return "unchanged", worse_by, b, c


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("candidate", type=pathlib.Path)
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, cand = load_runs(args.base), load_runs(args.candidate)
    worse = 0
    print(f"{'workload':16s} {'metric':18s} {'base median [q1, q3]':>34s} "
          f"{'candidate median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(cand)):
        for m in declared:
            a = base.get(workload, {}).get(m["name"])
            b = cand.get(workload, {}).get(m["name"])
            if not a or not b:
                print(f"{workload:16s} {m['name']:18s} missing on one side")
                worse += 1
                continue
            v, change, sa, sb = verdict(list(a.values()), list(b.values()),
                                        m["better"], m["bound"])
            worse += v == "worse"
            shared = sorted(set(a) & set(b))
            same = sum(1 for seed in shared if a[seed] == b[seed])
            print(f"{workload:16s} {m['name']:18s} "
                  f"{sa[0]:12.5g} [{sa[1]:.5g}, {sa[2]:.5g}] "
                  f"{sb[0]:12.5g} [{sb[1]:.5g}, {sb[2]:.5g}] "
                  f"{change:+8.2%} {m['bound']:6.2f}  {v} "
                  f"(n={len(a)}/{len(b)}, spread {sa[3]:.2%}/{sb[3]:.2%}, "
                  f"equal at {same}/{len(shared)} shared seeds)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
