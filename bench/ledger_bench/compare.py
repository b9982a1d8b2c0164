#!/usr/bin/env python3
"""Compares two ledger_bench result sets (run.py --set) metric by metric.

    python3 bench/ledger_bench/compare.py BASE.json NEW.json

For every workload and every end-to-end metric of BENCHMARK.json it prints
one verdict, one row per workload:

  improved    the median moved the good way by more than the bound;
  regressed   the median moved the bad way by more than the bound;
  unchanged   the medians differ by no more than the bound;
  unresolved  the run-to-run spread of either set is wider than the bound,
              so a difference of that size cannot be told from noise
              (reported as improved only if every new run beats every base
              run).

Spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median; the bound is the
metric's "bound" in BENCHMARK.json. Exit status 1 if any metric regressed.

--per-layer also prints, under each workload, the median change and both
spreads of every per-layer metric the sets' untraced runs recorded (the
request rate and latencies among them). Per-layer metrics have no bound, so
they get no verdict.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Returns (verdict, signed relative change of the median)."""
    mb, mn = statistics.median(base), statistics.median(new)
    change = (mn - mb) / abs(mb) if mb else float("inf")
    worse = change if better == "lower" else -change
    if max(spread(base), spread(new)) > bound:
        if better == "lower":
            all_better = max(new) < min(base)
        else:
            all_better = min(new) > max(base)
        return ("improved" if all_better else "unresolved"), change
    if worse > bound:
        return "regressed", change
    if -worse > bound:
        return "improved", change
    return "unchanged", change


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()
    spec = load(ROOT / "BENCHMARK.json")
    base, new = load(args.base), load(args.new)

    regressed = False
    counts = {}
    for w in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base["runs"].get(w, []), new["runs"].get(w, [])

        def values(runs, name):
            return [r["metrics"][name] for r in runs if name in r["metrics"]]

        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            b, n = values(b_runs, name), values(n_runs, name)
            if not b or not n:
                cells.append(f"{name}=missing")
                counts["missing"] = counts.get("missing", 0) + 1
                continue
            v, change = verdict(b, n, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            regressed = regressed or v == "regressed"
            cells.append(f"{name}={v}({change * 100:+.1f}%)")
        print(f"{w:11s} " + "  ".join(cells))
        if not args.per_layer:
            continue
        for m in spec["per_layer"]:
            b, n = values(b_runs, m["name"]), values(n_runs, m["name"])
            mb = statistics.median(b) if b else 0
            if not n or not mb:
                continue
            change = (statistics.median(n) - mb) / abs(mb)
            print(f"  {m['name']:32s} {change * 100:+7.1f}%  spread "
                  f"{spread(b):.3f} -> {spread(n):.3f}  ({m['better']} is "
                  "better)")
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
