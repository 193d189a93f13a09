#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py OLD.jsonl NEW.jsonl

OLD and NEW hold history lines as run.py appends them (benchmark/history.jsonl
or an extract of it). For every end-to-end metric and workload, each side's
value is the median over its runs of the value each run reported. A row
reads:

  ok          NEW is no worse than OLD by more than the metric's bound;
  regressed   NEW is worse than OLD by more than the bound;
  unresolved  the quartile spread of either side is wider than the bound, so
              the data cannot tell -- unless every NEW run beats every OLD run.

Exits 1 when any row regressed.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace") != 0:
                continue
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m)
    return runs


def summary(ms):
    """Median over runs of each run's reported value, and the relative
    quartile spread: across runs when there are several, else the single
    run's own samples."""
    values = [m["value"] for m in ms]
    mid = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
    else:
        spread = (ms[0]["q3"] - ms[0]["q1"]) / ms[0]["median"]
    return mid, spread, values


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(SPEC) as f:
        spec = json.load(f)
    old, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    print("%-18s %-20s %14s %14s %8s %8s %6s  %s" % (
        "workload", "metric", "old", "new", "change", "spread", "bound", "status"))
    for w in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (w["name"], metric["name"])
            if key not in old or key not in new:
                print("%-18s %-20s %s" % (key[0], key[1], "missing"))
                continue
            o_mid, o_spread, o_runs = summary(old[key])
            n_mid, n_spread, n_runs = summary(new[key])
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (n_mid - o_mid) / o_mid
            if sign > 0:
                dominates = max(n_runs) < min(o_runs)
            else:
                dominates = min(n_runs) > max(o_runs)
            if max(o_spread, n_spread) > metric["bound"] and not dominates:
                status = "unresolved"
            elif worse > metric["bound"]:
                status = "regressed"
                regressed = True
            else:
                status = "ok"
            print("%-18s %-20s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s" % (
                key[0], key[1], o_mid, n_mid, 100 * (n_mid - o_mid) / o_mid,
                100 * max(o_spread, n_spread), 100 * metric["bound"], status))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
