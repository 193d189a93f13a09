#!/bin/sh
# One-screen summary of every gated benchmark ratio, runnable locally and
# in CI after any subset of `bench` sections.
#
# Usage: bench-trajectory.sh [DIR]
#
# Reads whatever BENCH_*.json files are present under DIR (default: cwd)
# and prints each file's gated ratios next to their gates, plus a PASS /
# FAIL / MISSING verdict per ratio. Missing files are reported but are
# not an error (sections run selectively); a present file failing its
# gate exits 1, so the script doubles as an offline re-check of the
# gates the bench binary already enforces.
set -eu

dir="${1:-.}"

python3 - "$dir" <<'EOF'
import json, os, sys

# (file, key, gate, direction): direction ">=" means the measured value
# must be at least the gate, "<=" at most. Gates mirror bench/main.ml.
GATES = [
    ("BENCH_sched.json",     "grouped_regression_pct",  5.0,  "<="),
    ("BENCH_elastic.json",   "ratio",                   0.85, ">="),
    ("BENCH_telemetry.json", "overhead_pct",            10.0, "<="),
    ("BENCH_event.json",     "prediction_error",        0.15, "<="),
    ("BENCH_fusion.json",    "compiled_vs_interpreted", 2.0,  ">="),
    ("BENCH_fusion.json",    "stateful_vs_interpreted", 1.5,  ">="),
    ("BENCH_fusion.json",    "replica_vs_interpreted",  1.3,  ">="),
    ("BENCH_fusion.json",    "telemetry_overhead_pct",  25.0, "<="),
]

d = sys.argv[1]
docs, bad = {}, 0
print(f"{'file':24} {'metric':26} {'value':>10} {'gate':>10}  verdict")
print("-" * 84)
for name, key, gate, op in GATES:
    path = os.path.join(d, name)
    if name not in docs:
        try:
            with open(path) as f:
                docs[name] = json.load(f)
        except OSError:
            docs[name] = None
        except ValueError as e:
            print(f"{name:24} invalid JSON: {e}")
            docs[name] = None
            bad += 1
            continue
    doc = docs[name]
    if doc is None:
        print(f"{name:24} {key:26} {'-':>10} {op}{gate:>8}  MISSING")
        continue
    if key not in doc:
        print(f"{name:24} {key:26} {'-':>10} {op}{gate:>8}  NO KEY")
        bad += 1
        continue
    v = doc[key]
    ok = v >= gate if op == ">=" else v <= gate
    print(f"{name:24} {key:26} {v:>10.3f} {op}{gate:>8}  "
          f"{'PASS' if ok else 'FAIL'}")
    if not ok:
        bad += 1

sys.exit(1 if bad else 0)
EOF
