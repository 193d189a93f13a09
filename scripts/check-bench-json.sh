#!/bin/sh
# BENCH_*.json validity gate, runnable locally and in CI.
#
# Usage: check-bench-json.sh [DIR]
#
# Every bench section persists its result file atomically (temp file +
# rename), so a file that exists must be complete: one line of valid
# JSON carrying the keys the gates and downstream tooling read. This
# script parses each BENCH_*.json present in DIR (default: cwd) and
# checks the per-file required keys; a missing file is not an error
# (sections run selectively in CI), a malformed or key-incomplete one
# is.
set -eu

dir="${1:-.}"

python3 - "$dir" <<'EOF'
import glob, json, os, sys

REQUIRED = {
    "BENCH_elastic.json": ["section", "offered_rate", "static_rate",
                           "elastic_final_rate", "ratio", "epochs"],
    "BENCH_sched.json": ["section", "cores", "grouped_regression_pct",
                         "idle", "saturated"],
    "BENCH_telemetry.json": ["section", "rate_off", "rate_on",
                             "overhead_pct", "latency_ms"],
    "BENCH_mailbox.json": ["section", "pipeline", "sweep", "testbed", "fig11"],
    "BENCH_log.json": ["section", "ingest_mb_s", "batched_vs_per_record",
                       "replay", "recovery"],
    "BENCH_event.json": ["section", "rate_processing", "rate_event", "ratio",
                         "late", "on_time_loss", "disorder_fraction",
                         "predicted_out", "measured_out", "prediction_error"],
    "BENCH_fusion.json": ["section", "tuples", "members", "compiled_rate",
                          "interpreted_rate", "unfused_rate",
                          "compiled_vs_interpreted",
                          "interpreted_vs_unfused",
                          "stateful_members", "stateful_compiled_rate",
                          "stateful_interpreted_rate",
                          "stateful_vs_interpreted",
                          "replica_members", "replica_compiled_rate",
                          "replica_interpreted_rate",
                          "replica_vs_interpreted",
                          "telemetry_compiled_rate",
                          "telemetry_overhead_pct"],
}

d = sys.argv[1]
files = sorted(glob.glob(os.path.join(d, "BENCH_*.json")))
if not files:
    print(f"check-bench-json: no BENCH_*.json files under {d}")
    sys.exit(0)

bad = 0
for path in files:
    name = os.path.basename(path)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check-bench-json: {name}: invalid JSON: {e}")
        bad += 1
        continue
    missing = [k for k in REQUIRED.get(name, []) if k not in doc]
    if missing:
        print(f"check-bench-json: {name}: missing keys: {', '.join(missing)}")
        bad += 1
    else:
        print(f"check-bench-json: {name}: ok")

sys.exit(1 if bad else 0)
EOF
