#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. Builds benchmark/main.exe with dune (the
first build compiles the libraries from source), runs it, passes its output
through unchanged -- the last line is the result object -- and appends one
line to benchmark/history.jsonl. Exits with the benchmark's exit code: non-zero
when any output disagreed with its oracle, or when it could not run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune is not on PATH")


def build():
    # The shared dune cache lives outside the checkout; keep every build
    # artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        dune() + ["build", "--root", ".", "./benchmark/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(ROOT, "_build", "default", "benchmark", "main.exe")


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    commit = git("rev-parse", "HEAD")
    if commit is None:
        return None, None
    # The history file and scratch output change on every run.
    status = git("status", "--porcelain", "--", ".",
                 ":(exclude)benchmark/history.jsonl", ":(exclude)benchmark/out")
    return commit, bool(status)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join("benchmark", "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()

    record = None
    for line in done.stdout.splitlines():
        if line.startswith("history: "):
            record = json.loads(line[len("history: "):])
    if record is not None:
        commit, dirty = provenance()
        line = {"commit": commit, "dirty": dirty, "cores": record.pop("cores"),
                "ocaml": record.pop("ocaml"), "seed": args.seed,
                "seconds": args.seconds, **record}
        with open(HISTORY, "a") as f:
            f.write(json.dumps(line, separators=(",", ":")) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
