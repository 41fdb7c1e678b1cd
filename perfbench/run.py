#!/usr/bin/env python3
"""Build and run one workload of the layer-attributed benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: capture_packet, capture_hybrid, capture_packet_w2, fleet_day.
The benchmark binary is built from source with cargo into
$CARGO_TARGET_DIR (default: .bench_build). Its last stdout line is one
JSON object with the run's metrics; the lines before it are host facts,
per-iteration timings and every metric by name and unit.

Raw results are kept per run under perfbench/runs/: one line per run in
results.jsonl, the span file of each traced run, and the output
fingerprint of each (workload, seed, binary), which lets
capture_packet_w2 check that it produced the same bytes as
capture_packet for the same seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ["capture_packet", "capture_hybrid", "capture_packet_w2", "fleet_day"]
# Workloads that must produce identical bytes for the same seed.
TWINS = {"capture_packet": "capture_packet_w2", "capture_packet_w2": "capture_packet"}


def git_rev():
    """The commit checked out, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
        capture_output=True,
        text=True,
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    """Builds the benchmark binary; returns its path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        cwd=ROOT,
    )
    if done.returncode != 0:
        return None
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def binary_id(binary):
    st = os.stat(binary)
    return f"{st.st_size}-{st.st_mtime_ns}"


def load_fingerprints():
    path = os.path.join(RUNS, "fingerprints.jsonl")
    table = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    row = json.loads(line)
                    table[(row["workload"], row["seed"], row["binary"])] = row["fingerprint"]
                except (ValueError, KeyError):
                    continue
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = target if os.path.isabs(target) else os.path.join(ROOT, target)
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(RUNS, exist_ok=True)
    rev = git_rev()
    bin_id = binary_id(binary)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", rev,
    ]
    twin = TWINS.get(args.workload)
    expected = load_fingerprints().get((twin, args.seed, bin_id)) if twin else None
    if expected:
        cmd += ["--expect-fingerprint", expected]
    if args.trace:
        spans = os.path.join(RUNS, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        cmd += ["--spans-out", spans]

    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {done.returncode}", file=sys.stderr)
        return done.returncode or 1

    result = json.loads(lines[-1])
    fingerprint = next(
        (l.split("fingerprint=")[1].split()[0] for l in lines if "fingerprint=" in l), None
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": rev,
        "nproc": os.cpu_count(),
        "fingerprint": fingerprint,
        "result": result,
    }
    with open(os.path.join(RUNS, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if fingerprint and result.get("correct"):
        with open(os.path.join(RUNS, "fingerprints.jsonl"), "a") as f:
            row = {"workload": args.workload, "seed": args.seed, "binary": bin_id,
                   "fingerprint": fingerprint}
            f.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
