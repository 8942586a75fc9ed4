#!/usr/bin/env python3
"""One benchmark for the Perigee round engine.

Run from the repository root:

    python3 roundbench/run.py --workload paper_blocks --seed 1 --seconds 10 --trace 0
    python3 roundbench/run.py --smoke

For one workload and seed this builds the benchmark crate (release,
offline, into $CARGO_TARGET_DIR, default .bench_build), then runs two
processes of it, one after the other:

1. a plain run with telemetry off, which repeats the seed's trajectory
   closed-loop for --seconds and gives the end-to-end metrics;
2. a traced run of the same seed, with the engine's telemetry and the
   layer probe, which gives the per-layer metrics and writes
   .bench_out/<workload>-seed<seed>/{rounds,spans}.jsonl.

Both processes check every round. This script adds the cross-run gate
(the traced results must be bit-identical to the untraced ones), prints
a stamp, the end-to-end table and the per-layer table, and ends with one
JSON line: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. It exits nonzero when any check failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["paper_blocks", "stream_sketch", "churn_stream_dense"]
# Whole-invocation budget after the build, in seconds.
DEADLINE_S = 170.0

# (name, unit) of every end-to-end metric, as the plain run reports it.
END_TO_END = [
    ("setup_s", "s"),
    ("round_s_p50", "s"),
    ("round_s_tail", "s"),
    ("msgs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("lambda90_ratio", "ratio"),
]

# (name, unit) of every per-layer metric of the traced run.
PER_LAYER = [
    (f"engine.{p}_s", "s")
    for p in [
        "mine", "view", "fault_compile", "propagation", "traffic",
        "scoring", "liveness", "rewiring", "churn", "view_patch",
    ]
] + [
    ("engine.phase_cover", "ratio"),
    ("view.flood_relaxations", "count"),
    ("view.flood_useful_ratio", "ratio"),
    ("view.broadcast_us_per_block", "us"),
    ("view.build_s", "s"),
    ("gossip.pops", "count"),
    ("gossip.elided_ratio", "ratio"),
    ("gossip.deliveries", "count"),
    ("gossip.queue_peak", "count"),
    ("gossip.epoch_refills", "count"),
    ("gossip.epoch_reuse_ratio", "ratio"),
    ("gossip.batch_us_per_msg", "us"),
    ("traffic.messages", "count"),
    ("traffic.generate_ms", "ms"),
    ("observation.record_us_per_row", "us"),
    ("observation.fold_us_per_row", "us"),
    ("observation.store_bytes", "bytes"),
    ("score.retain_us_per_node", "us"),
    ("faults.compile_ms", "ms"),
    ("faults.drops", "count"),
    ("faults.delays", "count"),
    ("faults.dupes", "count"),
    ("score.dropped", "count"),
    ("liveness.evicted", "count"),
    ("cpu.util", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def tool_output(cmd, env=None):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    return tool_output(["git", "rev-parse", "HEAD"], env)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except OSError as e:
        log(f"error: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("error: building the benchmark failed")
        return None
    return target / "release" / "perigee-roundbench"


def run_process(cmd, deadline):
    """Runs one benchmark process; returns its JSON result line or None."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"error: {' '.join(cmd)} ran past the deadline")
        return None
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        log(f"error: {' '.join(cmd)} exited with {done.returncode}")
        return None
    return json.loads(lines[-1])


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def bench(args, binary):
    deadline = time.monotonic() + DEADLINE_S
    common = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(args.threads)]
    plain = run_process(common + ["--mode", "plain", "--seconds", str(args.seconds)], deadline)
    if plain is None:
        return 1
    out_dir = Path(".bench_out") / f"{args.workload}-seed{args.seed}"
    traced = run_process(common + ["--mode", "traced", "--out", str(out_dir)], deadline)
    if traced is None:
        return 1

    # The correctness gate across the two runs of the seed.
    failures = plain["failures"] + traced["failures"]
    failed = int(plain["failed"] + traced["failed"])
    attempted = int(plain["attempted"] + traced["attempted"])
    if traced["digest"] != plain["digest"]:
        failures.append(f"traced results {traced['digest']} differ from untraced {plain['digest']}")
        failed += 1
    e2e = dict(plain["metrics"])
    e2e["lambda90_gain"] = 1.0 - e2e["lambda90_ratio"]
    e2e["failed_round_frac"] = failed / max(attempted, 1)
    layers = dict(traced["per_layer"])
    layers["telemetry.overhead_frac"] = traced["round_s_p50"] / e2e["round_s_p50"] - 1.0

    print(f"== {args.workload}  seed {args.seed}")
    print(f"stamp: nproc {plain['nproc']:.0f}, rayon threads {plain['threads']:.0f}, "
          f"trajectory {plain['trajectory_rounds']:.0f} rounds x {plain['trajectories']:.0f}, "
          f"measured rounds {plain['measured_rounds']:.0f}, "
          f"round_s_tail = p{plain['tail_percentile']:.0f}, "
          f"commit {git_commit()}, {tool_output(['rustc', '--version'])}")
    print(f"digest: rounds {plain['digest']['rounds']} topology {plain['digest']['topology']} "
          f"lambda90 {plain['digest']['lambda90']}")
    print("end-to-end (telemetry off):")
    for name, unit in END_TO_END + [("lambda90_gain", "ratio"), ("failed_round_frac", "ratio")]:
        print(f"  {name:<40} {fmt(e2e[name]):>14} {unit}")
    print(f"per-layer (traced run, {traced['probed_rounds']:.0f} probed rounds, "
          f"trace in {traced['trace_dir']}):")
    for name, unit in PER_LAYER:
        print(f"  {name:<40} {fmt(layers[name]):>14} {unit}")
    for f in failures:
        print(f"FAILED: {f}")
    print(f"correctness: {'ok' if not failures else 'FAILED'} "
          f"({failed} of {attempted} rounds failed)")

    table = END_TO_END if args.trace == 0 else PER_LAYER
    values = e2e if args.trace == 0 else layers
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in table},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def smoke(args, binary):
    status = 0
    for w in WORKLOADS:
        done = subprocess.run([str(binary), "--workload", w, "--seed", str(args.seed),
                               "--threads", str(args.threads), "--mode", "smoke",
                               "--rounds", "2"])
        status |= done.returncode
    print("smoke: ok" if status == 0 else "smoke: FAILED")
    return 0 if status == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="rayon threads (default: nproc; more than nproc is refused)")
    p.add_argument("--smoke", action="store_true",
                   help="a few full-size rounds of every workload with every check on")
    args = p.parse_args()
    if args.threads is None:
        args.threads = nproc()
    if not 1 <= args.threads <= nproc():
        log(f"error: --threads {args.threads} must be between 1 and nproc = {nproc()}")
        return 2
    if not args.smoke and args.workload is None:
        log("error: --workload is required")
        return 2
    binary = build()
    if binary is None:
        return 1
    return smoke(args, binary) if args.smoke else bench(args, binary)


if __name__ == "__main__":
    sys.exit(main())
