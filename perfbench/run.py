#!/usr/bin/env python3
"""Benchmark entry point: build npd_perfbench, run one workload, print metrics.

    python3 perfbench/run.py --workload fig6_paper --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5        # every workload
    python3 perfbench/run.py --record-expectations [--workload W]  # re-pin seeds

Run from the repository root.  npd_perfbench (perfbench/src) and the
npd_serve daemon are built from source into $CARGO_TARGET_DIR (default
.bench_build) on first use; every workload then runs in a fresh process.
The last line of stdout is the result document
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (preceded by a table of the
per-layer values and each layer's share).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig6_paper", "atlas_regular", "serve_small"]
BATCH_WORKLOADS = ["fig6_paper", "atlas_regular"]
SEED_SLOTS = 16
RUN_TIMEOUT_S = 170
# Closed-loop capacity of serve_small at concurrency 2 measured about
# 1.25k req/s on a 4-core Xeon VM; the open loop runs at about half of it.
DEFAULT_OPEN_QPS = 600.0


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build npd_perfbench and the daemon; stderr only."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "npd_perfbench",
                  "npd_serve_bin", "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(step))
    return (os.path.join(out, "npd_perfbench"),
            os.path.join(out, "npd", "tools", "npd_serve"))


def run_part(exe, serve_exe, workload, seed, seconds, trace, size="full",
               open_qps=DEFAULT_OPEN_QPS, record=False, part="main"):
    """Run one part of a workload in a fresh process; return its result."""
    socket_path = os.path.relpath(
        os.path.join(build_dir(), "pb-%d.sock" % os.getpid()))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--size", size, "--part", part,
           "--expectations", os.path.join(HERE, "expectations.json")]
    if workload == "serve_small":
        cmd += ["--serve-exe", serve_exe, "--socket", socket_path,
                "--open-qps", repr(float(open_qps))]
    if record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        if os.path.exists(socket_path):
            os.unlink(socket_path)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def run_workload(exe, serve_exe, workload, seed, seconds, trace, size, open_qps):
    """One benchmark run.  An untraced batch run is two fresh processes: a
    single-threaded peak-RSS probe, then the timed batches."""
    args = (exe, serve_exe, workload, seed, seconds, trace, size, open_qps)
    if trace or workload not in BATCH_WORKLOADS:
        return run_part(*args)
    parts = [run_part(*args, part="rss"), run_part(*args)]
    doc = {"correct": all(d["correct"] for d in parts),
           "attempted": sum(d["attempted"] for d in parts),
           "failed": sum(d["failed"] for d in parts),
           "metrics": {}}
    for part in parts:
        doc["metrics"].update(part["metrics"])
    return doc


def check_result(doc):
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result document: %s" % sorted(doc))
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        raise RuntimeError("result attempted nothing")


def print_layers(doc):
    """The per-layer table, then each layer's share of one unit of work."""
    metrics = doc["metrics"]
    for name in sorted(metrics):
        print("%-30s %16.6g %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    shares = {n[len("share."):]: m["value"] for n, m in metrics.items()
              if n.startswith("share.")}
    if shares:
        top = max(shares, key=shares.get)
        print("largest share: %s (%.1f%%)" % (top, 100.0 * shares[top]))


def record_expectations(exe, serve_exe, workloads):
    """Re-pin the committed per-seed expectations of batch workloads."""
    path = os.path.join(HERE, "expectations.json")
    table = {}
    if os.path.exists(path):
        with open(path) as current:
            table = json.load(current)
    for workload in workloads:
        table[workload] = {}
        for slot in range(SEED_SLOTS):
            doc = run_part(exe, serve_exe, workload, slot, 0.1, True, record=True)
            table[workload][str(20221000 + slot)] = doc
            sys.stderr.write("%s seed slot %d: %s\n" % (workload, slot, json.dumps(doc)))
    with open(path, "w") as out:
        json.dump(table, out, indent=1, sort_keys=True)
        out.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--open-qps", type=float, default=DEFAULT_OPEN_QPS)
    parser.add_argument("--record-expectations", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not args.record_expectations and args.workload is None:
        parser.error("need --workload")

    try:
        exe, serve_exe = build()
        if args.record_expectations:
            record_expectations(exe, serve_exe, [args.workload] if args.workload
                                in BATCH_WORKLOADS else BATCH_WORKLOADS)
            return 0
        if args.workload == "all":
            for workload in WORKLOADS:
                doc = run_workload(exe, serve_exe, workload, args.seed, args.seconds,
                                   args.trace, args.size, args.open_qps)
                check_result(doc)
                print("== %s correct=%s attempted=%d failed=%d" % (
                    workload, doc["correct"], doc["attempted"], doc["failed"]))
                print_layers(doc)
            return 0
        doc = run_workload(exe, serve_exe, args.workload, args.seed, args.seconds,
                           args.trace, args.size, args.open_qps)
        check_result(doc)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 1
    if args.trace:
        print_layers(doc)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
