#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke_test.py

Run from the repository root.  Each workload runs untraced and traced for
one second at the `tiny` size (no committed expectations apply there); the
result must be correct and carry exactly the metric names BENCHMARK.json
lists for that mode.  Finally the benchmark must fail cleanly, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900, check=False)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            label = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                sys.exit("FAIL %s: exit %d\n%s" % (label, proc.returncode, proc.stderr))
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if not doc["correct"] or doc["failed"] != 0 or doc["attempted"] < 1:
                sys.exit("FAIL %s: %s\n%s" % (label, json.dumps(doc)[:400], proc.stderr))
            if set(doc["metrics"]) != names[trace]:
                sys.exit("FAIL %s: metric names differ: %s" % (
                    label, sorted(set(doc["metrics"]) ^ names[trace])))
            print("ok   %s (%d attempted)" % (label, doc["attempted"]))

    # Without the repository's sources the build fails: no result line.
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"), "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = run(["--workload", "fig6_paper", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL bare directory: exit %d, stdout %r" % (proc.returncode,
                                                              proc.stdout[:200]))
    print("ok   bare directory fails cleanly (exit %d)" % proc.returncode)


if __name__ == "__main__":
    main()
