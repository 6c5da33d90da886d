#!/usr/bin/env python3
"""HyperSub benchmark command.

    python3 perfbench/run.py --workload paper-1740 --seed 1 --seconds 10 --trace 0

Builds the benchmark program (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench under the repository root) from the sources in src/,
then runs the workload in a fresh process on the sequential engine.

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 runs the workload untraced and traced (overlay decorator, call
timers and layer replays) side by side in two processes, checks that both
runs produced the same snapshot, delivery and zone digests, and reports the
per-layer metrics of the traced run plus trace_overhead_frac, the traced
run's extra wall time in the measured phase.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, holding the metrics BENCHMARK.json lists for the chosen mode.
The exit status is 1 when the result is not correct (a wrong delivery
multiset, a truncated event, or traced digests that differ).
--selftest builds and runs the benchmark's own self-tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def step(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("HyperSub sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "-j", jobs])


def run_workloads(args, modes):
    """Run hsbench once per traced flag in `modes`, side by side, and
    return their results in the same order."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    procs = []
    try:
        for traced in modes:
            cmd = [os.path.join(BUILD, "hsbench"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--traced", "1" if traced else "0"]
            procs.append((traced, cmd, subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)))
        results = []
        for traced, cmd, p in procs:
            try:
                out, err = p.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("workload run timed out: " + " ".join(cmd))
            sys.stderr.write(err)
            lines = out.strip().splitlines()
            if p.returncode != 0 or not lines:
                fail("workload run failed (exit %d): %s" %
                     (p.returncode, " ".join(cmd)))
            for line in lines[:-1]:
                print(("traced   " if traced else "untraced ") + line)
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for _, _, p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def pick(block, names, where):
    out = {}
    for name in names:
        if name not in block:
            fail("metric %s missing from the %s run" % (name, where))
        out[name] = block[name]
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "hsbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        fail("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)

    runs = run_workloads(args, (False, True) if args.trace else (False,))
    plain = runs[0]
    correct = plain["failed"] == 0
    print("untraced digests %s" % json.dumps(plain["digests"], sort_keys=True))
    print("untraced failed_frac %.6g (%d of %d publishes)" %
          (plain["failed"] / plain["attempted"], plain["failed"],
           plain["attempted"]))
    if args.trace:
        traced = runs[1]
        same = traced["digests"] == plain["digests"]
        print("traced   digests %s (%s)" %
              (json.dumps(traced["digests"], sort_keys=True),
               "identical" if same else "DIFFERENT"))
        correct = correct and same and traced["failed"] == 0
        layer = dict(traced["per_layer"])
        layer["trace_overhead_frac"] = {
            "value": traced["measure_s"] / plain["measure_s"] - 1.0,
            "unit": "frac"}
        names = [m["name"] for m in contract["per_layer"]]
        metrics = pick(layer, names, "traced")
    else:
        names = [m["name"] for m in contract["end_to_end"]]
        metrics = pick(plain["end_to_end"], names, "untraced")
    for name, m in metrics.items():
        print("%-28s %18.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": plain["attempted"],
                      "failed": plain["failed"], "metrics": metrics}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
