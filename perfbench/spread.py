#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

    python3 perfbench/spread.py --workload paper-1740 --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed and prints, for every metric, the
median, the interquartile range (statistics.quantiles(values, n=4)) as a
share of the median, and the bound BENCHMARK.json fixes for it. With
--trace 0 it also prints the measured wall metrics before host scaling
(measured.*) and the host probes (host.chase_ns, host.phase_chase_ns). The raw result lines are
appended to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--log")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr))
        last = out.stdout.strip().splitlines()[-1]
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": json.loads(last)}) + "\n")
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, last))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in out.stdout.splitlines():
            f = line.split()
            if (len(f) == 4 and f[0] == "untraced" and
                    f[1].startswith(("measured.", "host."))):
                values.setdefault(f[1], []).append(float(f[2]))

    print("%-28s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-28s %14.6g %9.4f %7s" %
              (name, med, spread, "-" if bound is None else bound))


if __name__ == "__main__":
    main()
