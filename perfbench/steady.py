#!/usr/bin/env python3
"""Steadiness check for the treewalk benchmark (perfbench/README.md).

    python3 perfbench/steady.py [--runs 10] [--workloads serve-walk,...]
                                [--first-seed 1] [--same-seed]
                                [--seconds N] [--out F] [--against F]

Runs each workload --runs times through perfbench/run.py (end-to-end
metrics, --trace 0), each time with the next seed (or always
--first-seed with --same-seed, which separates host noise from seed
effects), and prints for every metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json.  A
spread above a third of its bound is flagged `wide`, above the bound
`FAIL`.  The raw values go to --out (default .bench_build/steady.json).
With --against, the medians are also compared with those of an earlier
--out file: `drift` is the change of the median in the metric's worse
direction, flagged `DRIFT` when it exceeds the bound.
Exit code 1 when a run fails or is incorrect, or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out",
                        default=os.path.join(ROOT, ".bench_build",
                                             "steady.json"))
    parser.add_argument("--against")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    raw = {}
    status = 0
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else k)
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     "%g" % args.seconds, "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr[-2000:])
                print("%s seed %d: run failed" % (workload, seed))
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (workload, seed, result["correct"], result["failed"]))
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (name, m["value"])
                for name, m in sorted(result["metrics"].items()))),
                  file=sys.stderr, flush=True)
        raw[workload] = values
        print("\n%s (%d runs, %gs each)" % (workload, args.runs, args.seconds))
        print("  %-16s %12s %12s %12s %8s %6s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "drift"))
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], None, vals[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flags = []
            if spread > bound:
                flags.append("FAIL")
                status = 1
            elif spread > bound / 3:
                flags.append("wide")
            drift = "-"
            before = earlier.get(workload, {}).get(name)
            if before:
                old = statistics.median(before)
                worse = (med - old) / old
                if not lower_is_better[name]:
                    worse = -worse
                drift = "%+.4f" % worse
                if worse > bound:
                    flags.append("DRIFT")
                    status = 1
            print("  %-16s %12.4f %12.4f %12.4f %8.4f %6.2f %8s %s" %
                  (name, med, q1, q3, spread, bound, drift, " ".join(flags)))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(raw, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
