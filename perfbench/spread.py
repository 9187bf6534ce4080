#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3,4,5] [--trace 0|1] [--verbose]

For every workload (default: all in BENCHMARK.json) it runs
`python3 perfbench/run.py` once per seed with BENCHMARK.json's
run_seconds, then prints per metric the median and the spread: the
distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. With
--trace 0 each spread is compared with a third of the metric's bound (the
steadiness target; setup_s is exempt). --verbose also prints every run's
value, and the values before host-speed scaling ("unscaled" lines) with
their spread. Exits 1 when a run fails, a result is not correct, or a
bounded metric misses its target.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d: exit %d\n%s" % (workload, seed, out.returncode, out.stderr[-2000:]))
    unscaled = {p[1]: float(p[2]) for p in (l.split() for l in lines)
                if len(p) == 4 and p[0] == "unscaled"}
    return json.loads(lines[-1]), unscaled


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for w in workloads:
        values = {}
        unscaled_vals = {}
        for seed in seeds:
            res, unscaled = run(w, seed, bench["run_seconds"], args.trace)
            for name, v in unscaled.items():
                unscaled_vals.setdefault(name, []).append(v)
            if not res["correct"]:
                print("%s seed %d: correct=false" % (w, seed))
                bad = True
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d seeds)" % (w, len(seeds)))
        def spread_of(vs):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            return med, ((q[2] - q[0]) / med if med else 0.0)
        for name, vs in values.items():
            med, spread = spread_of(vs)
            mark = ""
            if args.trace == 0 and name in bounds and name != "setup_s":
                target = bounds[name] / 3
                mark = "ok" if spread <= target else "SPREAD > bound/3 (%.3f)" % target
                bad = bad or spread > target
            print("  %-40s median %14.6g  spread %6.3f  %s" % (name, med, spread, mark))
            if args.verbose:
                print("      " + " ".join("%.4g" % v for v in vs))
                if name in unscaled_vals:
                    uvs = unscaled_vals[name]
                    print("      unscaled: spread %6.3f  %s"
                          % (spread_of(uvs)[1], " ".join("%.4g" % v for v in uvs)))
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
