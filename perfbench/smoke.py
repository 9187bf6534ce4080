#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size for one second,
untraced and traced, and checks that
- the last line of output parses as {"correct", "attempted", "failed",
  "metrics"} and correct is true;
- every end-to-end metric (untraced) or per-layer metric (traced) is
  printed, in the JSON and as a "metric <name> <value> <unit>" line, with
  the unit BENCHMARK.json declares, and nothing else is;
- the failures are exactly the ones the known Udi defect predicts: on
  org_edit every hiring session (every 4th save) fails with "component
  xemp is not updatable" and nothing else fails; elsewhere nothing fails;
  and ok_frac agrees with the failed and attempted counts;
- the untraced and the traced run of a workload attempt and fail the same
  number of ops, which depend on the run's length alone.
It also checks that run.py refuses, with a non-zero exit and no result,
in a directory holding only BENCHMARK.json and perfbench/. Exits 1 on the
first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HIRE_EVERY = 4
DEFECT = "component xemp is not updatable"


def die(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(cmd, cwd="."):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace):
    tag = "%s trace=%d" % (workload, trace)
    out = run(["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"])
    if out.returncode != 0:
        die("%s: exit %d\n%s" % (tag, out.returncode, out.stderr[-3000:]))
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        die("%s: result keys %s" % (tag, sorted(res)))
    if res["correct"] is not True:
        die("%s: correct is %r\n%s" % (tag, res["correct"], out.stdout[-3000:]))
    declared = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    want = {m["name"]: m["unit"] for m in declared}
    got = res["metrics"]
    if set(got) != set(want):
        die("%s: metrics differ: missing %s, extra %s"
            % (tag, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for name, unit in want.items():
        v = got[name]
        if v["unit"] != unit or not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            die("%s: metric %s = %r, want unit %s" % (tag, name, v, unit))
        if printed.get(name) != unit:
            die("%s: metric %s not printed with unit %s" % (tag, name, unit))
    detail = json.loads(next(l for l in lines if l.startswith("DETAIL "))[len("DETAIL "):])
    kinds = detail["kinds"]
    if detail["unexpected_failures"] != 0:
        die("%s: %d unexpected failures: %s" % (tag, detail["unexpected_failures"], kinds))
    for kind, k in kinds.items():
        predicted = k["attempted"] // HIRE_EVERY if (workload == "org_edit" and kind == "save") else 0
        if k["failed"] != predicted:
            die("%s: %s failed %d, the known defect predicts %d (first error: %s)"
                % (tag, kind, k["failed"], predicted, k["first_error"]))
        if predicted and DEFECT not in (k["first_error"] or ""):
            die("%s: %s failures are not the known defect: %s" % (tag, kind, k["first_error"]))
    attempted = sum(k["attempted"] for k in kinds.values())
    failed = sum(k["failed"] for k in kinds.values())
    if (res["attempted"], res["failed"]) != (attempted, failed) or attempted < 1:
        die("%s: attempted/failed %d/%d, per kind %d/%d"
            % (tag, res["attempted"], res["failed"], attempted, failed))
    if trace == 0 and abs(got["ok_frac"]["value"] - (1 - failed / attempted)) > 1e-9:
        die("%s: ok_frac %r, want %r" % (tag, got["ok_frac"]["value"], 1 - failed / attempted))
    print("smoke: ok: %s (%d ops, %d failed as predicted)" % (tag, attempted, failed))
    return attempted, failed


def check_bare():
    bare = os.path.join("perfbench", "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    out = run(["python3", "perfbench/run.py", "--workload", "ws_extract", "--seed", "1",
               "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        die("bare checkout: exit %d, output %r" % (out.returncode, out.stdout[-500:]))
    print("smoke: ok: bare checkout refused (exit %d)" % out.returncode)


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        counts = [check_run(bench, w["name"], trace) for trace in (0, 1)]
        if counts[0] != counts[1]:
            die("%s: attempted/failed %d/%d untraced but %d/%d traced"
                % ((w["name"],) + counts[0] + counts[1]))
    check_bare()


if __name__ == "__main__":
    main()
