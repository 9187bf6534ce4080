#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ws_extract|oo1_nav|org_edit \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Builds perfbench/perfbench.exe with dune (the first run of a checkout
builds the engine libraries too), then runs it with the given arguments.
The benchmark's standard output passes through unchanged; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to standard error. Exits non-zero, without printing a
result, when the checkout holds no engine sources or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    # DUNE_CACHE=disabled keeps the build inside the checkout's _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")
    env = dict(os.environ, PERFBENCH_COMMIT=commit(), PERFBENCH_NPROC=str(os.cpu_count()))
    proc = subprocess.Popen([EXE] + sys.argv[1:], env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
