#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/perfbench.exe from source with dune into .bench_build
(release profile), then runs it with the same arguments. The last line
of standard output is the run's JSON result; build output goes to
standard error. Exits non-zero without a result if the sources are
missing, the build fails or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found under {root}; run from a full checkout",
                  file=sys.stderr)
            return 2
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir, "--profile", "release",
         "./perfbench/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    args = sys.argv[1:]
    if "--trace" in args and "--selftest" not in args:
        args += ["--trace-dir", os.path.join(build_dir, "perfbench-traces")]
    try:
        run = subprocess.run([exe] + args, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
