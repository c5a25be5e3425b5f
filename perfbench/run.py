#!/usr/bin/env python3
"""Build and run the whole-flow benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Builds perfbench/stcbench.exe with dune in the repository that holds this
directory, then runs it with the same arguments; its last line of stdout is
the JSON result.  `--workload all` runs every workload in turn.  Exits
nonzero, without a result, when the build fails.
"""

import os
import subprocess
import sys

WORKLOADS = ["corpus", "tbk-bist", "verify"]
EXE = os.path.join("_build", "default", "perfbench", "stcbench.exe")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/stcbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        at = args.index("--workload") + 1
        runs = [args[:at] + [w] + args[at + 1 :] for w in WORKLOADS]
    else:
        runs = [args]
    code = 0
    for run in runs:
        sys.stdout.flush()
        code = max(code, subprocess.run([EXE] + run, env=env).returncode)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OSError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
