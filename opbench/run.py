#!/usr/bin/env python3
"""Build the operator-path benchmark from source and run one workload.

    python3 opbench/run.py --workload i2-day --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The benchmark is built with
dune into _build/ and run; it sets APPLE_JOBS=1 itself (see README.md).
The last line of standard output is the result object; the exit code is
the benchmark's own (0 when every output check passed).  A build failure
exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "opbench", "main.exe")


def main(argv):
    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./opbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"opbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("opbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
