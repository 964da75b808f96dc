#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload stock --seed 1 --seconds 30 --trace 0

The arguments go to perfbench/bench.exe unchanged (see README.md).
Build output goes to stderr, so the benchmark's last line of stdout
is its JSON result. Exits non-zero when the build or any check fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run([dune, "build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
