#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a dune project of its own (perfbench/dune-project).  It is
built in a staging tree, .bench_build/perfbench/, that holds that project
file, perfbench/src/ and a copy of the repository's lib/, so it compiles
against the checkout's sources without being part of the repository's own
build.  Every argument is passed on to the benchmark executable
(perfbench/src/main.ml), whose last line of standard output is the JSON
result.  Build output goes to standard error.  Exits non-zero, printing no
result, when the repository's lib/ is not there to build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAGE = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(STAGE, "_build", "default", "src", "main.exe")


def stage():
    os.makedirs(STAGE, exist_ok=True)
    shutil.copyfile(os.path.join(HERE, "dune-project"), os.path.join(STAGE, "dune-project"))
    for src, dst in ((os.path.join(ROOT, "lib"), "lib"), (os.path.join(HERE, "src"), "src")):
        dst = os.path.join(STAGE, dst)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)


def main():
    if not os.path.isdir(os.path.join(ROOT, "lib")):
        print("perfbench: no lib/ next to perfbench/; nothing to build", file=sys.stderr)
        return 2
    stage()
    # no shared dune cache: the build reads and writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", STAGE, "./src/main.exe"],
        cwd=STAGE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
