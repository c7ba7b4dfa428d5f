#!/usr/bin/env python3
"""Build and run the simulator benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds perfbench/ (which
compiles the simulator sources under src/) into .bench_build/perfbench;
later calls only re-check the build. Build output goes to stderr, and a
missing source tree or a failed build exits with status 1 before any
result is printed. The arguments then pass unchanged to the benchmark
binary, which takes this process's place: it rejects bad arguments with
status 2, and its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

--smoke shortens every workload's simulated span; the self-test in
tests/ uses it, and its numbers are not comparable to a full run.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tpp_perfbench")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness",
                                       "experiment.hh")):
        fail("simulator sources not found under %s"
             % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target",
                   "tpp_perfbench", "--parallel", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def main(argv):
    build()
    sys.stdout.flush()
    sys.stderr.flush()
    # exec rather than a child process: no process is left behind if
    # this one is stopped, and the binary's exit status is the result.
    os.execv(BINARY, [BINARY] + argv)


if __name__ == "__main__":
    main(sys.argv[1:])
