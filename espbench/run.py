#!/usr/bin/env python3
"""Builds the ESP end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 espbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is configured and built in Release mode under
.bench_build/espbench (incrementally after the first run). Build output goes
to stderr; the benchmark's report goes to stdout and its last line is the
result object {"correct", "attempted", "failed", "metrics"}. Run artifacts
(span files) land in .bench_out, journals and worker storage in .bench_work.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "espbench")
BINARY = os.path.join(BUILD_DIR, "espbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("espbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
        fail("build failed")


def main(argv):
    if "--workload" not in argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    build()
    cmd = [BINARY] + argv + ["--out", os.path.join(ROOT, ".bench_out"),
                             "--work", os.path.join(ROOT, ".bench_work")]
    # Its own session, so a timeout takes down forked cluster workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail("result line has keys %s" % sorted(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
