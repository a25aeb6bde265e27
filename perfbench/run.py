#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark runner from source (a Release CMake build of
perfbench/CMakeLists.txt in .bench_build/perfbench under the checkout root;
the first run compiles, later runs reuse it), then runs one workload and
passes its result through: the last line of standard output is the JSON
result document. Build output and the runner's notes go to standard error.
Any failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUNNER = os.path.join(BUILD_DIR, "ktg_perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


class StepFailed(Exception):
    pass


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; the whole group is killed on
    timeout or interruption, and always waited for."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "ktg_perfbench"],
    ]
    for cmd in steps:
        try:
            code, _ = run(cmd, BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise StepFailed("build timed out: " + " ".join(cmd))
        except OSError as e:
            raise StepFailed("cannot run %s: %s" % (cmd[0], e))
        if code != 0:
            raise StepFailed("build failed (exit %d): %s" % (code, " ".join(cmd)))
    if not os.path.isfile(RUNNER):
        raise StepFailed("build produced no runner at " + RUNNER)


def source_digest():
    """Digest of src/ and perfbench/, naming the code a run measured (the
    checkout is not a git repository, so there is no commit to print)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        build()
        print("source digest: " + source_digest(), file=sys.stderr)
        cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                TRACE_DIR, "%s-seed%d.tsv" % (args.workload, args.seed))]
        try:
            code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
        except subprocess.TimeoutExpired:
            raise StepFailed("run exceeded %d s" % RUN_TIMEOUT_S)
        if code != 0:
            raise StepFailed("runner exited with code %d" % code)
        lines = out.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise StepFailed("runner printed no result")
    except StepFailed as e:
        print("error: workload %s: %s" % (args.workload, e), file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
