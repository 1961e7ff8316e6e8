#!/usr/bin/env python3
"""Builds the JANUS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper-mix|spec-sharded|serve-open \
        --seed N --seconds S --trace 0|1 [--short]

Run it from the root of a source checkout. The first run configures and
builds perfbench/ (which builds the JANUS libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only check the build is current. The benchmark's
output is passed through: its last line is the result JSON. A traced
run (--trace 1) also writes its spans to <build dir>/spans/<workload>.tsv.
Exits 0 when every check passed, non-zero otherwise (and without a
result line when the build fails).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-mix", "spec-sharded", "serve-open")
# A run measures for --seconds (a batch workload for up to 1.5 times that
# on a stolen host); the calm-host wait, set-up and the sim phase add up
# to about 25 s more. Anything far beyond that is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: JANUS sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "janus_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "janus_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="self-test mode: one set-up, same checks")
    args = p.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, args.workload + ".tsv")]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
