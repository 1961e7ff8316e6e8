#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in short mode (one set-up, one
second of measurement) twice untraced and once traced, and checks that

  - every run verifies (correct, no failed operation, exit code 0);
  - an untraced run prints exactly the end_to_end metrics and a traced
    run exactly the per_layer metrics, each with its declared unit;
  - end-to-end values are finite and non-zero;
  - the two untraced runs give the same sim_speedup_8c (the simulator
    is deterministic);
  - the serve-open rate and window the benchmark ran with are the ones
    BENCHMARK.json records.

Exits 0 when all checks pass.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    stamps = [json.loads(l) for l in lines if l.startswith('{"host"')]
    return proc.returncode, result, stamps[0] if stamps else None, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        sims = []
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            code, result, stamp, err = run(name, seed, trace)
            tag = "%s seed %d trace %d" % (name, seed, trace)
            if result is None:
                problems.append("%s: no result line (exit %d): %s" % (tag, code, err[-400:]))
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("%s: did not verify (exit %d): %s" % (tag, code, err[-400:]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metrics/units differ from BENCHMARK.json: %s"
                                % (tag, sorted(set(got.items()) ^ set(declared[trace].items()))))
            for k, v in result["metrics"].items():
                if not math.isfinite(v["value"]) or (trace == 0 and v["value"] == 0):
                    problems.append("%s: %s = %r" % (tag, k, v["value"]))
            if trace == 0 and "sim_speedup_8c" in result["metrics"]:
                sims.append(result["metrics"]["sim_speedup_8c"]["value"])
            if name == "serve-open" and stamp:
                s = stamp["settings"]
                for text in ("%d/s" % s["open_rate_per_s"], "%d outstanding" % s["closed_window"]):
                    if text not in w["why"]:
                        problems.append("%s: BENCHMARK.json does not record '%s'" % (tag, text))
        if len(sims) == 2 and sims[0] != sims[1]:
            problems.append("%s: sim_speedup_8c differs between runs: %r" % (name, sims))
        print("%-13s %s" % (name, "ok" if not problems else "checked"), flush=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "PASS" if not problems else "FAIL (%d problems)" % len(problems))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
