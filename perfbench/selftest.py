#!/usr/bin/env python3
"""Self-test of the benchmark's command line (run from the repository root).

    python3 perfbench/selftest.py

Checks that run.py rejects every unknown, repeated, missing or malformed
flag with a non-zero exit and no result line, and that a valid one-second
run takes its seed from --seed and ends with the result line the contract
asks for.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
VALID = ["--workload", "live_jobs", "--seed", "5", "--seconds", "1",
         "--trace", "0"]


def replaced(flag, value):
    args = list(VALID)
    args[args.index(flag) + 1] = value
    return args


def without(flag):
    args = list(VALID)
    index = args.index(flag)
    del args[index:index + 2]
    return args


REJECTED = {
    "unknown flag": VALID + ["--runs", "1"],
    "stray argument": VALID + ["extra"],
    "flag without value": VALID[:-1],
    "repeated flag": VALID + ["--seed", "6"],
    "missing seed": without("--seed"),
    "missing workload": without("--workload"),
    "equals form": without("--seed") + ["--seed=5"],
    "seed not a number": replaced("--seed", "12x"),
    "negative seed": replaced("--seed", "-1"),
    "empty seed": replaced("--seed", ""),
    "seed overflows": replaced("--seed", "18446744073709551616"),
    "zero seconds": replaced("--seconds", "0"),
    "fractional seconds": replaced("--seconds", "1.5"),
    "unknown workload": replaced("--workload", "hit"),
    "trace not 0 or 1": replaced("--trace", "2"),
    "out-dir is the runner's": VALID + ["--out-dir", "x"],
}


def run(args):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          timeout=600)


def main():
    failures = []
    for name, args in REJECTED.items():
        done = run(args)
        last = done.stdout.strip().split("\n")[-1] if done.stdout else ""
        if done.returncode == 0 or last.startswith("{"):
            failures.append("%s: exit %d, last line %r"
                            % (name, done.returncode, last))

    done = run(VALID)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        listed = {entry["name"] for entry in json.load(f)["end_to_end"]}
    if done.returncode != 0 or result is None:
        failures.append("valid run: exit %d, no result" % done.returncode)
    elif (set(result) != {"correct", "attempted", "failed", "metrics"} or
          set(result["metrics"]) != listed or result["correct"] is not True):
        failures.append("valid run: unexpected result %r" % result)
    elif not any(line.startswith("perfbench workload=live_jobs seed=5 ")
                 for line in lines):
        failures.append("valid run: seed 5 not the run's seed")

    for failure in failures:
        print("FAIL " + failure)
    print("%d checks, %d failed" % (len(REJECTED) + 1, len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
