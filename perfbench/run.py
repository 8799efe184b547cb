#!/usr/bin/env python3
"""Builds and runs the perfbench end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload live_jobs --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from source (Release) into
.bench_build/perfbench, runs one workload, and prints the benchmark's
readable report followed, as the last line, by one JSON object with the
keys correct, attempted, failed and metrics. The metrics are those
BENCHMARK.json lists under end_to_end (--trace 0) or per_layer
(--trace 1). Span files, filesystem counters and the full result of each
run are written to .bench_build/perfbench-out.

Every flag is passed to the benchmark binary, which rejects unknown,
repeated, missing or malformed flags with exit code 2.
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at %s: the benchmark builds the repository's "
                 "library from source" % (needed, ROOT))
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                fail("build step %s exited with %d"
                     % (" ".join(step[:2]), done.returncode))
    return os.path.join(BUILD_DIR, "perfbench")


def source_identity():
    """The git commit when the checkout is a repository, and always a
    digest of src/, which identifies the library built in any checkout."""
    commit = "unavailable (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def main():
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        done = subprocess.run([binary] + sys.argv[1:] + ["--out-dir", OUT_DIR],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with %d" % done.returncode)
    try:
        full = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    for line in lines[:-1]:
        print(line)

    commit, digest = source_identity()
    context = full["context"]
    context["git_commit"] = commit
    context["src_digest"] = digest
    print("context: git_commit=%s src_digest=%s" % (commit, digest))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if context["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        measured = full["metrics"].get(entry["name"])
        if measured is None or measured["value"] is None:
            fail("metric %s was not measured" % entry["name"])
        if measured["unit"] != entry["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s"
                 % (entry["name"], measured["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": measured["unit"]}

    result_path = os.path.join(OUT_DIR, "results-%s-%d-trace%d.json" % (
        context["workload"], context["seed"], context["trace"]))
    with open(result_path, "w") as handle:
        json.dump(full, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
