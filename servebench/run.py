#!/usr/bin/env python3
"""Builds and runs the serving-core benchmark (servebench).

Run from the repository root:

  python3 servebench/run.py --workload zone_mix --seed 1 --seconds 40 --trace 0
  python3 servebench/run.py --self-check

The first call configures and builds servebench (the benchmark program plus
the repository's library, Release) under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild only what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result.
--self-check runs every workload briefly, traced and untraced, and fails if
the oracle trips or a metric BENCHMARK.json names is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the library sources and build file, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    """HEAD's commit when the checkout carries its .git directory."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "servebench")


def build():
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step), 3)
    return os.path.join(out, "servebench")


def run(exe, workload, seed, seconds, trace, capture=False):
    command = [exe, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if trace:
        command += ["--trace-out",
                    os.path.join(build_dir(), "spans-%s-%s.json" % (workload, seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)


def self_check(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Every workload the program defines, including any BENCHMARK.json does
    # not bound.
    workloads = subprocess.run([exe, "--list"], stdout=subprocess.PIPE,
                               universal_newlines=True, check=True).stdout.split()
    problems = []
    for workload in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(exe, workload, 1, 2, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s trace %d: no JSON result" % (workload, trace))
                continue
            missing = [m["name"] for m in spec[group] if m["name"] not in result["metrics"]]
            ok = proc.returncode == 0 and result["correct"] and not missing
            print("%-18s trace %d: %s%s" % (
                workload, trace, "ok" if ok else "FAILED",
                " missing " + ",".join(missing) if missing else ""))
            if not ok:
                problems.append("%s trace %d" % (workload, trace))
    if problems:
        fail("self-check failed: " + "; ".join(problems), 1)
    print("self-check passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not next to "
             "servebench/; run from a full checkout")
    exe = build()
    if args.self_check:
        return self_check(exe)
    if not args.workload:
        fail("--workload is required")
    return run(exe, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
