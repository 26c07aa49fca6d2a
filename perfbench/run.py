#!/usr/bin/env python3
"""Builds the program from source and runs the round benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

Run from the repository root. The first call configures and builds
perfbench/ (the program's libraries from src/ plus the benchmark binary)
into .bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

--trace 0 prints the end-to-end metrics of an untraced run, --trace 1 the
per-layer metrics of a traced run (see round_bench.cpp). --workload all runs
every workload listed in BENCHMARK.json, untraced and traced, prints every
metric, and exits nonzero if any run failed a check. A run that outlives
run_timeout_s() is stopped and counts as failed.

HS_* variables are removed from the environment of the benchmark binary, so
the program runs with its defaults whatever the caller's shell sets.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_round")


def run_timeout_s(seconds, trace):
    """A run's deadline. Set-up takes a fixed time; the work scales with
    --seconds, up to 2x for loopback_edges, and a traced run does it twice
    plus a reference run."""
    return 60 + seconds * (8 if trace else 4)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds incrementally. True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("program sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def provenance_id():
    """The git commit (+dirty with local changes), else a source digest."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("+dirty" if dirty.stdout else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, commit):
    """Runs the binary once; returns (exit code, stdout lines)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HS_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    timeout = run_timeout_s(seconds, trace)
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout} s")
        return 1, []
    return out.returncode, out.stdout.splitlines()


def run_all(seed, seconds, commit):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    attempted = failed = 0
    for name in names:
        for trace in (0, 1):
            rc, lines = run_one(name, seed, seconds, trace, commit)
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:
                result = {}
            ok = ok and rc == 0 and result.get("correct") is True
            attempted += result.get("attempted", 0)
            failed += result.get("failed", 0)
            print(f"{name} trace={trace}: exit {rc}", flush=True)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not build():
        log("build failed")
        return 2
    commit = provenance_id()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, commit)
    rc, lines = run_one(args.workload, args.seed, args.seconds, args.trace,
                        commit)
    for line in lines:
        print(line)
    return rc


if __name__ == "__main__":
    sys.exit(main())
