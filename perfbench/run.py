#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload paged-evict --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds the
harness and the libraries under src/ into .bench_build/ (a Release build);
later runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the harness's JSON result. Each run also leaves its
metadata and result in .bench_out/, and a traced run its spans.

--smoke runs every workload, untraced and traced, on a small graph for about
a second each, and fails unless every answer verifies and every metric named
in BENCHMARK.json is reported. It is the benchmark's own test.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "prost_perfbench")

# A run must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt beside perfbench/: nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS),
                   "--target", "prost_perfbench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """Digest of the sources the harness is built from (the checkout the
    benchmark runs in is not a git repository, so there is no commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_harness(workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns (metadata, result) parsed from the
    harness's last two stdout lines. Exits on any failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, "--source-id", source_id(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{workload}: harness printed no result")
    metadata = json.loads(lines[-2])["metadata"]
    result = json.loads(lines[-1])
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{workload}-trace{trace}-seed{seed}.json"
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as f:
        json.dump({"metadata": metadata, "result": result}, f, indent=1)
    return metadata, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_harness(workload, 1, 1, trace,
                                    ("--triples", "20000"))
            names = {m["name"] for m in spec[group]}
            got = set(result["metrics"])
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} answers failed")
            if got != names:
                problems.append(f"{label}: missing {sorted(names - got)}, "
                                f"unexpected {sorted(got - names)}")
            if trace == 0 and result["metrics"]["ok_rate"]["value"] != 1:
                problems.append(f"{label}: ok_rate "
                                f"{result['metrics']['ok_rate']['value']}")
            print(f"[perfbench] smoke {label}: {result['attempted']} "
                  "requests", file=sys.stderr)
    for problem in problems:
        print(f"[perfbench] smoke FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok"}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("--workload is required")
    metadata, result = run_harness(args.workload, args.seed, args.seconds,
                                   args.trace)
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
