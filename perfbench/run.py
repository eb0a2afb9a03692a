#!/usr/bin/env python3
"""Repository benchmark: builds hdbench from source and runs one workload.

    python3 perfbench/run.py --workload campaign_rand --seed 7 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds into
.bench_build/ (later runs rebuild incrementally). The workload's output is
relayed, followed by a metric table; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Metric names
and units come from BENCHMARK.json: the end_to_end list for --trace 0, the
per_layer list for --trace 1 (traced runs also write a Chrome trace and a
per-layer table under .bench_build/out/). A per_layer metric of a layer the
workload does not load reads 0.

Exit codes: 0 success; 1 usage error; 2 missing sources, build or run failure;
3 a correctness check failed (the result line still says which).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "hdbench")
# Unmeasured work around the measured --seconds (repeated set-up, the
# reference campaign, the replay gate, cold-start samples) stays well inside
# this margin.
RUN_TIMEOUT_MARGIN_S = 120


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "hdbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_revision():
    """Git SHA of the built tree (-dirty when modified); without git, a
    SHA-256 over the sources the benchmark compiles."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                "perfbench"], cwd=ROOT, capture_output=True,
                               text=True, check=True, timeout=10).stdout
        return sha + ("-dirty" if dirty.strip() else "")
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
    return "source-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'", code=1)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD_DIR, "out"),
           "--git-sha", source_revision()]
    timeout_s = RUN_TIMEOUT_MARGIN_S + 2 * args.seconds
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {timeout_s:g} s")
    sys.stderr.write(done.stderr)
    stamp = result = None
    for line in done.stdout.splitlines():
        if line.startswith("HDBENCH_STAMP "):
            stamp = json.loads(line.split(" ", 1)[1])
        elif line.startswith("HDBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
        else:
            print(line)
    if done.returncode not in (0, 2) or stamp is None or result is None:
        fail(f"hdbench exited with code {done.returncode}")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = result["values"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in values:
            if not args.trace:
                fail(f"workload did not report end-to-end metric {name}")
            values[name] = 0.0
        value = float(values[name])
        if not math.isfinite(value):
            fail(f"metric {name} is not finite")
        metrics[name] = {"value": value, "unit": m["unit"]}

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(f"{'metric':28} {'value':>18}  unit")
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:18.6g}  {m['unit']}")
    print(f"{'failed_frac':28} {stamp['failed_frac']:18.6g}  ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and done.returncode == 0 else 3)


if __name__ == "__main__":
    main()
