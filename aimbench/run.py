#!/usr/bin/env python3
"""Builds and runs one AIM benchmark run (see aimbench/README.md).

Run from the root of a checkout:

    python3 aimbench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

Builds the aim library and the aimbench binary from the checkout's sources
into $CARGO_TARGET_DIR/aimbench (default .bench_build/aimbench), runs the
workload, echoes the binary's report, and prints as its last line one JSON
object with exactly the keys correct, attempted, failed and metrics. The
metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The exit code is the binary's: non-zero when
an output check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print("aimbench: " + msg, file=sys.stderr)
    return 2


def source_digest(src_dir):
    """Short digest of every file under src/: identifies the build."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and len(sha) == 40 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root):
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "aimbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "aimbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-mismatch", default="none",
                   choices=("none", "calls", "oracle", "rows"),
                   help="perturb one expected value of the calls, oracle "
                        "(mixed, analytics) or rows (recovery) check; the "
                        "run must fail")
    args = p.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "CMakeLists.txt")):
        return fail("no aim sources under %s: run from a checkout's root"
                    % src_dir)
    if not os.path.isfile(spec_path):
        return fail("no BENCHMARK.json in %s" % root)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload %r" % args.workload)

    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(root, ".bench_out"),
           "--tmp-dir", os.path.join(root, ".bench_tmp"),
           "--git-sha", git_sha(root), "--src-digest", source_digest(src_dir),
           "--inject-mismatch", args.inject_mismatch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return fail("aimbench printed no result (exit %d)" % proc.returncode)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and not result["correct"]:
            continue  # a failed check may end the run before it measures
        if got is None:
            return fail("metric %s missing from the %s run"
                        % (m["name"], args.workload))
        if got["unit"] != m["unit"]:
            return fail("metric %s has unit %s, BENCHMARK.json says %s"
                        % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
