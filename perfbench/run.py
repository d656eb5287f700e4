#!/usr/bin/env python3
"""Runs one perfbench workload against hetindex built from this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench (and the library from ../src) under .bench_build/ on first
use, runs the harness self-tests, then the workload. The result carries
every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
one (--trace 1); perfbench/layers.json says what each is on each
workload. Everything the run writes lives under .bench_build/ and
.bench_work/ in the checkout; the work directory is removed afterwards.
The last line of standard output is the result object {"correct",
"attempted", "failed", "metrics"}; the line before it, starting with ENV,
is the environment block (git rev or source digest, compiler, build type,
nproc, seed, corpus bytes, sample counts). Exits 1 without a result line
when the build or the harness fails, and 1 after the result line when a
correctness check failed.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170
# Compiler and program temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    os.makedirs(TMP_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def source_identity():
    """Git revision when the checkout is a repository, plus a digest of the
    library sources either way (a checkout without .git has no revision)."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def selftest():
    out = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                         stdout=sys.stderr, stderr=sys.stderr, env=ENV)
    return out.returncode == 0


def check_result(result, expected):
    """The result object must carry exactly the expected metrics, each a
    number in the manifest's unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    got = set(result["metrics"])
    if got != set(expected):
        return "metrics %s, expected %s" % (sorted(got), sorted(expected))
    for name, metric in result["metrics"].items():
        if (set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float))
                or metric["unit"] != expected[name]):
            return "metric %s is %s, expected unit %s" % (name, metric, expected[name])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of: " + ", ".join(names))
    if not build() or not selftest():
        return 1

    # Every workload reports every metric of the manifest: all end-to-end
    # ones untraced, all per-layer ones traced.
    expected = {m["name"]: m["unit"] for m in manifest["per_layer" if args.trace else "end_to_end"]}
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("ENV "):
        log("perfbench: workload exited %d without a result" % proc.returncode)
        return 1
    env = json.loads(lines[-2][4:])
    result = json.loads(lines[-1])
    problem = check_result(result, expected)
    if problem:
        log("perfbench: malformed result: " + problem)
        return 1

    for line in lines[:-2]:
        print(line)
    if args.trace:
        print("layer map (metric [pass] -> entry point -> end-to-end metrics it should move):")
        for name, info in layers["per_layer"].items():
            print("  %-36s [%s] %s -> %s" % (name, info["pass"], info["entry"],
                                            ", ".join(info["moves"]) or "-"))
    rev, digest = source_identity()
    env.update({"git_rev": rev, "src_sha256": digest, "python": sys.version.split()[0]})
    print("ENV " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
