#!/usr/bin/env python3
"""Benchmark entry point: builds larp_perfbench and runs one workload.

    python3 perfbench/run.py --workload steady|churn|recover --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  The first form prints, as its last line,
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1 (which also writes a Chrome trace-event file under
.bench_build/traces/).  The line before it is larp_perfbench's full result,
with provenance and every metric it measured.  --all runs every workload,
untraced and then traced, and prints each metric by name and unit.

larp_perfbench (perfbench/*.cpp) is built in Release mode against ../src into
.bench_build/; build output goes to stderr.  Exits 2 without a result when
it cannot build (for instance when src/ is absent).
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "larp_perfbench"
WORKLOADS = ("steady", "churn", "recover")
# Seeds: ROUTINE_SEED for everyday checks while a change is being written;
# HELD_OUT_SEED only to confirm a finished claim (never tune against it).
ROUTINE_SEED = 1
HELD_OUT_SEED = 20070326
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds larp_perfbench; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = BUILD / "cmake"
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("perfbench: build failed:", " ".join(step))
                return False
    return BINARY.is_file()


def source_digest():
    """The commit when in a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                    "--", "src", "perfbench", "BENCHMARK.json"],
                                   capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_driver(workload, seed, seconds, trace, smoke=False):
    """Runs larp_perfbench once; returns its full result (a dict)."""
    data_dir = BUILD / "data" / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--data-dir", str(data_dir)]
    trace_file = None
    if trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}.json"
        cmd += ["--trace", "--trace-out", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        stderr = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")
        code = "timeout"
    shutil.rmtree(data_dir, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if code == 3:  # larp_perfbench refuses to report from a non-Release build
        log(stderr.strip())
        sys.exit(3)
    if result is None:
        # larp_perfbench died (an abort, a signal, the timeout): every op it
        # reported attempting counts as failed, and the message is kept.
        attempted = 0
        for match in re.finditer(r"progress attempted=(\d+)", stderr):
            attempted = int(match.group(1))
        tail = [l for l in stderr.splitlines() if not l.startswith("progress ")]
        result = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "correct": False, "attempted": max(attempted, 1),
            "failed": max(attempted, 1), "failed_frac": 1.0,
            "failures": [f"larp_perfbench exited with {code}: " + " | ".join(tail[-5:])],
            "metrics": {},
        }
    result["exit"] = code
    result.setdefault("provenance", {})["source"] = source_digest()
    if trace_file is not None and trace_file.is_file():
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def summary_line(result, names):
    """The final line: exactly correct, attempted, failed and metrics."""
    metrics = {}
    correct = bool(result.get("correct"))
    for name in names:
        entry = result.get("metrics", {}).get(name)
        if entry is None or entry.get("value") is None or \
                not math.isfinite(entry["value"]):
            correct = False
            continue
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    return {"correct": correct, "attempted": int(result.get("attempted", 1)),
            "failed": int(result.get("failed", 0)), "metrics": metrics}


def value_of(result, name):
    value = result.get("metrics", {}).get(name, {}).get("value")
    return float("nan") if value is None else value


def run_all(seed, seconds):
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        plain = run_driver(workload, seed, seconds, trace=False)
        traced = run_driver(workload, seed, seconds, trace=True)
        print(f"== {workload} (seed {seed}, {plain.get('timed_rounds')} timed rounds, "
              f"{plain.get('series')} series)")
        print(f"   correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']}")
        for message in plain.get("failures", []) + traced.get("failures", []):
            print("   failure:", message)
        print(f"   {'failed_frac':34s} {plain.get('failed_frac', 1.0):>16.6g} ratio")
        for name in [m["name"] for m in spec["end_to_end"]]:
            print(f"   {name:34s} {value_of(plain, name):>16.6g} {units[name]}")
        print("   measured, not gated:")
        for name, entry in plain.get("metrics", {}).items():
            if name not in units:
                print(f"   {name:34s} {value_of(plain, name):>16.6g} {entry['unit']}")
        print("   per-layer (traced run):")
        for name in [m["name"] for m in spec["per_layer"]]:
            print(f"   {name:34s} {value_of(traced, name):>16.6g} {units[name]}")
        if "trace_file" in traced:
            print("   trace file:", traced["trace_file"])
        print("   provenance:", json.dumps(plain.get("provenance", {})))
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=ROUTINE_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke size (for the self-test)")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if not build():
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    result = run_driver(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps(result))
    print(json.dumps(summary_line(result, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
