#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (a few seconds per workload).

    python3 perfbench/selftest.py

For each workload it runs run.py --smoke untraced once and traced three
times, and checks that:
  * the last line has exactly the keys correct/attempted/failed/metrics and
    every BENCHMARK.json metric, finite and with its unit;
  * forecast_rel_mse, ready_frac, disk_bytes_per_series and the
    serve.*_per_round counts repeat exactly across two runs with one seed;
  * another seed changes forecast_rel_mse;
  * the traced run's Chrome trace file parses and holds complete events.
Exits 1 on the first failed check.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("forecast_rel_mse", "ready_frac", "disk_bytes_per_series",
         "serve.trains_per_round", "serve.retrains_per_round",
         "serve.audits_per_round", "serve.erases_per_round")


def check(ok, message):
    if not ok:
        print("FAIL:", message)
        sys.exit(1)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload}: run.py exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    check(len(lines) >= 2, f"{workload}: expected a result and a final line")
    full, final = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(final) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: final line keys {sorted(final)}")
    check(final["correct"] is True and final["failed"] == 0,
          f"{workload} seed {seed} trace {trace}: not correct: "
          f"{full.get('failures')}")
    check(isinstance(final["attempted"], int) and final["attempted"] >= 1,
          f"{workload}: attempted {final['attempted']}")
    return full, final


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        _, plain = run(workload, 1, 0)
        full_a, traced_a = run(workload, 1, 1)
        full_b, _ = run(workload, 1, 1)
        full_c, _ = run(workload, 2, 1)
        for final, kind in ((plain, "end_to_end"), (traced_a, "per_layer")):
            names = [m["name"] for m in spec[kind]]
            check(sorted(final["metrics"]) == sorted(names),
                  f"{workload}: {kind} metrics differ from BENCHMARK.json")
            for name in names:
                entry = final["metrics"][name]
                check(isinstance(entry["value"], (int, float)) and
                      math.isfinite(entry["value"]),
                      f"{workload}: {name} = {entry['value']}")
                check(entry["unit"] == units[name],
                      f"{workload}: {name} unit {entry['unit']!r}")
        for name in EXACT:
            a = full_a["metrics"][name]["value"]
            b = full_b["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} differs across runs of one seed "
                  f"({a!r} vs {b!r})")
        a = full_a["metrics"]["forecast_rel_mse"]["value"]
        c = full_c["metrics"]["forecast_rel_mse"]["value"]
        check(a != c, f"{workload}: forecast_rel_mse ignores the seed ({a!r})")
        trace = json.loads((ROOT / full_a["trace_file"]).read_text())
        events = trace["traceEvents"]
        check(events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
              f"{workload}: trace file has no complete events")
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(traced_a['metrics'])} per-layer metrics, exact repeats, "
              f"{len(events)} trace events")
    print("selftest passed")


if __name__ == "__main__":
    main()
