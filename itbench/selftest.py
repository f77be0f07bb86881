#!/usr/bin/env python3
"""Self-checks of the benchmark.

    python3 itbench/selftest.py                 # smoke: tiny pool, every workload
    python3 itbench/selftest.py --steadiness 1,2,3,4,5 [--workloads dense-full]

Smoke mode runs each workload with a three-graph pool, untraced and traced,
twice with the same seed. It asserts that every metric named in
BENCHMARK.json is printed with its unit, that the run is correct with
success_rate 1, and that the per-graph counts (links, eas_calls, solutions)
repeat between the two untraced runs and the traced run.

Steadiness mode makes full runs, one per seed, and reports for each
end-to-end metric the spread of its values (distance between first and third
quartile over the median). It fails if a spread exceeds the metric's bound,
and flags spreads above a third of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace, seconds, smoke):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({res.returncode}): {' '.join(cmd)}\n{res.stderr[-2000:]}")
    counts = sorted(l for l in lines if l.startswith("counts "))
    result = json.loads(lines[-1])
    if not smoke:
        cal = next((l for l in lines if l.startswith("calibration ")), "")
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"  {workload} seed={seed} trace={trace} {cal} {values}", flush=True)
    return result, counts


def check_result(result, trace, where):
    errors = []
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            errors.append(f"{where}: metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
        elif not isinstance(got[m["name"]]["value"], (int, float)):
            errors.append(f"{where}: {m['name']} value is not a number")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if not trace and got.get("success_rate", {}).get("value") != 1:
        errors.append(f"{where}: success_rate {got.get('success_rate')}")
    return errors


def smoke(workloads, seed):
    errors = []
    for w in workloads:
        first, counts_a = run(w, seed, 0, 1, True)
        second, counts_b = run(w, seed, 0, 1, True)
        traced, counts_t = run(w, seed, 1, 1, True)
        errors += check_result(first, False, f"{w} untraced")
        errors += check_result(second, False, f"{w} untraced (repeat)")
        errors += check_result(traced, True, f"{w} traced")
        if not counts_a:
            errors.append(f"{w}: no counts printed")
        if counts_a != counts_b:
            errors.append(f"{w}: counts differ between two untraced runs of seed {seed}")
        if counts_a != counts_t:
            errors.append(f"{w}: counts differ between the untraced and traced runs of seed {seed}")
        print(f"{w}: {'ok' if not errors else 'FAILED'} ({len(counts_a)} graphs)")
    return errors


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(workloads, seeds):
    errors = []
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, _ = run(w, seed, 0, SPEC["run_seconds"], False)
            errors += check_result(result, False, f"{w} seed {seed}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            s = spread(values[name])
            flag = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "OVER")
            print(f"{w:12s} {name:14s} median={statistics.median(values[name]):.6g} "
                  f"spread={s:.4f} bound={bound} {flag}")
            if s > bound:
                errors.append(f"{w}: {name} spread {s:.4f} exceeds bound {bound}")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=1, help="seed of the smoke runs")
    ap.add_argument("--steadiness", help="comma-separated seeds for full runs (at least two)")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if args.steadiness:
        seeds = [int(s) for s in args.steadiness.split(",")]
        if len(seeds) < 2:
            ap.error("--steadiness needs at least two seeds")
        errors = steadiness(workloads, seeds)
    else:
        errors = smoke(workloads, args.seed)
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
