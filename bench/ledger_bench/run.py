#!/usr/bin/env python3
"""ledger_bench runner: builds the benchmark from this checkout and runs it.

One run (the form BENCHMARK.json's command takes):

    python3 bench/ledger_bench/run.py --workload tpcc --seed 1 --seconds 5 --trace 0

  builds the binary if needed, runs one fresh child process for the workload
  and prints, as the last line of stdout, one JSON object with the keys
  correct, attempted, failed and metrics: every end_to_end metric of
  BENCHMARK.json with --trace 0, every per_layer metric with --trace 1. The
  full record (all values, sample counts, environment, errors) is kept in
  .bench_out/results/. Exit status: 0 when every correctness check passed,
  1 when a check failed (the result line says correct=false), 2 when no
  result could be produced (build failure, crash, timeout).

A set (the unit compare.py compares):

    python3 bench/ledger_bench/run.py --set A.json [--seconds 5] [--seed 1]
                                      [--reps 3] [--trace]

  runs every workload --reps times (default three), interleaved
  round-robin, each run a fresh child process with seed --seed + round, and
  writes every run plus per-metric medians and quartiles to A.json; it
  prints each end-to-end metric's median and spread (interquartile range
  over median) per workload. --trace adds one traced run per workload
  (per-layer metrics, trace_<workload>.json). Two sets with --reps 10 show
  whether each metric repeats within its bound.

Smoke check (seconds, for CI):

    python3 bench/ledger_bench/run.py --smoke

  runs every workload at smoke sizes, untraced and traced, with every
  correctness check live; fails unless every declared metric is measured on
  every workload and each trace passes scripts/check_trace.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "ledger_bench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "ledger_bench"
# A run of the binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Runs per workload in a set, unless --reps says otherwise.
SET_REPS = 3


class BenchError(Exception):
    """No result could be produced."""


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "ledger_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_binary(workload, seed, seconds, trace, smoke, sha):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(OUT_DIR), "--git-sha", sha]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise BenchError(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(
            f"{workload} run exited {proc.returncode} without a result")
    raw["exit_code"] = proc.returncode
    return raw


def check_trace(workload):
    """Validates trace_<workload>.json with the repository's checker."""
    checker = ROOT / "scripts" / "check_trace.py"
    path = OUT_DIR / f"trace_{workload}.json"
    if not checker.is_file():
        return f"{checker} missing"
    proc = subprocess.run([sys.executable, str(checker), str(path),
                           "--min-events", "10"],
                          stdout=sys.stderr, stderr=sys.stderr)
    return None if proc.returncode == 0 else f"{path} fails check_trace.py"


def run_once(spec, workload, seed, seconds, trace, smoke=False, sha=None):
    """One run; returns (result line, full record)."""
    raw = run_binary(workload, seed, seconds, trace, smoke,
                     sha if sha is not None else git_sha())
    errors = list(raw.get("errors", []))
    correct = bool(raw.get("correct")) and raw["exit_code"] == 0
    if trace:
        problem = check_trace(workload)
        if problem:
            errors.append(problem)
            correct = False
    for e in errors:
        log(f"{workload}: CHECK FAILED: {e}")
    metrics = {}
    # The binary reports a layer the workload does not exercise as 0, so a
    # missing name is a measurement that broke.
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = raw["values"].get(m["name"])
        if value is None:
            raise BenchError(f"{workload}: metric {m['name']} not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    record = dict(raw, result=result, errors=errors, seconds=seconds)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(results_dir / name, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return result, record


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs, names):
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not values:
            continue
        q1, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "n": len(values)}
    return out


def run_set(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sha = git_sha()
    e2e = [m["name"] for m in spec["end_to_end"]]
    # Untraced runs also measure most per-layer metrics (the unbounded
    # speed metrics among them); the set keeps them for inspection.
    names = e2e + [m["name"] for m in spec["per_layer"]]
    doc = {"git_sha": sha, "seconds": seconds, "reps": args.reps,
           "smoke": args.smoke, "runs": {w: [] for w in workloads},
           "trace_runs": {}}
    ok = True
    started = time.time()
    for rep in range(args.reps):
        for w in workloads:  # round-robin, so drift hits every workload
            seed = args.seed + rep
            result, record = run_once(spec, w, seed, seconds, False,
                                      args.smoke, sha)
            ok = ok and result["correct"]
            doc["runs"][w].append({
                "seed": seed, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: record["values"][k] for k in names
                            if k in record["values"]},
                "samples": record.get("samples", {}),
                "env": record.get("details", {}).get("env", {})})
            log(f"rep {rep + 1}/{args.reps} {w}: correct={result['correct']}"
                f" ({time.time() - started:.0f} s elapsed)")
    if args.trace:
        for w in workloads:
            result, record = run_once(spec, w, args.seed, seconds, True,
                                      args.smoke, sha)
            ok = ok and result["correct"]
            doc["trace_runs"][w] = {
                "seed": args.seed, "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "samples": record.get("samples", {})}
    doc["summary"] = {w: summarize(doc["runs"][w], names) for w in workloads}
    doc["correct"] = ok
    with open(args.set, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    for w in workloads:
        cells = []
        for n in e2e:
            s = doc["summary"][w].get(n)
            if s:
                spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0
                cells.append(f"{n}={s['median']:.4g} (spread {spread:.3f})")
        print(f"{w:11s} " + " ".join(cells))
    print(f"wrote {args.set} ({time.time() - started:.0f} s, "
          f"correct={ok})")
    return 0 if ok else 1


def run_smoke(spec):
    failures = []
    sha = git_sha()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            # run_once fails unless every declared metric was measured.
            result, _ = run_once(spec, w, 1, 0.5, trace, True, sha)
            if not result["correct"]:
                failures.append(f"{w} trace={int(trace)}: incorrect")
            print(f"smoke {w:11s} trace={int(trace)} correct="
                  f"{result['correct']} metrics={len(result['metrics'])}")
    for f in failures:
        log(f"SMOKE FAILED: {f}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const=1, type=int, default=0)
    ap.add_argument("--set", metavar="OUT.json")
    ap.add_argument("--reps", type=int, default=SET_REPS)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        build()
        if args.set:
            return run_set(spec, args)
        if args.smoke and not args.workload:
            return run_smoke(spec)
        if not args.workload:
            ap.error("--workload, --set or --smoke is required")
        result, _ = run_once(spec, args.workload, args.seed,
                             args.seconds or spec["run_seconds"],
                             bool(args.trace), args.smoke)
    except BenchError as e:
        log(f"ERROR: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
