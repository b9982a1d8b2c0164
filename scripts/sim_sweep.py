#!/usr/bin/env python3
"""Runs the differential simulator over a window of seeds in parallel.

    python3 scripts/sim_sweep.py --seeds 1..1300 --jobs 4 --ops 3000
    python3 scripts/sim_sweep.py --seeds 2000..3999,284,743 --ops 5000

`--seeds` is a comma-separated list of seeds and inclusive A..B ranges.
Each seed runs `build/src/sim_harness --seed=N --ops=M --no-minimize` in a
data directory of its own, `--jobs` at a time. The sweep prints one line
per diverging seed, in seed order: the harness's summary line, which names
the failing op and the divergence (`sim_harness --seed=N --ops=M` reprints
it with a minimized trace). A last line gives the window's totals. The exit
status is 1 on any divergence, and also when the whole window ran no crash,
no tamper or no truncation, so that a window cannot pass vacuously; 2 on a
usage error or a missing harness binary (build it with
`cmake --build build --target sim_harness`).
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(REPO_ROOT, "build", "src", "sim_harness")
# The adversarial events a window must have run, as the harness counts them.
MIX = ("crashes", "tampers", "truncations")
MIX_RE = re.compile(r"\b(" + "|".join(MIX) + r")=(\d+)")


def parse_seeds(spec):
    seeds = set()
    for part in spec.split(","):
        lo, dots, hi = part.strip().partition("..")
        first = int(lo)
        last = int(hi) if dots else first
        if first < 0 or last < first:
            raise ValueError(f"bad seed range '{part}'")
        seeds.update(range(first, last + 1))
    return sorted(seeds)


def run_seed(seed, ops):
    """(diverged, summary line, counts of MIX) of one seed's run."""
    with tempfile.TemporaryDirectory(prefix=f"sim_sweep_{seed}_") as scratch:
        proc = subprocess.run(
            [HARNESS, f"--seed={seed}", f"--ops={ops}", "--no-minimize",
             f"--dir={os.path.join(scratch, 'db')}"],
            capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    summary = lines[0] if lines else ""
    counts = {name: int(n) for name, n in MIX_RE.findall(summary)}
    if proc.returncode == 0:
        return False, summary, counts
    if not summary.startswith(f"seed={seed} "):  # the harness itself died
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        summary = (f"seed={seed} ops={ops} harness exited with status "
                   f"{proc.returncode}: {tail[0]}")
    return True, summary, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="seeds and inclusive A..B ranges, comma-separated")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="harness processes at a time")
    parser.add_argument("--ops", type=int, default=3000, help="ops per seed")
    args = parser.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(str(e))
    if args.jobs < 1 or args.ops < 1:
        parser.error("--jobs and --ops must be positive")
    if not os.access(HARNESS, os.X_OK):
        print(f"sim_sweep: no harness at {HARNESS}", file=sys.stderr)
        return 2

    diverged = 0
    totals = dict.fromkeys(MIX, 0)
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for bad, summary, counts in pool.map(
                lambda seed: run_seed(seed, args.ops), seeds):
            for name in MIX:
                totals[name] += counts.get(name, 0)
            if bad:
                diverged += 1
                print(summary, flush=True)
    print(f"swept {len(seeds)} seeds at {args.ops} ops: {diverged} diverged, "
          + " ".join(f"{name}={totals[name]}" for name in MIX))
    missing = [name for name in MIX if totals[name] == 0]
    if missing:
        print("sim_sweep: the window ran no " + ", no ".join(missing),
              file=sys.stderr)
    return 1 if diverged or missing else 0


if __name__ == "__main__":
    sys.exit(main())
