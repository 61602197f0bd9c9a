#!/usr/bin/env python3
"""Steadiness report for the two-clock benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--seconds S] [--workload NAME ...] [--write]

Runs every workload --runs times, one process at a time, each with the
next seed from --first-seed. For every end-to-end metric it prints the
median and the quartile spread, (Q3 - Q1) / median, with the quartiles
that statistics.quantiles(values, n=4) gives. It then runs the first
seed once more and checks that every sim_* metric repeats bit for bit.

With --write it rewrites BENCHMARK.json from `perfbench --describe`,
setting each metric's bound from the spreads just measured: three and
a half times the widest spread over the workloads, at least 0.02, at
most 0.25. setup_s always takes the largest bound, 0.25. A sim_* metric
repeats exactly for one seed, so its bound only has to cover how much
it moves from seed to seed.

Exit status: 0 when every run succeeded, every same-seed repeat was
bit-identical and every spread (setup_s aside) is within a third of
its bound; 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = ROOT / "BENCHMARK.json"
SPREAD_FACTOR = 3.5
MIN_BOUND = 0.02
MAX_BOUND = 0.25


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"checks failed: {' '.join(cmd)}\n{lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def describe():
    return json.loads(subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--describe"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    desc = describe()
    bench = json.loads(BENCH.read_text()) if BENCH.is_file() else {}
    seconds = args.seconds or bench.get("run_seconds", 30)
    workloads = args.workload or [w["name"] for w in desc["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    widest = {}
    for w in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(w, seed, seconds))
            print(f"{w} seed {seed}: host_req_per_s "
                  f"{runs[-1]['host_req_per_s']:.6g}", file=sys.stderr)
        again = run_once(w, seeds[0], seconds)
        for name, value in again.items():
            if name.startswith("sim_") and value != runs[0][name]:
                ok = False
                print(f"FAIL {w}: {name} differs between two runs of "
                      f"seed {seeds[0]}: {runs[0][name]!r} vs {value!r}")
        print(f"\n{w} ({len(runs)} runs, seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':26s} {'median':>14s} {'Q1':>14s} {'Q3':>14s}"
              f" {'spread':>8s}")
        for m in desc["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            widest[m["name"]] = max(widest.get(m["name"], 0.0), s)
            print(f"  {m['name']:26s} {statistics.median(values):14.6g}"
                  f" {q1:14.6g} {q3:14.6g} {s:8.4f}")

    bounds = {}
    for name, s in widest.items():
        bounds[name] = MAX_BOUND if name == "setup_s" else min(
            MAX_BOUND, max(MIN_BOUND, round(SPREAD_FACTOR * s + 0.005, 2)))
    if args.write:
        out = {
            "command": ["python3", "perfbench/run.py"],
            "paths": ["perfbench"],
            "run_seconds": seconds,
            "workloads": desc["workloads"],
            "end_to_end": [dict(m, bound=bounds[m["name"]])
                           for m in desc["end_to_end"]],
            "per_layer": desc["per_layer"],
        }
        BENCH.write_text(json.dumps(out, indent=2) + "\n")
        print(f"\nwrote {BENCH}")
    declared = bounds if args.write else {
        m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    print("\nwidest spread vs bound")
    for name, s in widest.items():
        bound = declared.get(name)
        steady = bound is not None and (name == "setup_s" or
                                        s <= bound / 3)
        ok = ok and steady
        print(f"  {name:26s} spread {s:.4f} bound {bound} "
              f"{'ok' if steady else 'TOO NOISY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
