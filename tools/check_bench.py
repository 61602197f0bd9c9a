#!/usr/bin/env python3
"""Check headline bench metrics against the committed baselines.

Run the baselined benches at the scale their baselines were made at,
then point this script at the directory they wrote BENCH_*.json into:

    MORPHEUS_BENCH_SCALE=0.05 ./build/bench/ablation_pipeline  # etc.
    python3 tools/check_bench.py [--results DIR] [--baselines DIR]

The simulator is deterministic and machine-independent, so each
headline metric is compared with its baseline directly: more than 10%
in the worse direction fails the check (exit status 1), and so does a
result made at a different scale than its baseline.
"""

import argparse
import json
import os
import sys

BENCHES = ("ablation_pipeline", "fig03", "serving_fleet", "serving_cache",
           "serving_breakdown", "serving_overload", "traffic_reduction")
TOLERANCE = 0.10
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory, name):
    with open(os.path.join(directory, f"BENCH_{name}.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", default=".",
                    help="directory holding the fresh BENCH_*.json "
                         "(default: the current directory)")
    ap.add_argument("--baselines",
                    default=os.path.join(REPO, "bench", "baselines"),
                    help="directory holding the committed baselines")
    args = ap.parse_args()

    failures = []
    for name in BENCHES:
        cur = load(args.results, name)
        base = load(args.baselines, name)
        if cur["scale"] != base["scale"]:
            sys.exit(f"{name}: result scale {cur['scale']} != baseline "
                     f"scale {base['scale']}")
        b, c = base["value"], cur["value"]
        delta = (c - b) / b
        worse = -delta if cur["higherIsBetter"] else delta
        status = "REGRESSION" if worse > TOLERANCE else "ok"
        print(f"{name}.{cur['metric']}: base={b:.6g} now={c:.6g} "
              f"({delta:+.2%}) [{status}]")
        if worse > TOLERANCE:
            failures.append(name)
    if failures:
        sys.exit(f"bench regression >10%: {failures}")
    print("bench regression check OK")


if __name__ == "__main__":
    main()
