#!/usr/bin/env python3
"""CI gates over benchmark output, runnable locally.

Each subcommand reads the output file of one CI step, prints one line per
row it checked, and exits 1 naming the first row that fails its gate.

Usage:
  python3 tools/ci_gates.py detection-rounds <fig_detection_rounds JSON>

detection-rounds: run bench/fig_detection_rounds with
WST_VERIFY_INCREMENTAL=1 and --benchmark_out=<json>. Every row must report
zero verifier divergences (the maintained graph agrees with a full rebuild
in every round), and every incremental row (inc:1) must gather fewer
conditions per steady-state round than a full gather ships.
"""

import argparse
import json
import sys


def fail(message):
    print(f"ci_gates: {message}", file=sys.stderr)
    sys.exit(1)


def benchmark_args(row):
    """`BM_DetectionRounds/p:64/inc:1/...` -> {"p": "64", "inc": "1"}."""
    return dict(part.split(":", 1) for part in row["name"].split("/")[1:]
                if ":" in part)


def detection_rounds(path):
    with open(path) as f:
        rows = json.load(f)["benchmarks"]
    if not rows:
        fail(f"{path} has no benchmark rows")
    for row in rows:
        name = row["name"]
        if row.get("error_occurred"):
            fail(f"{name} did not run: {row.get('error_message')}")
        if row["verify_divergences"] != 0:
            fail(f"divergence in {name}")
        args = benchmark_args(row)
        if args["inc"] != "1":
            continue
        if not row["steady_conditions"] < row["full_conditions"]:
            fail(f"no delta elision in {name}")
        print(f"p={args['p']}: steady rounds gather "
              f"{row['steady_conditions']:.1f}/{int(row['full_conditions'])} "
              "conditions, zero divergences")


GATES = {
    "detection-rounds": detection_rounds,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("path", help="the output file the gate checks")
    args = parser.parse_args()
    GATES[args.gate](args.path)


if __name__ == "__main__":
    main()
