"""Command line of the federation benchmark (see ``fedbench.py``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload intra_steady --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` every end-to-end metric, with ``--trace 1`` every
per-layer metric, each as ``{"value": ..., "unit": ...}``.  Check
violations go to standard error.  The program under test is imported
from ``src/`` next to this directory; without it the command exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

#: the benchmark's contract: metric names, units and bounds
CONTRACT = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import fedbench

    if args.workload not in fedbench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {fedbench.WORKLOADS}")
    with open(CONTRACT, encoding="utf-8") as handle:
        contract = json.load(handle)
    units = {
        metric["name"]: metric["unit"]
        for metric in contract["end_to_end"] + contract["per_layer"]
    }
    spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.tsv")
    result = fedbench.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
