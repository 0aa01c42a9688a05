"""Run the benchmark over several seeds and summarise each metric.

From the root of a checkout::

    python3 perfbench/spread.py --workloads intra_steady,cross_batch,cross_churn \\
        --seeds 1-10 --seconds 20 --trace 0 [--out results.json]

``--trace 0,1`` makes both kinds of run, so one command prints every
end-to-end and per-layer metric by name, with its unit.  For every
workload and metric it prints the median of the runs and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — the
figure each end-to-end bound in ``BENCHMARK.json`` must exceed three
times over.  ``--out`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    """``"1-10"`` or ``"1,5,9"`` as a list of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run's result object."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{completed.stderr}")
    return result


def summarise(results: list[dict]) -> dict[str, dict[str, float]]:
    """Median and quartile spread of each metric over *results*."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        first, _, third = (
            statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        )
        summary[name] = {
            "median": median,
            "spread": (third - first) / median if median else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="intra_steady,cross_batch,cross_churn")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    blob = {}
    for workload in args.workloads.split(","):
        for trace in (int(mode) for mode in args.trace.split(",")):
            results = []
            for seed in seeds_of(args.seeds):
                results.append(run(workload, seed, args.seconds, trace))
                print(f"{workload} trace {trace} seed {seed}: "
                      f"attempted {results[-1]['attempted']}", flush=True)
            summary = summarise(results)
            for name, figures in summary.items():
                print(f"  {name:34s} median {figures['median']:14.4f} "
                      f"{figures['unit']:15s} spread {figures['spread']:.4f}", flush=True)
            blob[f"{workload} trace {trace}"] = {
                "seeds": seeds_of(args.seeds), "runs": results, "summary": summary,
            }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
