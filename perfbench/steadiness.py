"""Run workloads N times on different seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]

Run ``i`` uses seed ``i``.  For every end-to-end metric of
``BENCHMARK.json`` it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile spread as a
share of the median next to the metric's bound, and the min-max spread.
Runs are sequential, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(name: str, values: list[float], bound: float) -> str:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    iqr_share = (q3 - q1) / median if median else float("inf")
    range_share = (max(values) - min(values)) / median if median else float("inf")
    verdict = "ok" if iqr_share <= bound / 3 else ("within bound" if iqr_share <= bound else "TOO NOISY")
    return (
        f"  {name:22s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
        f"iqr/median {iqr_share:6.1%} (bound {bound}) "
        f"range/median {range_share:6.1%} {verdict}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    for workload in workloads:
        results = []
        for seed in range(args.runs):
            result = run_once(spec["command"], workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"{workload}: {args.runs} runs")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            print(summarise(name, values, bound), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
