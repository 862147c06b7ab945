#!/usr/bin/env python3
"""Paired benchmark comparison of a base revision against the current tree.

    python3 tools/compare.py --base REV [--workload NAME ...] [--pairs N]
                             [--seconds S] [--first-seed K] [--trace]

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``) in
a temporary checkout of REV (``git archive``) and in a temporary copy of
this tree (the files ``git ls-files --cached --others --exclude-standard``
lists: uncommitted edits and new files included, ignored files left out), so
both sides run from fresh directories alike.  Pair ``i``
runs both sides on seed ``K + i``; even pairs run the base first, odd pairs
the change.  For every end-to-end metric of ``BENCHMARK.json`` and every
workload it prints both medians, the ratio, the change's wins and each
side's interquartile range as a share of its median, and judges the metric
with the metric's ``better`` and ``bound``:

* ``unresolved``: either side's interquartile range is wider than the bound
  and neither side reads better on every run than the other on every run;
* ``regressed``: otherwise, the change's median is worse than the base's by
  more than the bound;
* ``improved``: the change's median is better, the change wins at least
  nine pairs in ten (ties count for neither side), and the medians differ
  by more than the base's interquartile range;
* ``unresolved`` also when the change's median is better and only one of
  those two rules holds: a gain the runs cannot confirm;
* ``unchanged``: everything else.

A side with a ``correct: false`` result is refused and no metric of that
workload is judged; the failed-operation share is printed for both sides.
With ``--trace`` each pair also makes one traced run per side and the tool
prints the per-layer median deltas; those are reported, never judged.
Exit code: 1 when a metric regressed or the change was refused, 2 on a bad
revision or a failed run, 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The claim rule: the change wins at least this share of all pairs run.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Judgement:
    base_median: float
    change_median: float
    wins: int
    pairs: int
    base_iqr: float
    change_iqr: float
    verdict: str

    @property
    def ratio(self) -> float:
        return self.change_median / self.base_median if self.base_median else math.inf


def iqr(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def share(part: float, whole: float) -> float:
    return part / whole if whole else (0.0 if part == 0 else math.inf)


def judge(base: list[float], change: list[float], better: str, bound: float) -> Judgement:
    """Judge one metric over paired runs (``base[i]`` and ``change[i]`` share a seed)."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("judge needs at least two pairs of runs")
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    base_median, change_median = statistics.median(base), statistics.median(change)
    base_iqr, change_iqr = iqr(base), iqr(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    worse = share(sign * (change_median - base_median), base_median)
    wide = max(share(base_iqr, base_median), share(change_iqr, change_median)) > bound
    separated = (max(sign * c for c in change) < min(sign * b for b in base)
                 or min(sign * c for c in change) > max(sign * b for b in base))
    consistent = wins >= WIN_SHARE * len(base)
    beyond_spread = abs(change_median - base_median) > base_iqr
    if wide and not separated:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif worse < 0 and consistent and beyond_spread:
        verdict = "improved"
    elif worse < 0 and (consistent or beyond_spread):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Judgement(base_median, change_median, wins, len(base), base_iqr, change_iqr, verdict)


def refused(results: list[dict]) -> bool:
    """A side is refused when any of its runs reports ``correct: false``."""
    return any(result["correct"] is not True for result in results)


def failed_share(results: list[dict]) -> tuple[int, int]:
    return (sum(result["failed"] for result in results),
            sum(result["attempted"] for result in results))


def judge_workload(end_to_end: list[dict], base: list[dict], change: list[dict]) -> dict:
    """``{metric name: Judgement}`` over untraced results; empty when a side is refused."""
    if refused(base) or refused(change):
        return {}
    return {
        metric["name"]: judge(
            [result["metrics"][metric["name"]]["value"] for result in base],
            [result["metrics"][metric["name"]]["value"] for result in change],
            metric["better"], metric["bound"],
        )
        for metric in end_to_end
    }


def layer_deltas(base: list[dict], change: list[dict]) -> list[tuple[str, float, float]]:
    """Per-layer ``(name, base median, change median)`` over traced results, both sides."""
    names = sorted(set(base[0]["metrics"]) & set(change[0]["metrics"]))
    return [
        (name,
         statistics.median(result["metrics"][name]["value"] for result in base),
         statistics.median(result["metrics"][name]["value"] for result in change))
        for name in names
    ]


def sides_in_order(pair: int) -> tuple[str, str]:
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def checkout(rev: str, into: Path) -> None:
    """Extract the tree of ``rev`` into ``into``; no worktree is registered."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def copy_tree(root: Path, into: Path) -> None:
    """Copy the files of the tree at ``root`` that git would commit into ``into``.

    Tracked files as they are on disk and untracked files that are not
    ignored; a tracked file deleted from the disk is left out.
    """
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, stdout=subprocess.PIPE, check=True,
    ).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        source = root / name
        if not source.is_file():
            continue
        target = into / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def run_benchmark(root: Path, command: list[str], workload: str, seed: int,
                  seconds: float, trace: bool) -> dict:
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=600 + 20 * seconds, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def report(end_to_end: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """Print one workload's table; return its verdicts (``refused`` for a refused change)."""
    for side in ("base", "change"):
        failed, attempted = failed_share(runs[side])
        state = "REFUSED (a run reported correct: false)" if refused(runs[side]) else "correct"
        print(f"  {side:6s} failed operations {failed}/{attempted} "
              f"({share(failed, attempted):.2%}), {state}")
    judgements = judge_workload(end_to_end, runs["base"], runs["change"])
    if not judgements:
        return ["refused"] if refused(runs["change"]) else []
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    print(f"  {'metric':16s} {'base':>10s} {'change':>10s} {'ratio':>6s} {'wins':>6s} "
          f"{'base IQR':>8s} {'chg IQR':>8s} {'bound':>6s}  verdict")
    for name, j in judgements.items():
        print(f"  {name:16s} {j.base_median:10.4g} {j.change_median:10.4g} {j.ratio:6.3f} "
              f"{j.wins:>2d}/{j.pairs:<3d} {share(j.base_iqr, j.base_median):8.1%} "
              f"{share(j.change_iqr, j.change_median):8.1%} {bounds[name]:6.2f}  {j.verdict}")
    return [j.verdict for j in judgements.values()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="also print per-layer deltas")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    try:
        rev = subprocess.run(["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             check=True).stdout.strip()
    except subprocess.CalledProcessError:
        print(f"compare: {args.base!r} is not a commit", file=sys.stderr)
        return 2

    verdicts: list[str] = []
    with tempfile.TemporaryDirectory(prefix="compare-base-") as base_dir, \
            tempfile.TemporaryDirectory(prefix="compare-change-") as change_dir:
        checkout(rev, Path(base_dir))
        copy_tree(ROOT, Path(change_dir))
        roots = {"base": Path(base_dir), "change": Path(change_dir)}
        for workload in workloads:
            seeds = range(args.first_seed, args.first_seed + args.pairs)
            print(f"{workload}: {args.pairs} pairs of {seconds:g} s runs, seeds "
                  f"{seeds[0]}-{seeds[-1]}, base {args.base} ({rev[:12]}) against this tree",
                  flush=True)
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            traced: dict[str, list[dict]] = {"base": [], "change": []}
            for pair, seed in enumerate(seeds):
                for side in sides_in_order(pair):
                    try:
                        runs[side].append(run_benchmark(
                            roots[side], spec["command"], workload, seed, seconds, False))
                        if args.trace:
                            traced[side].append(run_benchmark(
                                roots[side], spec["command"], workload, seed, seconds, True))
                    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
                        print(f"compare: {side} run of {workload} seed {seed} failed: {exc}",
                              file=sys.stderr)
                        return 2
            verdicts += report(spec["end_to_end"], runs)
            if args.trace:
                if refused(traced["change"]):
                    print("  change REFUSED: a traced run reported correct: false")
                    verdicts.append("refused")
                print("  per-layer medians of traced runs (reported, not judged):")
                for name, base, change in layer_deltas(traced["base"], traced["change"]):
                    if base or change:
                        print(f"  {name:36s} {base:10.4g} {change:10.4g} "
                              f"delta {change - base:+10.4g} ({share(change - base, base):+.1%})")
    failing = [verdict for verdict in verdicts if verdict in ("regressed", "refused")]
    print(f"compare: {len(verdicts)} verdicts, {len(failing)} regressed or refused")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
