"""The repository's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload figure8_session --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` the result carries
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric, from spans recorded around each layer's public entry
points (``tracing.py``), plus ``trace.overhead_share`` against an untraced
run of the same workload and seed.  The last line of standard output is
the result object; the lines before it say how each number was measured.
The exit code is 0 only when the run measured something; correctness is
reported in the result (``correct``, ``failed``).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

#: Scratch space inside the checkout; each run uses and removes its own subdirectory.
WORK_ROOT = ROOT / ".perfbench_work"
#: Set-up is repeated this many times per untraced run (the median is reported).
SETUP_SAMPLES = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a set-up sample (prints only the set-up time), and the
    # number of set-up samples an untraced run takes.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_command(args: argparse.Namespace, seconds: float, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        *extra,
    ]


def last_json_line(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def run_child(command: list[str]) -> dict:
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True
    )
    return last_json_line(completed.stdout)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.setup_only:
            workload = WORKLOADS[args.workload](args.seed, work_dir)
            try:
                workload.setup()
                print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
            finally:
                workload.close()
            return 0
        result = traced_run(args, work_dir) if args.trace else untraced_run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def report_notes(workload_name: str, measurement) -> None:
    for note in measurement.notes:
        print(f"{workload_name}: {note}")
    for failure in measurement.failures[:20]:
        print(f"{workload_name}: FAILED {failure}")


def untraced_run(args: argparse.Namespace, work_dir: Path) -> dict:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        workload.setup()
        setup_s = [time.perf_counter() - PROCESS_START]
        measurement = workload.measure(args.seconds)
    finally:
        workload.close()
    for _ in range(args.setup_samples - 1):
        setup_s.append(run_child(child_command(args, args.seconds, "--setup-only"))["setup_s"])
    report_notes(args.workload, measurement)
    print(f"{args.workload}: setup_s: median of {len(setup_s)} set-ups "
          f"({', '.join(f'{value:.3f}' for value in setup_s)})")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in measurement.metrics.items()}
    metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }


def traced_run(args: argparse.Namespace, work_dir: Path) -> dict:
    """Untraced half in a child process, then the traced half in this one."""
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    half = max(1.0, args.seconds / 2)
    untraced = run_child(child_command(args, half, "--trace", "0", "--setup-samples", "1"))
    recorder = tracing.SpanRecorder(work_dir / "trace")
    undo = tracing.install(recorder)
    workload = WORKLOADS[args.workload](args.seed, work_dir, recorder=recorder)
    try:
        workload.setup()
        measurement = workload.measure(half)
    finally:
        workload.close()
        undo()
        recorder.flush()
    report_notes(args.workload, measurement)
    layer = tracing.fold(
        tracing.load_spans(recorder.out_dir), measurement.window, measurement.operations
    )
    layer.update(measurement.layer_metrics)
    # Both halves' throughput is measured the same way; its inverse is the
    # mean wall time per operation.
    traced_ms = 1e3 / measurement.metrics["jobs_per_s"][0]
    untraced_ms = 1e3 / untraced["metrics"]["jobs_per_s"]["value"]
    layer["trace.overhead_share"] = traced_ms / untraced_ms - 1.0
    print(f"{args.workload}: trace.overhead_share: traced {traced_ms:.2f} ms "
          f"per operation against untraced {untraced_ms:.2f} ms")
    metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
               for name, value in sorted(layer.items())}
    failed = measurement.failed + untraced["failed"]
    return {
        "correct": failed == 0,
        "attempted": measurement.attempted + untraced["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
