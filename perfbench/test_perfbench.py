"""The benchmark's own tests, at a tiny size.

They check the result contract (every metric named in ``BENCHMARK.json``
is reported, with its unit), that the oracles count an injected wrong
patch digest and an injected failed job as failures, that spans recorded
in forked workers reach the trace, and that the command refuses to run
without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle, tracing
from perfbench.workloads import Figure8Session, ScenarioCampaign, ServiceClosedLoop

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
#: Added by run.py around every workload's own metrics.
RUN_METRICS = {"setup_s", "peak_rss_mb"}
#: A two-job corpus: one ordinary pair and one adversarial near-miss donor.
TINY_CORPUS = {"pairs_per_class": 1, "hardness": ("baseline", "adversarial")}


def tiny_corpus_options():
    from repro.lang.trace import ErrorKind

    return dict(TINY_CORPUS, error_kinds=(ErrorKind.DIVIDE_BY_ZERO,))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_fold_emits_every_per_layer_metric_with_its_unit():
    emitted = tracing.fold([], (0.0, 1.0), 0)
    emitted["trace.overhead_share"] = 0.0
    assert {name: tracing.unit_of(name) for name in emitted} == PER_LAYER


def test_fold_self_time_window_and_trial_runs():
    spans = [
        ["api.run", 1.0, 1.010, -1, None],
        ["discovery.attack_site", 1.001, 1.008, 0, {"discovery.findings": 1}],
        ["lang.vm.concrete", 1.002, 1.006, 1, None],
        ["lang.vm.concrete", 5.0, 5.001, -1, None],  # outside the window
    ]
    metrics = tracing.fold([spans], (0.5, 2.0), operations=1)
    assert metrics["discovery.trial_runs"] == 1
    assert metrics["lang.vm.concrete_runs"] == 1
    assert metrics["discovery.findings_per_site"] == 1
    assert metrics["api.self_share"] == pytest.approx(0.3)
    assert metrics["discovery.self_share"] == pytest.approx(0.3)
    assert metrics["lang.self_share"] == pytest.approx(0.4)


def test_run_prints_every_end_to_end_metric(tmp_path):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure8_session", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--setup-samples", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 18
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def assert_workload_metrics(measurement):
    units = {name: unit for name, (_value, unit) in measurement.metrics.items()}
    assert units == {name: unit for name, unit in END_TO_END.items() if name not in RUN_METRICS}


def test_wrong_patch_digest_counts_as_failure(tmp_path):
    rows = oracle.load_figure8_oracle()
    key = sorted(rows)[0]
    rows[key] = dict(rows[key], patched_source_sha256="0" * 64)
    workload = Figure8Session(0, tmp_path, oracle_rows=rows)
    workload.setup()
    measurement = workload.measure(0)
    assert_workload_metrics(measurement)
    # The doctored row fails once in the warm-up pass and once in the timed one.
    assert measurement.attempted == 36
    assert measurement.failed == 2
    assert all(key in failure for failure in measurement.failures)


def test_failed_job_counts_as_failure(tmp_path):
    def fail_first_job(runner):
        def wrapped(payload, cache_path):
            if payload["job_id"] == doomed:
                raise RuntimeError("injected failure")
            return runner(payload, cache_path)

        return wrapped

    workload = ScenarioCampaign(
        0, tmp_path, corpus_options=tiny_corpus_options(), wrap_runner=fail_first_job
    )
    from perfbench.workloads import scenario_corpus
    from repro.scenarios import corpus_plan

    doomed = corpus_plan(scenario_corpus(0, **tiny_corpus_options())[0]).jobs[0].job_id
    workload.setup()
    measurement = workload.measure(0)
    assert_workload_metrics(measurement)
    # The warm-up campaign runs the doomed job alone, the timed campaign
    # both jobs: the doomed job fails in each.
    assert measurement.attempted == 3
    assert measurement.failed == 2
    assert all(doomed in failure for failure in measurement.failures)


def test_failed_attempt_counts_as_failure_even_when_the_retry_succeeds(tmp_path):
    marker = tmp_path / "failed-once"

    def fail_first_attempt(runner):
        def wrapped(payload, cache_path):
            if payload["job_id"] == doomed and not marker.exists():
                marker.write_text("")
                raise RuntimeError("injected failure")
            return runner(payload, cache_path)

        return wrapped

    workload = ScenarioCampaign(
        0, tmp_path, corpus_options=tiny_corpus_options(), wrap_runner=fail_first_attempt
    )
    from perfbench.workloads import scenario_corpus
    from repro.scenarios import corpus_plan

    doomed = corpus_plan(scenario_corpus(0, **tiny_corpus_options())[0]).jobs[0].job_id
    workload.setup()
    measurement = workload.measure(0)
    # Only the warm-up's first attempt failed; its retry and every later
    # run of the job succeeded.
    assert measurement.failures == [f"{doomed}: attempt 1 error"]
    assert all(value > 0 for name, (value, _unit) in measurement.metrics.items())


def test_traced_campaign_collects_spans_from_forked_workers(tmp_path):
    recorder = tracing.SpanRecorder(tmp_path / "trace")
    undo = tracing.install(recorder)
    try:
        workload = ScenarioCampaign(
            0, tmp_path, recorder=recorder, corpus_options=tiny_corpus_options()
        )
        workload.setup()
        measurement = workload.measure(0)
    finally:
        undo()
        recorder.flush()
    assert measurement.failed == 0
    metrics = tracing.fold(
        tracing.load_spans(recorder.out_dir), measurement.window, measurement.operations
    )
    assert metrics["campaign.job_busy_ms"] > 0  # recorded in the forked workers
    assert metrics["core.stage.validation_ms"] > 0
    assert metrics["campaign.run_ms"] > 0  # recorded in this process
    assert 0 <= metrics["campaign.idle_share"] < 1


def test_service_workload_reports_every_metric(tmp_path):
    workload = ServiceClosedLoop(0, tmp_path)
    try:
        workload.setup()
        measurement = workload.measure(0)
    finally:
        workload.close()
    assert_workload_metrics(measurement)
    assert measurement.failed == 0
    assert set(measurement.layer_metrics) == set(tracing.CLIENT_METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure8_session", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
