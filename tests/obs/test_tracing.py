"""Tracing tests: span mechanics, exports, and real-transfer coverage."""

import json

import pytest

from repro import api
from repro.core.events import (
    DonorAttempted,
    StageFinished,
    StageStarted,
    events_as_dicts,
)
from repro.core.stages import TransferEngine
from repro.experiments import ERROR_CASES
from repro.obs.tracing import (
    TraceObserver,
    Tracer,
    activate,
    active,
    deactivate,
    record_span,
    spans_from_events,
    trace_session,
    tracer_from_events,
)


class TestTracerMechanics:
    def test_spans_nest_under_the_open_stack(self):
        tracer = Tracer()
        outer = tracer.begin("outer", "stage")
        inner = tracer.begin("inner", "stage")
        tracer.end(inner)
        tracer.end(outer)
        spans = {span.name: span for span in tracer.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_end_by_id_closes_stragglers_above_it(self):
        tracer = Tracer()
        outer = tracer.begin("outer", "stage")
        tracer.begin("straggler", "stage")
        tracer.end(outer)
        assert {span.name for span in tracer.spans} == {"outer", "straggler"}
        assert not tracer._stack

    def test_record_makes_a_leaf_under_the_open_span(self):
        tracer = Tracer()
        tracer.begin("stage", "stage")
        leaf = tracer.record("query", "solver", 0.01, cached=False)
        assert leaf.parent_id is not None
        assert leaf.attrs == {"cached": False}

    def test_finish_closes_everything(self):
        tracer = Tracer()
        tracer.begin("a", "x")
        tracer.begin("b", "x")
        tracer.finish()
        assert len(tracer.spans) == 2


class TestActiveTracer:
    def test_activation_stack_and_module_hook(self):
        assert active() is None
        tracer = Tracer()
        activate(tracer)
        try:
            assert active() is tracer
            record_span("q", "solver", 0.001)
            assert tracer.spans[0].name == "q"
        finally:
            deactivate(tracer)
        assert active() is None
        record_span("dropped", "solver", 0.001)  # no-op without a tracer
        assert len(tracer.spans) == 1

    def test_trace_session_finishes_and_deactivates(self):
        tracer = Tracer()
        with trace_session(tracer):
            tracer.begin("open", "stage")
            assert active() is tracer
        assert active() is None
        assert tracer.spans[0].name == "open"


class TestExports:
    def _traced(self):
        tracer = Tracer()
        span = tracer.begin("stage", "stage", round=0)
        tracer.record("query", "solver", 0.002)
        tracer.end(span)
        return tracer

    def test_jsonl_roundtrips_span_dicts(self):
        tracer = self._traced()
        lines = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert {line["name"] for line in lines} == {"stage", "query"}
        assert all("span_id" in line and "duration_s" in line for line in lines)

    def test_chrome_export_shape(self):
        chrome = self._traced().to_chrome()
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        assert all(event["ph"] == "X" for event in events)
        assert all(event["ts"] >= 0 and event["dur"] >= 0 for event in events)
        assert {event["name"] for event in events} == {"stage", "query"}

    def test_write_both_formats(self, tmp_path):
        tracer = self._traced()
        jsonl = tracer.write(tmp_path / "trace.jsonl")
        chrome = tracer.write(tmp_path / "trace.json", chrome=True)
        assert len(jsonl.read_text().splitlines()) == 2
        assert json.loads(chrome.read_text())["traceEvents"]


class TestEventFolding:
    def test_observer_brackets_stage_events(self):
        tracer = Tracer()
        observer = TraceObserver(tracer)
        observer(DonorAttempted(donor="feh", index=0, total=1))
        observer(StageStarted(stage="excision", round_index=0))
        observer(StageFinished(stage="excision", elapsed_s=0.1, round_index=0))
        tracer.finish()
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["excision"].category == "stage"
        assert by_name["excision"].parent_id == by_name["donor feh"].span_id
        assert by_name["donor feh"].parent_id == by_name["transfer"].span_id

    def test_spans_from_events_accepts_dicts_with_virtual_clock(self):
        events = [
            StageStarted(stage="excision"),
            StageFinished(stage="excision", elapsed_s=0.25),
            StageStarted(stage="validation"),
            StageFinished(stage="validation", elapsed_s=0.5),
        ]
        spans = spans_from_events(events_as_dicts(events))
        by_name = {span.name: span for span in spans}
        assert by_name["excision"].duration_s == pytest.approx(0.25)
        assert by_name["validation"].duration_s == pytest.approx(0.5)
        assert by_name["validation"].start_s == pytest.approx(0.25)

    def test_tracer_from_events_is_exportable(self):
        events = [
            StageStarted(stage="excision"),
            StageFinished(stage="excision", elapsed_s=0.25),
        ]
        tracer = tracer_from_events(events)
        assert tracer.to_chrome()["traceEvents"]


class TestRealTransferCoverage:
    @pytest.fixture(scope="class")
    def traced_transfer(self):
        case = ERROR_CASES["cwebp-jpegdec"]
        tracer = Tracer()
        with trace_session(tracer):
            report = api.repair(
                api.RepairRequest(
                    recipient=case.application(),
                    target=case.target(),
                    seed=case.seed_input(),
                    error_input=case.error_input(),
                    format_name="jpeg",
                    donor="feh",
                ),
                observers=[TraceObserver(tracer)],
            )
        return tracer, report

    def test_every_executed_stage_has_a_span(self, traced_transfer):
        tracer, report = traced_transfer
        assert report.success
        stage_spans = {
            span.name for span in tracer.spans if span.category == "stage"
        }
        executed = {
            event.stage for event in report.events if isinstance(event, StageFinished)
        }
        assert executed <= stage_spans
        candidate_stages = {stage.name for stage in TransferEngine.CANDIDATE_STAGES}
        assert candidate_stages <= stage_spans

    def test_every_solver_query_has_a_span(self, traced_transfer):
        tracer, report = traced_transfer
        solver_spans = [span for span in tracer.spans if span.category == "solver"]
        query_spans = [
            span for span in solver_spans if span.name == "solver-equivalence"
        ]
        assert len(query_spans) == report.metrics.solver_queries
        # Live solver spans nest inside a stage span of the trace tree.
        by_id = {span.span_id: span for span in tracer.spans}
        for span in solver_spans:
            assert span.parent_id in by_id

    def test_vm_runs_are_traced(self, traced_transfer):
        tracer, _ = traced_transfer
        vm_spans = [
            span
            for span in tracer.spans
            if span.category == "vm" and span.name == "vm-run"
        ]
        assert vm_spans
        assert all(span.attrs["steps"] > 0 for span in vm_spans)

    def test_vm_spans_carry_the_execution_tier(self, traced_transfer):
        tracer, _ = traced_transfer
        vm_spans = [span for span in tracer.spans if span.name == "vm-run"]
        tiers = {span.attrs.get("tier") for span in vm_spans}
        assert tiers <= {"compiled", "concrete", "interpreter"}
        assert None not in tiers
        # The compiled tier is the default: tracked runs use its tracked
        # artifact, untracked ones (DIODE trials, replays) its concrete one.
        assert {"compiled", "concrete"} <= tiers

    def test_interpreter_runs_are_labeled_as_such(self):
        from repro.lang import VM, VMConfig, compile_program

        program = compile_program("int main() { emit(1); return 0; }")
        tracer = Tracer()
        with trace_session(tracer):
            VM(program, config=VMConfig(use_compiled=False)).run(b"")
            VM(program, config=VMConfig(use_compiled=True)).run(b"")
            VM(program, config=VMConfig(use_compiled=True, track_symbolic=False)).run(b"")
        tiers = [
            span.attrs["tier"] for span in tracer.spans if span.name == "vm-run"
        ]
        assert tiers == ["interpreter", "compiled", "concrete"]
