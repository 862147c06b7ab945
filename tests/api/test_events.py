"""Event-stream unit tests: ordering, timing, bus mechanics."""

import pytest

from repro import api
from repro.core.events import (
    DonorAttempted,
    EventBus,
    EventLog,
    PatchValidated,
    StageFinished,
    StageStarted,
    StageTimingObserver,
)
from repro.experiments import ERROR_CASES

#: The per-candidate sub-graph, in Figure 4 order.
CANDIDATE_ORDER = ["excision", "insertion", "rewrite", "patch-generation", "validation"]


@pytest.fixture(scope="module")
def transfer_report():
    case = ERROR_CASES["cwebp-jpegdec"]
    return api.repair(
        api.RepairRequest(
            recipient=case.application(),
            target=case.target(),
            seed=case.seed_input(),
            error_input=case.error_input(),
            format_name="jpeg",
            donor="feh",
        )
    )


class TestEventOrdering:
    def test_every_finish_pairs_with_its_start(self, transfer_report):
        open_stages = []
        for event in transfer_report.events:
            if isinstance(event, StageStarted):
                open_stages.append((event.stage, event.round_index))
            elif isinstance(event, StageFinished):
                assert open_stages, f"finish without start: {event.stage}"
                assert open_stages.pop() == (event.stage, event.round_index)
        assert not open_stages, f"stages started but never finished: {open_stages}"

    def test_stages_run_in_figure4_order(self, transfer_report):
        finished = [
            event.stage
            for event in transfer_report.events
            if isinstance(event, StageFinished) and event.round_index == 0
        ]
        assert finished[0] == "check-discovery"
        candidate_stages = finished[1:]
        assert candidate_stages, "no candidate was ever attempted"
        assert len(candidate_stages) % len(CANDIDATE_ORDER) == 0
        for start in range(0, len(candidate_stages), len(CANDIDATE_ORDER)):
            assert candidate_stages[start : start + len(CANDIDATE_ORDER)] == CANDIDATE_ORDER

    def test_validated_patch_is_announced(self, transfer_report):
        validated = [
            event for event in transfer_report.events if isinstance(event, PatchValidated)
        ]
        assert len(validated) == len(transfer_report.outcome.checks) == 1
        event = validated[0]
        patch = transfer_report.outcome.checks[0].patch
        assert (event.excised_size, event.translated_size) == (
            patch.excised_size,
            patch.translated_size,
        )

    def test_repair_emits_donor_selection_and_attempts(self):
        case = ERROR_CASES["wireshark-dcp"]
        report = api.repair(
            api.RepairRequest(
                recipient=case.application(),
                target=case.target(),
                seed=case.seed_input(),
                error_input=case.error_input(),
                format_name="dcp",
            )
        )
        assert report.success
        finished = [e.stage for e in report.events if isinstance(e, StageFinished)]
        assert finished[0] == "donor-selection"
        attempts = [e for e in report.events if isinstance(e, DonorAttempted)]
        assert len(attempts) == len(report.attempts) == 1
        assert attempts[0].donor == "wireshark-1.8.6"


class TestStageTimings:
    def test_metrics_breakdown_comes_from_the_event_stream(self, transfer_report):
        timer = StageTimingObserver()
        for event in transfer_report.events:
            timer(event)
        assert transfer_report.metrics.stage_timings == timer.totals
        assert set(timer.totals) == {"check-discovery", *CANDIDATE_ORDER}
        assert all(elapsed >= 0.0 for elapsed in timer.totals.values())

    def test_breakdown_is_bounded_by_total_generation_time(self, transfer_report):
        assert (
            sum(transfer_report.metrics.stage_timings.values())
            <= transfer_report.metrics.generation_time_s
        )


class TestEventBus:
    def test_subscribe_emit_unsubscribe(self):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        event = StageStarted(stage="x")
        bus.emit(event)
        bus.unsubscribe(log)
        bus.emit(StageFinished(stage="x", elapsed_s=0.0))
        assert log.events == [event]
        bus.unsubscribe(log)  # double-unsubscribe is a no-op

    def test_session_observers_see_every_request(self):
        case = ERROR_CASES["wireshark-dcp"]
        log = EventLog()
        session = api.RepairSession(observers=[log])
        request = api.RepairRequest(
            recipient=case.application(),
            target=case.target(),
            seed=case.seed_input(),
            error_input=case.error_input(),
            format_name="dcp",
            donor="wireshark-1.8.6",
        )
        session.run(request)
        first = len(log.events)
        session.run(request)
        assert first > 0
        assert len(log.events) > first
