"""Endpoint semantics of the repair daemon (stub and real runners).

The stub runner emits a deterministic event stream and a done record
without touching the repair pipeline, so these tests pin down the HTTP
contract — schemas, status codes, SSE framing, store reads — at
millisecond speed.  One end-to-end class at the bottom drives a real
repair through the live daemon (the CI smoke path).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaign.store import RunStore
from repro.core.events import StageFinished, StageStarted, event_to_dict
from repro.experiments import ERROR_CASES
from repro.service import ServiceError
from repro.service.jobs import STATUS_DONE


def stub_runner(manager, state):
    """Mirror default_service_runner's record shapes without running repairs."""
    records = []
    for spec in state.submission.specs:
        state.buffer(StageStarted(stage="stub"))
        state.buffer(StageFinished(stage="stub", elapsed_s=0.01))
        records.append(
            {
                "success": True,
                "recipient": "stub-recipient",
                "target": "t",
                "donor": spec.donor,
            }
        )
    if state.kind == "transfer":
        return records[0]
    return {
        "success": True,
        "transfers": len(records),
        "validated": len(records),
        "records": records,
    }


class TestSubmission:
    def test_submit_returns_202_with_a_queued_or_running_job(
        self, make_daemon, client_for
    ):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"kind": "transfer", "case": "cwebp-jpegdec"})
        assert state["job_id"].startswith("svc-")
        assert state["status"] in ("queued", "running")
        assert state["kind"] == "transfer"

    def test_default_donor_is_the_cases_first_listed(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        final = client.wait(state["job_id"])
        assert final["status"] == STATUS_DONE
        record = client.store_results("service-0")[state["job_id"]]["record"]
        assert record["donor"] == ERROR_CASES["cwebp-jpegdec"].donors[0]

    @pytest.mark.parametrize(
        "payload, expected_status",
        [
            ({"case": "no-such-case"}, 400),
            ({"case": "cwebp-jpegdec", "donor": "no-such-donor"}, 400),
            ({"case": "cwebp-jpegdec", "strategy": "no-such-strategy"}, 400),
            ({"case": "cwebp-jpegdec", "overrides": {"typo_key": 1}}, 400),
            ({"case": "cwebp-jpegdec", "overrides": {"backend": "bogus"}}, 400),
            ({"case": "cwebp-jpegdec", "overrides": {"search_policy": "smallest-patch"}}, 400),
            ({"case": "cwebp-jpegdec", "budget_s": -1}, 400),
            ({"case": "cwebp-jpegdec", "budget_s": 10**9}, 413),
            ({"kind": "bogus"}, 400),
            ({"kind": "matrix", "transfers": []}, 400),
            ({"kind": "matrix", "transfers": [["cwebp-jpegdec"]]}, 400),
        ],
        ids=[
            "unknown-case",
            "unknown-donor",
            "unknown-strategy",
            "unknown-override",
            "unknown-backend",
            "unknown-search-policy",
            "negative-budget",
            "budget-over-cap",
            "unknown-kind",
            "empty-matrix",
            "malformed-pair",
        ],
    )
    def test_invalid_payloads_are_rejected_with_the_plan_validators(
        self, make_daemon, client_for, payload, expected_status
    ):
        client = client_for(make_daemon(runner=stub_runner))
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == expected_status

    def test_oversized_matrix_is_rejected_413(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        transfers = [
            [case_id, donor]
            for case_id, case in ERROR_CASES.items()
            for donor in case.donors
        ]
        variants = {f"v{i}": {"sample_count": 4 + i} for i in range(4)}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                {"kind": "matrix", "transfers": transfers, "variants": variants}
            )
        assert excinfo.value.status == 413

    def test_matrix_job_runs_every_expanded_transfer(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit(
            {
                "kind": "matrix",
                "transfers": [
                    ["cwebp-jpegdec", "feh"],
                    ["cwebp-jpegdec", "mtpaint"],
                ],
            }
        )
        final = client.wait(state["job_id"])
        assert final["status"] == STATUS_DONE
        record = client.store_results("service-0")[state["job_id"]]["record"]
        assert record["transfers"] == 2
        assert record["validated"] == 2

    def test_non_json_body_is_a_400(self, make_daemon, client_for):
        import http.client

        daemon = make_daemon(runner=stub_runner)
        host, port = daemon.address
        connection = http.client.HTTPConnection(host, port, timeout=5)
        connection.request("POST", "/v1/jobs", body=b"not json")
        response = connection.getresponse()
        assert response.status == 400
        connection.close()


class TestJobReads:
    def test_unknown_job_is_a_404(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        with pytest.raises(ServiceError) as excinfo:
            client.job("svc-999999-ffffffffffff")
        assert excinfo.value.status == 404

    def test_jobs_listing_contains_every_submission(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        submitted = {
            client.submit({"case": "cwebp-jpegdec"})["job_id"] for _ in range(3)
        }
        listed = {job["job_id"] for job in client.jobs()}
        assert submitted <= listed

    def test_done_job_exposes_success_and_event_count(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        final = client.wait(state["job_id"])
        assert final["success"] is True
        assert final["events"] == 2
        assert final["elapsed_s"] >= 0


class TestSSE:
    def test_stream_replays_exactly_the_persisted_event_sequence(
        self, make_daemon, client_for
    ):
        daemon = make_daemon(runner=stub_runner)
        client = client_for(daemon)
        state = client.submit({"case": "cwebp-jpegdec"})
        client.wait(state["job_id"])
        streamed = client.stream_events(state["job_id"])
        persisted = daemon.store.load_event_dicts(state["job_id"])
        assert [event_to_dict(event) for event in streamed] == persisted
        assert persisted  # the stub emitted events, so both sides are non-trivial

    def test_stream_brackets_events_with_status_and_end_frames(
        self, make_daemon, client_for
    ):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        client.wait(state["job_id"])
        names = []
        with client.open_events(state["job_id"]) as frames:
            for name, payload in frames:
                names.append(name)
                if name == "end":
                    assert payload["status"] == STATUS_DONE
                    break
        assert names[0] == "status"
        assert names[-1] == "end"

    def test_live_stream_sees_events_before_the_job_ends(
        self, make_daemon, client_for
    ):
        import threading

        release = threading.Event()

        def slow_runner(manager, state):
            state.buffer(StageStarted(stage="slow"))
            assert release.wait(timeout=10)
            state.buffer(StageFinished(stage="slow", elapsed_s=0.01))
            return {"success": True}

        client = client_for(make_daemon(runner=slow_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        with client.open_events(state["job_id"]) as frames:
            saw_live_event = False
            for name, payload in frames:
                if name == "StageStarted":
                    saw_live_event = True
                    release.set()  # only unblock the job after we saw it live
                if name == "end":
                    break
            assert saw_live_event


class TestBundle:
    def test_bundle_of_a_done_transfer_is_schema_valid(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"case": "cwebp-jpegdec", "donor": "feh"})
        client.wait(state["job_id"])
        bundle = client.bundle(state["job_id"])
        assert bundle["job"]["job_id"] == state["job_id"]
        assert bundle["job"]["case_id"] == "cwebp-jpegdec"
        assert bundle["repair"]["success"] is True

    def test_bundle_before_done_is_a_409(self, make_daemon, client_for):
        import threading

        release = threading.Event()

        def blocked_runner(manager, state):
            assert release.wait(timeout=10)
            return {"success": True}

        client = client_for(make_daemon(runner=blocked_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.bundle(state["job_id"])
            assert excinfo.value.status == 409
        finally:
            release.set()


class TestStoresAndObservability:
    def test_service_store_is_listed_and_readable(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        client.wait(state["job_id"])
        stores = {entry["name"]: entry for entry in client.stores()}
        assert stores["service-0"]["completed"] == 1
        assert state["job_id"] in client.store_results("service-0")

    def test_class_stats_aggregate_by_recipient(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        for _ in range(2):
            client.wait(client.submit({"case": "cwebp-jpegdec"})["job_id"])
        stats = client.class_stats("service-0")
        assert stats["stub-recipient"]["transfers"] == 2
        assert stats["stub-recipient"]["success_rate"] == 1.0

    def test_store_path_traversal_is_rejected(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        for name in ("..", ".hidden", "a/b"):
            with pytest.raises(ServiceError) as excinfo:
                client.store_results(name)
            assert excinfo.value.status == 404

    def test_metrics_and_spans_record_http_traffic(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        state = client.submit({"case": "cwebp-jpegdec"})
        client.wait(state["job_id"])
        snapshot = client.metrics()
        assert snapshot["counters"]["service.jobs.submitted"] == 1
        assert snapshot["counters"]["service.jobs.done"] == 1
        # Request accounting lands *after* the response bytes go out, so a
        # fast reader can observe its predecessors' counts still in flight
        # — poll briefly instead of asserting one instantaneous snapshot.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            snapshot = client.metrics()
            spans = client.spans()
            if snapshot["counters"].get("service.http.requests", 0) >= 2 and any(
                span["name"] == "POST /v1/jobs" for span in spans
            ):
                break
        assert snapshot["counters"]["service.http.requests"] >= 2
        assert any(span["name"] == "POST /v1/jobs" for span in spans)

    def test_healthz_reports_pool_and_queue_gauges(self, make_daemon, client_for):
        client = client_for(make_daemon(runner=stub_runner))
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers_alive"] == 2
        assert health["idle_sessions"] == 1
        assert health["queue_limit"] == 16


class TestRealRepair:
    """One real repair through the live daemon (the CI smoke scenario)."""

    def test_submit_stream_and_bundle_a_real_transfer(
        self, make_daemon, client_for
    ):
        daemon = make_daemon(workers=1)  # default runner: the real pipeline
        client = client_for(daemon)
        state = client.submit(
            {"case": "cwebp-jpegdec", "donor": "feh", "budget_s": 120}
        )
        final = client.wait(state["job_id"], timeout=120)
        assert final["status"] == STATUS_DONE
        assert final["success"] is True
        streamed = client.stream_events(state["job_id"])
        persisted = daemon.store.load_event_dicts(state["job_id"])
        assert [event_to_dict(event) for event in streamed] == persisted
        assert any(p["event"] == "PatchValidated" for p in persisted)
        bundle = client.bundle(state["job_id"])
        assert bundle["repair"]["success"] is True
        assert bundle["provenance"]["validated_checks"]
