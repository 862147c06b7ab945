"""The ``repro.api`` facade: session reuse, donor selection, stage timings,
empty donor pools, request checks."""

import pytest

from repro import api
from repro.core.reporting import TransferRecord
from repro.experiments import ERROR_CASES, run_case_with_all_donors


def _request(case_id: str, **fields) -> api.RepairRequest:
    case = ERROR_CASES[case_id]
    return api.RepairRequest(
        recipient=case.application(),
        target=case.target(),
        seed=case.seed_input(),
        error_input=case.error_input(),
        format_name=case.format_name,
        **fields,
    )


#: One Figure 8 row per error class, plus the multiversion scenario.
PARITY_ROWS = [
    ("cwebp-jpegdec", "feh"),
    ("jasper-tiles", "openjpeg"),
    ("gif2tiff-lzw", "display-6.5.2-9"),
    ("wireshark-dcp", "wireshark-1.8.6"),
]


def _fingerprint(outcome):
    """What a repair decides, without wall-clock timing or solver-cache cost."""
    metrics = outcome.metrics
    return {
        "success": outcome.success,
        "recipient": outcome.recipient,
        "target": outcome.target,
        "donor": outcome.donor,
        "failure_reason": outcome.failure_reason,
        "patched_source": outcome.patched_source,
        "checks": [
            (
                check.donor,
                check.patch.render(),
                check.check_size,
                str(check.accounting),
                check.validation.ok,
                len(check.validation.residual_findings),
            )
            for check in outcome.checks
        ],
        "relevant_branches": metrics.relevant_branches,
        "flipped_branches": metrics.flipped_branches,
        "used_checks": metrics.used_checks,
        "insertion_accounting": [str(entry) for entry in metrics.insertion_accounting],
        "check_sizes": metrics.check_sizes,
    }


@pytest.mark.parametrize("row", range(len(PARITY_ROWS)), ids=lambda i: "-".join(PARITY_ROWS[i]))
def test_a_warm_session_matches_a_fresh_one(row):
    """Reusing a session across requests changes what a repair costs, never
    what it decides."""
    case_id, donor = PARITY_ROWS[row]
    fresh = api.repair(_request(case_id, donor=donor)).outcome
    assert fresh.success, fresh.failure_reason

    session = api.RepairSession()
    warm_case, warm_donor = PARITY_ROWS[row - 1]
    session.run(_request(warm_case, donor=warm_donor))
    for _ in range(2):
        outcome = session.run(_request(case_id, donor=donor)).outcome
        assert _fingerprint(outcome) == _fingerprint(fresh)


def test_pool_selection_matches_the_pinned_donor():
    """Leaving the donor to the pool repairs exactly as pinning its choice."""
    pooled = api.repair(_request("cwebp-jpegdec")).outcome
    pinned = api.repair(_request("cwebp-jpegdec", donor="feh")).outcome
    assert pooled.success and pooled.donor == "feh-2.9.3"
    assert _fingerprint(pooled) == _fingerprint(pinned)


def test_a_transfer_reports_stage_timings():
    outcome = api.repair(_request("wireshark-dcp", donor="wireshark-1.8.6")).outcome
    assert outcome.metrics.stage_timings
    assert all(elapsed >= 0.0 for elapsed in outcome.metrics.stage_timings.values())
    assert {"check-discovery", "validation"} <= set(outcome.metrics.stage_timings)


def test_no_viable_donor_outcome_has_populated_metrics():
    """An empty donor pool must still yield a fully attributed outcome row."""
    case = ERROR_CASES["cwebp-jpegdec"]
    outcome = api.repair(_request("cwebp-jpegdec", donors=[])).outcome
    assert not outcome.success
    assert outcome.failure_reason == "no viable donor found"
    assert outcome.metrics.recipient == case.application().full_name
    assert outcome.metrics.target == case.target().target_id
    assert outcome.metrics.donor == "<none>"

    record = TransferRecord.from_outcome(outcome)
    assert record.recipient and record.target and record.donor


def test_pinning_a_donor_and_restricting_the_pool_is_an_error():
    request = _request("cwebp-jpegdec", donor="feh", donors=["mtpaint", "viewnior"])
    with pytest.raises(ValueError, match="not both"):
        api.repair(request)


def test_all_donors_helper_shares_one_checker():
    """The all-donors sweep reuses a single session (comparable cache stats)."""
    session = api.RepairSession()
    outcomes = run_case_with_all_donors("cwebp-jpegdec", session=session)
    assert [outcome.donor for outcome in outcomes] == [
        "feh-2.9.3",
        "mtpaint-3.40",
        "viewnior-1.4",
    ]
    assert all(outcome.success for outcome in outcomes)
    # All three transfers drained through the shared checker: its lifetime
    # query count is the sum of the per-transfer deltas.
    assert session.checker.statistics.queries == sum(
        outcome.metrics.solver_queries for outcome in outcomes
    )
    # Later donors replay earlier donors' verdicts from the shared in-memory
    # cache, which a per-donor fresh checker could never show.
    assert session.checker.statistics.cache_hits >= outcomes[0].metrics.solver_cache_hits
