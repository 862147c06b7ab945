"""DIODE searches the same way on every execution tier.

Patch validation reruns DIODE on the patched recipient, and on the default
tier every trial of that rescan runs on the concrete artifact.  For all 18
Figure 8 rows this suite reruns the rescan of the validated patch, plus the
discovery rescan of the unpatched recipient, once on the compiled tier and
once on the interpreter, and requires identical findings (site, input bytes,
field values) and identical per-site trial counts.
"""

from __future__ import annotations

import functools

import pytest

from repro.api import (
    RepairRequest,
    RepairSession,
    default_execution_tier,
    set_default_execution_tier,
)
from repro.apps import get_application
from repro.discovery import Diode, DiodeOptions
from repro.experiments import FIGURE8_ROWS
from repro.formats import get_format
from repro.lang import ErrorKind, compile_program
from repro.lang.concrete import compile_concrete


class _CountingDiode(Diode):
    """Records ``(site_id, trials)`` for every site it attacks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.site_trials: list[tuple[int, int]] = []

    def attack_site(self, seed, record):
        before = self.trials
        finding = super().attack_site(seed, record)
        self.site_trials.append((record.site_id, self.trials - before))
        return finding


def _rescan(program, row, compiled: bool) -> tuple:
    """Findings and per-site trial counts of one function-scoped rescan."""
    previous = default_execution_tier()
    set_default_execution_tier(compiled)
    try:
        case = row.case
        diode = _CountingDiode(program, get_format(case.format_name), options=DiodeOptions())
        findings = diode.discover(case.seed_input(), site_function=case.target().site_function)
    finally:
        set_default_execution_tier(previous)
    return (
        [
            (
                finding.allocation_site,
                finding.site_function,
                finding.site_line,
                finding.error_input,
                sorted(finding.field_values.items()),
            )
            for finding in findings
        ],
        diode.site_trials,
    )


@functools.lru_cache(maxsize=None)
def _patched_rescans(compiled: bool) -> dict:
    """Row -> rescan of its validated patch (patches from one warm session)."""
    session = RepairSession()
    rescans = {}
    for row in FIGURE8_ROWS:
        report = session.run(
            RepairRequest.for_case(row.case, donor=get_application(row.donor))
        )
        assert report.outcome.success, f"{row} no longer validates"
        patched = compile_program(report.outcome.patched_source, name="patched")
        if compiled:
            # The compiled column really is the concrete artifact.
            assert compile_concrete(patched) is not None
        rescans[row] = _rescan(patched, row, compiled)
    return rescans


@pytest.mark.parametrize(
    "row", FIGURE8_ROWS, ids=lambda row: f"{row.case_id}/{row.donor}"
)
def test_patched_rescan_is_tier_independent(row) -> None:
    assert _patched_rescans(True)[row] == _patched_rescans(False)[row]


def test_patched_rescans_run_thousands_of_trials() -> None:
    """The parity above covers a real search, trial-capped sites included."""
    site_trials = [
        trials for _, counts in _patched_rescans(True).values() for _, trials in counts
    ]
    assert sum(site_trials) > 4000
    assert DiodeOptions().max_trials in site_trials


@pytest.mark.parametrize(
    "case_id", sorted({row.case_id for row in FIGURE8_ROWS})
)
def test_unpatched_rescan_finds_the_same_inputs(case_id: str) -> None:
    row = next(row for row in FIGURE8_ROWS if row.case_id == case_id)
    program = row.case.application().program()
    compiled = _rescan(program, row, compiled=True)
    assert compiled == _rescan(program, row, compiled=False)
    if row.case.target().error_kind is ErrorKind.INTEGER_OVERFLOW:
        assert compiled[0], f"DIODE no longer finds the {case_id} overflow"
