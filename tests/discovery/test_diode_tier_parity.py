"""DIODE searches the same way on every execution tier, memo or no memo.

Patch validation reruns DIODE on the patched recipient, and on the default
tier every trial of that rescan runs on the concrete artifact.  For all 18
Figure 8 rows this suite reruns the rescan of the validated patch, plus the
discovery rescan of the unpatched recipient, once on the compiled tier and
once on the interpreter, and requires identical findings (site, input bytes,
field values) and identical per-site trial counts.

``Diode`` reuses a trial's result when a later trial's input matches the
bytes that run read.  The same rescans are raced against a memo-free
``Diode`` that runs the VM for every trial: findings and per-site trial
counts must be identical, and only the number of VM runs may differ.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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


class _MemoFreeDiode(_CountingDiode):
    """The oracle: every trial runs the VM, no earlier result is reused."""

    def _trial(self, data):
        self.runs += 1
        return self._trial_vm.run(data)


class Rescan(NamedTuple):
    findings: list
    site_trials: list
    runs: int

    @property
    def search(self) -> tuple:
        """What the search judged: findings and per-site trial counts."""
        return self.findings, self.site_trials


def _rescan(program, row, compiled: bool, diode_class=_CountingDiode) -> Rescan:
    """Findings, per-site trial counts and VM runs of one function-scoped rescan."""
    previous = default_execution_tier()
    set_default_execution_tier(compiled)
    try:
        case = row.case
        diode = diode_class(program, get_format(case.format_name), options=DiodeOptions())
        findings = diode.discover(case.seed_input(), site_function=case.target().site_function)
    finally:
        set_default_execution_tier(previous)
    return Rescan(
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
        diode.runs,
    )


@functools.lru_cache(maxsize=None)
def _patched_programs() -> dict:
    """Row -> its validated patched program (patches from one warm session)."""
    session = RepairSession()
    programs = {}
    for row in FIGURE8_ROWS:
        report = session.run(
            RepairRequest.for_case(row.case, donor=get_application(row.donor))
        )
        assert report.outcome.success, f"{row} no longer validates"
        programs[row] = compile_program(report.outcome.patched_source, name="patched")
    return programs


@functools.lru_cache(maxsize=None)
def _patched_rescans(compiled: bool, diode_class=_CountingDiode) -> dict:
    """Row -> rescan of its validated patch."""
    rescans = {}
    for row, patched in _patched_programs().items():
        if compiled:
            # The compiled column really is the concrete artifact.
            assert compile_concrete(patched) is not None
        rescans[row] = _rescan(patched, row, compiled, diode_class)
    return rescans


def _row_id(row) -> str:
    return f"{row.case_id}/{row.donor}"


@pytest.mark.parametrize("row", FIGURE8_ROWS, ids=_row_id)
def test_patched_rescan_is_tier_independent(row) -> None:
    assert _patched_rescans(True)[row] == _patched_rescans(False)[row]


@pytest.mark.parametrize("row", FIGURE8_ROWS, ids=_row_id)
def test_patched_rescan_matches_the_memo_free_search(row) -> None:
    product = _patched_rescans(True)[row]
    oracle = _patched_rescans(True, _MemoFreeDiode)[row]
    assert product.search == oracle.search
    assert oracle.runs == sum(trials for _, trials in oracle.site_trials)
    assert product.runs <= oracle.runs


def test_patched_rescans_run_thousands_of_trials() -> None:
    """The parity above covers a real search, trial-capped sites included,
    and the memo skips a share of its VM runs."""
    rescans = _patched_rescans(True).values()
    site_trials = [trials for rescan in rescans for _, trials in rescan.site_trials]
    assert sum(site_trials) > 4000
    assert DiodeOptions().max_trials in site_trials
    runs = sum(rescan.runs for rescan in rescans)
    assert runs < sum(site_trials)


@pytest.mark.parametrize(
    "case_id", sorted({row.case_id for row in FIGURE8_ROWS})
)
def test_unpatched_rescan_finds_the_same_inputs(case_id: str) -> None:
    row = next(row for row in FIGURE8_ROWS if row.case_id == case_id)
    program = row.case.application().program()
    compiled = _rescan(program, row, compiled=True)
    assert compiled == _rescan(program, row, compiled=False)
    assert compiled.search == _rescan(program, row, True, _MemoFreeDiode).search
    if row.case.target().error_kind is ErrorKind.INTEGER_OVERFLOW:
        assert compiled.findings, f"DIODE no longer finds the {case_id} overflow"
