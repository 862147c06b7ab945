"""Shared fixtures and helpers for the benchmark harness.

The full Figure 8 table is expensive to regenerate, so it is computed once per
benchmark session and shared by the benches that report on it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.reporting import ResultsDatabase
from repro.experiments import FIGURE8_ROWS, run_row

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def figure8_results() -> ResultsDatabase:
    """Run every Figure 8 row once and persist the regenerated table."""
    database = ResultsDatabase()
    for row in FIGURE8_ROWS:
        database.add(run_row(row))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "figure8.md").write_text(
        database.to_table(title="Figure 8 — Summary of CP Experimental Results (reproduction)")
        + "\n"
    )
    database.save(RESULTS_DIR / "figure8.json")
    return database
