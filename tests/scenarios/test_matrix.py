"""The transfer matrix: plan expansion, end-to-end campaign, resume, stats."""

from __future__ import annotations

import pytest

from repro.campaign import PlanError, SchedulerOptions, matrix_plan
from repro.lang.trace import ErrorKind
from repro.scenarios import (
    HARDNESS_DIMENSIONS,
    CorpusConfig,
    corpus_plan,
    generate_corpus,
    run_matrix,
)


class TestMatrixPlan:
    def test_expansion_and_deterministic_ids(self):
        corpus = generate_corpus(seed=0, pairs_per_class=2)
        plan = corpus_plan(corpus)
        assert len(plan) == len(corpus)
        regenerated = corpus_plan(generate_corpus(seed=0, pairs_per_class=2))
        assert plan.job_ids() == regenerated.job_ids()

    def test_strategies_cross_product(self):
        corpus = generate_corpus(seed=0, pairs_per_class=1)
        plan = corpus_plan(corpus, strategies=["exit", "return0"])
        assert len(plan) == 2 * len(corpus)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PlanError):
            matrix_plan([("case", "donor")], strategies=["teleport"])

    def test_unknown_variant_override_rejected(self):
        with pytest.raises(PlanError):
            matrix_plan([("case", "donor")], variants={"bad": {"nope": 1}})

    def test_empty_matrix_rejected(self):
        with pytest.raises(PlanError):
            matrix_plan([])

    def test_duplicate_transfers_deduplicated(self):
        plan = matrix_plan([("case", "donor"), ("case", "donor")])
        assert len(plan) == 1


class TestMatrixCampaign:
    """One real end-to-end matrix over every error class (the tentpole)."""

    @pytest.fixture(scope="class")
    def matrix_run(self, tmp_path_factory):
        corpus = generate_corpus(seed=0, pairs_per_class=1)
        store_dir = tmp_path_factory.mktemp("matrix") / "run"
        report, database = run_matrix(
            corpus,
            store_dir,
            options=SchedulerOptions(jobs=2, start_method="fork"),
        )
        return corpus, store_dir, report, database

    def test_every_error_class_validates_a_transfer(self, matrix_run):
        corpus, _, report, database = matrix_run
        assert report.completed == len(corpus)
        assert not report.failed
        rates = report.class_success_rates()
        for kind in ErrorKind:
            assert rates[kind.value] == 1.0, f"no validated transfer for {kind.value}"
        assert len(database.records) == len(corpus)
        assert all(record.success for record in database.records)

    def test_class_summary_from_merged_database(self, matrix_run):
        corpus, _, _, database = matrix_run
        by_recipient = corpus.kind_of_recipient()
        summary = database.class_summary(
            lambda record: by_recipient.get(record.recipient)
        )
        assert set(summary) == {kind.value for kind in ErrorKind}
        assert all(entry["success_rate"] == 1.0 for entry in summary.values())

    def test_resume_skips_everything_and_keeps_class_stats(self, matrix_run):
        corpus, store_dir, _, _ = matrix_run
        report, database = run_matrix(
            corpus,
            store_dir,
            options=SchedulerOptions(jobs=1, start_method="fork"),
        )
        assert report.completed == 0
        assert report.skipped == len(corpus)
        # Skipped jobs still contribute their stored verdicts.
        rates = report.class_success_rates()
        assert all(rates[kind.value] == 1.0 for kind in ErrorKind)
        assert len(database.records) == len(corpus)

    def test_records_carry_generated_names(self, matrix_run):
        corpus, _, _, database = matrix_run
        recipients = {record.recipient for record in database.records}
        assert recipients == {pair.recipient.full_name for pair in corpus}


def test_hard_matrix_validates_every_dimension_but_the_near_misses(tmp_path):
    """One pair per class and hardness dimension: the per-dimension table."""
    corpus = generate_corpus(
        CorpusConfig(seed=0, pairs_per_class=1, hardness=HARDNESS_DIMENSIONS)
    )
    report, _ = run_matrix(
        corpus, tmp_path / "run", options=SchedulerOptions(jobs=2, start_method="fork")
    )
    assert report.completed == len(corpus)
    assert not report.failed
    rates = report.class_success_rates()
    for dimension in HARDNESS_DIMENSIONS:
        name = f"hardness:{dimension}"
        assert report.class_stats[name]["jobs"] == len(ErrorKind), name
        # Off the adversarial dimension every transfer validates; on it the
        # registered donor is the near miss, so none may.
        expected = 0.0 if dimension == "adversarial" else 1.0
        assert rates[name] == expected, f"{name}: success rate {rates[name]:.0%}"
    assert report.false_accept_rate() == 0.0
