"""The scan Rewrite: the oracle the product's fingerprint index is tested against.

:class:`ScanRewriter` is Figure 7's ``Rewrite(E, Names)`` with the name
lookup written the plain way: at every donor subtree it sends *every*
recipient name, in order, to the equivalence checker and takes the first
accepted one.  The product's :class:`repro.core.rewrite.Rewriter` sends only
the names whose values on a fixed point bank equal the subtree's
(:mod:`repro.solver.fingerprint`).  Both must translate every check into the
same names: ``test_rewrite_index.py`` compares them on the Figure 8 rows and a
generated corpus, and ``benchmarks/bench_ablation_solver_cache.py`` counts
the scan's solver calls for the paper's query-cache ablation.

Run as a script, it compares the two on full-hardness scenario corpora and
exits 1 on any difference::

    PYTHONPATH=src python tests/core/rewrite_scan_oracle.py --seeds 0 2 3 --pairs 3
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core import stages
from repro.core.rewrite import Rewriter
from repro.symbolic.expr import Expr

#: Per-repair fields the two rewriters must agree on.
OUTCOME_FIELDS = (
    "success", "donor", "failure_reason", "patch_preview", "patched_source", "rewrites",
)


class ScanRewriter(Rewriter):
    """``Rewrite(E, Names)`` that tries every name at every subtree."""

    def _match_name(self, expression: Expr) -> Optional[Expr]:
        if not expression.fields():
            return None
        for name in self.names:
            adapted = self._adapt_name_expression(name, expression.width)
            self.statistics.solver_queries += 1
            verdict = self.checker.equivalent(expression, adapted)
            if verdict.verdict.accepts:
                self.statistics.name_matches += 1
                self._matched.append(name.path)
                return self._leaf_for(name, expression.width)
        return None


@contextmanager
def rewriting_with(rewriter_class: type[Rewriter]) -> Iterator[list]:
    """Route the pipeline's rewrite stage through ``rewriter_class``.

    Yields a log that gets one entry per ``rewrite`` call: the names offered,
    the check, and the matched names and translation (None on failure).
    """
    log: list = []

    class Recording(rewriter_class):
        def rewrite(self, expression):
            result = super().rewrite(expression)
            log.append(
                (
                    tuple(name.path for name in self.names),
                    expression.digest,
                    None
                    if result is None
                    else (result.matched_names, result.expression.digest),
                )
            )
            return result

    original = stages.Rewriter
    stages.Rewriter = Recording
    try:
        yield log
    finally:
        stages.Rewriter = original


def _outcome(report, rewrites: list) -> dict:
    outcome = report.outcome
    return {
        "success": outcome.success,
        "donor": outcome.donor,
        "failure_reason": outcome.failure_reason,
        "patch_preview": outcome.checks[-1].patch.render() if outcome.checks else "",
        "patched_source": outcome.patched_source,
        "rewrites": list(rewrites),
    }


def figure8_outcomes(rewriter_class: type[Rewriter]) -> dict[str, dict]:
    """Every Figure 8 row on one session, keyed ``case/donor``."""
    from repro.api import RepairRequest, RepairSession
    from repro.apps import get_application
    from repro.experiments import FIGURE8_ROWS

    outcomes = {}
    with rewriting_with(rewriter_class) as log:
        session = RepairSession()
        for row in FIGURE8_ROWS:
            del log[:]
            report = session.run(
                RepairRequest.for_case(row.case, donor=get_application(row.donor))
            )
            outcomes[f"{row.case_id}/{row.donor}"] = _outcome(report, log)
    return outcomes


def full_hardness_corpus(seed: int, pairs: int):
    from repro.scenarios import HARDNESS_DIMENSIONS, CorpusConfig, generate_corpus

    return generate_corpus(
        CorpusConfig(seed=seed, pairs_per_class=pairs, hardness=HARDNESS_DIMENSIONS)
    )


def corpus_outcomes(corpus, rewriter_class: type[Rewriter]) -> dict[str, dict]:
    """Every job of ``corpus``'s matrix plan, each on a fresh session, keyed by job id."""
    from repro.scenarios.runner import corpus_plan, run_pair

    outcomes = {}
    with rewriting_with(rewriter_class) as log:
        for job in corpus_plan(corpus).jobs:
            del log[:]
            report = run_pair(corpus.pair(job.case_id), job.build_options(None))
            outcomes[job.job_id] = _outcome(report, log)
    return outcomes


def differences(
    expected: dict[str, dict], actual: dict[str, dict], fields=OUTCOME_FIELDS
) -> list[str]:
    """One line per (repair, field) on which the two runs disagree."""
    if set(expected) != set(actual):
        return [f"different repairs: {sorted(set(expected) ^ set(actual))}"]
    return [
        f"{key} {name}: scan {expected[key][name]!r} != index {actual[key][name]!r}"
        for key in sorted(expected)
        for name in fields
        if expected[key][name] != actual[key][name]
    ]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 2, 3])
    parser.add_argument("--pairs", type=int, default=3, help="pairs per class and dimension")
    args = parser.parse_args(argv)
    failed = False
    for seed in args.seeds:
        corpus = full_hardness_corpus(seed, args.pairs)
        index = corpus_outcomes(corpus, Rewriter)
        mismatches = differences(corpus_outcomes(corpus, ScanRewriter), index)
        print(
            f"seed {seed}: {len(index)} jobs, "
            f"{len(mismatches)} differences between the scan and the index"
        )
        for line in mismatches:
            print(f"  {line}")
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
