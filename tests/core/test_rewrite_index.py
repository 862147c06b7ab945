"""Rewrite's fingerprint index against the scan oracle it replaced."""

import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.core import Rewriter
from repro.core.traversal import RecipientName
from repro.obs import metrics as obs_metrics
from repro.solver import EquivalenceChecker, Verdict
from repro.solver.fingerprint import POINTS, path_bank
from repro.symbolic import builder
from repro.symbolic.expr import Expr
from rewrite_scan_oracle import (
    ScanRewriter,
    corpus_outcomes,
    differences,
    figure8_outcomes,
    full_hardness_corpus,
)


def test_figure8_rows_match_the_scan():
    scan = figure8_outcomes(ScanRewriter)
    index = figure8_outcomes(Rewriter)
    assert differences(scan, index) == []
    assert sum(outcome["success"] for outcome in index.values()) == len(index)


def test_seed0_full_hardness_corpus_matches_the_scan():
    corpus = full_hardness_corpus(seed=0, pairs=3)
    scan = corpus_outcomes(corpus, ScanRewriter)
    index = corpus_outcomes(corpus, Rewriter)
    assert len(index) == 90
    assert differences(scan, index) == []


# -- the index itself ------------------------------------------------------------------

WIDTH = builder.input_field("/start_frame/content/width", 16)
HEIGHT = builder.input_field("/start_frame/content/height", 16)
NAMES = [
    RecipientName("dinfo.output_height", builder.zext(HEIGHT, 32), 32, False),
    RecipientName("dinfo.scaled", builder.zext(builder.mul(WIDTH, 2), 32), 32, False),
    RecipientName("dinfo.output_width", builder.zext(WIDTH, 32), 32, False),
    RecipientName("dinfo.image_width", builder.zext(WIDTH, 32), 32, False),
]
CHECK = builder.ule(builder.mul(builder.zext(WIDTH, 64), builder.zext(HEIGHT, 64)), 1 << 29)


def test_index_takes_the_first_equal_name_with_fewer_queries():
    index_checker, scan_checker = EquivalenceChecker(), EquivalenceChecker()
    index = Rewriter(NAMES, checker=index_checker).rewrite(CHECK)
    scan = ScanRewriter(NAMES, checker=scan_checker).rewrite(CHECK)
    assert index.matched_names == scan.matched_names == (
        "dinfo.output_width", "dinfo.output_height"
    )
    assert index.expression is scan.expression
    assert index.statistics.solver_queries < scan.statistics.solver_queries
    assert index_checker.statistics.queries == index.statistics.solver_queries


def test_fingerprints_are_session_memoised():
    checker = EquivalenceChecker()
    Rewriter(NAMES, checker=checker).rewrite(CHECK)
    memoised, derived = len(checker.fingerprints), len(checker.fingerprints.derived)
    assert memoised and derived
    Rewriter(NAMES, checker=checker).rewrite(CHECK)
    assert (len(checker.fingerprints), len(checker.fingerprints.derived)) == (memoised, derived)
    assert len(EquivalenceChecker().fingerprints) == 0  # every session starts cold


def test_bank_is_the_same_in_every_process():
    code = "from repro.solver.fingerprint import path_bank; print(path_bank('/a/b'))"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert child.stdout.strip() == str(path_bank("/a/b"))
    assert len(path_bank("/a/b")) == POINTS
    assert path_bank("/a/b") != path_bank("/a/c")


def test_candidates_per_lookup_is_recorded():
    registry = obs_metrics.MetricsRegistry()
    registry.enable()
    original, obs_metrics.REGISTRY = obs_metrics.REGISTRY, registry
    try:
        result = Rewriter(NAMES).rewrite(CHECK)
    finally:
        obs_metrics.REGISTRY = original
    histogram = registry.histogram("rewrite.candidates_per_lookup")
    assert histogram.bounds == obs_metrics.COUNT_BOUNDS
    assert histogram.total == result.statistics.solver_queries
    assert histogram.count == result.statistics.nodes_visited - 1  # the constant is folded


# -- property: the index never withholds a proved match ----------------------------------

FIELDS = {"/q/a": 4, "/q/b": 8}  # 12 free bits: the checker decides by enumeration


@st.composite
def expressions(draw, depth: int = 3) -> Expr:
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return builder.const(draw(st.integers(0, 255)), 8)
        path = draw(st.sampled_from(sorted(FIELDS)))
        return builder.input_field(path, FIELDS[path])
    left = draw(expressions(depth=depth - 1))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return builder.zext(left, min(left.width * 2, 32))
    if kind == 1:
        return builder.sext(left, min(left.width * 2, 32))
    operation = draw(
        st.sampled_from(
            [builder.add, builder.sub, builder.mul, builder.bvand, builder.bvor,
             builder.bvxor, builder.udiv, builder.urem]
        )
    )
    return operation(left, draw(expressions(depth=depth - 1)))


def _equal_forms(expr: Expr) -> list[Expr]:
    """Expressions that always equal ``expr`` but are built differently."""
    field = builder.input_field("/q/a", 4)
    return [
        expr,
        builder.sub(builder.add(expr, field), field),
        builder.bvxor(builder.bvxor(expr, field), field),
        builder.shrink(builder.zext(expr, 32), expr.width),
    ]


@given(expressions(), st.lists(expressions(), max_size=4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_names_outside_the_bucket_are_never_proved_equal(expr, others, signed):
    if not expr.fields():
        return
    forms = [*_equal_forms(expr), *others]
    names = [
        RecipientName(f"v{number}", form, form.width, signed)
        for number, form in enumerate(forms)
    ]
    checker = EquivalenceChecker()
    rewriter = Rewriter(names, checker=checker)
    bucket = rewriter._index(expr.width).get(checker.fingerprints.of(expr), [])
    inside = {name.path for name, _ in bucket}
    assert "v0" in inside  # the subtree itself always shares its bucket
    for name in names:
        if name.path in inside:
            continue
        adapted = Rewriter._adapt_name_expression(name, expr.width)
        assert checker.equivalent(expr, adapted).verdict is not Verdict.EQUIVALENT
