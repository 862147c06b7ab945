"""The transfer engine's loops: the candidate cap, the recursive-round bound,
the unstable-point filter, and the call-time ``Rewriter`` lookup."""

from repro import api
from repro.core import CodePhageOptions, stages
from repro.core.events import StageFinished
from repro.experiments import ERROR_CASES


def _run(case_id: str, options=None, **fields) -> api.RepairReport:
    request = api.RepairRequest.for_case(ERROR_CASES[case_id], **fields)
    return api.RepairSession(options=options).run(request)


def test_the_rewrite_stage_resolves_rewriter_at_call_time(monkeypatch):
    # tests/core/rewrite_scan_oracle.py swaps stages.Rewriter the same way.
    rewritten = []

    class Counting(stages.Rewriter):
        def rewrite(self, expression):
            rewritten.append(expression)
            return super().rewrite(expression)

    monkeypatch.setattr(stages, "Rewriter", Counting)
    report = _run("cwebp-jpegdec", donor="feh")
    assert report.success
    (accounting,) = report.metrics.insertion_accounting
    # One rewrite per stable insertion point of the one candidate tried.
    assert len(rewritten) == accounting.candidate_points - accounting.unstable_points


def test_candidate_checks_are_capped_by_the_options():
    report = _run("cwebp-jpegdec", CodePhageOptions(max_candidate_checks=0), donor="feh")
    assert not report.success
    assert report.outcome.failure_reason == "no validated patch found"
    finished = [event.stage for event in report.events if isinstance(event, StageFinished)]
    assert finished == ["check-discovery"]


def test_recursive_rounds_are_bounded_by_the_options():
    from repro.scenarios import CorpusConfig, generate_corpus
    from repro.scenarios.runner import run_pair

    corpus = generate_corpus(CorpusConfig(seed=0, pairs_per_class=1, hardness=("multi_defect",)))
    pair = corpus.pair("gen-multi2-jpeg-0-107266a7")  # two defects
    assert run_pair(pair, CodePhageOptions()).success
    report = run_pair(pair, CodePhageOptions(max_recursive_patches=1))
    assert not report.success
    assert report.outcome.failure_reason == "residual errors remain after recursive patching"
    assert len(report.outcome.checks) == 1


def test_the_unstable_point_filter_decides_which_points_are_tried():
    def accounting(filter_unstable_points: bool):
        options = CodePhageOptions(filter_unstable_points=filter_unstable_points)
        report = _run("dillo-png", options, donor="feh")
        assert report.success
        (accounting,) = report.metrics.insertion_accounting
        return accounting

    filtered = accounting(True)
    assert filtered.unstable_points > 0
    tried = filtered.untranslatable_points + filtered.usable_points
    assert tried == filtered.candidate_points - filtered.unstable_points
    unfiltered = accounting(False)
    tried = unfiltered.untranslatable_points + unfiltered.usable_points
    assert tried == unfiltered.candidate_points



def test_tracked_runs_are_discoverys_two_plus_the_size_run_on_request(monkeypatch):
    """Excision reuses check discovery's donor run on the error input, and the
    allocation-size expression (a tracked recipient run) is built only for
    ``symbolic_overflow_check``."""
    from repro.core import check_discovery
    from repro.core.validation import ValidationOptions

    runs = []
    real = check_discovery.run_instrumented

    def counting(program, *args):
        runs.append(program.name)
        return real(program, *args)

    for module in (check_discovery, stages):
        monkeypatch.setattr(module, "run_instrumented", counting)
    assert _run("cwebp-jpegdec", donor="feh").success
    donor_runs = list(runs)
    assert len(donor_runs) == 2 and len(set(donor_runs)) == 1

    runs.clear()
    options = CodePhageOptions(validation=ValidationOptions(symbolic_overflow_check=True))
    assert _run("cwebp-jpegdec", options, donor="feh").success
    assert runs[:2] == donor_runs and len(runs) == 3 and runs[2] != donor_runs[0]
