"""``tools/compare.py``'s judging, on synthetic benchmark result lines.

The judging is a pure function of paired runs, ``BENCHMARK.json``'s
``better`` and ``bound``, so every rule is pinned here without running the
benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import compare  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
BOUND = 0.24
#: Ten runs at 100 +- 2: an interquartile range of about 2.
STEADY = [98.0, 99.0, 100.0, 101.0, 102.0, 98.5, 99.5, 100.5, 101.5, 100.0]


def _scaled(values, factor):
    return [value * factor for value in values]


def _result(correct=True, failed=0, attempted=100, **metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }


def _with_wins(wins, gap):
    """Ten pairs; the change is ``gap`` lower (better) on ``wins`` of them, higher elsewhere."""
    change = [value - gap if index < wins else value + 0.5 for index, value in enumerate(STEADY)]
    return STEADY, change


class TestVerdicts:
    def test_lower_better_improvement(self):
        judgement = compare.judge(STEADY, _scaled(STEADY, 0.7), "lower", BOUND)
        assert judgement.verdict == "improved"
        assert judgement.wins == 10
        assert judgement.ratio == pytest.approx(0.7)

    def test_lower_better_regression(self):
        assert compare.judge(STEADY, _scaled(STEADY, 1.3), "lower", BOUND).verdict == "regressed"

    def test_higher_better_improvement(self):
        assert compare.judge(STEADY, _scaled(STEADY, 1.3), "higher", BOUND).verdict == "improved"

    def test_higher_better_regression(self):
        judgement = compare.judge(STEADY, _scaled(STEADY, 0.7), "higher", BOUND)
        assert judgement.verdict == "regressed"
        assert judgement.wins == 0

    def test_nine_wins_in_ten_is_a_gain(self):
        base, change = _with_wins(9, gap=10.0)
        judgement = compare.judge(base, change, "lower", BOUND)
        assert judgement.wins == 9
        assert judgement.verdict == "improved"

    def test_eight_wins_in_ten_is_not_a_gain(self):
        base, change = _with_wins(8, gap=10.0)
        judgement = compare.judge(base, change, "lower", BOUND)
        assert judgement.wins == 8
        assert abs(judgement.change_median - judgement.base_median) > judgement.base_iqr
        assert judgement.verdict == "unresolved"

    def test_a_gap_inside_the_base_iqr_is_unresolved(self):
        # Every pair is won, but by less than the base's own quartile distance.
        judgement = compare.judge(STEADY, [value - 0.5 for value in STEADY], "lower", BOUND)
        assert judgement.wins == 10
        assert abs(judgement.change_median - judgement.base_median) < judgement.base_iqr
        assert judgement.verdict == "unresolved"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 80.0, 120.0, 100.0]
        # Even a median 30% worse is not called a regression through that spread.
        judgement = compare.judge(STEADY, _scaled(noisy, 1.3), "lower", BOUND)
        assert compare.share(judgement.change_iqr, judgement.change_median) > BOUND
        assert judgement.verdict == "unresolved"

    def test_wide_spread_with_every_run_apart_is_judged(self):
        base = [100.0, 200.0, 110.0, 190.0]
        slower = [400.0, 500.0, 410.0, 490.0]
        assert compare.judge(base, slower, "lower", BOUND).verdict == "regressed"

    def test_a_slowdown_within_the_bound_is_unchanged(self):
        judgement = compare.judge(STEADY, _scaled(STEADY, 1.1), "lower", BOUND)
        assert judgement.wins == 0
        assert judgement.verdict == "unchanged"

    def test_ties_count_for_neither_side(self):
        judgement = compare.judge(STEADY, list(STEADY), "lower", BOUND)
        assert judgement.wins == 0
        assert judgement.verdict == "unchanged"

    def test_a_zero_base_median_does_not_divide_by_zero(self):
        assert compare.judge([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", BOUND).verdict == "unchanged"
        assert compare.judge([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower", BOUND).verdict == "regressed"

    def test_fewer_than_two_pairs_is_refused(self):
        with pytest.raises(ValueError):
            compare.judge([1.0], [1.0], "lower", BOUND)


class TestWorkloads:
    def _runs(self, factor):
        return [
            _result(**{
                metric["name"]: value * (factor if metric["better"] == "lower" else 1 / factor)
                for metric in SPEC["end_to_end"]
            })
            for value in STEADY
        ]

    def test_every_end_to_end_metric_is_judged_with_its_bound(self):
        judgements = compare.judge_workload(
            SPEC["end_to_end"], self._runs(1.0), self._runs(1.2)
        )
        assert set(judgements) == {metric["name"] for metric in SPEC["end_to_end"]}
        # 1.2x is inside the 0.24 bounds and outside peak_rss_mb's 0.1.
        assert judgements["peak_rss_mb"].verdict == "regressed"
        assert judgements["repair_ms.p50"].verdict == "unchanged"
        assert judgements["jobs_per_s"].verdict == "unchanged"

    def test_a_side_reporting_correct_false_is_refused(self):
        good = self._runs(1.0)
        bad = self._runs(1.0)
        bad[3] = dict(bad[3], correct=False, failed=2)
        assert compare.refused(bad) and not compare.refused(good)
        assert compare.judge_workload(SPEC["end_to_end"], good, bad) == {}
        assert compare.judge_workload(SPEC["end_to_end"], bad, good) == {}

    def test_failed_operation_share_sums_every_run(self):
        runs = [_result(failed=1, attempted=50), _result(failed=0, attempted=150)]
        assert compare.failed_share(runs) == (1, 200)

    def test_a_refused_change_fails_and_a_refused_base_does_not(self, capsys):
        good = self._runs(1.0)
        bad = [dict(run, correct=False) for run in good]
        assert compare.report(SPEC["end_to_end"], {"base": good, "change": bad}) == ["refused"]
        assert compare.report(SPEC["end_to_end"], {"base": bad, "change": good}) == []
        assert "REFUSED" in capsys.readouterr().out

    def test_layer_deltas_are_medians_of_traced_runs(self):
        base = [_result(**{"lang.vm.concrete_ms": value}) for value in (10.0, 12.0, 11.0)]
        change = [_result(**{"lang.vm.concrete_ms": value, "only.change": 1.0})
                  for value in (20.0, 22.0, 21.0)]
        assert compare.layer_deltas(base, change) == [("lang.vm.concrete_ms", 11.0, 21.0)]


def test_pairs_alternate_which_side_runs_first():
    assert [compare.sides_in_order(pair)[0] for pair in range(4)] == [
        "base", "change", "base", "change"
    ]


def test_the_change_side_is_a_copy_of_what_git_would_commit(tmp_path):
    root, copy = tmp_path / "tree", tmp_path / "copy"
    root.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=root, check=True, stdout=subprocess.DEVNULL)

    (root / ".gitignore").write_text("*.log\n")
    (root / "pkg").mkdir()
    (root / "pkg" / "edited.py").write_text("committed\n")
    (root / "gone.py").write_text("committed\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (root / "pkg" / "edited.py").write_text("uncommitted edit\n")
    (root / "pkg" / "new.py").write_text("untracked\n")
    (root / "run.log").write_text("ignored\n")
    (root / "gone.py").unlink()

    compare.copy_tree(root, copy)
    assert (copy / "pkg" / "edited.py").read_text() == "uncommitted edit\n"
    assert (copy / "pkg" / "new.py").read_text() == "untracked\n"
    assert (copy / ".gitignore").exists()
    assert not (copy / "run.log").exists()
    assert not (copy / "gone.py").exists()
    assert not (copy / ".git").exists()
