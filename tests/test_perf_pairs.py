"""The verdicts of ``scripts/perf_pairs.py`` on synthetic pairs, and its
exit code, with ``perfbench`` runs replaced by canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent values with median 1.0 and IQR 0.02
PARENT = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_needs_nine_wins_and_a_median_beyond_the_iqr(pairs, better):
    sign = -1.0 if better == "lower" else 1.0
    better_by = [v + sign * 0.1 for v in PARENT]
    assert pairs.verdict(PARENT, better_by, better, 0.25) == "gain"
    # 8 wins of 10
    eight = better_by[:8] + [v - sign * 0.1 for v in PARENT[8:]]
    assert pairs.verdict(PARENT, eight, better, 0.25) == "no worse"
    # 10 wins, but the medians differ by 0.01, below the parent's IQR
    assert pairs.verdict(PARENT, [v + sign * 0.01 for v in PARENT], better, 0.25) == "no worse"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_worse_is_a_median_beyond_the_bound(pairs, better):
    sign = 1.0 if better == "lower" else -1.0
    assert pairs.verdict(PARENT, [v + sign * 0.3 for v in PARENT], better, 0.25) == "worse"
    assert pairs.verdict(PARENT, [v + sign * 0.2 for v in PARENT], better, 0.25) == "no worse"


def test_unresolved_where_the_parent_spreads_beyond_the_bound(pairs):
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    assert pairs.verdict(wide, [v + 0.01 for v in wide], "lower", 0.25) == "unresolved"
    assert pairs.verdict(wide, [v + 0.3 for v in wide], "lower", 0.25) == "worse"
    assert pairs.verdict(wide, wide, "lower", 1.0) == "no worse"
    # every change run below every parent run, by less than the IQR
    assert pairs.verdict(wide, [0.48] * 10, "lower", 0.25) == "no worse"
    assert pairs.verdict(wide, [0.48] * 9 + [0.55], "lower", 0.25) == "unresolved"


@pytest.mark.parametrize("correct", [True, False])
def test_exit_code_follows_the_correct_flag(pairs, tmp_path, monkeypatch, capsys, correct):
    spec = {"end_to_end": [{"name": "task_s_p50", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, args):
        ok = correct or checkout.name == "parent"
        return {"correct": ok, "failed": 0 if ok else 1,
                "metrics": {"task_s_p50": {"value": 0.1}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert pairs.main(argv) == (0 if correct else 1)
    assert ("correct\": false" in capsys.readouterr().out) is not correct
