"""The verdicts of ``scripts/perf_pairs.py`` on synthetic pairs, and its
exit code, with ``perfbench`` runs replaced by canned result lines."""

import importlib.util
import json
import subprocess
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
                "metrics": {"task_s_p50": {"value": 0.1}}, "setup_runs_s": [0.2]}

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert pairs.main(argv) == (0 if correct else 1)
    assert ("correct\": false" in capsys.readouterr().out) is not correct


def test_setup_probes_are_read_from_the_run_record_and_paired(pairs, tmp_path, monkeypatch,
                                                              capsys):
    spec = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    # every run reports setup_s 0.30, but probe k of the change is lower
    # than probe k of the parent in 5 of 6 probe pairs
    probes = {"parent": [[0.31, 0.30, 0.29], [0.40, 0.30, 0.20]],
              "change": [[0.30, 0.30, 0.28], [0.35, 0.29, 0.15]]}
    calls = {"parent": 0, "change": 0}

    def fake_run(command, cwd, capture_output, text):
        side = cwd.name
        setups = probes[side][calls[side]]
        calls[side] += 1
        record = {"run_record": {"setup_runs_s": setups}}
        result = {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": 0.30}}}
        return subprocess.CompletedProcess(command, 0, f"{json.dumps(record)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "probes       median parent 0.3  change 0.295  change lower in 5/6 probe pairs" in out
