"""Tests of the benchmark itself: ESS estimator, tracing and smoke runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
from ess import geyer_ess  # noqa: E402
from tracing import ROOT_SPAN, Hook, Tracer  # noqa: E402
from workloads import ConstructionsWorkload, Outcome, PosteriorWorkload  # noqa: E402

TINY_POSTERIOR = dict(l1_max=1.0, n=60, iterations=110, burn_in=10, thinning=2)
TINY = {
    "dp_contract": PosteriorWorkload(prior="dp", **TINY_POSTERIOR),
    "nig_contract": PosteriorWorkload(prior="nig", **TINY_POSTERIOR),
    "constructions": ConstructionsWorkload(budget=20_000, fgm_sigmas=(0.8, 0.7, 0.6), kl_max=1.0),
}


def bench_main(capsys, registry, workload, trace, seconds=0.01):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        registry=registry,
        setup_repeats=1,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


# ---------------------------------------------------------------------
# ESS


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - phi ** 2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8])
def test_ess_matches_ar1(phi):
    n = 40_000
    known = n * (1.0 - phi) / (1.0 + phi)
    assert geyer_ess(ar1(phi, n, seed=7)) == pytest.approx(known, rel=0.1)


def test_ess_of_degenerate_trace_is_nan():
    assert math.isnan(geyer_ess(np.ones(50)))
    assert math.isnan(geyer_ess(np.r_[np.arange(10.0), np.nan]))


# ---------------------------------------------------------------------
# tracing


def test_self_times_account_for_task_wall_time():
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.task(0):
        with tracer.span("a"):
            sum(range(20_000))
            with tracer.span("b"):
                sum(range(20_000))
        with tracer.span("b"):
            sum(range(20_000))
    wall = time.perf_counter() - start
    self_times = tracer.self_times()
    assert set(self_times[0]) == {ROOT_SPAN, "a", "b"}
    assert all(v >= 0.0 for v in self_times[0].values())
    assert sum(self_times[0].values()) == pytest.approx(wall, abs=1e-4)


def test_accounting_gate_fails_when_spans_miss_task_time(tmp_path, monkeypatch):
    monkeypatch.setattr(Tracer, "task", lambda self, task_id: nullcontext())
    m = harness.per_layer(TINY["dp_contract"], seed=0, seconds=1e-6, scratch=tmp_path)
    assert any("self times miss task wall time" in f for f in m.failures)


def test_hooks_count_restore_and_report_absent_names():
    from supermix import posterior, priors

    original = priors.ScalePriorA0.logpdf
    tracer = Tracer()
    hooks = harness.HOOKS + (
        Hook("supermix.posterior", "no_such_function", "x"),
        Hook("supermix.no_such_module", "f", "x"),
    )
    with tracer.hooked(hooks) as absent:
        with tracer.task(0):
            priors.ScalePriorA0().logpdf(1.0)
            posterior.geninvgauss.rvs(0.5, 1.0, random_state=np.random.default_rng(0))
    assert absent == ["supermix.posterior.no_such_function", "supermix.no_such_module.f"]
    assert tracer.counts[0] == {"priors.scale_logpdf_calls": 1, "posterior.gig_calls": 1}
    assert priors.ScalePriorA0.logpdf is original
    assert "rvs" not in vars(posterior.geninvgauss)


# ---------------------------------------------------------------------
# whole runs on tiny inputs


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    record, result = bench_main(capsys, TINY, workload, trace)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert record["failed_frac"] == 0.0 and "ess_per_s" in record
    else:
        assert record["absent_hooks"] == []


class NanDatum(PosteriorWorkload):
    def make_data(self, truth, rng):
        data = super().make_data(truth, rng)
        data[0] = np.nan
        return data


def test_non_finite_datum_fails_the_task_not_the_run(capsys):
    registry = {"dp_contract": NanDatum(prior="dp", **TINY_POSTERIOR)}
    record, result = bench_main(capsys, registry, "dp_contract", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert record["failed_frac"] == 1.0


class Drifting:
    """A task whose output changes from call to call."""

    def __init__(self):
        self.calls = 0

    def run(self, seed, tr, scratch):
        self.calls += 1
        return Outcome(True, digest=str(self.calls))


def test_determinism_probe_catches_state_leaking_between_calls(tmp_path):
    m = harness.end_to_end(Drifting(), seed=0, seconds=1e-6, scratch=tmp_path)
    assert m.attempted == 2
    assert len(m.failures) == 1 and "determinism" in m.failures[0]


def test_missing_sources_exit_nonzero_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dp_contract", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
