"""Closed-loop measurement of one workload: end-to-end and traced runs."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer
from workloads import HOOKS, Outcome

END_TO_END = {
    "setup_s": "s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "posterior.fit_self_s": "s",
    "posterior.sweeps": "count",
    "posterior.alloc_cells": "count",
    "posterior.ns_per_alloc_cell": "ns",
    "posterior.gig_calls": "count",
    "posterior.gig_s": "s",
    "posterior.mean_density_s": "s",
    "posterior.draws_kept": "count",
    "posterior.burnin_warnings": "count",
    "posterior.ess_loglik": "count",
    "posterior.ess_sigma": "count",
    "posterior.ess_per_draw": "ratio",
    "posterior.ess_per_s": "1/s",
    "priors.scale_logpdf_calls": "count",
    "priors.scale_logpdf_s": "s",
    "priors.scale_logpdf_per_sweep": "calls/sweep",
    "priors.lemma_s.py-sticks": "s",
    "priors.lemma_s.py-locations": "s",
    "priors.lemma_s.nig": "s",
    "priors.mc_draws_per_s": "1/s",
    "priors.nig_sample_s": "s",
    "discretize.mixture_density_s": "s",
    "discretize.mixture_density_atom_points": "count",
    "discretize.ns_per_atom_point": "ns",
    "discretize.fgm_self_s": "s",
    "discretize.moment_match_s": "s",
    "discretize.atoms_out": "count",
    "metrics.wasserstein_calls": "count",
    "metrics.wasserstein_s": "s",
    "metrics.kl_s": "s",
    "gridfn.lp_norm_s": "s",
    "gridfn.synth_calls": "count",
    "gridfn.synth_s": "s",
    "gridfn.synth_bytes_computed": "B",
    "kernels.catalog_density_s": "s",
    "kernels.sinc_approx_error_s": "s",
    "transforms.transform_analytic_s": "s",
    "transforms.make_nonnegative_s": "s",
    "transforms.smoothing_error_s": "s",
    "transforms.coefficients_cold_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.remainder_s": "s",
    "trace.overhead_frac": "ratio",
}

LEMMAS = ("py-sticks", "py-locations", "nig")
ACCOUNTING_TOLERANCE_S = 1e-3


@dataclass
class Measurement:
    metrics: dict
    record: dict
    attempted: int
    failures: list


def task_seed(seed: int, index: int) -> int:
    """64-bit seed of task ``index`` under workload seed ``seed``."""
    state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)
    return int(state[0])


def run_task(workload, seed: int, index: int, tr, scratch: Path):
    """(wall seconds, Outcome); an exception makes a failed outcome."""
    start = time.perf_counter()
    try:
        outcome = workload.run(task_seed(seed, index), tr, scratch)
    except Exception as exc:  # a failing task is counted, never fatal
        outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, outcome


def closed_loop(workload, seed: int, seconds: float, scratch: Path):
    """Untraced tasks 0, 1, ... until ``seconds`` have passed (at least one)."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_task(workload, seed, len(runs), NullTracer(), scratch))
    return runs, time.perf_counter() - start


def tail(times) -> tuple[float, float, int]:
    """(value, percentile, tasks beyond) of the task-time tail.

    The highest percentile with at least 10 tasks beyond it, but never
    below the 90th: a run holds far fewer than 100 tasks, so this is the
    90th percentile with linear interpolation.
    """
    n = len(times)
    pct = max(90.0, 100.0 * (n - 10) / n)
    value = float(np.percentile(times, pct))
    return value, pct, int(sum(t > value for t in times))


def ess_sum(outcomes) -> float:
    return float(sum(o.stats.get("posterior.ess_loglik", 0.0) for o in outcomes if o.ok))


def end_to_end(workload, seed: int, seconds: float, scratch: Path) -> Measurement:
    """Timed closed loop, then task 0 again as the determinism probe."""
    runs, wall = closed_loop(workload, seed, seconds, scratch)
    times = [t for t, _ in runs]
    outcomes = [o for _, o in runs]
    failures = [o.reason for o in outcomes if not o.ok]
    _, probe = run_task(workload, seed, 0, NullTracer(), scratch)
    if not probe.ok or probe.digest != outcomes[0].digest:
        failures.append("determinism probe: " + (probe.reason or "task 0 output changed on rerun"))
    tail_s, pct, beyond = tail(times)
    metrics = {
        "task_s_p50": statistics.median(times),
        "task_s_tail": tail_s,
        "tasks_per_s": sum(o.ok for o in outcomes) / wall,
    }
    record = {
        "tasks": len(runs),
        "task_times_s": times,
        "timed_wall_s": wall,
        "task_s_tail_percentile": pct,
        "task_s_tail_beyond": beyond,
        "ess_per_s": ess_sum(outcomes) / wall,
        "max_l1": max(o.stats.get("l1", 0.0) for o in outcomes),
    }
    return Measurement(metrics, record, len(runs) + 1, failures)


def per_layer(workload, seed: int, seconds: float, scratch: Path) -> Measurement:
    """Untraced half run, then the same tasks traced; per-task means.

    Only tasks that passed their checks enter the per-layer means.  Each
    traced task's output must equal its untraced run byte for byte.
    """
    cold = coefficients_cold_s()
    untraced, wall = closed_loop(workload, seed, seconds / 2.0, scratch)
    tracer = Tracer()
    traced = []
    with tracer.hooked(HOOKS) as absent:
        for index in range(len(untraced)):
            with tracer.task(index):
                traced.append(run_task(workload, seed, index, tracer, scratch))
    self_times = tracer.self_times()

    failures = [o.reason for _, o in untraced + traced if not o.ok]
    for index, ((_, a), (_, b)) in enumerate(zip(untraced, traced)):
        if a.ok and b.ok and a.digest != b.digest:
            failures.append(f"determinism: traced task {index} differs from its untraced run")
    # the root span encloses run_task, whose own clock gives the task's wall time
    accounting_err = max(
        abs(sum(self_times[i].values()) - wall) for i, (wall, _) in enumerate(traced)
    )
    if accounting_err > ACCOUNTING_TOLERANCE_S:
        failures.append(f"self times miss task wall time by {accounting_err:.3g} s")

    ok = [i for i, (_, o) in enumerate(traced) if o.ok]
    totals = defaultdict(float)
    for i in ok:
        for source in (self_times[i], tracer.counts[i], traced[i][1].stats):
            for name, value in source.items():
                totals[name] += value

    def ratio(num, den, scale=1.0):
        return scale * totals[num] / totals[den] if totals[den] else 0.0

    lemma_s = sum(totals[f"priors.lemma_s.{k}"] for k in LEMMAS)
    overhead = statistics.median(t for t, _ in traced) / statistics.median(t for t, _ in untraced)
    metrics = {name: totals[name] / len(ok) if ok else 0.0 for name in PER_LAYER}
    metrics.update({
        "posterior.ns_per_alloc_cell": ratio("posterior.fit_self_s", "posterior.alloc_cells", 1e9),
        "posterior.ess_per_draw": ratio("posterior.ess_loglik", "posterior.draws_kept"),
        "posterior.ess_per_s": ess_sum(o for _, o in untraced) / wall,
        "priors.scale_logpdf_per_sweep": ratio("priors.scale_logpdf_calls", "posterior.sweeps"),
        "priors.mc_draws_per_s": totals["priors.mc_draws"] / lemma_s if lemma_s else 0.0,
        "discretize.ns_per_atom_point": ratio(
            "discretize.mixture_density_s", "discretize.mixture_density_atom_points", 1e9
        ),
        "transforms.coefficients_cold_s": cold,
        "trace.overhead_frac": overhead - 1.0,
    })
    record = {
        "tasks": len(untraced),
        "absent_hooks": absent,
        "accounting_max_err_s": accounting_err,
        "task_wall_s_traced_mean": float(np.mean([traced[i][0] for i in ok])) if ok else 0.0,
    }
    return Measurement(metrics, record, 2 * len(untraced), failures)


def coefficients_cold_s() -> float:
    """Median of three uncached builds of the 120-term coefficient table."""
    from supermix import transforms

    build = getattr(transforms.coefficients, "__wrapped__", transforms.coefficients)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        build(120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
