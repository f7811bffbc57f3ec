#!/usr/bin/env python3
"""Alternating ``perfbench`` pairs between two checkouts of this repository.

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload nig_contract \\
        --pairs 6 --seconds 12 [--batches 2] [--gap 60] [--seed 1]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one run
at a time and with the same seed, so both sides run the same task list.
The side that goes first alternates from pair to pair, starting with the
parent in the first batch and with the change in the second.  For every
pair the script prints the five end-to-end metrics of both sides and the
failed-task counts.  It then prints, for each batch and over all batches,
each metric's median on both sides, the interquartile range of the
parent's runs, the number of pairs in which the change was better, and a
verdict (see :func:`verdict`).  Beside ``setup_s``, the median of a run's
fresh-interpreter set-up probes, it prints the medians over the probes
themselves (``setup_runs_s`` in each run's record line) and in how many
probe pairs the change was lower, pairing probe k of the two runs of a
pair: a set-up change of tens of milliseconds can hide in the run
medians.  The metric names, their better direction and their bounds come
from CHANGE_DIR's ``BENCHMARK.json``, which the script only reads.  It
exits 1 when any run reports ``"correct": false``.

``--batches 2`` repeats the pairs as a second batch after ``--gap``
seconds: on a shared host one batch of pairs can read one side slower in
nearly every pair and then even out later, so a claimed gain needs a
second, later batch that agrees.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--gap", type=float, default=0.0, help="seconds between batches")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            p.error(f"no perfbench/run.py under {getattr(args, side)}")
    if args.pairs < 1 or args.batches < 1 or args.gap < 0 or not args.seconds > 0:
        p.error("--pairs and --batches must be >= 1, --gap >= 0 and --seconds > 0")
    return args


def run_once(checkout: Path, args) -> dict:
    """One ``perfbench`` run; returns its result line, with the set-up
    probe times of its run record line as ``setup_runs_s``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {checkout}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["setup_runs_s"] = json.loads(lines[-2])["run_record"]["setup_runs_s"]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(old, new, better, bound):
    """One metric's verdict over pairs of parent (``old``) and change
    (``new``) values, ``better`` being "lower" or "higher":

    * "gain": the change is better in at least 9 of 10 pairs and its median
      is better than the parent's by more than the parent's IQR;
    * "worse": the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    * "unresolved": neither, and the parent's IQR exceeds ``bound`` times
      its median, so the runs spread too widely to tell, unless every run
      of the change is better than every run of the parent;
    * "no worse" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_old, med_new = statistics.median(old), statistics.median(new)
    lo, hi = quartiles(old)
    wins = sum(sign * (n - o) < 0 for o, n in zip(old, new))
    if 10 * wins >= 9 * len(old) and sign * (med_old - med_new) > hi - lo:
        return "gain"
    if sign * (med_new - med_old) > bound * abs(med_old):
        return "worse"
    separated = max(sign * n for n in new) < min(sign * o for o in old)
    if hi - lo > bound * abs(med_old) and not separated:
        return "unresolved"
    return "no worse"


def summary(title, pairs, metrics):
    print(f"{title}: {len(pairs)} pairs")
    for name, better, bound in metrics:
        old = [p["parent"][name] for p in pairs]
        new = [p["change"][name] for p in pairs]
        wins = sum((n < o) if better == "lower" else (n > o) for o, n in zip(old, new))
        lo, hi = quartiles(old)
        print(f"  {name:12s} median parent {statistics.median(old):.4g}  "
              f"change {statistics.median(new):.4g}  parent IQR {hi - lo:.3g}  "
              f"change better in {wins}/{len(pairs)} ({better} is better)  "
              f"{verdict(old, new, better, bound)}")
        if name == "setup_s":
            probes = [probe for p in pairs
                      for probe in zip(p["probes"]["parent"], p["probes"]["change"])]
            wins = sum(n < o for o, n in probes)
            print(f"  {'probes':12s} median parent {statistics.median(o for o, _ in probes):.4g}  "
                  f"change {statistics.median(n for _, n in probes):.4g}  "
                  f"change lower in {wins}/{len(probes)} probe pairs")
    failed = {side: sum(p["failed"][side] for p in pairs) for side in SIDES}
    print(f"  failed tasks: parent {failed['parent']}, change {failed['change']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    batches = []
    for batch in range(args.batches):
        if batch:
            time.sleep(args.gap)
        pairs = []
        for i in range(args.pairs):
            order = SIDES if (i + batch) % 2 == 0 else SIDES[::-1]
            results = {side: run_once(getattr(args, side), args) for side in order}
            pair = {side: {name: results[side]["metrics"][name]["value"] for name, *_ in metrics}
                    for side in SIDES}
            pair["failed"] = {side: results[side]["failed"] for side in SIDES}
            pair["probes"] = {side: results[side]["setup_runs_s"] for side in SIDES}
            pair["correct"] = all(results[side]["correct"] for side in SIDES)
            pairs.append(pair)
            cells = "  ".join(f"{name} {pair['parent'][name]:.4g}/{pair['change'][name]:.4g}"
                              for name, *_ in metrics)
            print(f"batch {batch + 1} pair {i + 1} ({order[0]} first) parent/change: {cells}  "
                  f"failed {pair['failed']['parent']}/{pair['failed']['change']}", flush=True)
        batches.append(pairs)
    for batch, pairs in enumerate(batches):
        summary(f"batch {batch + 1}", pairs, metrics)
    if len(batches) > 1:
        summary("all batches", [p for pairs in batches for p in pairs], metrics)
    incorrect = sum(not p["correct"] for pairs in batches for p in pairs)
    if incorrect:
        print(f"{incorrect} pairs hold a run that reports \"correct\": false")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
