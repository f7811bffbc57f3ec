#!/usr/bin/env python3
"""Benchmark of the supermix blocked Gibbs fits and constructions.

Run from the repository root:

    python3 perfbench/run.py --workload dp_contract --seed 1 --seconds 30 --trace 0

Each workload is a closed loop of tasks, one after another in this single
process, with every BLAS pool pinned to one thread.  Task ``i`` uses a
seed derived from ``--seed`` and ``i``.  With ``--trace 0`` the last line
of standard output is the end-to-end result; with ``--trace 1`` the run
spends half its time untraced and then repeats the same tasks with spans
on, and reports the per-layer metrics.  The line before the last is the
run record: machine, versions, seed, task count, failures and the
metrics that have no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        p.error("--workload is required")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def timed_setup(scratch: Path) -> float:
    """Import supermix and make each entry point's first call, timed."""
    start = time.perf_counter()
    import supermix  # noqa: F401
    from workloads import first_calls

    first_calls(scratch)
    return time.perf_counter() - start


def child_setup(scratch: Path) -> float:
    """``timed_setup`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--scratch", str(scratch)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def machine_record(args) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "library_threads": 1,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None, registry=None, setup_repeats=SETUP_REPEATS) -> int:
    if not (SRC / "supermix" / "__init__.py").is_file():
        print(f"error: no supermix sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # spelled out: importing workloads here would import numpy before the timed set-up
    names = sorted(registry) if registry else ["constructions", "dp_contract", "nig_contract"]
    args = parse_args(argv, names)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.scratch)}))
        return 0

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        # the in-process set-up imports the library for the workload; only
        # fresh interpreters give setup_s, and the traced run does not report it
        in_process_setup = timed_setup(scratch)
        setups = [] if args.trace else [child_setup(scratch) for _ in range(setup_repeats)]
        import harness
        from workloads import WORKLOADS

        workload = (registry or WORKLOADS)[args.workload]
        measure = harness.per_layer if args.trace else harness.end_to_end
        m = measure(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass

    if not args.trace:
        m.metrics["setup_s"] = statistics.median(setups)
        m.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    failed = min(len(m.failures), m.attempted)
    record = {**machine_record(args), **m.record}
    record.update({
        "setup_in_process_s": in_process_setup,
        "setup_runs_s": setups,
        "attempted": m.attempted,
        "failed": failed,
        "failed_frac": failed / m.attempted,
        "failures": m.failures[:20],
    })
    print(json.dumps({"run_record": record}))
    result = {
        "correct": failed == 0,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(m.metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
