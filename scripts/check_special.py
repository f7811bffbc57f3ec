#!/usr/bin/env python3
"""Accuracy check of the special functions in ``supermix.variates``
(``ndtr``, ``ndtri``) and ``supermix.priors`` (``log_bessel_k_scaled``)
against mpmath at 50 significant digits.

* ``ndtr``, the standard normal cdf, on x in [-8, 8]: relative error;
* ``ndtri``, its inverse, on q in [1e-15, 1 - 1e-15]: relative error;
* ``log_bessel_k_scaled``, log(K_nu(x) e^x), for integer nu = 1-32 on x in
  [1e-3, 1e3]: absolute error of the log, which is the relative error of
  K_nu itself.

Prints the largest error of each and exits 1 if any exceeds its pinned
tolerance.  The tier-1 suite runs :func:`largest_errors` on a small grid;
this script is the long variant.

    python3 scripts/check_special.py [--points 41] [--orders 1-32]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath as mp
import numpy as np

from supermix.priors import log_bessel_k_scaled
from supermix.variates import ndtr, ndtri

TOLERANCES = {"ndtr": 5e-14, "ndtri": 4e-15, "log_bessel_k": 1e-13}


def _relative(ours: float, exact) -> float:
    return float(abs((mp.mpf(ours) - exact) / exact))


def largest_errors(points: int, orders) -> dict:
    """Largest error of each function against mpmath, on ``points`` values
    of each argument range and the given Bessel orders."""
    with mp.workdps(50):
        xs = np.linspace(-8.0, 8.0, points)
        tails = np.geomspace(1e-15, 0.5, points)
        qs = np.unique(np.concatenate([tails, 1.0 - tails, np.linspace(1e-15, 1 - 1e-15, points)]))
        bessel_xs = np.geomspace(1e-3, 1e3, points)
        out = {
            "ndtr": max(_relative(ndtr(x), mp.ncdf(x)) for x in xs.tolist()),
            "ndtri": max(
                _relative(ndtri(q), mp.sqrt(2) * mp.erfinv(2 * mp.mpf(q) - 1))
                for q in qs.tolist()
                if q != 0.5
            ),
            "log_bessel_k": 0.0,
        }
        for nu in orders:
            ours = log_bessel_k_scaled(nu, bessel_xs)
            for x, value in zip(bessel_xs.tolist(), ours.tolist()):
                exact = mp.log(mp.besselk(nu, x)) + x
                err = float(abs(mp.mpf(value) - exact))
                out["log_bessel_k"] = max(out["log_bessel_k"], err)
    return out


def _orders(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=41)
    parser.add_argument("--orders", type=_orders, default=range(1, 33))
    args = parser.parse_args(argv)
    errors = largest_errors(args.points, args.orders)
    failed = False
    for name, err in errors.items():
        ok = err <= TOLERANCES[name]
        failed |= not ok
        print(f"{name:13s} largest error {err:.3g}  tolerance {TOLERANCES[name]:.0e}  "
              f"{'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
