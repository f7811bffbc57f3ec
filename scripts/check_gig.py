#!/usr/bin/env python3
"""Kolmogorov-Smirnov check of ``supermix.priors.gig_sample`` on a dense
(p, omega) grid.

Every cell draws GIG(p, a, b) variates, with density proportional to
y^(p-1) exp(-(a y + b / y) / 2), in the form the N-IG Gibbs sweep uses:
a = 1 + 2u with u = 1000 and b = omega^2 / a, so omega = sqrt(ab).  The
draws are compared with a reference cdf:

* |p| = 1/2: the closed-form inverse-Gaussian cdf (``scipy.stats.invgauss``);
  ``geninvgauss.cdf`` is not used, its quadrature is wrong at small omega;
* |p| >= 1: the trapezoid rule on the density of log y over a 200,001-point
  grid that spans the density down to e^-60 of its peak.

Prints one KS p-value per cell and exits 1 if any falls below the
Bonferroni threshold 0.001 / cells.  The tier-1 suite runs a small grid
through :func:`ks_pvalue`; this script is the long variant.

    python3 scripts/check_gig.py [--draws 100000] [--seed 0]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
from scipy.stats import invgauss, kstest

from supermix.priors import gig_sample

#: the Gibbs sweep's a = 1 + 2u; u ranged over 800-2000 in an N-IG fit
#: at n = 1000
GIBBS_A = 1.0 + 2.0 * 1000.0

P_GRID = (-10.5, -1.5, -0.5, 0.5, 1.0, 1.5, 2.5, 4.5, 10.5, 30.5, 100.5, 309.5, 492.5)
OMEGA_GRID = (1e-4, 8e-4, 4e-3, 0.03, 0.37, 1.0, 2.4, 4.0, 10.0)


def _log_quadrature_cdf(p: float, w: float, n_points: int = 200_001):
    """cdf of x ~ GIG(p, w, w) as a function of t = log x.

    The density of t is proportional to exp(p t - w cosh t), which peaks
    at t* = asinh(p / w); the grid grows on each side until the log
    density has dropped by 60.
    """
    t_star = math.asinh(p / w)
    peak = p * t_star - w * math.cosh(t_star)

    def drop(t):
        return peak - (p * t - w * math.cosh(t))

    lo, hi = t_star - 1.0, t_star + 1.0
    while drop(lo) < 60.0:
        lo = t_star - 2.0 * (t_star - lo)
    while drop(hi) < 60.0:
        hi = t_star + 2.0 * (hi - t_star)
    t = np.linspace(lo, hi, n_points)
    f = np.exp(p * t - w * np.cosh(t) - peak)
    cdf = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) / 2.0)])
    return t, cdf / cdf[-1]


def reference_cdf(p: float, a: float, b: float):
    """Reference cdf of GIG(p, a, b), as a function of y > 0."""
    if p == -0.5:  # IG(mean sqrt(b/a), shape b)
        mu, lam = math.sqrt(b / a), b
        return invgauss(mu / lam, scale=lam).cdf
    if p == 0.5:  # reciprocal of IG(mean sqrt(a/b), shape a)
        mu, lam = math.sqrt(a / b), a
        return lambda y: invgauss(mu / lam, scale=lam).sf(1.0 / y)
    t, cdf = _log_quadrature_cdf(p, math.sqrt(a * b))
    scale = math.sqrt(b / a)
    return lambda y: np.interp(np.log(y / scale), t, cdf)


def ks_pvalue(p: float, omega: float, n_draws: int, rng: np.random.Generator) -> float:
    """KS p-value of ``n_draws`` gig_sample draws against the reference."""
    b = omega ** 2 / GIBBS_A
    y = gig_sample(np.full(n_draws, p), GIBBS_A, b, rng)
    return float(kstest(y, reference_cdf(p, GIBBS_A, b)).pvalue)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    threshold = 1e-3 / (len(P_GRID) * len(OMEGA_GRID))
    print("p \\ omega " + "".join(f"{w:>9.0e}" for w in OMEGA_GRID))
    worst = 1.0
    for p in P_GRID:
        row = [ks_pvalue(p, w, args.draws, rng) for w in OMEGA_GRID]
        worst = min(worst, *row)
        print(f"{p:9.1f} " + "".join(f"{v:9.3f}" for v in row))
    verdict = "PASS" if worst >= threshold else "FAIL"
    print(f"{args.draws} draws per cell; smallest KS p-value {worst:.3g}; "
          f"threshold {threshold:.2g}: {verdict}")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
