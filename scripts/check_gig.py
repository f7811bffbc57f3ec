#!/usr/bin/env python3
"""Kolmogorov-Smirnov check of the two exact posterior draws:
``supermix.variates.gig_sample`` (the closed-form half-integer draw, an
inverse Gaussian plus a gamma mixture) on a dense (p, omega) grid and
``supermix.priors.ScalePriorA0.posterior_sample`` (a ratio-of-uniforms
float loop) on a dense (k, s) grid.

Every GIG cell draws GIG(p, a, b) variates, with density proportional to
y^(p-1) exp(-(a y + b / y) / 2), in the form the N-IG Gibbs sweep uses:
a = 1 + 2u with u = 1000 and b = omega^2 / a, so omega = sqrt(ab).  The
draws are compared with a reference cdf:

* p = -1/2: the closed-form inverse-Gaussian cdf (``scipy.stats.invgauss``),
  and p = 1/2: that of the reciprocal of an inverse Gaussian;
  ``geninvgauss.cdf`` is not used, its quadrature is wrong at small omega;
* p >= 3/2: the trapezoid rule on the density of log y over a
  200,001-point grid that spans the density down to e^-60 of its peak,
  which shares nothing with the closed form.

Every bandwidth cell draws sigma given n = k - nu residuals with sum of
squares s under the default prior ``ScalePriorA0()`` (nu = 2, lam = 1/2),
one ``posterior_sample`` call per draw.  The reference is the same
trapezoid rule on the density of log sigma, built from
``ScalePriorA0.logpdf(sigma) - n log sigma - s / (2 sigma^2)`` and so
independent of the sampler's algebra.

Prints one KS p-value per cell and exits 1 if any falls below its grid's
Bonferroni threshold 0.001 / cells.  The tier-1 suite runs small grids
through :func:`ks_pvalue` and :func:`sigma_ks_pvalue`; this script is the
long variant (about 50 s at the default draws on a 2-CPU x86 host).

    python3 scripts/check_gig.py [--draws 100000] [--seed 0]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
from scipy.stats import invgauss, kstest

from supermix.priors import ScalePriorA0
from supermix.variates import gig_sample

#: the Gibbs sweep's a = 1 + 2u; u ranged over 800-2000 in an N-IG fit
#: at n = 1000
GIBBS_A = 1.0 + 2.0 * 1000.0

#: the domain of ``gig_sample`` is the half-integers from -1/2; 999.5 is
#: a cell holding every observation of an n = 1000 fit
P_GRID = (-0.5, 0.5, 1.5, 2.5, 3.5, 4.5, 10.5, 30.5, 100.5, 309.5, 492.5, 999.5)
#: from one end of ``variates.GIG_AB`` to the other
OMEGA_GRID = (1e-12, 1e-8, 1e-4, 8e-4, 4e-3, 0.03, 0.37, 1.0, 2.4, 4.0, 10.0, 1e4)

#: k = nu + n, the shape of the bandwidth's full conditional, and the
#: residual sum of squares s
K_GRID = (12, 52, 252, 1002, 4002)
SS_GRID = (1e-3, 1e-1, 10.0, 1e3, 1e5)


def _log_quadrature_cdf(log_density, t_star: float, n_points: int = 200_001):
    """cdf of t with log density ``log_density(t)`` up to a constant, on a
    grid around its peak ``t_star`` that grows on each side until the log
    density has dropped by 60."""
    peak = log_density(t_star)

    def drop(t):
        return peak - log_density(t)

    lo, hi = t_star - 1.0, t_star + 1.0
    while drop(lo) < 60.0:
        lo = t_star - 2.0 * (t_star - lo)
    while drop(hi) < 60.0:
        hi = t_star + 2.0 * (hi - t_star)
    t = np.linspace(lo, hi, n_points)
    f = np.exp(log_density(t) - peak)
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
    # x = y / scale ~ GIG(p, w, w): t = log x has log density p t - w cosh t
    w, scale = math.sqrt(a * b), math.sqrt(b / a)
    t, cdf = _log_quadrature_cdf(lambda t: p * t - w * np.cosh(t), math.asinh(p / w))
    return lambda y: np.interp(np.log(y / scale), t, cdf)


def ks_pvalue(p: float, omega: float, n_draws: int, rng: np.random.Generator) -> float:
    """KS p-value of ``n_draws`` gig_sample draws against the reference."""
    b = omega ** 2 / GIBBS_A
    y = gig_sample(np.full(n_draws, p), GIBBS_A, b, rng)
    return float(kstest(y, reference_cdf(p, GIBBS_A, b)).pvalue)


def sigma_reference_cdf(prior: ScalePriorA0, n: int, ss: float):
    """Reference cdf of sigma given n residuals with sum of squares ``ss``:
    the density of t = log sigma is the prior's times sigma^-n
    exp(-ss / (2 sigma^2)) times the Jacobian sigma."""
    k = prior.nu + n
    peak = (prior.lam + math.sqrt(prior.lam ** 2 + 4.0 * k * ss)) / (2.0 * k)
    t, cdf = _log_quadrature_cdf(
        lambda t: prior.logpdf(np.exp(t)) - (n - 1) * t - 0.5 * ss * np.exp(-2.0 * t),
        math.log(peak),
    )
    return lambda y: np.interp(np.log(y), t, cdf)


def sigma_ks_pvalue(n: int, ss: float, n_draws: int, rng: np.random.Generator,
                    prior: ScalePriorA0 = ScalePriorA0()) -> float:
    """KS p-value of ``n_draws`` posterior_sample draws against the reference."""
    y = [prior.posterior_sample(n, ss, rng) for _ in range(n_draws)]
    return float(kstest(y, sigma_reference_cdf(prior, n, ss)).pvalue)


def _grid(title, rows, cols, pvalue) -> float:
    """Print one row of p-values per row value; return the smallest."""
    print(f"{title} " + "".join(f"{c:>9.0e}" for c in cols))
    worst = 1.0
    for r in rows:
        row = [pvalue(r, c) for c in cols]
        worst = min(worst, *row)
        print(f"{r:9.1f} " + "".join(f"{v:9.3f}" for v in row))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    prior = ScalePriorA0()
    checks = [
        ("p \\ omega", P_GRID, OMEGA_GRID,
         lambda p, w: ks_pvalue(p, w, args.draws, rng)),
        ("k \\ s    ", K_GRID, SS_GRID,
         lambda k, ss: sigma_ks_pvalue(int(k - prior.nu), ss, args.draws, rng, prior)),
    ]
    failed = False
    for title, rows, cols, pvalue in checks:
        threshold = 1e-3 / (len(rows) * len(cols))
        worst = _grid(title, rows, cols, pvalue)
        failed |= worst < threshold
        print(f"{args.draws} draws per cell; smallest KS p-value {worst:.3g}; "
              f"threshold {threshold:.2g}: {'FAIL' if worst < threshold else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
