"""Distances between densities and mixing measures.

Grid densities are compared with Riemann-sum L^p norms, Kullback-Leibler
divergence (with an underflow floor), and the interpolation inequalities
relating them; discrete mixing measures are compared in Wasserstein
distance via the one-dimensional quantile coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteMixingMeasure
from .errors import SupportViolation
from .gridfn import GridFunction, lp_norm

KL_FLOOR = 1e-300


def wasserstein(f1: DiscreteMixingMeasure, f2: DiscreteMixingMeasure, p: float) -> float:
    """Order-p Wasserstein distance between discrete measures on the line."""
    return quantile_distance(f1.atoms, f1.weights, f2.atoms, f2.weights, p)


def quantile_distance(a1, w1, a2, w2, p: float) -> float:
    """Order-p Wasserstein distance between the discrete measures with
    ascending atoms ``a1``, ``a2`` and weights ``w1``, ``w2``.

    Computed from the quantile coupling: the p-th root of
    ``int_0^1 |Q1(u) - Q2(u)|^p du`` over the merged cdf breakpoints.
    The breakpoints are the distinct cumulative weights of both measures
    inside (0, 1), in ascending order, followed by exactly 1, so a cdf
    whose rounded sum ends a few ulps above or below 1 loses no segment.
    They are merged by one sort and a neighbour comparison rather than
    ``np.union1d``, whose ``unique`` imports ``numpy.ma`` (numpy 2.4).
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    cum1, cum2 = np.cumsum(w1), np.cumsum(w2)
    levels = np.sort(np.concatenate((cum1, cum2)))
    keep = (levels > 0.0) & (levels < 1.0)
    keep[1:] &= levels[1:] != levels[:-1]
    levels = np.append(levels[keep], 1.0)
    prev = np.concatenate([[0.0], levels[:-1]])
    mid = 0.5 * (levels + prev)  # strictly inside each cdf segment
    q1 = a1[np.minimum(np.searchsorted(cum1, mid), a1.size - 1)]
    q2 = a2[np.minimum(np.searchsorted(cum2, mid), a2.size - 1)]
    gaps = np.abs(q1 - q2)
    if p == math.inf:
        return float(gaps.max())
    return float(((levels - prev) * gaps ** p).sum()) ** (1.0 / p)


def _check_support(f0: GridFunction, f: GridFunction) -> np.ndarray:
    if not f0.same_grid(f):
        raise SupportViolation("densities live on different grids")
    mask = f0.values > KL_FLOOR
    # underflow-zeros in f are floored; it is a violation only when the
    # region where f is non-positive carries appreciable reference mass
    bad = mask & (f.values <= 0.0)
    if float(f0.values[bad].sum() * f0.dx) > 1e-6:
        raise SupportViolation("density vanishes where the reference has mass")
    return mask


def kl_divergence(f0: GridFunction, f: GridFunction) -> float:
    """KL(f0; f) by grid quadrature, flooring f at 1e-300."""
    mask = _check_support(f0, f)
    p = f0.values[mask]
    q = np.maximum(f.values[mask], KL_FLOOR)
    return float((p * np.log(p / q)).sum() * f0.dx)


def second_log_moment(f0: GridFunction, f: GridFunction) -> float:
    """E_{f0}[(log(f0/f))^2] by grid quadrature."""
    mask = _check_support(f0, f)
    p = f0.values[mask]
    q = np.maximum(f.values[mask], KL_FLOOR)
    return float((p * np.log(p / q) ** 2).sum() * f0.dx)


def floored_mass(f0: GridFunction, f: GridFunction) -> float:
    """Mass of f0 where f needed the underflow floor."""
    mask = f0.values > KL_FLOOR
    return float(f0.values[mask & (f.values < KL_FLOOR)].sum() * f0.dx)


@dataclass(frozen=True)
class InterpolationReport:
    """Margins (bound minus value, >= 0 when the inequality holds) of the
    three norm-interpolation inequalities."""

    moment_margin: float
    l1_sup_margin: float
    p_max_margin: float

    def all_hold(self, tol: float = 1e-9) -> bool:
        return (
            self.moment_margin >= -tol
            and self.l1_sup_margin >= -tol
            and self.p_max_margin >= -tol
        )


def _abs_moment(f: GridFunction, u: float) -> float:
    x = f.grid()
    return float((np.abs(x) ** u * np.abs(f.values)).sum() * f.dx)


def interpolation_checks(
    f: GridFunction,
    g: GridFunction,
    upsilon: float = 0.5,
    u: float = 0.5,
    p: float = 1.5,
    t: float = 2.0,
) -> InterpolationReport:
    """Evaluate the three interpolation inequalities on a density pair.

    1. ||f-g||_p^p <= min_R [(2R)^{1/s} ||f-g||_{pt}^p
       + R^{-u} ||f-g||_inf^{p-1} (E_f|X|^u + E_g|X|^u)], s = (1-1/t)^{-1}
       (the Hoelder split over {|x| <= R} and its complement);
    2. ||f-g||_1 <= 2 ||f-g||_inf^{1-upsilon} int f^upsilon;
    3. ||f-g||_p <= max(||f-g||_1, ||f-g||_2) for p in (1, 2).
    """
    if not (1 <= p < 2 and p * t > 1 and t > 1):
        raise ValueError("need p in [1,2) and t > 1 with p*t > 1")
    if not 0 < upsilon <= 1:
        raise ValueError("upsilon must lie in (0, 1]")
    diff = f - g
    sup = lp_norm(diff, math.inf)
    l1 = lp_norm(diff, 1)
    l2 = lp_norm(diff, 2)
    lp = lp_norm(diff, p)
    lpt = lp_norm(diff, p * t)
    s_inv = 1.0 - 1.0 / t
    mom = _abs_moment(f, u) + _abs_moment(g, u)
    if sup == 0.0:
        return InterpolationReport(0.0, 0.0, 0.0)
    # closed-form minimizer of A x^{1/s} + B x^{-u}
    a_coef = 2.0 ** s_inv * lpt ** p
    b_coef = sup ** (p - 1.0) * mom
    r_star = (u * b_coef / (s_inv * a_coef)) ** (1.0 / (s_inv + u))
    bound1 = a_coef * r_star ** s_inv + b_coef * r_star ** (-u)
    moment_margin = bound1 - lp ** p

    int_f_ups = float((f.values.clip(0) ** upsilon).sum() * f.dx)
    bound2 = 2.0 * sup ** (1.0 - upsilon) * int_f_ups
    l1_sup_margin = bound2 - l1

    p_max_margin = max(l1, l2) - lp
    return InterpolationReport(
        moment_margin=float(moment_margin),
        l1_sup_margin=float(l1_sup_margin),
        p_max_margin=float(p_max_margin),
    )
