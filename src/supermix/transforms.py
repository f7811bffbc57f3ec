"""Correction operators that push Gaussian smoothing error below any
polynomial order.

The analytic-path operator subtracts a series of band-limited derivative
terms from a density f0 so that re-smoothing with a Gaussian of the same
bandwidth reproduces f0 at super-polynomial accuracy:

    T(f0) = f0 - sum_j d_j sigma^j (f0^{(j)} * sinc_sigma).

Everything is computed spectrally: convolution with ``sinc_sigma`` is the
band indicator at ``1/sigma`` and each derivative is a ``(-it)^j``
multiplier, so inside the band the whole series collapses to the scalar
symbol ``1 - sum_j d_j (-i t sigma)^j``, a convergent power series in
``u = sigma^2 t^2 / 2`` equal to ``3 - 3 e^{-u} + e^{-2u}``.

A Sobolev-order variant truncates the series at ``k0 - 1`` terms, and a
non-negativization step turns the (possibly signed) output into a proper
density with the same approximation quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import SeriesNotConverged
from .gridfn import GridFunction, apply_multiplier, lp_norm
from .kernels import SINC_KERNEL, KernelSpec, smoothing_multiplier

#: floor constant delta = 1 - sqrt(e)/2 used by the non-negativization
DELTA_DEFAULT = 1.0 - math.sqrt(math.e) / 2.0

#: series-tail threshold used by the automatic truncation-order choice
SERIES_TOL = 1e-14

MAX_ORDER = 120


@dataclass(frozen=True)
class TransformCoefficients:
    """Gaussian-moment coefficient sequences m_j, c_j, d_j.

    Computed in exact rational arithmetic and rounded once to binary64:
    m_j are the standard normal moments (odd ones vanish,
    m_{2k} = (2k-1)!!), c_j the negative Cauchy-product corrections, and
    d_j = (-1)^j m_j / j! + c_j.  Only even-index d's are non-zero and
    their absolute sum stays below (sqrt(e)-1) sqrt(e).
    """

    max_order: int
    m: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def correction(self, u, order: int) -> np.ndarray:
        """Correction series ``sum_{j <= order} d_j s_j(u)`` at u = (t sigma)^2/2.

        Uses s_{2k}(u) = (-2u)^k; odd terms vanish with the odd d's.
        """
        u = np.asarray(u, dtype=float)
        v = -2.0 * u
        # Horner over powers of v; odd orders contribute nothing
        acc = np.zeros_like(u)
        for k in range(order // 2, 0, -1):
            acc = acc * v + self.d[2 * k]
        return acc * v

    def symbol(self, u) -> np.ndarray:
        """In-band spectral symbol ``1 - sum_j d_j s_j(u)`` up to ``max_order``."""
        return 1.0 - self.correction(u, self.max_order)


@lru_cache(maxsize=8)
def coefficients(max_order: int) -> TransformCoefficients:
    """Exact coefficient sequences up to ``max_order`` (inclusive)."""
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    m = [Fraction(0)] * (max_order + 1)
    m[0] = Fraction(1)
    for j in range(2, max_order + 1, 2):
        m[j] = m[j - 2] * (j - 1)  # double factorial recursion
    fact = [Fraction(math.factorial(j)) for j in range(max_order + 1)]
    c = [Fraction(0)] * (max_order + 1)
    d = [Fraction(0)] * (max_order + 1)
    d[2] = m[2] / fact[2]
    for j in range(3, max_order + 1):
        cj = Fraction(0)
        for k in range(1, j):
            cj -= m[k] * m[j - k] / (fact[k] * fact[j - k])
        c[j] = cj
        d[j] = Fraction((-1) ** j) * m[j] / fact[j] + cj
    return TransformCoefficients(
        max_order=max_order,
        m=np.array([float(v) for v in m]),
        c=np.array([float(v) for v in c]),
        d=np.array([float(v) for v in d]),
    )


def closed_form_symbol(u) -> np.ndarray:
    """The exact in-band symbol ``3 - 3 e^{-u} + e^{-2u}``."""
    u = np.asarray(u, dtype=float)
    return 3.0 - 3.0 * np.exp(-u) + np.exp(-2.0 * u)


def spectral_symbol_check(max_order: int, u_max: float) -> float:
    """Max deviation of the truncated symbol from its closed form at 401
    evenly spaced points of [0, u_max]."""
    coef = coefficients(max_order)
    u = np.linspace(0.0, u_max, 401)
    return float(np.abs(coef.symbol(u) - closed_form_symbol(u)).max())


@dataclass(frozen=True)
class TransformResult:
    """Signed corrected function plus bookkeeping.

    ``mass_defect`` is |integral - 1| of the corrected function on the
    grid (the spectral construction keeps it at rounding level for unit-
    mass inputs).
    """

    t_sigma: GridFunction
    sigma: float
    truncation_order: int
    mass_defect: float


def _auto_order() -> int:
    coef = coefficients(MAX_ORDER)
    # in-band term bound |d_J| (sigma * t)^J <= |d_J| at t = 1/sigma
    for j in range(10, MAX_ORDER + 1, 2):
        if abs(coef.d[j]) <= SERIES_TOL:
            return j
    return MAX_ORDER


def _corrected(
    f0: GridFunction, sigma: float, order: int, kernel: KernelSpec = SINC_KERNEL
) -> TransformResult:
    """Corrected function with the series truncated at ``order``.

    The spectral multiplier is ``1 - correction(u) * smooth`` where the
    smoothing multiplier of ``kernel_sigma`` (sinc by default) is nonzero,
    and exactly 1 elsewhere, where the smoothing kills every term.
    """
    smooth = smoothing_multiplier(kernel, sigma, f0)
    u = (sigma * f0.freqs()) ** 2 / 2.0
    correction = coefficients(max(order, 2)).correction(u, order)
    t_sigma = apply_multiplier(f0, np.where(smooth != 0.0, 1.0 - correction * smooth, 1.0))
    return TransformResult(
        t_sigma=t_sigma,
        sigma=sigma,
        truncation_order=order,
        mass_defect=abs(t_sigma.integral() - 1.0),
    )


def transform_analytic(
    f0: GridFunction, sigma: float, order: Optional[int] = None
) -> TransformResult:
    """Full corrected function for analytic-class inputs.

    ``order`` defaults to the smallest even J with |d_J| below the series
    tolerance (the in-band term bound at the band edge), capped at 120.
    An explicit order is checked on the last even term the series uses
    (odd d's vanish); orders below 2 keep no correction term and fail.
    """
    if order is None:
        order = _auto_order()
    elif order < 2 or abs(coefficients(order).d[order - order % 2]) > SERIES_TOL:
        raise SeriesNotConverged(
            f"order {order} leaves its last in-band term above {SERIES_TOL:g}; "
            "increase the truncation order"
        )
    return _corrected(f0, sigma, order)


def transform_sobolev(
    f0: GridFunction,
    sigma: float,
    k0: int,
    superkernel: KernelSpec = SINC_KERNEL,
) -> TransformResult:
    """Sobolev-order corrected function: series truncated at k0 - 1 terms.

    By default the sinc kernel is used; passing a superkernel spec
    replaces the band indicator by its trapezoidal transform, which keeps
    the integral exactly 1.
    """
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    return _corrected(f0, sigma, k0 - 1, superkernel)


@dataclass(frozen=True)
class NonnegativeDensity:
    """Floor-corrected density pair (g, h) from a signed transform.

    g equals the transform where it clears ``DELTA_DEFAULT * f0`` and the
    floor ``DELTA_DEFAULT * f0`` elsewhere, so ``g >= DELTA_DEFAULT * f0``
    holds pointwise by construction; h = g / integral(g) is a proper density.
    """

    g: GridFunction
    h: GridFunction
    mass: float


def make_nonnegative(result: TransformResult, f0: GridFunction) -> NonnegativeDensity:
    """Replace the transform below ``DELTA_DEFAULT * f0`` by that floor, then normalize."""
    floor = DELTA_DEFAULT * f0.values
    g_vals = np.maximum(result.t_sigma.values, floor)
    g = GridFunction(f0.half_width, g_vals)
    mass = g.integral()
    h = GridFunction(f0.half_width, g_vals / mass)
    return NonnegativeDensity(g=g, h=h, mass=mass)


def gaussian_smoothing_error(result: TransformResult, f0: GridFunction) -> float:
    """||T(f0) * phi_sigma - f0||_inf computed spectrally."""
    gauss = KernelSpec("gaussian", result.sigma).char_fn()(f0.freqs())
    return lp_norm(apply_multiplier(result.t_sigma, gauss) - f0, math.inf)
