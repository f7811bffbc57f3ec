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
from typing import Optional

import numpy as np

from .errors import SeriesNotConverged
from .gridfn import GridFunction, apply_multiplier, lp_norm
from .kernels import SINC_KERNEL, KernelSpec, smoothing_multiplier

#: floor constant delta = 1 - sqrt(e)/2 used by the non-negativization
DELTA_DEFAULT = 1.0 - math.sqrt(math.e) / 2.0

#: series-tail threshold used by the automatic truncation-order choice
SERIES_TOL = 1e-14

#: highest series order of the coefficient table
MAX_ORDER = 120


@dataclass(frozen=True)
class TransformCoefficients:
    """Gaussian-moment coefficient sequences m_j, c_j, d_j from j = 0 on.

    m_j are the standard normal moments, c_j = -sum_{0<k<j} m_k m_{j-k} /
    (k! (j-k)!) from j = 3 on, and d_j = (-1)^j m_j / j! + c_j from j = 2
    on.  Odd entries vanish; with n_k = 2^k k!, m_{2k} = (2k-1)!!,
    c_{2k} = (2 - 2^k) / n_k and d_{2k} = (3 - 2^k) / n_k for k >= 1.  The
    absolute sum of the d's stays below (sqrt(e)-1) sqrt(e).
    """

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


def _closed_form_table() -> TransformCoefficients:
    """The read-only table up to ``MAX_ORDER``: each entry is one ratio of
    integers, which int division rounds once, as it would the exact rational."""
    m, c, d = (np.zeros(MAX_ORDER + 1) for _ in range(3))
    for k in range(MAX_ORDER // 2 + 1):
        m[2 * k] = math.prod(range(1, 2 * k, 2))
        if k:
            n_k = 2 ** k * math.factorial(k)
            c[2 * k] = (2 - 2 ** k) / n_k
            d[2 * k] = (3 - 2 ** k) / n_k
    for a in (m, c, d):
        a.flags.writeable = False
    return TransformCoefficients(m, c, d)


_TABLE = _closed_form_table()

#: the smallest even order J >= 10 whose in-band term bound at the band
#: edge, |d_J| (sigma t)^J <= |d_J| at t = 1/sigma, is below SERIES_TOL
AUTO_ORDER = next(j for j in range(10, MAX_ORDER + 1, 2) if abs(_TABLE.d[j]) <= SERIES_TOL)


def coefficients(max_order: int) -> TransformCoefficients:
    """The table's entries 0..``max_order``, for 2 <= max_order <= MAX_ORDER."""
    if not 2 <= max_order <= MAX_ORDER:
        raise ValueError(f"series order must be in 2..{MAX_ORDER}, got {max_order}")
    n = max_order + 1
    return TransformCoefficients(_TABLE.m[:n], _TABLE.c[:n], _TABLE.d[:n])


def spectral_symbol_check(max_order: int, u_max: float) -> float:
    """Max deviation of the in-band symbol ``1 - sum_{j <= max_order} d_j
    s_j(u)`` from its closed form ``3 - 3 e^{-u} + e^{-2u}`` at 401 evenly
    spaced points of [0, u_max]."""
    u = np.linspace(0.0, u_max, 401)
    symbol = 1.0 - coefficients(max_order).correction(u, max_order)
    return float(np.abs(symbol - (3.0 - 3.0 * np.exp(-u) + np.exp(-2.0 * u))).max())


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


def _corrected(
    f0: GridFunction, sigma: float, order: int, kernel: KernelSpec = SINC_KERNEL
) -> TransformResult:
    """Corrected function with the series truncated at ``order``.

    The spectral multiplier is ``1 - correction(u) * smooth`` where the
    smoothing multiplier of ``kernel_sigma`` (sinc by default) is nonzero,
    and exactly 1 elsewhere, where the smoothing kills every term.
    """
    smooth = smoothing_multiplier(kernel, sigma, f0)
    band = smooth != 0.0  # outside it the series overflows at large sigma
    u = (sigma * f0.freqs()[band]) ** 2 / 2.0
    multiplier = np.ones_like(smooth)
    multiplier[band] = 1.0 - coefficients(max(order, 2)).correction(u, order) * smooth[band]
    t_sigma = apply_multiplier(f0, multiplier)
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

    ``order`` defaults to ``AUTO_ORDER``.  An explicit order is checked on
    the last even term the series uses (odd d's vanish); orders below 2
    keep no correction term and fail, and orders above ``MAX_ORDER`` raise
    ``ValueError``.
    """
    if order is None:
        order = AUTO_ORDER
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
    the integral exactly 1.  ``k0 - 1`` above ``MAX_ORDER`` raises
    ``ValueError``.
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
