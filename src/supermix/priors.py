"""Stick-breaking and normalized inverse-Gaussian priors, base measures
and the bandwidth prior.

All samplers take an explicit ``numpy.random.Generator``; there is no
global mutable state.  The prior-mass lower bounds these priors induce,
and their Monte-Carlo check, live in :mod:`supermix.prior_mass`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryPoint,
    InvalidDiscount,
    NonPositiveSigma,
    TruncationOverflow,
)
from .variates import GIG_MAX_ROUNDS, _ig_transform, _rou_roots, ndtr

TRUNCATION_CAP = 10 ** 6


# ---------------------------------------------------------------------
# special functions

def log_bessel_k_scaled(nu: float, x) -> np.ndarray:
    """log(K_nu(x) e^x) for real nu >= 1/2 and finite x > 0, elementwise.

    The trapezoid rule on K_nu(x) = 1/2 int exp(nu t - x cosh t) dt, on a
    grid through the integrand's peak t* = asinh(nu / x).  With
    kappa = sqrt(x^2 + nu^2) and t = t* + u, the exponent lies below its
    peak by (kappa - nu)(cosh u - 1) + nu (e^u - 1 - u) to the right and
    by the same with -u to the left: sums of non-negative terms, so no
    cancellation at large |u|; cosh u - 1 is taken as 2 sinh^2(u/2), so
    no cancellation at the small u of large x either.  The integrand is
    analytic in the strip |Im u| < pi/2 and is a Gaussian of curvature
    kappa at the peak; the step 1 / sqrt(24 + 2 kappa) keeps the
    discretization error of both regimes below e^-38 relative, and the sum
    stops once every new term is below e^-40 of the peak.  Both drops grow
    at least like kappa u^2 / 2, and the left one at least like nu (u - 1):
    the sum ends after about 13 steps at large x, and by u = 1 + 40 / nu
    at any x.  ``scripts/check_special.py`` checks the result against mpmath.
    """
    x = np.asarray(x, dtype=float)
    if not (nu >= 0.5 and np.all((x > 0) & (x < np.inf))):
        raise ValueError("log_bessel_k_scaled needs nu >= 1/2 and finite x > 0")
    kappa = np.hypot(x, nu)
    half_excess = 0.5 * x / (kappa + nu) * x  # (kappa - nu) / 2
    h = math.sqrt(0.5) / np.sqrt(12.0 + kappa)  # 2 kappa would overflow near the largest x
    total = np.ones(x.shape)  # the peak term
    for k in itertools.count(1):
        u = k * h
        up = np.expm1(u)
        down = -up / (up + 1.0)  # expm1(-u)
        s = np.sinh(0.5 * u)
        common = (half_excess * s) * (4.0 * s)
        right = common + nu * (up - u)
        left = common + nu * (down + u)
        total += np.exp(-right)
        total += np.exp(-left)
        if min(right.min(initial=np.inf), left.min(initial=np.inf)) > 40.0:
            break
    with np.errstate(over="ignore"):
        ratio = nu / x
    # nu / x overflows only for x below ~1e-308 nu, where asinh(nu / x) is
    # log(2 nu / x) to rounding
    peak = np.where(np.isinf(ratio), math.log(2.0 * nu) - np.log(x), np.arcsinh(ratio))
    return nu * (peak - nu / (x + kappa)) + np.log(0.5 * h * total)


# ---------------------------------------------------------------------
# base measures


@dataclass(frozen=True)
class BaseMeasure:
    """Base measure alpha = total_mass * normalized density.

    Cataloged families: gaussian (tail exponent 2), and uniform on
    [-scale, scale] for compact-support experiments.
    """

    family: str = "gaussian"
    scale: float = 1.0
    total_mass: float = 1.0

    def __post_init__(self):
        if self.family not in ("gaussian", "uniform"):
            raise ValueError(f"unknown base family {self.family!r}")
        if not (0.0 < self.scale < math.inf and 0.0 < self.total_mass < math.inf):
            raise ValueError("scale and total_mass must be finite and positive")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        s = self.scale
        if self.family == "gaussian":
            return s * rng.standard_normal(size)
        return s * (2.0 * rng.random(size) - 1.0)

    def ball_mass(self, center: float, radius: float) -> float:
        """Normalized mass of [center - radius, center + radius]."""
        s = self.scale
        lo, hi = center - radius, center + radius
        if self.family == "gaussian":
            return ndtr(hi / s) - ndtr(lo / s)
        lo, hi = max(lo, -s), min(hi, s)
        return max(hi - lo, 0.0) / (2.0 * s)


# ---------------------------------------------------------------------
# Pitman-Yor stick breaking


@dataclass(frozen=True)
class PYParams:
    """Pitman-Yor parameters: concentration c, discount d, base measure."""

    c: float = 1.0
    d: float = 0.0
    base: BaseMeasure = field(default_factory=BaseMeasure)

    def __post_init__(self):
        if not 0.0 <= self.d < 1.0:
            raise InvalidDiscount(f"discount must lie in [0, 1), got {self.d}")
        if not self.c > -self.d:
            raise InvalidDiscount(f"need c > -d, got c={self.c}, d={self.d}")


@dataclass(frozen=True)
class StickBreakingDraw:
    """One truncated stick-breaking realization."""

    sticks: np.ndarray
    weights: np.ndarray
    atoms: np.ndarray
    remainder: float


def py_sticks(params: PYParams, js: np.ndarray, rng: np.random.Generator,
              counts=0, above=0) -> np.ndarray:
    """Unclipped sticks V_j ~ Beta(1 - d + counts_j, c + d j + above_j) at levels
    ``js``: the prior law with no counts, and with counts m_j and above_j =
    sum_{k>j} m_k the conjugate update (Ishwaran & James, JASA 96, 2001)."""
    return rng.beta(1.0 - params.d + counts, params.c + params.d * js + above)


def stick_log_weights(sticks: np.ndarray) -> np.ndarray:
    """log W_j = log V_j + sum_{k<j} log(1 - V_k); only the last stick may be 1."""
    return np.log(sticks) + np.concatenate([[0.0], np.cumsum(np.log1p(-sticks[:-1]))])


def py_sample(
    params: PYParams,
    trunc_tol: float,
    rng: np.random.Generator,
) -> StickBreakingDraw:
    """Adaptive-truncation draw: stop once the remaining stick length
    drops below ``trunc_tol``; atoms are i.i.d. from the normalized base.
    Sticks are drawn in blocks of 64 levels, doubling up to 2^16."""
    if not 0.0 < trunc_tol <= 0.1:
        raise ValueError("trunc_tol must lie in (0, 0.1]")
    block = 64
    log_tol = math.log(trunc_tol)
    chunks = []
    log_remainder = 0.0
    level = 0
    stop = None
    while stop is None:
        v = py_sticks(params, np.arange(level + 1, level + block + 1), rng)
        log_left = log_remainder + np.cumsum(np.log1p(-v))
        hit = np.nonzero(log_left <= log_tol)[0]
        if hit.size:
            stop = int(hit[0]) + 1
            chunks.append(v[:stop])
        else:
            chunks.append(v)
            log_remainder = float(log_left[-1])
            level += block
            block = min(2 * block, 1 << 16)  # amortize slow-decay regimes
            if level > TRUNCATION_CAP:
                raise TruncationOverflow(
                    f"stick-breaking needed more than {TRUNCATION_CAP} levels"
                )
    sticks = np.concatenate(chunks)
    return StickBreakingDraw(
        sticks=sticks,
        weights=np.exp(stick_log_weights(sticks)),
        atoms=params.base.sample(rng, sticks.size),
        remainder=math.exp(log_left[stop - 1]),
    )


# ---------------------------------------------------------------------
# normalized inverse-Gaussian finite-dimensional law


#: positive cell masses of :class:`NIGParams`: an IG increment needs alpha^3
#: below the largest float; nig_sample's draws were positive throughout
NIG_ALPHA_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class NIGParams:
    """Cell masses of the normalized inverse-Gaussian law (N >= 2): finite,
    >= 0, at least one positive and each positive one in ``NIG_ALPHA_RANGE``."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        if alphas.ndim != 1 or alphas.size < 2:
            raise ValueError("need at least two cells")
        if not np.all(np.isfinite(alphas)):
            raise ValueError(f"alphas must be finite, got {alphas.tolist()}")
        if np.any(alphas < 0) or not np.any(alphas > 0):
            raise ValueError("alphas must be >= 0 with at least one > 0")
        odd = (alphas > 0) & ~((alphas >= NIG_ALPHA_RANGE[0]) & (alphas <= NIG_ALPHA_RANGE[1]))
        if odd.any():
            raise ValueError(f"a positive alpha must lie in {NIG_ALPHA_RANGE}, got {alphas[odd][0]:g}")
        alphas = alphas.copy()
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)

    @property
    def total(self) -> float:
        return float(self.alphas.sum())

    @property
    def n_cells(self) -> int:
        return self.alphas.size


def nig_log_density(z, params: NIGParams) -> np.ndarray:
    """Log density of the N-IG law at simplex points.

    ``z`` has shape (..., N) with positive coordinates summing to 1; the
    density lives on the first N-1 coordinates.  Computed in log space;
    uses K_{-N/2} = K_{N/2} from :func:`log_bessel_k_scaled` for every N.
    """
    z = np.asarray(z, dtype=float)
    a = params.alphas
    n = params.n_cells
    if z.shape[-1] != n:
        raise ValueError(f"z must have {n} coordinates")
    if np.any(a == 0.0):
        raise ValueError("a zero cell mass puts the law on a face of the simplex: no density")
    if np.any(z <= 0.0):
        raise BoundaryPoint("all simplex coordinates must be positive")
    if np.any(np.abs(z.sum(axis=-1) - 1.0) > 1e-9):
        raise BoundaryPoint("coordinates must sum to 1")
    total = a.sum()
    quad = (a ** 2 / z).sum(axis=-1)
    root = np.sqrt(quad)
    # total - root as a sum of non-negative terms: root^2 - total^2 equals
    # sum_j (a_j - total z_j)^2 / z_j where sum_j z_j = 1, so nothing cancels
    excess = -((a - total * z) ** 2 / z).sum(axis=-1) / (total + root)
    log_const = np.log(a).sum() - (n / 2.0 - 1.0) * math.log(2.0) - (n / 2.0) * math.log(math.pi)
    out = (log_const + excess + log_bessel_k_scaled(n / 2.0, root)
           - (n / 4.0) * np.log(quad) - 1.5 * np.log(z).sum(axis=-1))
    return out if out.shape else float(out)


def nig_density(z, params: NIGParams):
    return np.exp(nig_log_density(z, params))


def nig_sample(params: NIGParams, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """``size`` draws from the N-IG law, a C-contiguous array of shape
    (size, N): normalized independent IG increments.

    Cell j uses an inverse-Gaussian increment with mean alpha_j and shape
    alpha_j^2 (zero cells stay zero); the normalized vector has the
    density of :func:`nig_density`.  The draws are computed cell-major
    by :func:`_nig_cells` and transposed once.
    """
    return np.ascontiguousarray(_nig_cells(params, rng, size).T)


def _nig_cells(params: NIGParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`nig_sample`'s draws transposed: cell-major, shape (N, size).

    The normals and uniforms are drawn in (size, N) order, as row i of
    :func:`nig_sample` uses them.  The squared normals are transposed
    once into a contiguous (N, size) work array, the uniforms are read
    through a transposed view, and each per-cell parameter broadcasts as
    an (N, 1) column along the long axis."""
    a = params.alphas
    pos = a > 0
    mu = a[pos, None]
    shape = (size, mu.size)
    nu = np.square(rng.standard_normal(shape).T, order="C")
    increments = _ig_transform(mu, mu ** 2, nu, rng.random(shape).T)
    if pos.all():
        cells = increments
    else:
        cells = np.zeros((a.size, size))
        cells[pos] = increments
    cells /= _across_columns(np.add, cells.T)
    return cells


def _across_columns(op: np.ufunc, draws: np.ndarray) -> np.ndarray:
    """``op.reduce(draws, axis=1)`` with the same bits, for an (n_mc, N)
    array in either memory order; the transpose of a cell-major (N, n_mc)
    work array is one.  Below 8 columns numpy's row-wise reduction is
    sequential but runs a short inner loop per row, ~10x slower than N
    whole-column passes in the same order; from 8 on it sums each row
    pairwise, which it does only along contiguous rows, so it is handed
    a C-ordered copy."""
    if draws.shape[1] >= 8:
        return op.reduce(np.ascontiguousarray(draws), axis=1)
    acc = draws[:, 0].copy()
    for j in range(1, draws.shape[1]):
        op(acc, draws[:, j], out=acc)
    return acc


def nig_marginal_cdf(params: NIGParams, z_grid: np.ndarray) -> np.ndarray:
    """CDF of the first coordinate at N = 2, by trapezoid quadrature on the
    density relative to its largest grid value, which stays normal where
    the density itself underflows on the whole grid."""
    if params.n_cells != 2:
        raise ValueError("marginal cdf implemented for N = 2")
    z = np.asarray(z_grid, dtype=float)
    log_pdf = nig_log_density(np.stack([z, 1.0 - z], axis=-1), params)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(z))])
    return cdf / cdf[-1]


# ---------------------------------------------------------------------
# scale priors


#: bandwidth mode above which :meth:`ScalePriorA0.posterior_sample` finds its
#: v-bounds in units of the mode: the direct cubic's coefficients grow like
#: m, m^2 and m^3, and :func:`_rou_roots` cubes a coefficient of order m^2,
#: which overflows near m = 1e51 and then gives wrong roots
_SCALE_MODE_MAX = 2.0 ** 128

@dataclass(frozen=True)
class ScalePriorA0:
    """Bandwidth prior with inverse-gamma reference implementation.

    The inverse-gamma IG(nu, lam) density on sigma fits the required
    envelope with exponents (s, t, gamma) = (nu + 1, 0, 1).
    """

    nu: float = 2.0
    lam: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.nu < math.inf and 0.0 < self.lam < math.inf):
            raise ValueError("nu and lam must be finite and positive")

    def logpdf(self, sigma) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise NonPositiveSigma("sigma must be positive")
        return (
            self.nu * math.log(self.lam)
            - math.lgamma(self.nu)
            - (self.nu + 1.0) * np.log(sigma)
            - self.lam / sigma
        )

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        # 1 / Gamma(nu, rate=lam)
        return self.lam / rng.gamma(self.nu, 1.0, size=size)

    def posterior_sample(self, n: int, ss: float, rng: np.random.Generator) -> float:
        """One exact draw of sigma given n Gaussian residuals with sum of
        squares ``ss``, from h(x) = x^-(k+1) exp(-lam / x - ss / (2 x^2)),
        k = nu + n, around its mode m, the positive root of
        (k + 1) x^2 - lam x - ss.  The v-bounds are the positive roots of
        (1 - k) x^3 + (lam + (k + 1) m) x^2 + (ss - lam m) x - m ss.  In
        sigma, unlike in 1 / sigma, no coefficient divides by ``ss``, so
        the draw stays exact down to ss = 0, where it is IG(k, lam).  Domain,
        measured: the v-bound is infinite at k = 1, and a probe failed beyond
        k = 1e15, at lam = 1e200 and, for small ss, at lam = 1e-100."""
        lam, k = self.lam, self.nu + n
        for domain, value, inside in (
            ("n >= 1", n, n >= 1), ("1.01 <= nu + n <= 1e12", k, 1.01 <= k <= 1e12),
            ("1e-50 <= lam <= 1e150", lam, 1e-50 <= lam <= 1e150),
            ("a finite ss >= 0", ss, 0.0 <= ss < math.inf),
        ):
            if not inside:
                raise ValueError(f"the bandwidth draw needs {domain}, got {value!r}")
        m = (lam + math.sqrt(lam * lam + 4.0 * ss * (k + 1.0))) / (2.0 * (k + 1.0))
        if m == math.inf:  # 4 ss (k + 1) overflowed
            half = lam / (2.0 * (k + 1.0))
            m = half + math.sqrt(half * half + ss / (k + 1.0))

        def log_ratio(x: float) -> float:
            if not x > 0.0:
                return -math.inf
            y = 1.0 / x
            return float((k + 1.0) * np.log(m * y)
                         - (y - 1.0 / m) * (lam + 0.5 * ss * (y + 1.0 / m)))

        # _ratio_of_uniforms for one draw, on floats: size-1 arrays cost
        # ~100 us of dispatch per draw.  np.log, np.exp and np.arccos keep
        # its bits on floats; math.log, math.exp, math.acos and ** do not
        if m < _SCALE_MODE_MAX:
            low, top = (float(r) for r in _rou_roots(
                (-lam - (k + 1.0) * m) / (k - 1.0), (lam * m - ss) / (k - 1.0), m * ss / (k - 1.0)))
        else:  # the roots in units of m, of a cubic with coefficients of order k
            r = ss / m / m
            low, top = (float(t) * m for t in _rou_roots(
                (-lam / m - (k + 1.0)) / (k - 1.0), (lam / m - r) / (k - 1.0), r / (k - 1.0)))
        vmin = (low - m) * float(np.exp(0.5 * log_ratio(low)))
        vmax = (top - m) * float(np.exp(0.5 * log_ratio(top)))
        if not (vmin < 0.0 < vmax):
            raise RuntimeError("ratio-of-uniforms bounds are not finite and of opposite sign")
        for _ in range(GIG_MAX_ROUNDS):
            u = 1.0 - rng.random()
            cand = (vmin + (vmax - vmin) * rng.random()) / u + m
            if 2.0 * float(np.log(u)) <= log_ratio(cand):
                return cand
        raise RuntimeError(f"ratio-of-uniforms stalled after {GIG_MAX_ROUNDS} rounds")


# the acceptance suite reads the lemma table from this module; importing it
# last lets supermix.prior_mass import the laws above
from .prior_mass import lemma_verification_table  # noqa: E402
