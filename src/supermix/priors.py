"""Stick-breaking and normalized inverse-Gaussian priors with the
prior-mass lower bounds they induce.

All samplers take an explicit ``numpy.random.Generator``; there is no
global mutable state.  The prior-mass lemmas carry existential constants:
we expose them as a :class:`FittedConstants` pair fitted once on a small
reference configuration, after which the bounds become falsifiable
against Monte-Carlo probabilities on larger configurations.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    BoundaryPoint,
    InvalidDiscount,
    NonPositiveSigma,
    PreconditionViolated,
    TruncationOverflow,
)

TRUNCATION_CAP = 10 ** 6


# ---------------------------------------------------------------------
# special functions

_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = statistics.NormalDist()


def ndtr(x: float) -> float:
    """Standard normal cdf: ``erf`` for |x| < 1, ``erfc`` of |x| beyond,
    so the lower tail keeps its relative accuracy."""
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def ndtri(q: float) -> float:
    """Inverse of :func:`ndtr` on (0, 1): Wichura's algorithm AS241, as
    ``statistics.NormalDist.inv_cdf`` implements it."""
    return _STANDARD_NORMAL.inv_cdf(q)


def _elementwise(fn, x) -> np.ndarray:
    """A scalar float function applied to every element of ``x``."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def log_bessel_k_scaled(nu: float, x) -> np.ndarray:
    """log(K_nu(x) e^x) for real nu >= 1/2 and finite x > 0, elementwise.

    The trapezoid rule on K_nu(x) = 1/2 int exp(nu t - x cosh t) dt, on a
    grid through the integrand's peak t* = asinh(nu / x).  With
    kappa = sqrt(x^2 + nu^2) and t = t* + u, the exponent lies below its
    peak by (kappa - nu)(cosh u - 1) + nu (e^u - 1 - u) to the right and
    by the same with -u to the left: sums of non-negative terms, so no
    cancellation at large |u|.  The integrand is analytic in the strip
    |Im u| < pi/2 and is a Gaussian of curvature kappa at the peak; the
    step 1 / sqrt(24 + 2 kappa) keeps the discretization error of both
    regimes below e^-38 relative, and the sum stops once every new term
    is below e^-40 of the peak.  The left drop grows at least like
    nu (u - 1), so nu >= 1/2 bounds the number of steps at any x.
    ``scripts/check_special.py`` checks the result against mpmath.
    """
    x = np.asarray(x, dtype=float)
    if not (nu >= 0.5 and np.all((x > 0) & (x < np.inf))):
        raise ValueError("log_bessel_k_scaled needs nu >= 1/2 and finite x > 0")
    kappa = np.hypot(x, nu)
    half_excess = 0.5 * x / (kappa + nu) * x  # (kappa - nu) / 2
    h = 1.0 / np.sqrt(24.0 + 2.0 * kappa)
    total = np.ones(x.shape)  # the peak term
    for k in itertools.count(1):
        u = k * h
        up = np.expm1(u)
        down = -up / (up + 1.0)  # expm1(-u)
        common = half_excess * (up + down)
        right = common + nu * (up - u)
        left = common + nu * (down + u)
        total += np.exp(-right)
        total += np.exp(-left)
        if min(right.min(initial=np.inf), left.min(initial=np.inf)) > 40.0:
            break
    return nu * (np.arcsinh(nu / x) - nu / (x + kappa)) + np.log(0.5 * h * total)


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

    def pdf(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        s = self.scale
        if self.family == "gaussian":
            return np.exp(-(theta / s) ** 2 / 2.0) / (s * math.sqrt(2 * math.pi))
        return np.where(np.abs(theta) <= s, 1.0 / (2.0 * s), 0.0)

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

    def tail_parameters(self) -> tuple[float, float]:
        """(b, delta) with normalized density ~ exp(-b |theta|^delta)."""
        if self.family == "gaussian":
            return 1.0 / (2.0 * self.scale ** 2), 2.0
        return math.inf, math.inf  # compact support


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


def py_expected_weights(params: PYParams, n: int) -> np.ndarray:
    """E[W_j] for the first n weights, from independence of the sticks."""
    js = np.arange(1, n + 1)
    means = (1.0 - params.d) / (1.0 - params.d + params.c + params.d * js)
    one_minus = np.concatenate([[1.0], np.cumprod(1.0 - means)[:-1]])
    return means * one_minus


# ---------------------------------------------------------------------
# normalized inverse-Gaussian finite-dimensional law


@dataclass(frozen=True)
class NIGParams:
    """Cell masses of the normalized inverse-Gaussian law (N >= 2)."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        if alphas.ndim != 1 or alphas.size < 2:
            raise ValueError("need at least two cells")
        if not np.all(np.isfinite(alphas)):
            raise ValueError(f"alphas must be finite, got {alphas.tolist()}")
        if np.any(alphas < 0) or not np.any(alphas > 0):
            raise ValueError("alphas must be >= 0 with at least one > 0")
        with np.errstate(over="ignore"):
            square = alphas ** 2
        odd = (alphas > 0) & ~((square >= np.finfo(float).tiny) & (square < np.inf))
        if odd.any():
            raise ValueError(f"a positive alpha needs a finite normal square, got {alphas[odd][0]:g}")
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
    quad = (a ** 2 / z).sum(axis=-1)
    root = np.sqrt(quad)
    log_k = log_bessel_k_scaled(n / 2.0, root) - root
    log_const = (
        a.sum()
        + np.log(a).sum()
        - (n / 2.0 - 1.0) * math.log(2.0)
        - (n / 2.0) * math.log(math.pi)
    )
    out = log_const + log_k - (n / 4.0) * np.log(quad) - 1.5 * np.log(z).sum(axis=-1)
    return out if out.shape else float(out)


def nig_density(z, params: NIGParams):
    return np.exp(nig_log_density(z, params))


def inverse_gaussian_sample(
    mu: np.ndarray, lam: np.ndarray, rng: np.random.Generator, size=None
) -> np.ndarray:
    """Inverse-Gaussian variates with mean ``mu`` and shape ``lam``, by the
    Michael-Schucany-Haas transform (:func:`_ig_transform`).

    ``size`` defaults to the broadcast shape of ``mu`` and ``lam``, which
    must broadcast to it.  Raises ``ValueError`` unless every ``mu`` and
    ``lam`` is positive and finite.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    for name, value in (("mu", mu), ("lam", lam)):
        bad = ~((value > 0.0) & (value < np.inf))
        if bad.any():
            raise ValueError(
                f"inverse-Gaussian {name} must be positive and finite, got {value[bad].flat[0]}"
            )
    if size is None:
        size = np.broadcast(mu, lam).shape
    nu = np.atleast_1d(rng.standard_normal(size) ** 2)
    u = rng.random(size)
    return _ig_transform(mu, lam, nu, u).reshape(np.shape(u))


def _ig_transform(mu, lam, nu: np.ndarray, u) -> np.ndarray:
    """IG(mu, lam) draws from squared standard normals ``nu`` and uniforms
    ``u`` by the Michael-Schucany-Haas transform, computed in place in
    ``nu``, which holds the draws on return.  ``mu`` and ``lam`` broadcast
    against ``nu``; a cell-major caller passes (N, 1) columns, so no
    parameter is broadcast along a short inner axis.

    The two roots of the transform multiply to mu^2; the small one is taken
    as mu^2 over the large one, a sum of positive terms, because the usual
    difference form cancels catastrophically when lam / mu is small.  Each
    element goes through the operations of the textbook expression
    mu^2 / (mu + mu^2 nu / (2 lam) + mu / (2 lam) sqrt(4 mu lam nu + (mu nu)^2))
    in its order, so in-place evaluation keeps every bit.
    """
    mu2, two_lam = mu ** 2, 2.0 * lam
    x = mu2 * nu
    x /= two_lam
    x += mu
    square = mu * nu
    square *= square
    nu *= 4.0 * mu * lam
    nu += square
    np.sqrt(nu, out=nu)
    nu *= mu / two_lam
    x += nu
    np.divide(mu2, x, out=x)  # the small root
    np.add(mu, x, out=nu)
    np.divide(mu, nu, out=nu)
    accept = u <= nu
    np.divide(mu2, x, out=nu)
    np.copyto(nu, x, where=accept)
    return nu


#: rejection rounds after which :func:`_ratio_of_uniforms` gives up; a
#: round accepts each pending draw with probability at least 0.67 for the
#: GIG (measured for p from 1 to 5000.5 and sqrt(ab) from 1e-6 to 1e4) and
#: at least 0.71 for the bandwidth (k = nu + n from 1.5 to 1e6, sums of
#: squares from 0 to 1e12; 0.61 at k = 1.01), so the cap is only reached
#: when the bounding rectangle is broken.  The normal tail's rejection in
#: :func:`_normal_tail` has the same cap
GIG_MAX_ROUNDS = 100


def gig_sample(p, a, b, rng: np.random.Generator) -> np.ndarray:
    """Generalized inverse-Gaussian draws, one per broadcast (p, a, b).

    The density is proportional to ``y^(p-1) exp(-(a y + b / y) / 2)`` with
    a, b > 0.  Only |p| = 1/2 and |p| >= 1 are supported (the Gibbs sweep
    needs p = count - 1/2); other p raise ``ValueError``.  Uses
    GIG(p, a, b) = 1 / GIG(-p, b, a).  |p| = 1/2 is an inverse Gaussian,
    GIG(-1/2, a, b) = IG(mean sqrt(b/a), shape b); |p| >= 1 uses the
    ratio-of-uniforms with mode shift of Hoermann & Leydold, "Generating
    generalized inverse Gaussian random variates", Stat. Comput. 24 (2014),
    on GIG(p, a, b) = sqrt(b/a) GIG(p, sqrt(ab), sqrt(ab)).
    """
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    q = np.abs(p)
    half = q == 0.5
    if not (half | ((q >= 1.0) & (q < np.inf))).all():
        raise ValueError("gig_sample supports |p| = 1/2 and finite |p| >= 1 only")
    if not (((a > 0) & (a < np.inf)).all() and ((b > 0) & (b < np.inf)).all()):
        raise ValueError("GIG parameters a and b must be positive and finite")
    # flip to the canonical sign of each branch, p = -1/2 or p >= 1; the
    # swap broadcasts a and b to the full shape
    flip = (p > 0) == half
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    if q.shape != a.shape:
        q, half = np.broadcast_to(q, a.shape), np.broadcast_to(half, a.shape)
    x = np.empty(a.shape)
    lam = b[half]
    nu = rng.standard_normal(lam.size) ** 2
    x[half] = _ig_transform(np.sqrt(lam / a[half]), lam, nu, rng.random(lam.size))
    # |p| >= 1: GIG(q, w, w) with w = sqrt(ab), around its mode m
    rou = ~half
    a, b = a[rou], b[rou]
    q, w = q[rou], np.sqrt(a * b)
    qm1 = q - 1.0
    m = (qm1 + np.sqrt(qm1 ** 2 + w ** 2)) / w
    a2 = -2.0 * (q + 1.0) / w - m
    a1 = 2.0 * m * qm1 / w - 1.0
    params = (qm1, 0.5 * w, m, 1.0 / m)
    x[rou] = np.sqrt(b / a) * _ratio_of_uniforms(m, a2, a1, m, _gig_log_ratio, rng, params)
    np.divide(1.0, x, out=x, where=flip)
    return x


def _gig_log_ratio(x, params):
    """log h(x) - log h(m) for h(x) = x^(q-1) exp(-w (x + 1/x) / 2), from the
    rows (q - 1, w / 2, m, 1 / m); nan or -inf at x <= 0."""
    qm1, half_w, m, inv_m = params
    return qm1 * np.log(x / m) - half_w * ((x - m) + (1.0 / x - inv_m))


def _ratio_of_uniforms(m, a2, a1, a0, log_ratio, rng: np.random.Generator,
                       params=()) -> np.ndarray:
    """One draw per element of the mode array ``m`` from a density h on
    (0, inf) by ratio-of-uniforms with mode shift (Leydold, ACM TOMS 26
    (2000)): one rejection loop over the draws still pending.

    ``log_ratio(x, rows)`` is log h(x) - log h(m) at the draws x, and nan
    or -inf at x <= 0, which rejects them; ``rows`` stacks the entries of
    the per-draw arrays ``params`` for those draws.  The pending draws'
    modes, v-bounds and ``params`` sit in one array, compacted once per
    round.  The v-bounds sit at the roots that :func:`_rou_roots` gives
    for (a2, a1, a0)."""
    roots = np.array(_rou_roots(a2, a1, a0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows: mode, vmin, width, then params; vmin and width are set below
        state = np.array([m, m, m, *params])
        vmin, vmax = (roots - m) * np.exp(0.5 * log_ratio(roots, state[3:]))
        if not ((vmin < 0.0) & (vmax > 0.0)).all():
            raise RuntimeError("ratio-of-uniforms bounds are not finite and of opposite sign")
        state[1], state[2] = vmin, vmax - vmin
        x = np.empty(m.shape)
        pending = np.arange(m.size)
        for _ in range(GIG_MAX_ROUNDS):
            if not pending.size:
                return x
            u = 1.0 - rng.random(pending.size)  # (0, 1]: v / u stays finite
            cand = rng.random(pending.size)
            cand *= state[2]
            cand += state[1]
            cand /= u
            cand += state[0]
            np.log(u, out=u)
            u *= 2.0
            accept = u <= log_ratio(cand, state[3:])
            x[pending[accept]] = cand[accept]
            keep = ~accept
            pending, state = pending[keep], state[:, keep]
    raise RuntimeError(
        f"ratio-of-uniforms stalled: {pending.size} draws still rejected "
        f"after {GIG_MAX_ROUNDS} rounds"
    )


def _rou_roots(a2, a1, a0):
    """The two positive roots (low, top) of x^3 + a2 x^2 + a1 x + a0 with
    a2 < 0 <= a0, elementwise on arrays or on floats, with the same bits.

    In the ratio-of-uniforms they are the points that extremize
    (x - m) sqrt(h(x)), so the v-bounds sit there.  The largest root
    comes from Cardano's trigonometric form; the one below the mode from
    Vieta's relations, because the trigonometric form loses it to
    cancellation once the roots differ by many orders of magnitude (for
    the GIG at q = 1, w = 1e-6 it comes out negative instead of 5e-4)."""
    p1 = a1 - a2 * a2 / 3.0
    q1 = 2.0 * np.power(a2, 3) / 27.0 - a2 * a1 / 3.0 + a0
    cos3phi = np.minimum(np.maximum(-q1 * np.sqrt(-27.0 / np.power(p1, 3)) / 2.0, -1.0), 1.0)
    top = np.sqrt(-4.0 * p1 / 3.0) * np.cos(np.arccos(cos3phi) / 3.0) - a2 / 3.0
    # the other two roots have product -a0 / top <= 0 and sum (a1 + a0 / top) / top
    prod = -a0 / top
    half_sum = 0.5 * (a1 - prod) / top
    disc = np.sqrt(half_sum * half_sum - prod)
    low = np.where(half_sum >= 0.0, half_sum + disc, -prod / (disc + np.abs(half_sum)))
    return low, top


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


def nig_marginal_cdf(params: NIGParams, z_grid: np.ndarray) -> np.ndarray:
    """CDF of the first coordinate at N = 2, by trapezoid quadrature."""
    if params.n_cells != 2:
        raise ValueError("marginal cdf implemented for N = 2")
    z = np.asarray(z_grid, dtype=float)
    pdf = nig_density(np.stack([z, 1.0 - z], axis=-1), params)
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
        the draw stays exact down to ss = 0, where it is IG(k, lam)."""
        if not (n >= 1 and 0.0 <= ss < math.inf):
            raise ValueError(f"need n >= 1 and a finite ss >= 0, got n={n}, ss={ss}")
        lam, k = self.lam, self.nu + n
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

    @property
    def mode(self) -> float:
        return self.lam / (self.nu + 1.0)

    def envelope_exponents(self) -> tuple[float, float, float]:
        """(s, t, gamma) of the two-sided envelope the density satisfies."""
        return self.nu + 1.0, 0.0, 1.0


# ---------------------------------------------------------------------
# prior-mass lower bounds with fitted constants


@dataclass(frozen=True)
class FittedConstants:
    """(log C, rate) pair turning an existential bound into a number."""

    log_c: float
    rate: float

    @classmethod
    def fit(
        cls, log_p_ref: float, exponent_ref: float, rate: float, log_margin: float
    ) -> "FittedConstants":
        """Anchor the bound ``log_margin`` below a reference probability."""
        return cls(log_c=log_p_ref - log_margin + rate * exponent_ref, rate=rate)

    def bound(self, exponent: float) -> float:
        return self.log_c - self.rate * exponent


#: default rates; fitted log_c anchors come from the acceptance suite
PY_STICKS_RATE = 1.5
PY_LOCATIONS_RATE = 1.0
NIG_RATE = 2.0


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


def _event_targets(targets, eps: float, n_mc: int) -> np.ndarray:
    """The targets of a Monte-Carlo event test as a float array, after
    checking the test's inputs: a budget ``n_mc`` >= 1, a non-empty 1-D
    array of finite targets and a finite ``eps`` > 0."""
    targets = np.asarray(targets, dtype=float)
    if not n_mc >= 1:
        raise ValueError(f"Monte-Carlo budget n_mc must be >= 1, got {n_mc}")
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError(f"event targets must be a non-empty 1-D array, got shape {targets.shape}")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"event targets must be finite, got {targets.tolist()}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    return targets


def _mc_estimate(hit: np.ndarray) -> tuple[float, float]:
    """Monte-Carlo probability of an event and its binomial standard error."""
    p = hit.mean()
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / hit.size)
    return float(p), se


def py_sticks_exponent(n: int, eps: float, v_max: float, d: float) -> float:
    return n * max(
        math.log(n / eps), d * n * math.log(1.0 / (1.0 - v_max)) if d > 0 else 0.0
    )


def prior_mass_bound_py_sticks(
    n: int,
    eps: float,
    v_max: float,
    c: float,
    d: float,
    constants: FittedConstants,
) -> float:
    """Log lower bound for the stick event
    ``(sum_{j<=N} sum_{h<=j} |V_h - v_h| <= 2 eps, min V_j > eps/N^2)``."""
    if not 0 < eps < 1:
        raise PreconditionViolated("eps must lie in (0, 1)")
    if not 0 < v_max < 1:
        raise PreconditionViolated("v_max must lie in (0, 1)")
    if not (2.0 * eps / n ** 2) < (1.0 - v_max) / 2.0:
        raise PreconditionViolated("need 2 eps / N^2 < (1 - v_max)/2")
    PYParams(c=c, d=d)  # validates (c, d)
    return constants.bound(py_sticks_exponent(n, eps, v_max, d))


def _py_stick_draws(c: float, d: float, n: int, n_mc: int, rng: np.random.Generator) -> np.ndarray:
    """``n_mc`` draws of the first ``n`` Pitman-Yor sticks, cell-major:
    shape (n, n_mc), row j - 1 holding V_j ~ Beta(1 - d, c + d j).

    Each stick is the gamma ratio G_a / (G_a + G_b) of independent
    standard gammas of shapes 1 - d and c + d j (Devroye, Non-Uniform
    Random Variate Generation, 1986, IX.4), which numpy's own ``beta``
    uses whenever a shape exceeds 1; at Beta(1, 1) it replaces Johnk's
    rejection loop by two exponential draws.  Every G_a is drawn first,
    row by row, then every G_b.  Raises ``ValueError`` unless 0 <= d < 1
    and c > -d."""
    if not (0.0 <= d < 1.0 and c > -d):
        raise ValueError(f"Pitman-Yor sticks need 0 <= d < 1 and c > -d, got c={c}, d={d}")
    numerators = rng.standard_gamma(1.0 - d, size=(n, n_mc))
    totals = rng.standard_gamma((c + d * np.arange(1, n + 1))[:, None], size=(n, n_mc))
    totals += numerators
    numerators /= totals
    return numerators


def simulate_py_stick_event(
    v_targets: np.ndarray,
    eps: float,
    c: float,
    d: float,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the stick event,
    on ``n_mc`` draws of the sticks from :func:`_py_stick_draws`.  The sums
    and minima run over its cell-major rows, with numpy's row-wise bits."""
    v = _event_targets(v_targets, eps, n_mc)
    n = v.size
    sticks = _py_stick_draws(c, d, n, n_mc, rng)
    floor = _across_columns(np.minimum, sticks.T) > eps / n ** 2
    # sum_{j<=N} sum_{h<=j} |V_h - v_h| = sum_h (N - h + 1) |V_h - v_h|
    sticks -= v[:, None]
    np.abs(sticks, out=sticks)
    sticks *= np.arange(n, 0, -1.0)[:, None]
    return _mc_estimate((_across_columns(np.add, sticks.T) <= 2.0 * eps) & floor)


def py_locations_exponent(n: int, eps: float, a: float, base: BaseMeasure) -> float:
    b, delta = base.tail_parameters()
    tail = 0.0 if math.isinf(delta) else b * a ** delta
    return n * (math.log(n * base.total_mass / (2.0 * eps)) + tail)


def prior_mass_bound_py_locations(
    n: int,
    eps: float,
    a: float,
    base: BaseMeasure,
    constants: FittedConstants,
) -> float:
    """Log lower bound for ``P(sum_j |Z_j - z_j| <= eps)`` with targets in
    [-a, a] and i.i.d. base draws."""
    if not 0 < eps < 1:
        raise PreconditionViolated("eps must lie in (0, 1)")
    if a <= 0:
        raise PreconditionViolated("a must be positive")
    return constants.bound(py_locations_exponent(n, eps, a, base))


def simulate_py_location_event(
    z_targets: np.ndarray,
    eps: float,
    base: BaseMeasure,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the location
    event; the base draws come in (n_mc, N) order and are transposed once,
    minus the targets, into a cell-major work array."""
    z = _event_targets(z_targets, eps, n_mc)
    cells = np.subtract(base.sample(rng, (n_mc, z.size)).T, z[:, None], order="C")
    np.abs(cells, out=cells)
    return _mc_estimate(_across_columns(np.add, cells.T) <= eps)


def nig_exponent(n: int, eps: float, z0: np.ndarray) -> float:
    z_min = float(np.min(z0))
    return n * max(math.log(1.0 / eps), math.log(1.0 / (z_min - eps)))


def prior_mass_bound_nig(
    n: int,
    eps: float,
    z0: np.ndarray,
    params: NIGParams,
    constants: FittedConstants,
) -> float:
    """Log lower bound for the N-IG event
    ``(sum_j |Z_j - z0_j| <= 2 eps, min Z_j > eps^2 / 2)``.

    Preconditions: min z0 > eps, eps <= 1/N, and cell masses within
    [eps, 1].
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.size != n or params.n_cells != n:
        raise PreconditionViolated("z0 and alphas must have length N")
    if not 0 < eps <= 1.0 / n:
        raise PreconditionViolated("need eps in (0, 1/N]")
    if not float(z0.min()) > eps:
        raise PreconditionViolated("need min z0 > eps")
    if np.any(params.alphas < eps - 1e-12) or np.any(params.alphas > 1.0 + 1e-12):
        raise PreconditionViolated(
            f"cell masses must lie in [{eps:.3g}, 1] for this bound"
        )
    return constants.bound(nig_exponent(n, eps, z0))


def simulate_nig_event(
    z0: np.ndarray,
    eps: float,
    params: NIGParams,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the N-IG event, on
    the cell-major draws of :func:`_nig_cells`."""
    z0 = _event_targets(z0, eps, n_mc)
    if z0.size != params.n_cells:
        raise ValueError(f"need one target per cell: {z0.size} targets, {params.n_cells} cells")
    cells = _nig_cells(params, rng, n_mc)
    floor = _across_columns(np.minimum, cells.T) > eps ** 2 / 2.0
    cells -= z0[:, None]
    np.abs(cells, out=cells)
    return _mc_estimate((_across_columns(np.add, cells.T) <= 2.0 * eps) & floor)


@dataclass(frozen=True)
class LemmaCheckRow:
    """One (configuration, MC estimate, bound) comparison."""

    config: str
    mc_estimate: float
    mc_stderr: float
    analytic_bound: float

    @property
    def holds(self) -> bool:
        """Bound dominated by the MC probability at 3-s.e. resolution."""
        return self.mc_estimate + 3.0 * self.mc_stderr >= self.analytic_bound


#: verification grids: the reference configuration (used for the fit)
#: first, then at least six strictly harder ones per lemma
_PY_STICKS_GRID = [
    (np.array([0.5, 0.35]), 0.2, 1.0, 0.0),
    (np.array([0.5, 0.35]), 0.10, 1.0, 0.0),
    (np.array([0.5, 0.35, 0.3]), 0.20, 1.0, 0.0),
    (np.array([0.5, 0.35, 0.3]), 0.15, 1.0, 0.0),
    (np.array([0.5, 0.35]), 0.20, 1.0, 0.25),
    (np.array([0.5, 0.35, 0.3]), 0.20, 1.0, 0.25),
    (np.array([0.5, 0.35, 0.3]), 0.20, 0.5, 0.40),
    (np.array([0.4, 0.35, 0.3, 0.25]), 0.25, 1.0, 0.25),
]
_PY_LOCATIONS_GRID = [
    (np.array([0.3]), 0.2, 0.5),
    (np.array([0.3]), 0.10, 0.5),
    (np.array([-0.5, 0.5]), 0.30, 0.8),
    (np.array([-0.5, 0.5]), 0.20, 0.8),
    (np.array([-1.0, 0.0, 1.0]), 0.40, 1.2),
    (np.array([-1.0, 0.0, 1.0]), 0.30, 1.2),
    (np.array([-1.2, -0.4, 0.4, 1.2]), 0.50, 1.5),
]
_NIG_GRID = [
    (np.array([0.5, 0.5]), 0.25, np.array([0.5, 0.5])),
    (np.array([0.5, 0.5]), 0.15, np.array([0.5, 0.5])),
    (np.array([0.5, 0.5]), 0.10, np.array([0.4, 0.4])),
    (np.ones(3) / 3, 0.20, np.array([0.5, 0.5, 0.5])),
    (np.ones(3) / 3, 0.10, np.array([0.5, 0.5, 0.5])),
    (np.ones(3) / 3, 0.15, np.array([0.3, 0.3, 0.3])),
    (np.ones(4) / 4, 0.20, np.array([0.4, 0.4, 0.4, 0.4])),
]

FIT_LOG_MARGIN = 0.7


# A lemma case is (label, simulate(n_mc, rng) -> (p, se), exponent(),
# log_bound(constants)) for one configuration tuple of the lemma's grid.


def _py_sticks_case(v, eps, c, d):
    args = (v.size, eps, float(v.max()))
    return (
        f"N={v.size} eps={eps} c={c} d={d}",
        partial(simulate_py_stick_event, v, eps, c, d),
        partial(py_sticks_exponent, *args, d),
        partial(prior_mass_bound_py_sticks, *args, c, d),
    )


def _py_locations_case(z, eps, a):
    base = BaseMeasure("gaussian", 1.0)
    return (
        f"N={z.size} eps={eps} a={a}",
        partial(simulate_py_location_event, z, eps, base),
        partial(py_locations_exponent, z.size, eps, a, base),
        partial(prior_mass_bound_py_locations, z.size, eps, a, base),
    )


def _nig_case(z0, eps, alphas):
    params = NIGParams(alphas)
    return (
        f"N={z0.size} eps={eps}",
        partial(simulate_nig_event, z0, eps, params),
        partial(nig_exponent, z0.size, eps, z0),
        partial(prior_mass_bound_nig, z0.size, eps, z0, params),
    )


_LEMMAS = {
    "py-sticks": (_py_sticks_case, PY_STICKS_RATE, _PY_STICKS_GRID),
    "py-locations": (_py_locations_case, PY_LOCATIONS_RATE, _PY_LOCATIONS_GRID),
    "nig": (_nig_case, NIG_RATE, _NIG_GRID),
}


def lemma_verification_table(
    lemma: str, budget: int, rng: np.random.Generator
) -> tuple[FittedConstants, list[LemmaCheckRow]]:
    """Fit the lemma constants on the smallest configuration, then compare
    the bound with Monte-Carlo probabilities on the harder grid."""
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    if budget < 1:
        raise ValueError(f"Monte-Carlo budget must be >= 1, got {budget}")
    case, rate, (reference, *grid) = _LEMMAS[lemma]
    _, simulate, exponent, _ = case(*reference)
    p_ref, _ = simulate(budget, rng)
    consts = FittedConstants.fit(math.log(p_ref), exponent(), rate, FIT_LOG_MARGIN)
    rows = []
    for label, simulate, _, log_bound in (case(*config) for config in grid):
        p, se = simulate(budget, rng)
        rows.append(LemmaCheckRow(label, p, se, math.exp(log_bound(consts))))
    return consts, rows


#: standardized bound below which the lower-tail normal cdf leaves the
#: normal floats (ndtr(-37) = 5.7e-300)
_CDF_FLOOR = -37.0


def truncated_normal_sample(
    mean, sd, lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """Draws of N(mean, sd^2) restricted to [lo, hi] (vectorized, deterministic).

    Inverse cdf with one uniform per draw.  An interval that lies above its
    mean is reflected below it, so both cdf values sit in the lower tail,
    where :func:`ndtr` keeps full relative accuracy.  An interval more than
    37 sd below its mean, where the cdf underflows, is drawn by
    :func:`_normal_tail` instead; a tail draw on its standardized near
    bound is returned as the near endpoint itself, where mean + sd * z
    would cancel.
    """
    mean, sd = np.broadcast_arrays(np.asarray(mean, dtype=float), np.asarray(sd, dtype=float))
    alpha, beta = (lo - mean) / sd, (hi - mean) / sd
    flip = alpha > 0
    alpha, beta = np.where(flip, -beta, alpha), np.where(flip, -alpha, beta)
    a = _elementwise(ndtr, alpha)
    b = _elementwise(ndtr, beta)
    # a reflected draw takes 1 - u: each draw is the same increasing
    # function of u as without the reflection
    u = rng.random(mean.shape)
    q = a + np.where(flip, 1.0 - u, u) * (b - a)
    tail = beta < _CDF_FLOOR
    z = np.full(mean.shape, -math.inf)  # the limit of ndtri at q = 0
    inverse = ~tail & (q > 0.0)
    z[inverse] = _elementwise(ndtri, q[inverse])
    in_tail = tail.any()
    if in_tail:
        z[tail] = -_normal_tail(-beta[tail], -alpha[tail], rng)
    out = mean + sd * np.where(flip, -z, z)
    if in_tail:
        on_bound = tail & (z == beta)
        out[on_bound] = np.where(flip, lo, hi)[on_bound]
    return np.clip(out, lo, hi)


#: standardized bound beyond which :func:`_normal_tail` returns the bound:
#: its square would overflow, and the law's excess over it, of order 1 /
#: bound, is far below the bound's rounding
_TAIL_FAR = 2.0 ** 500


def _normal_tail(lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard normal draws on [lo, hi] for lo > 0, by rejection.

    The proposal has density proportional to x e^{-x^2/2} on [lo, hi] and
    is drawn by its inverse cdf; a draw x is kept with probability lo/x,
    which exceeds 1 - 1/lo^2 on average (Marsaglia's tail method).  A far
    interval (lo above ``_TAIL_FAR``, or of no width once rounded) gives lo
    without a draw.  Raises ``RuntimeError`` if draws are still rejected
    after ``GIG_MAX_ROUNDS`` rounds.
    """
    out = lo.copy()
    todo = np.flatnonzero((lo < _TAIL_FAR) & (hi > lo))
    for _ in range(GIG_MAX_ROUNDS):
        if not todo.size:
            return out
        a, b = lo[todo], hi[todo]
        mass = -np.expm1(-(b - a) * (b + a) / 2.0)
        x = np.sqrt(a * a - 2.0 * np.log1p(-rng.random(todo.size) * mass))
        keep = rng.random(todo.size) * x <= a
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    raise RuntimeError(
        f"normal tail rejection stalled: {todo.size} draws still rejected "
        f"after {GIG_MAX_ROUNDS} rounds"
    )
