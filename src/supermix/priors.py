"""Stick-breaking and normalized inverse-Gaussian priors with the
prior-mass lower bounds they induce.

All samplers take an explicit ``numpy.random.Generator``; there is no
global mutable state.  The prior-mass lemmas carry existential constants:
we expose them as a :class:`FittedConstants` pair fitted once on a small
reference configuration, after which the bounds become falsifiable
against Monte-Carlo probabilities on larger configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import gammaln, kve, ndtr, ndtri
from scipy.stats import invgamma

from .errors import (
    BoundaryPoint,
    InvalidDiscount,
    NonPositiveSigma,
    PreconditionViolated,
    TruncationOverflow,
)

TRUNCATION_CAP = 10 ** 6


# ---------------------------------------------------------------------
# base measures


@dataclass(frozen=True)
class BaseMeasure:
    """Base measure alpha = total_mass * normalized density.

    Cataloged families: gaussian (tail exponent 2), laplace (tail
    exponent 1), and uniform on [-scale, scale] for compact-support
    experiments.
    """

    family: str = "gaussian"
    scale: float = 1.0
    total_mass: float = 1.0

    def __post_init__(self):
        if self.family not in ("gaussian", "laplace", "uniform"):
            raise ValueError(f"unknown base family {self.family!r}")
        if self.scale <= 0 or self.total_mass <= 0:
            raise ValueError("scale and total_mass must be positive")

    def pdf(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        s = self.scale
        if self.family == "gaussian":
            return np.exp(-(theta / s) ** 2 / 2.0) / (s * math.sqrt(2 * math.pi))
        if self.family == "laplace":
            return np.exp(-np.abs(theta) / s) / (2.0 * s)
        return np.where(np.abs(theta) <= s, 1.0 / (2.0 * s), 0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        s = self.scale
        if self.family == "gaussian":
            return s * rng.standard_normal(size)
        if self.family == "laplace":
            u = rng.random(size) - 0.5
            return -s * np.sign(u) * np.log1p(-2.0 * np.abs(u))
        return s * (2.0 * rng.random(size) - 1.0)

    def ball_mass(self, center: float, radius: float) -> float:
        """Normalized mass of [center - radius, center + radius]."""
        s = self.scale
        lo, hi = center - radius, center + radius
        if self.family == "gaussian":
            return float(ndtr(hi / s) - ndtr(lo / s))
        if self.family == "laplace":
            cdf = lambda x: np.where(
                x < 0, 0.5 * np.exp(x / s), 1.0 - 0.5 * np.exp(-x / s)
            )
            return float(cdf(hi) - cdf(lo))
        lo, hi = max(lo, -s), min(hi, s)
        return max(hi - lo, 0.0) / (2.0 * s)

    def tail_parameters(self) -> tuple[float, float]:
        """(b, delta) with normalized density ~ exp(-b |theta|^delta)."""
        if self.family == "gaussian":
            return 1.0 / (2.0 * self.scale ** 2), 2.0
        if self.family == "laplace":
            return 1.0 / self.scale, 1.0
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

    def __len__(self):
        return self.weights.size


def py_sample(
    params: PYParams,
    trunc_tol: float,
    rng: np.random.Generator,
    block: int = 64,
) -> StickBreakingDraw:
    """Adaptive-truncation draw: stop once the remaining stick length
    drops below ``trunc_tol``; atoms are i.i.d. from the normalized base."""
    if not 0.0 < trunc_tol <= 0.1:
        raise ValueError("trunc_tol must lie in (0, 0.1]")
    a = 1.0 - params.d
    log_tol = math.log(trunc_tol)
    chunks = []
    log_remainder = 0.0
    level = 0
    stop = None
    while stop is None:
        js = np.arange(level + 1, level + block + 1)
        v = rng.beta(a, params.c + params.d * js)
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
    one_minus = np.concatenate([[1.0], np.cumprod(1.0 - sticks)[:-1]])
    weights = sticks * one_minus
    atoms = params.base.sample(rng, sticks.size)
    return StickBreakingDraw(
        sticks=sticks,
        weights=weights,
        atoms=atoms,
        remainder=float(np.prod(1.0 - sticks)),
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
        if np.any(alphas < 0) or not np.any(alphas > 0):
            raise ValueError("alphas must be >= 0 with at least one > 0")
        alphas = alphas.copy()
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)

    @property
    def total(self) -> float:
        return float(self.alphas.sum())

    @property
    def n_cells(self) -> int:
        return self.alphas.size


def log_bessel_k_half(order_times_two: int, x) -> np.ndarray:
    """log K_{m/2}(x) for odd m via the exact half-integer finite sum.

    K_{k+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_{i<=k} (k+i)! / (i! (k-i)! (2x)^i).
    """
    if order_times_two % 2 == 0:
        raise ValueError("use scipy.special.kve for integer orders")
    k = (order_times_two - 1) // 2
    x = np.atleast_1d(np.asarray(x, dtype=float))
    i = np.arange(k + 1)
    log_coeff = gammaln(k + i + 1) - gammaln(i + 1) - gammaln(k - i + 1)
    log_terms = log_coeff[:, None] - i[:, None] * np.log(2.0 * x[None, :])
    log_sum = _logsumexp(log_terms, axis=0)
    return 0.5 * np.log(math.pi / (2.0 * x)) - x + log_sum


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _log_bessel_k(order_times_two: int, x: np.ndarray) -> np.ndarray:
    if order_times_two % 2 == 1:
        return log_bessel_k_half(order_times_two, x)
    return np.log(kve(order_times_two / 2.0, x)) - x


def nig_log_density(z, params: NIGParams) -> np.ndarray:
    """Log density of the N-IG law at simplex points.

    ``z`` has shape (..., N) with positive coordinates summing to 1; the
    density lives on the first N-1 coordinates.  Computed in log space;
    uses K_{-N/2} = K_{N/2}, exact half-integer sums for odd N and the
    scaled library routine for even N.
    """
    z = np.asarray(z, dtype=float)
    a = params.alphas
    n = params.n_cells
    if z.shape[-1] != n:
        raise ValueError(f"z must have {n} coordinates")
    if np.any(z <= 0.0):
        raise BoundaryPoint("all simplex coordinates must be positive")
    if np.any(np.abs(z.sum(axis=-1) - 1.0) > 1e-9):
        raise BoundaryPoint("coordinates must sum to 1")
    quad = (a ** 2 / z).sum(axis=-1)
    root = np.sqrt(quad)
    flat = np.atleast_1d(root).ravel()
    log_k = _log_bessel_k(n, flat).reshape(np.shape(root))
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
    """Inverse-Gaussian variates by the Michael-Schucany-Haas transform."""
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if size is None:
        size = np.broadcast(mu, lam).shape
    nu = rng.standard_normal(size) ** 2
    x = mu + mu ** 2 * nu / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * nu + (mu * nu) ** 2
    )
    accept = rng.random(size) <= mu / (mu + x)
    return np.where(accept, x, mu ** 2 / x)


def nig_sample(params: NIGParams, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draws from the N-IG law: normalized independent IG increments.

    Cell j uses an inverse-Gaussian increment with mean alpha_j and shape
    alpha_j^2 (zero cells stay zero); the normalized vector has the
    density of :func:`nig_density`.
    """
    a = params.alphas
    out = np.zeros((size, a.size))
    pos = a > 0
    mu = np.broadcast_to(a[pos], (size, pos.sum()))
    y = inverse_gaussian_sample(mu, mu ** 2, rng)
    out[:, pos] = y
    out /= out.sum(axis=1, keepdims=True)
    return out[0] if size == 1 else out


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


@dataclass(frozen=True)
class ScalePriorA0:
    """Bandwidth prior with inverse-gamma reference implementation.

    The inverse-gamma IG(nu, lam) density on sigma fits the required
    envelope with exponents (s, t, gamma) = (nu + 1, 0, 1).
    """

    nu: float = 2.0
    lam: float = 0.5

    def __post_init__(self):
        if self.nu <= 0 or self.lam <= 0:
            raise ValueError("nu and lam must be positive")

    def logpdf(self, sigma) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise NonPositiveSigma("sigma must be positive")
        return invgamma.logpdf(sigma, self.nu, scale=self.lam)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        # 1 / Gamma(nu, rate=lam)
        return self.lam / rng.gamma(self.nu, 1.0, size=size)

    @property
    def mode(self) -> float:
        return self.lam / (self.nu + 1.0)

    def mean(self) -> float:
        if self.nu <= 1:
            return math.inf
        return self.lam / (self.nu - 1.0)

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


def simulate_py_stick_event(
    v_targets: np.ndarray,
    eps: float,
    c: float,
    d: float,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the stick event."""
    v = np.asarray(v_targets, dtype=float)
    n = v.size
    js = np.arange(1, n + 1)
    draws = rng.beta(1.0 - d, c + d * js, size=(n_mc, n))
    # sum_{j<=N} sum_{h<=j} |V_h - v_h| = sum_h (N - h + 1) |V_h - v_h|
    coef = n - js + 1.0
    dist = (coef * np.abs(draws - v)).sum(axis=1)
    return _mc_estimate((dist <= 2.0 * eps) & (draws.min(axis=1) > eps / n ** 2))


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
    z = np.asarray(z_targets, dtype=float)
    draws = base.sample(rng, (n_mc, z.size))
    return _mc_estimate(np.abs(draws - z).sum(axis=1) <= eps)


def nig_exponent(n: int, eps: float, z0: np.ndarray) -> float:
    z_min = float(np.min(z0))
    return n * max(math.log(1.0 / eps), math.log(1.0 / (z_min - eps)))


def prior_mass_bound_nig(
    n: int,
    eps: float,
    z0: np.ndarray,
    params: NIGParams,
    constants: FittedConstants,
    tail_coeff: float = 1.0,
    tail_power: float = 1.0,
) -> float:
    """Log lower bound for the N-IG event
    ``(sum_j |Z_j - z0_j| <= 2 eps, min Z_j > eps^2 / 2)``.

    Preconditions: min z0 > eps, eps <= 1/N, and cell masses within
    [tail_coeff * eps^tail_power, 1].
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.size != n or params.n_cells != n:
        raise PreconditionViolated("z0 and alphas must have length N")
    if not 0 < eps <= 1.0 / n:
        raise PreconditionViolated("need eps in (0, 1/N]")
    if not float(z0.min()) > eps:
        raise PreconditionViolated("need min z0 > eps")
    lo = tail_coeff * eps ** tail_power
    if np.any(params.alphas < lo - 1e-12) or np.any(params.alphas > 1.0 + 1e-12):
        raise PreconditionViolated(
            f"cell masses must lie in [{lo:.3g}, 1] for this bound"
        )
    return constants.bound(nig_exponent(n, eps, z0))


def simulate_nig_event(
    z0: np.ndarray,
    eps: float,
    params: NIGParams,
    n_mc: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    z0 = np.asarray(z0, dtype=float)
    draws = nig_sample(params, rng, size=n_mc)
    return _mc_estimate(
        (np.abs(draws - z0).sum(axis=1) <= 2.0 * eps) & (draws.min(axis=1) > eps ** 2 / 2.0)
    )


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
    case, rate, (reference, *grid) = _LEMMAS[lemma]
    _, simulate, exponent, _ = case(*reference)
    p_ref, _ = simulate(budget, rng)
    consts = FittedConstants.fit(math.log(p_ref), exponent(), rate, FIT_LOG_MARGIN)
    rows = []
    for label, simulate, _, log_bound in (case(*config) for config in grid):
        p, se = simulate(budget, rng)
        rows.append(LemmaCheckRow(label, p, se, math.exp(log_bound(consts))))
    return consts, rows


def truncated_normal_sample(
    mean, sd, lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-cdf truncated normal draws (vectorized, deterministic)."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    a = ndtr((lo - mean) / sd)
    b = ndtr((hi - mean) / sd)
    u = rng.random(np.broadcast(mean, sd).shape)
    q = np.clip(a + u * (b - a), 1e-15, 1.0 - 1e-15)
    return mean + sd * ndtri(q)
