"""Exact variate generators: the generalized inverse Gaussian (GIG) of
half-integer order, the truncated normal and the pieces they share with the
N-IG law and the bandwidth draw.  Each public generator checks the domain its
docstring states in one place and raises ``ValueError`` naming the first
value outside it; inside, every draw is finite and every GIG draw positive.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT_HALF = math.sqrt(0.5)


def ndtr(x: float) -> float:
    """Standard normal cdf: ``erf`` for |x| < 1, ``erfc`` of |x| beyond,
    so the lower tail keeps its relative accuracy."""
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


@functools.cache
def _standard_normal():
    import statistics  # it imports decimal and fractions; only ndtri needs it

    return statistics.NormalDist()


def ndtri(q: float) -> float:
    """Inverse of :func:`ndtr` on (0, 1): Wichura's algorithm AS241, as
    ``statistics.NormalDist.inv_cdf`` implements it.  ``statistics`` is
    imported on the first call, so a process that never draws a
    uniform-base truncated normal does not load it."""
    return _standard_normal().inv_cdf(q)


def _require(inside, domain: str, **values) -> None:
    """``ValueError`` with ``domain`` and the ``values`` where ``inside`` first fails."""
    if not inside.all():
        first = np.flatnonzero(~inside)[0]
        got = ", ".join(f"{name}={float(np.broadcast_to(v, inside.shape).flat[first])!r}"
                        for name, v in values.items())
        raise ValueError(f"{domain}, got {got}")


#: rejection rounds of the bandwidth draw and of :func:`_normal_tail`; a
#: bandwidth round accepts with probability >= 0.61, so the cap is only
#: reached when the bounding rectangle is broken
GIG_MAX_ROUNDS = 100

#: the domain of :func:`gig_sample`: ``scripts/check_gig.py`` KS-tests sqrt(ab)
#: over it (N-IG fits reach 3e-4 to 5); draws are finite and positive at its
#: corners, and the mixture index's window grows like sqrt(ab)
GIG_P_MAX = 1e8
GIG_AB = (1e-24, 1e8)
GIG_B_OVER_A = (1e-200, 1e200)
_GIG_DOMAIN = (f"gig_sample needs p = m + 1/2 for an integer m with -1/2 <= p <= {GIG_P_MAX:g}, "
               f"and a, b > 0 with ab in {GIG_AB} and b/a in {GIG_B_OVER_A}")


def gig_sample(p, a, b, rng: np.random.Generator) -> np.ndarray:
    """Generalized inverse-Gaussian draws, one per broadcast (p, a, b).

    The density is proportional to ``y^(p-1) exp(-(a y + b / y) / 2)``.
    Domain: p = m + 1/2 for an integer m with -1/2 <= p <= ``GIG_P_MAX``
    (the Gibbs sweep needs p = count - 1/2), and a > 0, b > 0 with ab in
    ``GIG_AB`` and b/a in ``GIG_B_OVER_A``.  K_{m+1/2} is a finite sum, so
    the draw is closed-form, with no rejection loop (Barndorff-Nielsen &
    Halgreen, Z. Wahrsch. verw. Gebiete 38 (1977)): GIG(m + 1/2, a, b) =
    IG(mean sqrt(b/a), shape b) + Gamma((2m + 1 - j) / 2, rate a/2), with
    j from :func:`_mixture_index`.  It takes a standard normal and a
    uniform per element for the IG (:func:`_ig_transform`; m = -1 is the IG
    alone), then a uniform and a gamma variate per element with m >= 0.
    """
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    given, given_shape = {"p": p, "a": a, "b": b}, np.broadcast(p, a, b).shape
    shape = given_shape or (1,)  # the transform works in place, which needs arrays
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        m, ab, ratio = p - 0.5, a * b, b / a
    # a > 0 and ab > 0 make b > 0
    _require((m == np.floor(m)) & (m >= -1.0) & (m <= GIG_P_MAX - 0.5) & (a > 0.0)
             & (ab >= GIG_AB[0]) & (ab <= GIG_AB[1])
             & (ratio >= GIG_B_OVER_A[0]) & (ratio <= GIG_B_OVER_A[1]), _GIG_DOMAIN, **given)
    nu = np.square(rng.standard_normal(shape))
    x = _ig_transform(np.sqrt(ratio), b, nu, rng.random(shape))
    mixed = m >= 0.0
    if mixed.any():
        m, ab, mixed = (v if v.shape == shape else np.broadcast_to(v, shape)
                        for v in (m, ab, mixed))
        if a.ndim:  # a 0-d a broadcasts against the draws as it stands
            a = (a if a.shape == shape else np.broadcast_to(a, shape))[mixed]
        m, w = m[mixed], np.sqrt(ab[mixed])
        j = _mixture_index(m, w, rng.random(m.size))
        x[mixed] += rng.standard_gamma(0.5 * (m + m + 1.0 - j)) * (2.0 / a)
    return x.reshape(given_shape)


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


@functools.lru_cache(maxsize=None)
def _window(e: int) -> int:
    """The least J with sum_{j > J} w^j / j! <= 2^-60 at w = 2^e, by the
    bound term_{J+1} / (1 - w / (J + 2)) on that sum."""
    w, log_term, j = 2.0 ** e, 0.0, 0
    while True:
        j += 1
        log_term += math.log(w / j)  # log(w^j / j!)
        if j + 1 > w and log_term - math.log1p(-w / (j + 1)) <= -60.0 * math.log(2.0):
            return j - 1


def _mixture_index(m, w, u, width: int | None = None) -> np.ndarray:
    """The j of :func:`gig_sample` for m >= 0 and w = sqrt(ab) at the
    uniforms u: the least j whose cumulative weight exceeds u times the
    total, for weights pi_j on 0..m proportional to (2m - j)! / (j! (m -
    j)!) (2w)^j, over j < ``width``.

    The ratios pi_{j+1} / pi_j = 2w (m - j) / ((2m - j)(j + 1)) fall with
    j and are at most w / (j + 1), so pi_j / pi_0 <= w^j / j!.  The
    default width, min(m, J) + 1 with J = :func:`_window` of the largest
    w, leaves out less than 2^-60 of each element's mass, so the total
    rounds as the full range's and every draw is the full range's.  The
    work, O(elements x width), runs in blocks of at most 2^16 weights.
    """
    top = float(w.max())
    if width is None:
        width = int(min(_window(math.frexp(top)[1]), m.max())) + 1
        step = max(1, 2 ** 16 // width)
        if m.size > step:
            return np.concatenate([_mixture_index(m[s : s + step], w[s : s + step], u[s : s + step],
                                                  width) for s in range(0, m.size, step)])
    j = np.arange(width - 1.0)
    # zero from j = m on; the floor of 1 only meets those zeros
    r = np.maximum(m[:, None] - j, 0.0)
    r /= np.maximum((m + m)[:, None] - j, 1.0)
    r *= np.multiply.outer(w + w, 1.0 / (j + 1.0))
    pi = np.empty((m.size, width))
    if top >= 2.0 ** 9:  # pi_j / pi_0 <= e^w may overflow: in logs, each row over its top
        pi[:, 0] = 0.0
        with np.errstate(divide="ignore"):
            np.cumsum(np.log(r), axis=1, out=pi[:, 1:])
        np.exp(pi - pi.max(axis=1, keepdims=True), out=pi)
    else:
        pi[:, 0] = 1.0
        np.cumprod(r, axis=1, out=pi[:, 1:])
    np.cumsum(pi, axis=1, out=pi)
    return (pi[:, :-1] <= (u * pi[:, -1])[:, None]).sum(axis=1)


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


#: standardized bound below which the lower-tail normal cdf leaves the
#: normal floats (ndtr(-37) = 5.7e-300)
_CDF_FLOOR = -37.0


def truncated_normal_sample(
    mean, sd, lo: float, hi: float, rng: np.random.Generator
) -> np.ndarray:
    """Draws of N(mean, sd^2) restricted to [lo, hi] (vectorized, deterministic).

    Domain: finite ``mean``, finite ``sd`` > 0 and lo < hi, either of which
    may be infinite; every draw is finite and lies in [lo, hi].  Inverse
    cdf with one uniform per draw.  An interval that lies above its mean is
    reflected below it, so both cdf values sit in the lower tail, where
    :func:`ndtr` keeps full relative accuracy.  An interval more than 37 sd
    below its mean, where the cdf underflows, is drawn by
    :func:`_normal_tail` instead; a tail draw on its standardized near bound
    is returned as the near endpoint itself, where mean + sd * z would
    cancel.
    """
    mean, sd = np.broadcast_arrays(np.asarray(mean, dtype=float), np.asarray(sd, dtype=float))
    _require(np.isfinite(mean) & (sd > 0.0) & (sd < math.inf),
             "truncated_normal_sample needs a finite mean and a finite sd > 0", mean=mean, sd=sd)
    _require(np.asarray(lo < hi), "truncated_normal_sample needs lo < hi", lo=lo, hi=hi)
    with np.errstate(over="ignore"):  # an overflow to +-inf gives the right endpoint
        alpha, beta = (lo - mean) / sd, (hi - mean) / sd
    flip = alpha > 0
    alpha, beta = np.where(flip, -beta, alpha), np.where(flip, -alpha, beta)
    a, b = (np.asarray(np.frompyfunc(ndtr, 1, 1)(v), dtype=float) for v in (alpha, beta))
    # a reflected draw takes 1 - u: each draw is the same increasing
    # function of u as without the reflection
    u = rng.random(mean.shape)
    q = a + np.where(flip, 1.0 - u, u) * (b - a)
    tail = beta < _CDF_FLOOR
    z = np.full(mean.shape, -math.inf)  # the limit of ndtri at q = 0
    inverse = ~tail & (q > 0.0)
    z[inverse] = np.asarray(np.frompyfunc(ndtri, 1, 1)(q[inverse]), dtype=float)
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
        with np.errstate(over="ignore"):  # an infinite product gives the full mass 1
            mass = -np.expm1(-(b - a) * (b + a) / 2.0)
        x = np.sqrt(a * a - 2.0 * np.log1p(-rng.random(todo.size) * mass))
        keep = rng.random(todo.size) * x <= a
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    raise RuntimeError(
        f"normal tail rejection stalled: {todo.size} draws still rejected "
        f"after {GIG_MAX_ROUNDS} rounds"
    )
