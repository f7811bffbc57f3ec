"""Exact variate generators: the generalized inverse Gaussian (GIG), the
truncated normal and the pieces they share with the N-IG law and the
bandwidth draw.  Each public generator checks the domain its docstring
states in one place and raises ``ValueError`` naming the first value
outside it; inside, every draw is finite and every GIG draw positive.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

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


def _require(inside, domain: str, **values) -> None:
    """``ValueError`` with ``domain`` and the ``values`` where ``inside`` first fails."""
    if not inside.all():
        first = np.flatnonzero(~inside)[0]
        got = ", ".join(f"{name}={float(np.broadcast_to(v, inside.shape).flat[first])!r}"
                        for name, v in values.items())
        raise ValueError(f"{domain}, got {got}")


#: rejection rounds after which :func:`_ratio_of_uniforms` gives up; a
#: round accepts each pending draw with probability at least 0.67 for the
#: GIG (measured for p from 1 to 1e8 and sqrt(ab) from 1e-12 to 1e4) and
#: at least 0.71 for the bandwidth (k = nu + n from 1.5 to 1e6, sums of
#: squares from 0 to 1e12; 0.61 at k = 1.01), so the cap is only reached
#: when the bounding rectangle is broken.  The normal tail's rejection in
#: :func:`_normal_tail` has the same cap
GIG_MAX_ROUNDS = 100

#: the domain of :func:`gig_sample`: ``scripts/check_gig.py`` KS-tests
#: sqrt(ab) over it (default N-IG fits reach 2e-4 to 6); draws were positive
#: up to sqrt(b/a) = 1e140 and matched the gamma limit up to |p| = 1e10
GIG_P_MAX = 1e8
GIG_AB = (1e-24, 1e8)
GIG_B_OVER_A = (1e-200, 1e200)
_GIG_DOMAIN = (f"gig_sample needs |p| = 1/2 or 1 <= |p| <= {GIG_P_MAX:g}, and a, b > 0 with ab "
               f"in {GIG_AB} and b/a in {GIG_B_OVER_A}")


def gig_sample(p, a, b, rng: np.random.Generator) -> np.ndarray:
    """Generalized inverse-Gaussian draws, one per broadcast (p, a, b).

    The density is proportional to ``y^(p-1) exp(-(a y + b / y) / 2)``.
    Domain: |p| = 1/2 or 1 <= |p| <= ``GIG_P_MAX`` (the Gibbs sweep needs
    p = count - 1/2), and a > 0, b > 0 with ab in ``GIG_AB`` and b/a in
    ``GIG_B_OVER_A``.  Uses GIG(p, a, b) = 1 / GIG(-p, b, a).  |p| = 1/2 is
    an inverse Gaussian, GIG(-1/2, a, b) = IG(mean sqrt(b/a), shape b);
    |p| >= 1 uses the ratio-of-uniforms with mode shift of Hoermann &
    Leydold, "Generating generalized inverse Gaussian random variates",
    Stat. Comput. 24 (2014), on GIG(p, a, b) = sqrt(b/a) GIG(p, sqrt(ab),
    sqrt(ab)).
    """
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    q = np.abs(p)
    half = q == 0.5
    _require(half | ((q >= 1.0) & (q <= GIG_P_MAX)), _GIG_DOMAIN, p=p)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        ab, ratio = a * b, b / a
    # a > 0 and ab > 0 make b > 0
    _require((a > 0.0) & (ab >= GIG_AB[0]) & (ab <= GIG_AB[1])
             & (ratio >= GIG_B_OVER_A[0]) & (ratio <= GIG_B_OVER_A[1]), _GIG_DOMAIN, a=a, b=b)
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
        mass = -np.expm1(-(b - a) * (b + a) / 2.0)
        x = np.sqrt(a * a - 2.0 * np.log1p(-rng.random(todo.size) * mass))
        keep = rng.random(todo.size) * x <= a
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    raise RuntimeError(
        f"normal tail rejection stalled: {todo.size} draws still rejected "
        f"after {GIG_MAX_ROUNDS} rounds"
    )
