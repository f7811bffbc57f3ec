"""Domain contracts of the exact generators: for parameters drawn
log-uniformly on both sides of each domain's edge, a generator returns
finite (and, where the law is on (0, inf), positive) draws inside its
domain and raises ``ValueError`` outside it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermix.priors import NIG_ALPHA_RANGE, NIGParams, ScalePriorA0, nig_sample
from supermix.variates import (
    GIG_AB,
    GIG_B_OVER_A,
    GIG_P_MAX,
    gig_sample,
    truncated_normal_sample,
)

#: a numpy overflow or invalid-value warning inside a domain is a failure
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONTRACT = settings(max_examples=300, deadline=None, derandomize=True)
BAD = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan])


def log_uniform(lo: float, hi: float):
    """10^e for e uniform on [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda t: t[0] * t[1])


def draws_of(sample):
    """The draws, or None where ``sample`` raised ``ValueError``."""
    try:
        return sample()
    except ValueError:
        return None


@CONTRACT
@given(
    p=st.one_of(st.sampled_from([0.5, -0.5]), signed(log_uniform(-1.0, 10.0)), BAD),
    w=log_uniform(-30.0, 14.0),
    r=log_uniform(-250.0, 250.0),
    bad=st.one_of(st.none(), st.tuples(st.sampled_from("ab"), BAD)),
)
def test_gig_sample_contract(p, w, r, bad):
    # w = sqrt(ab) and r = sqrt(b/a) straddle the domain's edges
    a, b = w / r, w * r
    if bad is not None:
        a, b = (bad[1], b) if bad[0] == "a" else (a, bad[1])
    q = abs(p)
    with np.errstate(all="ignore"):
        ab, ratio = np.multiply(a, b), np.divide(b, a)
    inside = ((q == 0.5 or 1.0 <= q <= GIG_P_MAX) and a > 0.0
              and GIG_AB[0] <= ab <= GIG_AB[1] and GIG_B_OVER_A[0] <= ratio <= GIG_B_OVER_A[1])
    draws = draws_of(lambda: gig_sample(np.full(16, p), a, b, np.random.default_rng(0)))
    if inside:
        assert draws is not None and np.all(np.isfinite(draws) & (draws > 0.0)), (p, a, b)
    else:
        assert draws is None, (p, a, b)


MAGNITUDE = st.one_of(st.just(0.0), signed(log_uniform(-300.0, 300.0)))


@CONTRACT
@given(
    mean=st.one_of(MAGNITUDE, BAD),
    sd=st.one_of(log_uniform(-300.0, 300.0), BAD),
    ends=st.tuples(st.one_of(MAGNITUDE, BAD), st.one_of(MAGNITUDE, BAD)),
)
def test_truncated_normal_sample_contract(mean, sd, ends):
    lo, hi = ends
    inside = math.isfinite(mean) and 0.0 < sd < math.inf and lo < hi
    draws = draws_of(lambda: truncated_normal_sample(
        np.full(16, mean), np.full(16, sd), lo, hi, np.random.default_rng(0)))
    if inside:
        assert draws is not None, (mean, sd, lo, hi)
        assert np.all(np.isfinite(draws) & (draws >= lo) & (draws <= hi)), (mean, sd, lo, hi)
    else:
        assert draws is None, (mean, sd, lo, hi)


@CONTRACT
@given(
    nu=log_uniform(-6.0, 14.0),
    lam=log_uniform(-80.0, 200.0),
    n=st.one_of(st.integers(-2, 0), log_uniform(0.0, 14.0).map(int)),
    ss=st.one_of(st.just(0.0), log_uniform(-320.0, math.log10(1.7e308)), BAD),
)
def test_scale_posterior_sample_contract(nu, lam, n, ss):
    prior = ScalePriorA0(nu, lam)
    k = nu + n
    inside = n >= 1 and 1.01 <= k <= 1e12 and 1e-50 <= lam <= 1e150 and 0.0 <= ss < math.inf
    rng = np.random.default_rng(0)
    draws = draws_of(lambda: [prior.posterior_sample(n, ss, rng) for _ in range(8)])
    if inside:
        assert draws is not None and all(0.0 < x < math.inf for x in draws), (nu, lam, n, ss)
    else:
        assert draws is None, (nu, lam, n, ss)


@CONTRACT
@given(
    alphas=st.lists(st.one_of(st.just(0.0), log_uniform(-130.0, 130.0)), min_size=2, max_size=64),
    bad=st.one_of(st.none(), BAD.filter(lambda v: v != 0.0)),
)
def test_nig_sample_contract(alphas, bad):
    alphas = np.array(alphas if bad is None else alphas + [bad])
    inside = (bool(np.all(np.isfinite(alphas))) and np.all(alphas >= 0.0) and np.any(alphas > 0.0)
              and np.all((alphas == 0.0) | ((alphas >= NIG_ALPHA_RANGE[0])
                                            & (alphas <= NIG_ALPHA_RANGE[1]))))
    draws = draws_of(lambda: nig_sample(NIGParams(alphas), np.random.default_rng(0), size=16))
    if inside:
        assert draws is not None, alphas
        pos = alphas > 0.0
        assert np.all(np.isfinite(draws)) and np.all(draws[:, pos] > 0.0), alphas
        assert np.all(draws[:, ~pos] == 0.0)
        assert np.abs(draws.sum(axis=1) - 1.0).max() <= 1e-12
    else:
        assert draws is None, alphas
