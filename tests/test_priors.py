import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist
from scipy.special import gammaln
from scipy.stats import chisquare, invgamma, kstest

from supermix import (
    BaseMeasure,
    FittedConstants,
    NIGParams,
    PYParams,
    ScalePriorA0,
    nig_density,
    nig_log_density,
    nig_sample,
    prior_mass_bound_nig,
    prior_mass_bound_py_locations,
    prior_mass_bound_py_sticks,
    py_sample,
)
from supermix.errors import (
    BoundaryPoint,
    InvalidDiscount,
    NonPositiveSigma,
    PreconditionViolated,
)
from supermix import prior_mass, priors, variates
from supermix.prior_mass import (
    lemma_verification_table,
    simulate_nig_event,
    simulate_py_location_event,
    simulate_py_stick_event,
)
from supermix.priors import log_bessel_k_scaled, nig_marginal_cdf
from supermix.variates import (
    GIG_AB,
    GIG_MAX_ROUNDS,
    _rou_roots,
    gig_sample,
    ndtr,
    ndtri,
    truncated_normal_sample,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from check_gig import GIBBS_A, ks_pvalue, sigma_ks_pvalue  # noqa: E402
from check_special import TOLERANCES, largest_errors  # noqa: E402


def py_expected_weights(params: PYParams, n: int) -> np.ndarray:
    """E[W_j] for the first n weights, from independence of the sticks."""
    js = np.arange(1, n + 1)
    means = (1.0 - params.d) / (1.0 - params.d + params.c + params.d * js)
    one_minus = np.concatenate([[1.0], np.cumprod(1.0 - means)[:-1]])
    return means * one_minus


def log_bessel_k_half(order_times_two: int, x) -> np.ndarray:
    """log K_{m/2}(x) for odd m via the exact half-integer finite sum,
    the oracle for the library's one K_nu routine.

    K_{k+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_{i<=k} (k+i)! / (i! (k-i)! (2x)^i).
    """
    assert order_times_two % 2 == 1
    k = (order_times_two - 1) // 2
    x = np.atleast_1d(np.asarray(x, dtype=float))
    i = np.arange(k + 1)
    log_coeff = np.array(
        [math.lgamma(k + j + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
         for j in range(k + 1)]
    )
    log_terms = log_coeff[:, None] - i[:, None] * np.log(2.0 * x[None, :])
    top = log_terms.max(axis=0)
    log_sum = top + np.log(np.exp(log_terms - top).sum(axis=0))
    return 0.5 * np.log(math.pi / (2.0 * x)) - x + log_sum


def nig_log_density_half_integer(z, alphas) -> np.ndarray:
    """N-IG log density at odd N with K_{N/2} from the closed form."""
    z = np.atleast_2d(z)
    n = alphas.size
    quad = (alphas ** 2 / z).sum(axis=-1)
    log_const = (
        alphas.sum()
        + np.log(alphas).sum()
        - (n / 2.0 - 1.0) * math.log(2.0)
        - (n / 2.0) * math.log(math.pi)
    )
    return (
        log_const
        + log_bessel_k_half(n, np.sqrt(quad))
        - (n / 4.0) * np.log(quad)
        - 1.5 * np.log(z).sum(axis=-1)
    )


class TestStickBreaking:
    def test_parameter_validation(self):
        with pytest.raises(InvalidDiscount):
            PYParams(c=1.0, d=1.0)
        with pytest.raises(InvalidDiscount):
            PYParams(c=-0.5, d=0.25)

    def test_remainder_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            draw = py_sample(PYParams(c=1.0, d=0.25), 1e-3, rng)
            assert abs(draw.remainder + draw.weights.sum() - 1.0) <= 1e-12
            assert draw.remainder <= 1e-3
            assert np.all(draw.weights >= 0)

    @pytest.mark.parametrize("d", [0.0, 0.25, 0.4])
    def test_weights_match_stick_products(self, d):
        # the log-space weight map against the direct product form
        rng = np.random.default_rng(4)
        for _ in range(300):
            draw = py_sample(PYParams(c=1.0, d=d), 1e-3, rng)
            v = draw.sticks
            product = v * np.concatenate([[1.0], np.cumprod(1.0 - v)[:-1]])
            np.testing.assert_allclose(draw.weights, product, rtol=1e-12, atol=0)
            np.testing.assert_allclose(draw.remainder, np.prod(1.0 - v), rtol=1e-12, atol=0)

    def test_expected_weights_dirichlet_case(self):
        # E[W_j] = 2^{-j} for c = 1, d = 0, against a Monte-Carlo average
        rng = np.random.default_rng(1)
        params = PYParams(c=1.0, d=0.0)
        n_mc, depth = 20000, 8
        sums = np.zeros(depth)
        sums_sq = np.zeros(depth)
        for _ in range(n_mc):
            d = py_sample(params, 1e-3, rng)
            w = d.weights[:depth]
            w = np.pad(w, (0, depth - w.size))
            sums += w
            sums_sq += w ** 2
        mean = sums / n_mc
        se = np.sqrt((sums_sq / n_mc - mean ** 2) / n_mc)
        target = py_expected_weights(params, depth)
        assert np.abs(target - 0.5 ** np.arange(1, depth + 1)).max() <= 1e-12
        assert np.all(np.abs(mean - target) <= 3 * se + 1e-6)

    def test_dirichlet_marginal_beta(self):
        # F(A) ~ Beta(alpha(A), alpha(A^c)) for the d = 0 special case
        rng = np.random.default_rng(2)
        params = PYParams(c=1.0, d=0.0, base=BaseMeasure("gaussian", 1.0))
        n_mc = 10 ** 4
        vals = np.empty(n_mc)
        for i in range(n_mc):
            d = py_sample(params, 1e-3, rng)
            inside = d.atoms < 0.0
            vals[i] = d.weights[inside].sum() + d.remainder * 0.5
        stat = kstest(vals, beta_dist(0.5, 0.5).cdf).statistic
        assert stat <= 1.628 / math.sqrt(n_mc)  # 1% critical value

    def test_summability_at_level_200(self):
        rng = np.random.default_rng(3)
        params = PYParams(c=1.0, d=0.25)
        js = np.arange(1, 201)
        rem = []
        for _ in range(200):
            sticks = rng.beta(1 - params.d, params.c + params.d * js)
            rem.append(np.prod(1.0 - sticks))
        assert np.median(rem) <= 1e-3

    @given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_weights_sum_below_one(self, d, c):
        rng = np.random.default_rng(12345)
        draw = py_sample(PYParams(c=c, d=d), 1e-2, rng)
        assert draw.weights.sum() <= 1.0 + 1e-12

    def test_truncation_overflow_near_unit_discount(self):
        # slow stick decay (d near 1, tiny c) exhausts the level cap
        from supermix.errors import TruncationOverflow

        rng = np.random.default_rng(99)
        with pytest.raises(TruncationOverflow):
            py_sample(PYParams(c=0.1, d=0.9), 1e-4, rng)


class TestNIGDensity:
    def test_symmetry_two_cells(self):
        params = NIGParams(np.array([0.7, 0.7]))
        for z in (0.1, 0.25, 0.4):
            a = nig_density(np.array([z, 1 - z]), params)
            b = nig_density(np.array([1 - z, z]), params)
            assert abs(a - b) <= 1e-12 * max(a, b)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_cell_count_matches_half_integer_closed_form(self, n):
        rng = np.random.default_rng(n)
        alphas = rng.uniform(0.2, 2.0, n)
        z = rng.dirichlet(np.full(n, 2.0), size=200)
        got = nig_log_density(z, NIGParams(alphas))
        want = nig_log_density_half_integer(z, alphas)
        # an error in the log density is the density's relative error
        assert np.abs(got - want).max() <= 1e-12

    def test_permutation_covariance(self):
        params = NIGParams(np.array([0.3, 0.5, 0.9]))
        perm = NIGParams(np.array([0.9, 0.3, 0.5]))
        z = np.array([0.2, 0.3, 0.5])
        assert abs(
            nig_log_density(z, params) - nig_log_density(z[[2, 0, 1]], perm)
        ) <= 1e-12

    def test_far_apart_masses_against_mpmath(self):
        # sum(alpha) - root(quad) was a difference of two floats near 1e16,
        # which rounds by about 2: an O(1) error in the log density
        import mpmath

        alphas = np.array([1.0, 1e16])
        small = np.array([0.3e-16, 1e-16, 3e-16])  # around the mode alpha_1 / sum(alpha)
        got = nig_log_density(np.stack([small, 1.0 - small], axis=-1), NIGParams(alphas))
        with mpmath.workdps(60):
            a = [mpmath.mpf(v) for v in alphas]
            for z_small, value in zip(small, got):
                z = [mpmath.mpf(z_small), 1 - mpmath.mpf(z_small)]
                quad = sum(aj ** 2 / zj for aj, zj in zip(a, z))
                want = (sum(a) + sum(map(mpmath.log, a)) - mpmath.log(mpmath.pi)
                        + mpmath.log(mpmath.besselk(1, mpmath.sqrt(quad))) - mpmath.log(quad) / 2
                        - 1.5 * sum(map(mpmath.log, z)))
                assert abs(value - float(want)) <= 1e-9

    def test_barycenter_against_mpmath(self):
        # term-by-term evaluation with an extended-precision Bessel routine
        import mpmath

        mpmath.mp.dps = 40
        a = mpmath.mpf(1)
        quad = 4.0  # 1/z + 1/(1-z) at z = 1/2
        expected = (
            mpmath.e ** (2 * a)
            / (mpmath.mpf(2) ** 0 * mpmath.pi)
            * mpmath.besselk(1, mpmath.sqrt(quad))
            * quad ** mpmath.mpf(-0.5)
            * (mpmath.mpf(1) / 4) ** mpmath.mpf(-1.5)
        )
        got = nig_density(np.array([0.5, 0.5]), NIGParams(np.array([1.0, 1.0])))
        assert abs(got - float(expected)) <= 1e-12

    def test_mc_simplex_integral(self):
        rng = np.random.default_rng(4)
        n = 2 * 10 ** 5
        u = rng.random((n, 2))
        z1 = np.minimum(u[:, 0], u[:, 1])
        z2 = np.abs(u[:, 0] - u[:, 1])
        z = np.stack([z1, z2, 1 - z1 - z2], axis=1)
        vals = nig_density(z, NIGParams(np.array([1.0, 1.0, 1.0])))
        integral = vals.mean() * 0.5
        assert abs(integral - 1.0) <= 0.02

    def test_boundary_rejected(self):
        params = NIGParams(np.array([1.0, 1.0]))
        with pytest.raises(BoundaryPoint):
            nig_density(np.array([0.0, 1.0]), params)
        with pytest.raises(BoundaryPoint):
            nig_density(np.array([0.7, 0.7]), params)

    def test_half_integer_bessel_matches_scipy(self):
        from scipy.special import kv

        for m in (1, 3, 5, 7):
            x = np.array([0.5, 2.0, 10.0])
            ours = log_bessel_k_half(m, x)
            ref = np.log(kv(m / 2.0, x))
            assert np.abs(ours - ref).max() <= 1e-12


class TestSpecialFunctions:
    """The standard-library and numpy special functions against
    ``scipy.special`` and mpmath."""

    def test_ndtr_matches_scipy(self):
        from scipy.special import ndtr as ref

        x = np.linspace(-8.0, 8.0, 20001)
        ours = np.array([ndtr(v) for v in x.tolist()])
        assert np.abs(ours / ref(x) - 1.0).max() <= 5e-14

    def test_ndtri_matches_scipy(self):
        from scipy.special import ndtri as ref

        tails = np.geomspace(1e-15, 0.5, 5000)
        q = np.concatenate([tails, 1.0 - tails, np.linspace(1e-15, 1.0 - 1e-15, 10001)])
        q = q[q != 0.5]
        ours = np.array([ndtri(v) for v in q.tolist()])
        assert np.abs(ours / ref(q) - 1.0).max() <= 4e-15
        assert ndtri(0.5) == 0.0

    @pytest.mark.parametrize("nu", range(1, 33))
    def test_bessel_k_matches_scipy(self, nu):
        from scipy.special import kve

        # compare K itself, not its log, so the reference is not rounded
        # to the spacing of a log of size up to ~330
        x = np.geomspace(1e-3, 1e3, 401)
        ours = np.exp(log_bessel_k_scaled(nu, x))
        assert np.abs(ours / kve(nu, x) - 1.0).max() <= 1e-13

    def test_bessel_k_half_integer_orders_agree(self):
        x = np.geomspace(1e-2, 1e2, 101)
        for m in (1, 3, 5, 7, 33):
            exact = log_bessel_k_half(m, x) + x
            assert np.abs(log_bessel_k_scaled(m / 2.0, x) - exact).max() <= 1e-13

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5, 16.0, 32.0])
    def test_bessel_k_at_large_x_against_mpmath(self, nu):
        # where 2 (cosh u - 1) as a difference of expm1 terms cancelled: the
        # log was 0.10 off at x = 1e32 and the sum did not end beyond 1e60
        import mpmath

        for e in (4, 8, 17, 32, 40, 60, 100, 200, 300):
            got = float(log_bessel_k_scaled(nu, np.array([10.0 ** e]))[0])
            # log K_nu(x) + x cancels about e digits of the working precision
            with mpmath.workdps(30 + e):
                x = mpmath.mpf(10.0 ** e)
                ref = float(mpmath.log(mpmath.besselk(nu, x)) + x)
            assert abs(got - ref) <= 1e-13, (e, got, ref)

    def test_bessel_k_keeps_shape_and_rejects_bad_arguments(self):
        x = np.array([[0.5, 2.0], [10.0, 40.0]])
        assert log_bessel_k_scaled(2, x).shape == (2, 2)
        assert log_bessel_k_scaled(2, np.empty(0)).shape == (0,)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                log_bessel_k_scaled(1, np.array([1.0, bad]))
        for nu in (-1.0, 0.0, 0.25, np.nan):
            with pytest.raises(ValueError):
                log_bessel_k_scaled(nu, np.array([1.0]))
        # the smallest order far below x = 1, where the left tail is longest
        tiny = np.array([1e-300, 1e-30])
        exact = log_bessel_k_half(1, tiny) + tiny
        assert np.abs(log_bessel_k_scaled(0.5, tiny) - exact).max() <= 1e-12

    def test_bessel_k_below_the_smallest_normal_x(self, recwarn):
        # nu / x overflowed to inf below x ~ 1e-308, and so did the result
        x = np.array([5e-324, 1e-310])
        exact = 0.5 * (np.log(np.pi / 2.0) - np.log(x))  # 372.45 and 357.13
        got = log_bessel_k_scaled(0.5, x)
        assert np.abs(got / exact - 1.0).max() <= 1e-13, got
        assert not recwarn.list

    def test_against_mpmath_small_grid(self):
        errors = largest_errors(points=9, orders=(1, 2, 5, 16, 32))
        assert all(errors[name] <= TOLERANCES[name] for name in TOLERANCES), errors

    def test_ball_mass_matches_scipy(self):
        from scipy.special import ndtr as ref

        base = BaseMeasure("gaussian", 1.5)
        for center, radius in ((0.0, 0.1), (3.0, 2.0), (-9.0, 0.5), (12.0, 1.0)):
            lo, hi = (center - radius) / 1.5, (center + radius) / 1.5
            expected = ref(hi) - ref(lo)
            assert abs(base.ball_mass(center, radius) - expected) <= 1e-13 * expected


class TestNIGSampler:
    def test_simplex_output(self):
        rng = np.random.default_rng(5)
        z = nig_sample(NIGParams(np.array([0.5, 1.0, 2.0])), rng, size=1000)
        assert np.abs(z.sum(axis=1) - 1.0).max() <= 1e-12
        assert z.min() > 0

    def test_zero_cell_stays_zero(self):
        rng = np.random.default_rng(6)
        z = nig_sample(NIGParams(np.array([0.0, 1.0, 1.0])), rng, size=100)
        assert np.all(z[:, 0] == 0.0)

    def test_coordinate_means(self):
        rng = np.random.default_rng(7)
        params = NIGParams(np.array([0.5, 1.5]))
        z = nig_sample(params, rng, size=10 ** 5)
        target = params.alphas / params.total
        se = z.std(axis=0) / math.sqrt(z.shape[0])
        assert np.all(np.abs(z.mean(axis=0) - target) <= 3 * se)

    def test_marginal_matches_density(self):
        rng = np.random.default_rng(8)
        params = NIGParams(np.array([1.0, 1.0]))
        draws = nig_sample(params, rng, size=10 ** 5)
        zs = np.linspace(1e-9, 1 - 1e-9, 10001)
        cdf = nig_marginal_cdf(params, zs)
        emp = np.sort(draws[:, 0])
        dev = np.abs(
            np.interp(emp, zs, cdf) - np.arange(1, emp.size + 1) / emp.size
        ).max()
        assert dev <= 0.02

    # IG(mu, lam) is GIG(-1/2, a = lam / mu^2, b = lam), which gig_sample
    # draws by the Michael-Schucany-Haas transform

    def test_inverse_gaussian_moments(self):
        # IG(mu, lam): mean mu, variance mu^3 / lam
        rng = np.random.default_rng(9)
        y = gig_sample(np.full(2 * 10 ** 5, -0.5), 3.0 / 4.0, 3.0, rng)
        assert abs(y.mean() - 2.0) <= 4 * y.std() / math.sqrt(y.size)
        assert abs(y.var() - 8.0 / 3.0) / (8.0 / 3.0) <= 0.05

    def test_inverse_gaussian_scalar_parameters_give_a_scalar_draw(self):
        y = gig_sample(-0.5, 3.0 / 4.0, 3.0, np.random.default_rng(0))
        assert y.shape == () and y > 0

    @pytest.mark.parametrize("omega", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_inverse_gaussian_root_against_mpmath(self, omega):
        # small omega = lam / mu is where the difference form of the
        # Michael-Schucany-Haas root cancels; replay the draw's normals and
        # uniforms and redo the transform at 50 digits
        import mpmath

        size = 200
        for mu in (0.3, 1.0, 7.0):
            lam = omega * mu
            a = lam / mu ** 2
            y = gig_sample(np.full(size, -0.5), a, lam, np.random.default_rng(11))
            replay = np.random.default_rng(11)
            nus = replay.standard_normal(size) ** 2
            us = replay.random(size)
            with mpmath.workdps(50):
                # the mean gig_sample forms, sqrt(b / a), within an ulp of mu
                m, lm = mpmath.mpf(float(np.sqrt(lam / a))), mpmath.mpf(lam)
                for got, nu, u in zip(y, nus, us):
                    nu = mpmath.mpf(nu)
                    root = m + m ** 2 * nu / (2 * lm) - (m / (2 * lm)) * mpmath.sqrt(
                        4 * m * lm * nu + (m * nu) ** 2
                    )
                    ref = root if u <= m / (m + root) else m ** 2 / root
                    assert abs(got - ref) <= 1e-12 * ref, (mu, float(nu))


class TestGIGSample:
    # the range N-IG fits at n = 1000 produce: p from -1/2 to a few
    # hundred, omega = sqrt(ab) from about 8.5e-4 to 4
    P = (-0.5, 0.5, 1.5, 2.5, 10.5, 309.5)
    OMEGA = (8e-4, 4e-3, 0.37, 2.4, 4.0)
    KS_P_MIN = 1e-3

    def test_ks_against_reference_cdf(self):
        """p = -1/2 against the IG cdf and p = 1/2 against the closed-form
        cdf of a reciprocal IG, which shares none of the sampler's algebra
        (the sampler draws p = 1/2 as IG plus Gamma(1/2)); the other orders
        against a quadrature of the density."""
        rng = np.random.default_rng(20140401)
        pvalues = {
            (p, w): ks_pvalue(p, w, 10_000, rng) for p in self.P for w in self.OMEGA
        }
        low = {cell: v for cell, v in pvalues.items() if v < self.KS_P_MIN}
        assert not low, low

    def test_broadcasts_mixed_branches(self):
        p = np.array([-0.5, 0.5, 1.5, 2.5, 3.5])
        a = np.array([2.0, 3.0, 0.5, 4.0, 1.0])
        b = np.array([0.7, 0.2, 6.0, 0.3, 2.0])
        y = gig_sample(p, a, b, np.random.default_rng(0))
        assert y.shape == p.shape and np.all(y > 0)

    @pytest.mark.parametrize("p", [0.0, 0.25, -0.75, 0.9, 1.0, 3.0, -1.5, -10.5, np.nan, np.inf])
    def test_unsupported_order_raises(self, p):
        with pytest.raises(ValueError):
            gig_sample(np.array([1.5, p]), 1.0, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -1.0), (np.inf, 1.0)])
    def test_nonpositive_or_infinite_scale_raises(self, a, b):
        with pytest.raises(ValueError):
            gig_sample(2.5, a, b, np.random.default_rng(0))

    def test_scalar_parameters_match_full_arrays(self):
        # the sweep's call: counts 0, 1 and >= 2 (both branches) with a
        # scalar a; the same draws as with every parameter spelt out
        counts = np.array([0, 1, 2, 0, 5, 1, 37, 0, 3, 2, 1, 400])
        b = np.linspace(1e-3, 3.0, counts.size)
        for seed in range(4):
            for a_arg, b_arg in ((GIBBS_A + seed, b), (b, GIBBS_A + seed)):
                full = [np.broadcast_to(v, counts.shape).copy() for v in (a_arg, b_arg)]
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = gig_sample(counts - 0.5, a_arg, b_arg, got_rng)
                want = gig_sample(counts - 0.5, *full, want_rng)
                assert got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @staticmethod
    def mixture_log_weights(m: int, w: float, top: int) -> np.ndarray:
        """log pi_j for j = 0..top, up to a constant, from log-gamma:
        pi_j is proportional to (2m - j)! / (j! (m - j)!) (2w)^j."""
        j = np.arange(top + 1.0)
        return gammaln(2 * m - j + 1) - gammaln(j + 1) - gammaln(m - j + 1) + j * math.log(2 * w)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(0, 10 ** 6),
           log_w=st.floats(0.5 * math.log10(GIG_AB[0]), 0.5 * math.log10(GIG_AB[1])),
           u=st.floats(0.0, 1.0, exclude_max=True))
    def test_window_holds_the_mass_and_the_full_range_draw(self, m, log_w, u):
        w = 10.0 ** log_w
        last = variates._window(math.frexp(w)[1])
        if m > last:
            # log-concavity bounds the omitted tail by pi_{J+1} / (1 - r_{J+1})
            log_pi = self.mixture_log_weights(m, w, last + 1)
            ratio = 2 * w * (m - last - 1) / ((2 * m - last - 1) * (last + 2))
            top = log_pi[:-1].max()
            log_mass = top + math.log(np.exp(log_pi[:-1] - top).sum())
            assert ratio < 1.0
            assert log_pi[-1] - math.log1p(-ratio) - log_mass <= -60 * math.log(2.0)
        us = np.array([u, 0.0, 1.0 - 2.0 ** -53])
        rows = np.full(us.size, float(m)), np.full(us.size, w)
        window = variates._mixture_index(*rows, us)
        full = variates._mixture_index(*rows, us, m + 1)
        assert window.tolist() == full.tolist()

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 12])
    @pytest.mark.parametrize("w", [0.05, 0.8, 3.0, 9.0])
    def test_mixture_index_chi_square_against_enumeration(self, m, w):
        draws = 20_000
        rng = np.random.default_rng(1000 * m + int(10 * w))
        j = variates._mixture_index(np.full(draws, float(m)), np.full(draws, w), rng.random(draws))
        log_pi = self.mixture_log_weights(m, w, m)
        expected = np.exp(log_pi - log_pi.max())
        expected *= draws / expected.sum()
        observed = np.bincount(j, minlength=m + 1).astype(float)
        # pool the cells expected below 5 into their neighbour nearest the mode
        keep = expected >= 5.0
        mode = int(np.argmax(expected))
        for k in np.flatnonzero(~keep):
            near = k + 1 if k < mode else k - 1
            while not keep[near]:
                near += 1 if k < mode else -1
            expected[near] += expected[k]
            observed[near] += observed[k]
        if keep.sum() == 1:
            assert observed[keep][0] == draws
            return
        assert chisquare(observed[keep], expected[keep]).pvalue >= self.KS_P_MIN

    @pytest.mark.parametrize("count", [400, 1000, 4000])
    @pytest.mark.parametrize("w", [0.01, 0.6, 4.0, 30.0])
    def test_mean_at_large_counts(self, count, w):
        # scipy's geninvgauss cdf is nan from count 300 on; E[Y] =
        # sqrt(b/a) K_{p+1}(w) / K_p(w) from the half-integer closed form
        p, b = count - 0.5, w * w / GIBBS_A
        y = gig_sample(np.full(20_000, p), GIBBS_A, b, np.random.default_rng(count))
        log_ratio = log_bessel_k_half(2 * count + 1, w)[0] - log_bessel_k_half(2 * count - 1, w)[0]
        mean = math.sqrt(b / GIBBS_A) * math.exp(log_ratio)
        z = (y.mean() - mean) / (y.std() / math.sqrt(y.size))
        assert abs(z) <= 4.0, z


class TestScalePrior:
    def test_mode(self):
        # the inverse-gamma IG(nu, lam) density peaks at lam / (nu + 1)
        prior = ScalePriorA0(2.0, 1.0)
        mode = prior.lam / (prior.nu + 1.0)
        assert abs(mode - 1.0 / 3.0) <= 1e-15
        near = prior.logpdf(mode * np.array([1.0 - 1e-4, 1.0, 1.0 + 1e-4]))
        assert near[1] > max(near[0], near[2])

    def test_envelope_exponents(self):
        prior = ScalePriorA0(2.0, 0.5)
        # exponents (s, t, gamma) = (nu + 1, 0, 1): a two-sided envelope
        # with D1 > lam > D2 on sigma in (0, 0.2]
        s = prior.nu + 1.0
        sigma = np.linspace(1e-3, 0.2, 500)
        g = np.exp(prior.logpdf(sigma))
        c0 = prior.lam ** prior.nu / math.gamma(prior.nu)
        lower = c0 * sigma ** (-s) * np.exp(-1.2 * prior.lam / sigma)
        upper = c0 * sigma ** (-s) * np.exp(-0.8 * prior.lam / sigma)
        assert np.all(lower <= g) and np.all(g <= upper)

    def test_sampler_mean(self):
        rng = np.random.default_rng(10)
        prior = ScalePriorA0(3.0, 1.0)
        draws = prior.sample(rng, size=2 * 10 ** 5)
        target = 1.0 / (3.0 - 1.0)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - target) <= 3 * se

    def test_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            ScalePriorA0().logpdf(np.array([0.0]))
        with pytest.raises(NonPositiveSigma):
            ScalePriorA0().logpdf(-1.0)

    @pytest.mark.parametrize("nu, lam", [(2.0, 0.5), (3.0, 1.0), (0.7, 2.5)])
    def test_logpdf_matches_inverse_gamma(self, nu, lam):
        sigma = np.logspace(-3, 3, 241)
        prior = ScalePriorA0(nu, lam)
        expected = invgamma.logpdf(sigma, nu, scale=lam)
        assert np.max(np.abs(prior.logpdf(sigma) - expected)) <= 1e-12
        assert abs(prior.logpdf(0.7) - invgamma.logpdf(0.7, nu, scale=lam)) <= 1e-12


@pytest.mark.parametrize(
    "cls, name",
    [(ScalePriorA0, "nu"), (ScalePriorA0, "lam"), (BaseMeasure, "scale"),
     (BaseMeasure, "total_mass")],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_prior_parameters_raise(cls, name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        cls(**{name: value})


@pytest.mark.parametrize("family", ["laplace", "bogus"])
def test_unknown_base_family_raises(family):
    with pytest.raises(ValueError, match="unknown base family"):
        BaseMeasure(family, 1.0)


# the array form of the bandwidth draw's ratio-of-uniforms, the bitwise
# oracle of its float loop
def _ratio_of_uniforms(m, a2, a1, a0, log_ratio, rng: np.random.Generator,
                       params=()) -> np.ndarray:
    """One draw per element of the mode array ``m`` from a density h on
    (0, inf) by ratio-of-uniforms with mode shift (Leydold, ACM TOMS 26
    (2000)): one rejection loop over the draws still pending.

    ``log_ratio(x, rows)`` is log h(x) - log h(m) at the draws x, and nan
    or -inf at x <= 0, which rejects them; ``rows`` stacks the entries of
    the per-draw arrays ``params`` for those draws.  The pending draws'
    modes, v-bounds and ``params`` sit in one array, compacted once per
    round.  The v-bounds sit at m times the roots that :func:`_rou_roots`
    gives for (a2, a1, a0), a cubic in units of the mode."""
    roots = np.array(_rou_roots(a2, a1, a0)) * m
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


class TestScalePosteriorSample:
    """The exact draw of sigma given n residuals with sum of squares s."""

    KS_P_MIN = 1e-3

    @pytest.mark.parametrize("n, ss, seed", [(10, 0.1, 11), (4000, 4400.0, 12)])
    def test_ks_against_reference_cdf(self, n, ss, seed):
        # the reference is the trapezoid cdf of log sigma built from
        # ScalePriorA0.logpdf, independent of the draw's cubic
        pvalue = sigma_ks_pvalue(n, ss, 20_000, np.random.default_rng(seed))
        assert pvalue >= self.KS_P_MIN

    def test_recovers_prior(self):
        # Geweke, JASA 99 (2004), on the sigma step alone: sigma from the
        # prior, data given sigma, then sigma' from its conditional; sigma'
        # must follow the prior again
        prior = ScalePriorA0()
        rng = np.random.default_rng(2004)
        redrawn = np.empty(20_000)
        for i in range(redrawn.size):
            x = float(prior.sample(rng)) * rng.standard_normal(10)
            redrawn[i] = prior.posterior_sample(10, float((x ** 2).sum()), rng)
        pvalue = kstest(redrawn, invgamma(prior.nu, scale=prior.lam).cdf).pvalue
        assert pvalue >= self.KS_P_MIN

    def test_zero_sum_of_squares_is_inverse_gamma(self):
        # with no residual spread the conditional is IG(nu + n, lam)
        prior = ScalePriorA0(3.0, 0.7)
        rng = np.random.default_rng(5)
        draws = [prior.posterior_sample(10, 0.0, rng) for _ in range(5_000)]
        assert kstest(draws, invgamma(13.0, scale=0.7).cdf).pvalue >= self.KS_P_MIN

    @staticmethod
    def array_engine_draw(prior, n, ss, rng):
        """The draw through :func:`_ratio_of_uniforms` on size-1 arrays, the
        array form of ``posterior_sample``'s float loop."""
        lam, k = prior.lam, prior.nu + n
        half = lam / (2.0 * (k + 1.0))
        m = half + math.sqrt(half * half + ss / (k + 1.0))

        def log_ratio(x, i):
            with np.errstate(divide="ignore", invalid="ignore"):
                y = 1.0 / x
                out = (k + 1.0) * np.log(m * y) - (y - 1.0 / m) * (lam + 0.5 * ss * (y + 1.0 / m))
            return np.where(x > 0, out, -np.inf)

        r = ss / m / m
        coefs = (-lam / m - (k + 1.0), lam / m - r, r)
        a2, a1, a0 = (np.array([c / (k - 1.0)]) for c in coefs)
        return float(_ratio_of_uniforms(np.array([m]), a2, a1, a0, log_ratio, rng)[0])

    def test_float_loop_matches_array_engine_bitwise(self):
        grid = [(n, ss) for n in (1, 2, 37, 1000, 4000)
                for ss in (0.0, 1e-300, 1e-9, 0.02, 1.0, 517.3, 4400.0, 1e12)]
        for prior in (ScalePriorA0(), ScalePriorA0(0.7, 2.5)):
            got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
            for n, ss in grid * 3:
                got = prior.posterior_sample(n, ss, got_rng)
                want = self.array_engine_draw(prior, n, ss, want_rng)
                assert type(got) is float
                assert got == want, (prior, n, ss)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("ss", [1e110, 1e150, 1e250, 1.7e308])
    def test_huge_sum_of_squares_scales_with_its_root(self, ss):
        # lam is negligible against sqrt(ss), so sigma / sqrt(ss) has one law
        # for every large ss: the same uniforms give the same ratio as at
        # ss = 1e60, far below any overflow
        prior = ScalePriorA0()
        for n in (1, 40, 4000):
            got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(200):
                got = prior.posterior_sample(n, ss, got_rng) / math.sqrt(ss)
                want = prior.posterior_sample(n, 1e60, want_rng) / 1e30
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize(
        "n, ss", [(0, 1.0), (10, -1.0), (10, math.nan), (10, math.inf)]
    )
    def test_bad_arguments_raise(self, n, ss):
        with pytest.raises(ValueError):
            ScalePriorA0().posterior_sample(n, ss, np.random.default_rng(0))


class TestPriorMassBounds:
    CONSTS = FittedConstants(log_c=0.0, rate=1.5)

    def test_dirichlet_reduction(self):
        # at d = 0 the bound depends on eps only through N log(N/eps)
        b1 = prior_mass_bound_py_sticks(3, 0.1, 0.5, 1.0, 0.0, self.CONSTS)
        assert abs(b1 - (-1.5 * 3 * math.log(3 / 0.1))) <= 1e-12

    def test_monotone_in_n(self):
        bounds = [
            prior_mass_bound_py_sticks(n, 0.1, 0.5, 1.0, 0.0, self.CONSTS)
            for n in (2, 3, 4, 6)
        ]
        assert np.all(np.diff(bounds) < 0)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            prior_mass_bound_py_sticks(2, 0.4, 0.9, 1.0, 0.0, self.CONSTS)

    def test_locations_monotone_in_eps(self):
        base = BaseMeasure("gaussian", 1.0)
        bounds = [
            prior_mass_bound_py_locations(2, eps, 1.0, base, self.CONSTS)
            for eps in (0.05, 0.1, 0.2, 0.4)
        ]
        assert np.all(np.diff(bounds) > 0)

    def test_single_ball_quadrature_agreement(self):
        # N = 1 event is a base-measure ball; MC vs quadrature within 5%
        rng = np.random.default_rng(11)
        base = BaseMeasure("gaussian", 1.0)
        p_mc, _ = simulate_py_location_event(np.array([0.3]), 0.2, base, 10 ** 6, rng)
        p_quad = base.ball_mass(0.3, 0.2)
        assert abs(p_mc - p_quad) / p_quad <= 0.05

    def test_nig_bound_shape(self):
        consts = FittedConstants(log_c=0.0, rate=2.0)
        z0 = np.array([0.4, 0.6])
        params = NIGParams(np.array([0.5, 0.5]))
        b_far = prior_mass_bound_nig(2, 0.1, z0, params, consts)
        b_near = prior_mass_bound_nig(2, 0.35, z0, params, consts)
        # as eps approaches min z0 the bound blows down
        assert b_near < b_far
        with pytest.raises(PreconditionViolated):
            prior_mass_bound_nig(2, 0.45, z0, params, consts)

    def test_nig_exponent_scales_with_n(self):
        consts = FittedConstants(log_c=0.0, rate=2.0)
        b2 = prior_mass_bound_nig(
            2, 0.1, np.array([0.5, 0.5]), NIGParams(np.array([0.5, 0.5])), consts
        )
        b4 = prior_mass_bound_nig(
            4, 0.1, np.full(4, 0.25), NIGParams(np.full(4, 0.5)), consts
        )
        # exponent N max{log(1/eps), log(1/(min z - eps))}: the N = 4 case
        # roughly doubles N and grows the inner log
        assert 1.8 <= b4 / b2 <= 4.0

    @pytest.mark.parametrize("simulate", [
        lambda t, eps, n_mc: simulate_py_stick_event(t, eps, 1.0, 0.25, n_mc,
                                                     np.random.default_rng(0)),
        lambda t, eps, n_mc: simulate_py_location_event(t, eps, BaseMeasure(), n_mc,
                                                        np.random.default_rng(0)),
        lambda t, eps, n_mc: simulate_nig_event(t, eps, NIGParams(np.full(2, 0.5)), n_mc,
                                                np.random.default_rng(0)),
    ], ids=["py-sticks", "py-locations", "nig"])
    @pytest.mark.parametrize("targets, eps, n_mc, match", [
        ([0.4, 0.3], 0.2, 0, "budget n_mc must be >= 1"),
        ([0.4, 0.3], 0.2, -5, "budget n_mc must be >= 1"),
        ([np.nan, 0.3], 0.2, 100, "targets must be finite"),
        ([0.4, np.inf], 0.2, 100, "targets must be finite"),
        ([0.4, 0.3], np.nan, 100, "eps must be finite and positive"),
        ([0.4, 0.3], np.inf, 100, "eps must be finite and positive"),
        ([0.4, 0.3], 0.0, 100, "eps must be finite and positive"),
        ([0.4, 0.3], -0.1, 100, "eps must be finite and positive"),
        ([], 0.2, 100, "non-empty 1-D array"),
        ([[0.4, 0.3]], 0.2, 100, "non-empty 1-D array"),
    ], ids=["zero_budget", "negative_budget", "nan_target", "inf_target", "nan_eps",
            "inf_eps", "zero_eps", "negative_eps", "no_targets", "2d_targets"])
    def test_event_tests_reject_bad_inputs(self, simulate, targets, eps, n_mc, match):
        with pytest.raises(ValueError, match=match):
            simulate(np.array(targets), eps, n_mc)

    @pytest.mark.parametrize("c, d", [(1.0, 1.0), (1.0, -0.1), (-0.5, 0.0), (np.nan, 0.0)])
    def test_stick_event_rejects_bad_pitman_yor_parameters(self, c, d):
        # a discount of 1 makes every G(1 - d) zero: the event would read 0
        with pytest.raises(ValueError, match="Pitman-Yor sticks need"):
            simulate_py_stick_event(np.array([0.5, 0.35]), 0.2, c, d, 100,
                                    np.random.default_rng(0))

    @pytest.mark.parametrize("z0", [[0.5], [0.3, 0.3, 0.3]])
    def test_nig_event_needs_one_target_per_cell(self, z0):
        # a single target used to broadcast across both cells
        with pytest.raises(ValueError, match="one target per cell"):
            simulate_nig_event(np.array(z0), 0.2, NIGParams(np.full(2, 0.5)), 100,
                               np.random.default_rng(0))

    def test_nig_table_memory_peak(self):
        # at most 4.5 full-size work arrays of the largest (N = 4) case
        one_array = 10 ** 5 * 4 * 8
        lemma_verification_table("nig", 10, np.random.default_rng(0))  # warm caches
        tracemalloc.start()
        try:
            lemma_verification_table("nig", 10 ** 5, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * one_array, peak / one_array

    def test_verification_tables_small_budget(self):
        rng = np.random.default_rng(12)
        for lemma in ("py-sticks", "py-locations", "nig"):
            consts, rows = lemma_verification_table(lemma, 10 ** 5, rng)
            assert len(rows) >= 6
            assert all(r.holds for r in rows), lemma


class TestPYStickDraws:
    KS_P_MIN = 1e-3

    def test_ks_against_beta_for_every_grid_pair(self):
        # every (1 - d, c + d j) pair of the py-sticks grid, 10^5 draws each
        pairs = {(1.0 - d, c + d * j): (c, d, v.size, j)
                 for v, _, c, d in prior_mass._PY_STICKS_GRID for j in range(1, v.size + 1)}
        rng = np.random.default_rng(20261019)
        pvalues = {}
        for (a, b), (c, d, n, j) in pairs.items():
            sticks = prior_mass._py_stick_draws(c, d, n, 10 ** 5, rng)
            assert sticks.shape == (n, 10 ** 5)
            pvalues[a, b] = kstest(sticks[j - 1], beta_dist(a, b).cdf).pvalue
        low = {pair: p for pair, p in pvalues.items() if p < self.KS_P_MIN}
        assert len(pvalues) == 8 and not low, low


class TestTruncatedNormal:
    def test_bounds_and_mean(self):
        rng = np.random.default_rng(13)
        draws = truncated_normal_sample(
            np.full(10 ** 5, 0.5), np.full(10 ** 5, 1.0), -1.0, 1.0, rng
        )
        assert draws.min() >= -1.0 and draws.max() <= 1.0
        # oracle: mean of the truncated normal by quadrature
        xs = np.linspace(-1, 1, 20001)
        pdf = np.exp(-((xs - 0.5) ** 2) / 2)
        target = (xs * pdf).sum() / pdf.sum()
        assert abs(draws.mean() - target) <= 4 * draws.std() / math.sqrt(draws.size)

    @pytest.mark.parametrize("mean", [10.0, -10.0, 3.9, -3.9, 3.05, -3.05])
    def test_far_interval_draws_stay_inside(self, mean):
        # intervals 0.5 to 130 sd from the mean, above and below it
        rng = np.random.default_rng(14)
        draws = truncated_normal_sample(np.full(2000, mean), np.full(2000, 0.1),
                                        -3.0, 3.0, rng)
        assert draws.min() >= -3.0 and draws.max() <= 3.0

    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("lower", [-1.0, 3.0, 8.0, 40.0])
    def test_matches_scipy_truncnorm(self, lower, side):
        # standardised interval [lower, inf) (side 1) or its mirror image;
        # 40 sd lies beyond the normal cdf's underflow
        from scipy.stats import truncnorm

        mean, sd = 2.0, 0.5
        lo, hi = (mean + sd * lower, math.inf) if side == 1 else (-math.inf, mean - sd * lower)
        rng = np.random.default_rng(15)
        draws = truncated_normal_sample(np.full(4000, mean), np.full(4000, sd), lo, hi, rng)
        assert draws.min() >= lo and draws.max() <= hi
        z = side * (draws - mean) / sd
        assert kstest(z, truncnorm(lower, math.inf).cdf).pvalue > 1e-3

    def test_tail_rejection_matches_scipy_truncnorm(self):
        # the far-tail branch at a bound where its proposal is far off
        from scipy.stats import truncnorm

        rng = np.random.default_rng(16)
        draws = variates._normal_tail(np.full(4000, 1.0), np.full(4000, 2.5), rng)
        assert draws.min() >= 1.0 and draws.max() <= 2.5
        assert kstest(draws, truncnorm(1.0, 2.5).cdf).pvalue > 1e-3

    class BoundedUniforms:
        """A generator's uniforms, failing the test once ``budget`` calls
        are spent: a rejection loop that never ends fails instead of hanging."""

        def __init__(self, seed, budget=200, stuck=False):
            self.rng, self.budget, self.stuck = np.random.default_rng(seed), budget, stuck

        def random(self, size=None):
            self.budget -= 1
            assert self.budget >= 0, "rejection loop did not end"
            return np.full(size, 1.0 - 2.0 ** -53) if self.stuck else self.rng.random(size)

    @pytest.mark.parametrize("mean", [1e10, 1e150, 1e160, -1e150, -1e160])
    def test_far_mean_gives_the_near_endpoint(self, mean):
        # the conditional law sits within 1 / |mean| of the near endpoint;
        # at 1e150 the standardized interval rounds to one point, and at
        # 1e160 its square overflows
        got = truncated_normal_sample(np.array([mean]), np.array([1.0]), -4.0, 4.0,
                                      self.BoundedUniforms(0))
        assert got.tolist() == [math.copysign(4.0, mean)]

    def test_tail_rejection_is_capped(self):
        # uniforms next to 1 propose the far end, and each proposal is rejected
        with pytest.raises(RuntimeError, match="stalled"):
            variates._normal_tail(np.full(3, 40.0), np.full(3, 41.0),
                                self.BoundedUniforms(0, budget=10 ** 4, stuck=True))


# Reference versions of the Monte-Carlo event tests as row-wise
# (axis=1) reductions over broadcast inverse-Gaussian parameters; the
# library reduces column by column and must give the same bits.


def _mc_estimate(hit):
    """Monte-Carlo probability of an event and its binomial standard error."""
    p = hit.mean()
    return float(p), math.sqrt(max(p * (1.0 - p), 1e-300) / hit.size)


def _nig_sample_axis1(params, rng, size):
    a = params.alphas
    out = np.zeros((size, a.size))
    pos = a > 0
    mu = np.broadcast_to(a[pos], (size, pos.sum()))
    nu = rng.standard_normal(mu.shape) ** 2
    out[:, pos] = variates._ig_transform(mu, mu ** 2, nu, rng.random(mu.shape))
    out /= out.sum(axis=1, keepdims=True)
    return out


def _py_sticks_axis1(v, eps, c, d, n_mc, rng):
    n = v.size
    js = np.arange(1, n + 1)
    # the library's stick law: gamma ratios, drawn cell by cell
    g_a = rng.standard_gamma(1.0 - d, size=(n, n_mc)).T
    g_b = rng.standard_gamma((c + d * js)[:, None], size=(n, n_mc)).T
    draws = g_a / (g_a + g_b)
    dist = ((n - js + 1.0) * np.abs(draws - v)).sum(axis=1)
    return _mc_estimate((dist <= 2.0 * eps) & (draws.min(axis=1) > eps / n ** 2))


def _py_locations_axis1(z, eps, a, n_mc, rng):
    draws = BaseMeasure("gaussian", 1.0).sample(rng, (n_mc, z.size))
    return _mc_estimate(np.abs(draws - z).sum(axis=1) <= eps)


def _nig_axis1(z0, eps, alphas, n_mc, rng):
    draws = _nig_sample_axis1(NIGParams(alphas), rng, n_mc)
    return _mc_estimate(
        (np.abs(draws - z0).sum(axis=1) <= 2.0 * eps) & (draws.min(axis=1) > eps ** 2 / 2.0)
    )


_AXIS1_ORACLES = {
    "py-sticks": (prior_mass._PY_STICKS_GRID, prior_mass._py_sticks_case, _py_sticks_axis1),
    "py-locations": (prior_mass._PY_LOCATIONS_GRID, prior_mass._py_locations_case,
                     _py_locations_axis1),
    "nig": (prior_mass._NIG_GRID, prior_mass._nig_case, _nig_axis1),
}


class TestColumnReductions:
    @pytest.mark.parametrize(
        "lemma, index",
        [(lemma, i) for lemma, (grid, _, _) in _AXIS1_ORACLES.items() for i in range(len(grid))],
    )
    def test_simulate_matches_axis1_oracle(self, lemma, index):
        grid, case, oracle = _AXIS1_ORACLES[lemma]
        config = grid[index]
        _, simulate, _ = case(*config)
        got = simulate(1000, np.random.default_rng(index))
        want = oracle(*config, 1000, np.random.default_rng(index))
        assert got == want

    @pytest.mark.parametrize("alphas", [[0.5, 2.0], [0.0, 1.0, 0.3], np.full(4, 0.25),
                                        np.linspace(0.0, 1.0, 9), np.full(64, 0.1)])
    def test_nig_sample_matches_axis1_oracle(self, alphas):
        params = NIGParams(np.asarray(alphas, dtype=float))
        got = nig_sample(params, np.random.default_rng(4), size=500)
        want = _nig_sample_axis1(params, np.random.default_rng(4), 500)
        assert np.array_equal(got, want)

    def test_nig_sample_in_blocks_matches_axis1_oracle(self):
        # two and a half blocks of the in-place inverse-Gaussian transform
        params = NIGParams(np.array([0.0, 1.0, 0.3]))
        size = 2 * priors._IG_BLOCK + priors._IG_BLOCK // 2
        got = nig_sample(params, np.random.default_rng(5), size=size)
        assert np.array_equal(got, _nig_sample_axis1(params, np.random.default_rng(5), size))

    @pytest.mark.parametrize("alphas", [[0.5, 2.0], [0.0, 1.0, 0.3], np.full(64, 0.1)])
    def test_nig_sample_rows_are_c_contiguous(self, alphas):
        # callers reduce along axis 0, whose bits depend on the memory order
        z = nig_sample(NIGParams(np.asarray(alphas, dtype=float)), np.random.default_rng(4), 50)
        assert z.shape == (50, len(alphas)) and z.flags.c_contiguous

    @pytest.mark.parametrize("n_cols", range(1, 11))
    def test_across_columns_matches_axis1_reduce(self, n_cols):
        rng = np.random.default_rng(n_cols)
        draws = rng.random((2000, n_cols)) * 10.0 ** rng.uniform(-8, 8, (2000, n_cols))
        for op in (np.add, np.minimum):
            assert np.array_equal(priors._across_columns(op, draws), op.reduce(draws, axis=1))
