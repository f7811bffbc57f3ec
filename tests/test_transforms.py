import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermix import (
    DELTA_DEFAULT,
    coefficients,
    convolve,
    gaussian_smoothing_error,
    kernel_grid,
    lp_norm,
    make_nonnegative,
    parse_kernel_id,
    spectral_symbol_check,
    transform_analytic,
    transform_sobolev,
)
from supermix.errors import CutoffAboveNyquist, SeriesNotConverged
from supermix.gridfn import GridFunction
from supermix.kernels import KernelSpec
from supermix.transforms import MAX_ORDER


def fit_slope(xs, ys):
    A = np.vstack([xs, np.ones(len(xs))]).T
    return np.linalg.lstsq(A, ys, rcond=None)[0][0]


class TestCoefficients:
    def test_known_values(self):
        coef = coefficients(10)
        assert coef.d[2] == 0.5
        assert coef.c[4] == -0.25
        assert coef.d[4] == -0.125  # 1/8 - 1/4
        assert coef.c[3] == 0.0 and coef.d[3] == 0.0

    def test_even_moments_double_factorial(self):
        coef = coefficients(12)
        assert coef.m[2] == 1.0
        assert coef.m[4] == 3.0
        assert coef.m[6] == 15.0
        assert coef.m[12] == 10395.0

    def test_c4_finite_sum_oracle(self):
        # direct evaluation of -sum_{k+l=4} m_k m_l / (k! l!)
        m = {1: 0.0, 2: 1.0, 3: 0.0}
        direct = -sum(
            m[k] * m[4 - k] / (math.factorial(k) * math.factorial(4 - k))
            for k in range(1, 4)
        )
        assert coefficients(6).c[4] == direct

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_odd_coefficients_vanish(self, j_max):
        coef = coefficients(j_max)
        odd = np.arange(1, j_max + 1, 2)
        assert np.all(coef.c[odd] == 0.0)
        assert np.all(coef.d[odd] == 0.0)

    def test_absolute_sum_bound(self):
        # sum |d_j| stays below (sqrt(e) - 1) sqrt(e) at every truncation
        bound = (math.sqrt(math.e) - 1.0) * math.sqrt(math.e)
        for j_max in (10, 40, 120):
            assert np.abs(coefficients(j_max).d).sum() <= bound


def exact_recursion(max_order):
    """m, c and d up to ``max_order`` in exact rational arithmetic, each
    entry rounded once to binary64: m by the double-factorial recursion,
    c_j = -sum_{0<k<j} m_k m_{j-k} / (k! (j-k)!) from j = 3 on, and
    d_j = (-1)^j m_j / j! + c_j from j = 2 on."""
    m = [Fraction(0)] * (max_order + 1)
    m[0] = Fraction(1)
    for j in range(2, max_order + 1, 2):
        m[j] = m[j - 2] * (j - 1)
    fact = [Fraction(math.factorial(j)) for j in range(max_order + 1)]
    c = [Fraction(0)] * (max_order + 1)
    d = [Fraction(0)] * (max_order + 1)
    d[2] = m[2] / fact[2]
    for j in range(3, max_order + 1):
        c[j] = -sum(m[k] * m[j - k] / (fact[k] * fact[j - k]) for k in range(1, j))
        d[j] = (-1) ** j * m[j] / fact[j] + c[j]
    return tuple(np.array([float(v) for v in seq]) for seq in (m, c, d))


class TestCoefficientTable:
    def test_every_entry_is_the_rounded_exact_recursion(self):
        table = coefficients(MAX_ORDER)
        for name, exact in zip("mcd", exact_recursion(MAX_ORDER)):
            assert getattr(table, name).tobytes() == exact.tobytes(), name

    @pytest.mark.parametrize("max_order", [2, 40, MAX_ORDER])
    def test_arrays_are_read_only(self, max_order):
        coef = coefficients(max_order)
        for name in "mcd":
            with pytest.raises(ValueError, match="read-only"):
                getattr(coef, name)[2] = 1.0
        assert coefficients(MAX_ORDER).d[2] == 0.5

    @pytest.mark.parametrize("max_order", [0, 1, MAX_ORDER + 1, 2000])
    def test_orders_outside_the_table_raise(self, max_order):
        with pytest.raises(ValueError, match=f"series order must be in 2..{MAX_ORDER}"):
            coefficients(max_order)

    @pytest.mark.parametrize("order", [MAX_ORDER + 1, 2000, 10 ** 9])
    def test_transforms_above_the_table_raise(self, phi1, order):
        # orders from 340 on used to fail in the rational-to-float rounding
        # (exit 1), and order 2000 ran for minutes
        with pytest.raises(ValueError, match=f"got {order}"):
            transform_analytic(phi1, 0.3, order=order)
        with pytest.raises(ValueError, match=f"got {order}"):
            transform_sobolev(phi1, 0.3, order + 1)

    def test_order_at_the_table_end_runs(self, phi1):
        analytic = transform_analytic(phi1, 0.3, order=MAX_ORDER)
        sobolev = transform_sobolev(phi1, 0.3, MAX_ORDER + 1)
        assert np.array_equal(analytic.t_sigma.values, sobolev.t_sigma.values)


class TestSymbolIdentity:
    def test_converged_truncation(self):
        assert spectral_symbol_check(40, 0.5) <= 1e-10

    def test_short_truncation_remainder(self):
        # J = 2 leaves the exponential series remainder at u = 0.5
        dev = spectral_symbol_check(2, 0.5)
        closed = 3 - 3 * math.exp(-0.5) + math.exp(-1.0)
        assert abs(dev - abs(1.5 - closed)) <= 1e-12
        assert dev > 1e-3

    def test_zero_band(self):
        assert spectral_symbol_check(40, 0.0) == 0.0


class TestTransformAnalytic:
    def test_band_limited_truth_follows_cubic_residual_law(self, fvp):
        # with the stated coefficients the in-band symbol is the degree-2
        # truncation of the exact smoothing inverse, so a band-limited
        # truth keeps the exact residual spectrum -fhat * (1 - e^{-u})^3
        # instead of vanishing outright; the law is testable to rounding
        t = fvp.freqs()
        dt = 2 * math.pi / (fvp.n_points * fvp.dx)
        for sigma, cap in ((0.9, 1e-3), (0.5, 2e-5)):
            res = transform_analytic(fvp, sigma)
            err = gaussian_smoothing_error(res, fvp)
            w = 1.0 - np.exp(-((sigma * t) ** 2) / 2.0)
            band = np.abs(t) <= 1.0 / sigma
            law = (np.abs(fvp.spectrum) * w ** 3)[band].sum() * dt / (2 * math.pi)
            assert err <= cap
            assert abs(err - law) <= 1e-6 * law + 1e-15

    def test_mass_defect(self, phi1):
        res = transform_analytic(phi1, 0.3)
        assert res.mass_defect <= 1e-6

    def test_cauchy_error_slope(self, cauchy1):
        sigmas = [0.5, 0.4, 0.3, 0.25, 0.2]
        errs = [gaussian_smoothing_error(transform_analytic(cauchy1, s), cauchy1)
                for s in sigmas]
        slope = fit_slope([1.0 / s for s in sigmas], np.log(errs))
        assert -1.1 <= slope <= -0.8

    def test_error_monotone_in_inverse_bandwidth(self, phi1, cauchy1):
        sigmas = [0.5, 0.4, 0.3, 0.25, 0.2]
        for f in (phi1, cauchy1):
            errs = [gaussian_smoothing_error(transform_analytic(f, s), f) for s in sigmas]
            assert np.all(np.diff(errs) < 0)

    def test_three_term_convolution_assembly(self, phi1):
        # oracle: 3 f - 3 f*phi_s + f*phi_s*phi_s assembled by convolution.
        # The two sides agree in-band exactly; the gap is the out-of-band
        # spectral tail, which carries the same exp(-alpha (rho/sigma)^2)
        # envelope as the smoothing error (measured: 2.2e-4 at sigma = 0.3,
        # 1.5e-7 at sigma = 0.2).
        smooth = kernel_grid(parse_kernel_id("gaussian:0.3"))
        rhs = 3.0 * phi1 - 3.0 * convolve(phi1, smooth) + convolve(
            convolve(phi1, smooth), smooth
        )
        res = transform_analytic(phi1, 0.3)
        gap_03 = lp_norm(res.t_sigma - rhs, math.inf)
        rho_sq = 0.5  # (1/sqrt(2))^2 for the standard normal
        assert gap_03 <= math.exp(-0.85 * rho_sq / 0.3 ** 2)
        assert gap_03 <= 1e-3

        smooth2 = kernel_grid(parse_kernel_id("gaussian:0.2"))
        rhs2 = 3.0 * phi1 - 3.0 * convolve(phi1, smooth2) + convolve(
            convolve(phi1, smooth2), smooth2
        )
        res2 = transform_analytic(phi1, 0.2)
        assert lp_norm(res2.t_sigma - rhs2, math.inf) <= 1e-6

    @pytest.mark.parametrize("order", [0, 1, 3, 8, 9])
    def test_series_not_converged(self, phi1, order):
        # an odd order is judged by its last even term: odd d's vanish
        with pytest.raises(SeriesNotConverged):
            transform_analytic(phi1, 0.3, order=order)

    def test_cutoff_above_nyquist(self, phi1):
        with pytest.raises(CutoffAboveNyquist):
            transform_analytic(phi1, 1e-4)


class TestTransformSobolev:
    def test_order_one_is_identity(self, phi1):
        res = transform_sobolev(phi1, 0.3, 1)
        assert np.array_equal(res.t_sigma.values, phi1.values)
        # the error is then the plain smoothing error
        direct = gaussian_smoothing_error(res, phi1)
        smooth = kernel_grid(parse_kernel_id("gaussian:0.3"))
        assert abs(direct - lp_norm(convolve(phi1, smooth) - phi1, math.inf)) <= 1e-12

    def test_order_two_slope(self, phi1):
        sigmas = [0.4, 0.3, 0.2, 0.15, 0.1]
        errs = [gaussian_smoothing_error(transform_sobolev(phi1, s, 2), phi1)
                for s in sigmas]
        slope = fit_slope(np.log(sigmas), np.log(errs))
        assert slope >= 1.25

    def test_superkernel_variant_mass(self, phi1):
        sk = KernelSpec("superkernel", 1.0, (1.0, 2.0))
        res = transform_sobolev(phi1, 0.3, 3, superkernel=sk)
        assert res.mass_defect <= 1e-8

    @pytest.mark.parametrize("sigma", [-0.3, math.nan, 0.0])
    def test_bad_sigma_raises(self, phi1, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            transform_sobolev(phi1, sigma, 2)

    @pytest.mark.parametrize("name", ["gaussian:1", "cauchy:1"])
    def test_same_builder_as_analytic(self, name):
        # with sinc, truncation at k0 - 1 = J is the analytic transform at J
        f = kernel_grid(parse_kernel_id(name))
        analytic = transform_analytic(f, 0.3)
        assert analytic.truncation_order == 34
        sobolev = transform_sobolev(f, 0.3, 35)
        assert np.array_equal(sobolev.t_sigma.values, analytic.t_sigma.values)
        assert np.array_equal(sobolev.t_sigma.spectrum, analytic.t_sigma.spectrum)


class TestMakeNonnegative:
    def test_floor_holds_pointwise(self, phi1):
        res = transform_analytic(phi1, 0.3)
        nn = make_nonnegative(res, phi1)
        assert np.all(nn.g.values >= DELTA_DEFAULT * phi1.values)

    def test_default_delta_value(self):
        assert abs(DELTA_DEFAULT - (1.0 - math.sqrt(math.e) / 2.0)) <= 1e-15

    def test_mass_close_to_one(self, phi1):
        # the floor correction absorbs the transform's tail dips; its mass
        # cost tracks the residual size (measured 1.0e-3 / 9.5e-5 / 9.1e-7
        # at sigma = 0.3 / 0.25 / 0.2)
        for sigma, cap in ((0.3, 2e-3), (0.25, 1e-4), (0.2, 1e-5)):
            nn = make_nonnegative(transform_analytic(phi1, sigma), phi1)
            assert abs(nn.mass - 1.0) <= cap
            assert abs(nn.h.integral() - 1.0) <= 1e-12

    def test_mass_at_least_delta(self, phi1):
        res = transform_analytic(phi1, 0.45)
        nn = make_nonnegative(res, phi1)
        assert nn.mass >= DELTA_DEFAULT

    def test_smoothing_error_budget(self, phi1):
        # normalized floor-corrected density loses at most a factor 10
        for sigma in (0.4, 0.3, 0.25):
            res = transform_analytic(phi1, sigma)
            nn = make_nonnegative(res, phi1)
            base_err = gaussian_smoothing_error(res, phi1)
            t = phi1.freqs()
            gauss = np.exp(-((sigma * t) ** 2) / 2.0)
            smoothed = GridFunction.from_spectrum(
                phi1.half_width, phi1.n_points, nn.h.spectrum * gauss
            )
            h_err = lp_norm(smoothed - phi1, math.inf)
            assert h_err <= 10.0 * base_err
