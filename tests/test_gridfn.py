import math

import numpy as np
import pytest

from supermix import GridFunction, band_limit, convolve, lp_norm, spectral_derivative
from supermix.errors import AliasingRisk, CutoffAboveNyquist, GridMismatch, InvalidP
from supermix.kernels import kernel_grid, parse_kernel_id


def gaussian_values(x, sigma):
    return np.exp(-((x / sigma) ** 2) / 2) / (sigma * math.sqrt(2 * math.pi))


def test_spectrum_roundtrip_consistency(phi1):
    back = GridFunction.from_spectrum(phi1.half_width, phi1.n_points, phi1.spectrum)
    rel = np.abs(back.values - phi1.values).max() / np.abs(phi1.values).max()
    assert rel <= 1e-12


def test_gaussian_spectrum_closed_form(phi1):
    t = phi1.freqs()
    assert np.abs(phi1.spectrum - np.exp(-(t ** 2) / 2)).max() <= 1e-10


def test_power_of_two_required():
    with pytest.raises(ValueError):
        GridFunction(10.0, np.zeros(1000))


def test_spectrum_length_must_match_grid():
    with pytest.raises(ValueError):
        GridFunction.from_spectrum(10.0, 1024, np.ones(512))


class TestExactPhase:
    """The grid origin's phase exp(-i t_m X) is exactly (-1)^m."""

    @pytest.mark.parametrize("half_width, n", [(40.0, 2 ** 14), (16.0, 2 ** 11),
                                               (640.0, 2 ** 18)])
    def test_flat_spectrum_is_exact_spike(self, half_width, n):
        f = GridFunction.from_spectrum(half_width, n, np.ones(n))
        spike = np.zeros(n)
        spike[n // 2] = 1.0 / f.dx
        assert f.grid()[n // 2] == 0.0
        assert np.array_equal(f.values, spike)

    def test_mirror_symmetric_samples_have_real_spectrum(self):
        f = GridFunction.from_callable(40.0, 2 ** 14, lambda x: np.exp(-x ** 2 / 2))
        assert np.abs(f.spectrum.imag).max() <= 1e-15

    def test_catalog_gaussian_is_mirror_symmetric(self, gaussian_truth):
        v = gaussian_truth.f.values
        assert np.abs(v[1:] - v[:0:-1]).max() <= 2.3e-16


class TestConvolve:
    def test_gaussian_self_convolution(self, phi1):
        conv = convolve(phi1, phi1)
        target = gaussian_values(phi1.grid(), math.sqrt(2.0))
        assert np.abs(conv.values - target).max() <= 1e-10

    def test_unit_spike_is_identity(self, phi1):
        vals = np.zeros(phi1.n_points)
        vals[phi1.n_points // 2] = 1.0 / phi1.dx  # discrete delta at x = 0
        spike = GridFunction(phi1.half_width, vals)
        conv = convolve(phi1, spike)
        assert np.abs(conv.values - phi1.values).max() <= 1e-8

    def test_fvp_gaussian_integral(self, fvp):
        half = kernel_grid(parse_kernel_id("gaussian:0.5"))
        with pytest.warns(AliasingRisk):
            conv = convolve(fvp, half)
        assert abs(conv.integral() - 1.0) <= 1e-10

    def test_direct_quadrature_oracle(self):
        # coarse-grid O(n^2) convolution vs the spectral path
        X, n = 20.0, 512
        f = kernel_grid(parse_kernel_id("gaussian:1"), X, n)
        g = kernel_grid(parse_kernel_id("gaussian:0.5"), X, n)
        conv = convolve(f, g)
        x = f.grid()
        direct = np.array(
            [(f.values * np.interp(xi - x, x, g.values, left=0, right=0)).sum() * f.dx
             for xi in x[::16]]
        )
        assert np.abs(conv.values[::16] - direct).max() <= 1e-6

    def test_integral_product_rule(self, phi1, fvp):
        with pytest.warns(AliasingRisk):
            conv = convolve(fvp, phi1)
        assert abs(conv.integral() - fvp.integral() * phi1.integral()) <= 1e-10

    def test_grid_mismatch(self, phi1):
        other = kernel_grid(parse_kernel_id("gaussian:1"), 20.0, 2 ** 12)
        with pytest.raises(GridMismatch):
            convolve(phi1, other)

    def test_commutes_and_associates(self, phi1):
        rng = np.random.default_rng(0)
        t = phi1.freqs()
        for _ in range(5):
            s1, s2 = rng.uniform(0.5, 2.0, 2)
            f = GridFunction.from_spectrum(
                phi1.half_width, phi1.n_points,
                np.exp(-(s1 * t) ** 2 / 2) * (np.abs(t) < 40),
            )
            g = GridFunction.from_spectrum(
                phi1.half_width, phi1.n_points,
                np.exp(-(s2 * t) ** 2 / 2) * (np.abs(t) < 40),
            )
            assert np.abs(convolve(f, g).values - convolve(g, f).values).max() <= 1e-10
            lhs = convolve(convolve(f, g), phi1)
            rhs = convolve(f, convolve(g, phi1))
            assert np.abs(lhs.values - rhs.values).max() <= 1e-10


class TestBandLimit:
    def test_fvp_invariant_below_support(self, fvp):
        for cutoff in (1.0, 2.0, 10.0):
            assert lp_norm(band_limit(fvp, cutoff) - fvp, math.inf) <= 1e-12

    def test_nyquist_cutoff_is_identity(self, phi1):
        bl = band_limit(phi1, phi1.nyquist)
        assert np.abs(bl.values - phi1.values).max() <= 1e-12

    def test_above_nyquist_raises(self, phi1):
        with pytest.raises(CutoffAboveNyquist):
            band_limit(phi1, phi1.nyquist * 1.01)

    @pytest.mark.parametrize("cutoff", [-1.0, math.nan, 0.0])
    def test_bad_cutoff_raises(self, phi1, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite and positive"):
            band_limit(phi1, cutoff)

    def test_projection_exact(self, phi1):
        once = band_limit(phi1, 2.0)
        twice = band_limit(once, 2.0)
        assert np.array_equal(once.values, twice.values)
        assert np.array_equal(once.spectrum, twice.spectrum)

    def test_l2_error_matches_tail_integral(self, phi1):
        # oracle: quadrature of the spectral tail of the standard normal
        from scipy.special import erfc

        err = lp_norm(band_limit(phi1, 2.0) - phi1, 2)
        tail = math.sqrt(math.pi) * erfc(2.0)  # int_{|t|>2} e^{-t^2} dt
        expected = math.sqrt(tail / (2 * math.pi))
        assert abs(err - expected) / expected <= 0.01


class TestSpectralDerivative:
    def test_gaussian_first_derivative(self, phi1):
        d1 = spectral_derivative(phi1, 1)
        x = phi1.grid()
        assert np.abs(d1.values - (-x * phi1.values)).max() <= 1e-8

    def test_gaussian_second_derivative(self, phi1):
        d2 = spectral_derivative(phi1, 2)
        x = phi1.grid()
        assert np.abs(d2.values - (x ** 2 - 1) * phi1.values).max() <= 1e-8

    def test_fourth_derivative_vs_finite_differences(self, fvp):
        f = band_limit(fvp, 1.0)
        d4 = spectral_derivative(f, 4)
        v, h = f.values, f.dx
        stencil = (v[:-4] - 4 * v[1:-3] + 6 * v[2:-2] - 4 * v[3:-1] + v[4:]) / h ** 4
        assert np.abs(d4.values[2:-2] - stencil).max() <= 1e-4

    def test_commutes_with_convolution(self, phi1):
        g = kernel_grid(parse_kernel_id("gaussian:0.7"))
        lhs = spectral_derivative(convolve(phi1, g), 2)
        rhs = convolve(spectral_derivative(phi1, 2), g)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-9


class TestLpNorm:
    def test_density_mass(self, phi1):
        assert abs(lp_norm(phi1, 1) - 1.0) <= 1e-10

    def test_sup_norm(self, phi1):
        assert abs(lp_norm(phi1, math.inf) - 1 / math.sqrt(2 * math.pi)) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3.5, 100, 1000, 1e300])
    @pytest.mark.parametrize("scale", [1e-200, 1e-5, 1.0, 1e200])
    def test_finite_p_is_homogeneous_and_below_the_sup(self, phi1, p, scale):
        # max|f|^p underflowed or overflowed at large p or extreme values:
        # p = 1000 gave 0 for the standard normal, whose sup is 0.399
        sup = lp_norm(phi1, math.inf)
        norm = lp_norm(GridFunction(phi1.half_width, scale * phi1.values), p)
        assert norm == pytest.approx(scale * lp_norm(phi1, p), rel=1e-12)
        # the Riemann sum holds the largest term and at most n of them
        lo, hi = phi1.dx ** (1.0 / p), (phi1.n_points * phi1.dx) ** (1.0 / p)
        assert scale * sup * lo * (1 - 1e-12) <= norm <= scale * sup * hi * (1 + 1e-12)

    def test_invalid_p(self, phi1):
        with pytest.raises(InvalidP):
            lp_norm(phi1, 0.5)

    def test_fvp_l2_plancherel(self, fvp):
        # oracle: Plancherel sum over the closed-form transform samples
        t = fvp.freqs()
        dt = 2 * math.pi / (fvp.n_points * fvp.dx)
        closed = np.clip(1.0 - np.abs(t), 0.0, None)
        plancherel = math.sqrt((closed ** 2).sum() * dt / (2 * math.pi))
        assert abs(lp_norm(fvp, 2) - plancherel) <= 1e-8

    def test_parseval_identity(self, phi1):
        dt = 2 * math.pi / (phi1.n_points * phi1.dx)
        rhs = (np.abs(phi1.spectrum) ** 2).sum() * dt / (2 * math.pi)
        lhs = lp_norm(phi1, 2) ** 2
        assert abs(lhs - rhs) / rhs <= 1e-10
