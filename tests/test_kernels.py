import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from supermix import (
    KernelSpec,
    convolve,
    kernel_grid,
    lp_norm,
    parse_kernel_id,
    sinc_approx_error,
    sinc_quadratic_variation,
    supersmooth_class,
)
from supermix.errors import (
    CutoffAboveNyquist,
    InvalidP,
    InvalidShape,
    ScaleTooSmall,
    UnknownFamily,
)
from supermix.kernels import FAMILIES


def fit_slope(xs, ys):
    A = np.vstack([xs, np.ones(len(xs))]).T
    return np.linalg.lstsq(A, ys, rcond=None)[0][0]


class TestCatalog:
    def test_sinc_at_zero(self):
        # the removable singularity: sinc(0) = 1/pi
        sinc = KernelSpec("sinc", 1.0).density_fn()
        assert abs(sinc(np.array([0.0]))[0] - 1.0 / math.pi) <= 1e-15
        x = np.array([math.pi / 2, math.pi])
        assert np.abs(sinc(x) - np.sin(x) / (math.pi * x)).max() <= 1e-15

    def test_gaussian_spectrum(self, phi1):
        t = phi1.freqs()
        assert np.abs(phi1.spectrum - np.exp(-(t ** 2) / 2)).max() <= 1e-10

    def test_unit_mass_families(self):
        for name in ("gaussian:1", "cauchy:1", "stable:1.5:1", "student_t:3:1", "fvp:1"):
            f = kernel_grid(parse_kernel_id(name))
            assert abs(f.integral() - 1.0) <= 1e-8, name
            # symmetric and non-negative (up to rounding)
            assert f.values.min() >= -1e-12, name
            v = f.values
            assert np.abs(v[1:] - v[1:][::-1]).max() <= 1e-9, name

    def test_sinc_superkernel_band_limited_mass(self):
        for name in ("sinc:0.5", "superkernel:1:2:1"):
            f = kernel_grid(parse_kernel_id(name))
            assert abs(f.integral() - 1.0) <= 1e-8, name

    def test_stable_density_vs_quadrature_inversion(self):
        # oracle: adaptive quadrature of the inversion integral; a wide
        # grid keeps periodization below the comparison tolerance
        f = kernel_grid(parse_kernel_id("stable:1.5:1"), 640.0, 2 ** 18)
        x = f.grid()
        for xv in (0.0, 0.7, 2.3):
            idx = np.argmin(np.abs(x - xv))
            xg = x[idx]
            target, _ = quad(
                lambda t: math.exp(-t ** 1.5) * math.cos(t * xg) / math.pi, 0, 60,
                limit=200,
            )
            assert abs(f.values[idx] - target) <= 1e-7

    def test_scale_too_small(self):
        with pytest.raises(ScaleTooSmall):
            kernel_grid(parse_kernel_id("gaussian:0.001"))

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            parse_kernel_id("epanechnikov:1")

    def test_decay_envelope_from_t2(self):
        # |fhat(t)| <= C exp(-(rho |t|)^r) beyond |t| = 2, C fitted there
        for name in ("gaussian:1", "cauchy:1", "stable:1.5:1", "fvp:1"):
            cat = parse_kernel_id(name)
            f = kernel_grid(cat)
            cls = supersmooth_class(cat, f)
            t = f.freqs()
            spec = np.abs(f.spectrum)
            env = cls.envelope(t)
            at2 = np.argmin(np.abs(t - 2.0))
            c = spec[at2] / env[at2] if env[at2] > 0 else 1.0
            sel = np.abs(t) >= 2.0
            assert np.all(spec[sel] <= (c + 1e-9) * env[sel] + 1e-13), name

    def test_decay_integral_finite(self, gaussian_truth):
        val = gaussian_truth.smooth.decay_integral(gaussian_truth.f)
        assert np.isfinite(val)
        assert val <= 2 * math.pi * gaussian_truth.smooth.L + 1e-6


#: valid shape tuples of each family, for the id round trip
POSITIVE = st.floats(min_value=0.0, max_value=1e150, exclude_min=True)
SHAPES = {
    "gaussian": st.just(()),
    "cauchy": st.just(()),
    "stable": st.tuples(st.floats(min_value=0.0, max_value=2.0, exclude_min=True)),
    "student_t": st.tuples(POSITIVE),
    "fvp": st.just(()),
    "sinc": st.just(()),
    "superkernel": st.tuples(POSITIVE, POSITIVE).filter(lambda fc: fc[0] < fc[1]),
}


class TestKernelIds:
    @pytest.mark.parametrize(
        "text, family, scale, shape",
        [("gaussian", "gaussian", 1.0, ()),
         ("gaussian:0.5", "gaussian", 0.5, ()),
         ("stable:1.5", "stable", 1.0, (1.5,)),
         ("stable:1.5:2", "stable", 2.0, (1.5,)),
         ("student_t:3:1", "student_t", 1.0, (3.0,)),
         ("superkernel", "superkernel", 1.0, (1.0, 2.0)),
         ("superkernel:1:3", "superkernel", 1.0, (1.0, 3.0)),
         ("superkernel:1:3:0.5", "superkernel", 0.5, (1.0, 3.0))],
    )
    def test_grammar(self, text, family, scale, shape):
        assert parse_kernel_id(text) == KernelSpec(family, scale, shape)

    @pytest.mark.parametrize(
        "text",
        ["gaussian:1:2", "cauchy:1:2:3", "stable", "stable:1.5:1:9", "student_t",
         "superkernel:1.5", "superkernel:1:2:1:1"],
    )
    def test_field_count_outside_grammar_raises(self, text):
        with pytest.raises(InvalidShape):
            parse_kernel_id(text)

    def test_shape_is_a_tuple(self):
        assert KernelSpec("gaussian").shape == ()
        assert KernelSpec("stable", 1.0, 0.5).shape == (0.5,)
        assert KernelSpec("superkernel").shape == (1.0, 2.0)
        with pytest.raises(InvalidShape):
            KernelSpec("superkernel", 1.0, 1.5)
        with pytest.raises(InvalidShape):
            KernelSpec("gaussian", 1.0, 1.0)

    @pytest.mark.parametrize(
        "spec, text",
        [(KernelSpec("gaussian"), "gaussian:1"),
         (KernelSpec("gaussian", 0.123456789), "gaussian:0.123456789"),
         (KernelSpec("stable", 1.0, 1.5), "stable:1.5:1"),
         (KernelSpec("superkernel"), "superkernel:1:2:1"),
         (KernelSpec("cauchy", 1e-05), "cauchy:1e-05")],
    )
    def test_id_text(self, spec, text):
        assert spec.id() == text

    def test_every_family_has_a_shape_strategy(self):
        assert set(SHAPES) == set(FAMILIES)

    @given(st.sampled_from(FAMILIES).flatmap(
        lambda family: st.builds(KernelSpec, st.just(family), POSITIVE, SHAPES[family])))
    @settings(max_examples=300, deadline=None)
    def test_id_round_trip(self, spec):
        assert parse_kernel_id(spec.id()) == spec


class TestStudentT:
    """Transform computed numerically; only the envelope shape is asserted."""

    @pytest.fixture(scope="class")
    def t3_transform(self):
        nu = 3.0
        c = math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))

        def density(x):
            return c * (1 + x ** 2 / nu) ** (-(nu + 1) / 2)

        ts = np.linspace(5.0, 12.0, 15)
        vals = []
        for t in ts:
            v, _ = quad(density, 0, np.inf, weight="cos", wvar=t)
            vals.append(2 * v)
        return ts, np.abs(vals)

    def test_envelope_shape(self, t3_transform):
        # |fhat| ~ C (sqrt(3) t) e^{-sqrt(3) t}: fit C at t = 5, require the
        # ratio to stay within a factor 3 on [5, 12]
        ts, vals = t3_transform
        env = (math.sqrt(3) * ts) * np.exp(-math.sqrt(3) * ts)
        c = vals[0] / env[0]
        ratio = vals / (c * env)
        assert np.all(ratio < 3.0) and np.all(ratio > 1 / 3.0)

    def test_exponential_slope(self, t3_transform):
        ts, vals = t3_transform
        slope = fit_slope(ts, np.log(vals))
        assert abs(slope - (-math.sqrt(3))) / math.sqrt(3) <= 0.1


    @pytest.mark.parametrize("nu", [1.0, 3.0, 30.0, 300.0, 400.0, 1000.0])
    def test_density_at_zero_matches_mpmath(self, nu):
        # the normalizing constant Gamma((nu+1)/2) / (sqrt(nu pi) Gamma(nu/2))
        # stays finite where either gamma alone overflows a float
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = float(mpmath.gamma((nu + 1) / 2)
                          / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)))
        got = KernelSpec("student_t", 1.0, nu).density_fn()(np.zeros(1))[0]
        assert abs(got - exact) <= 1e-12 * exact


class TestSuperkernel:
    def test_trapezoid_values(self):
        spec = KernelSpec("superkernel", 1.0, (1.0, 2.0)).char_fn()
        assert spec(np.array([0.5]))[0] == 1.0
        assert spec(np.array([1.5]))[0] == 0.5
        assert spec(np.array([2.5]))[0] == 0.0

    def test_unit_integral(self):
        S = kernel_grid(KernelSpec("superkernel", 1.0, (1.0, 2.0)))
        assert abs(S.integral() - 1.0) <= 1e-10

    def test_absolute_mass(self):
        S = kernel_grid(KernelSpec("superkernel", 1.0, (1.0, 2.0)))
        grid_l1 = lp_norm(S, 1)
        # oracle: direct quadrature of |cos x - cos 2x| / (pi x^2)
        body, _ = quad(
            lambda x: abs(math.cos(x) - math.cos(2 * x)) / (math.pi * x ** 2),
            1e-8, 2000.0, limit=4000,
        )
        oracle = 2 * body + 4 / (math.pi * 2000.0)  # symmetric + tail cap
        assert grid_l1 <= 2.2
        assert abs(grid_l1 - oracle) <= 0.02

    def test_strictly_below_one_outside_flat(self):
        S = kernel_grid(KernelSpec("superkernel", 1.0, (1.0, 2.0)))
        t = S.freqs()
        outside = np.abs(t) > 1.0
        assert np.all(np.abs(S.spectrum[outside]) < 1.0)

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            kernel_grid(KernelSpec("superkernel", 1.0, (2.0, 1.0)))


class TestSincApproxError:
    def test_fvp_error_vanishes(self, fvp_truth):
        for sigma in (1.0, 0.7, 0.5):
            for p in (2, 5, math.inf):
                err = sinc_approx_error(fvp_truth.f, fvp_truth.smooth, sigma, p)
                assert err <= 1e-12

    def test_gaussian_tail_bound(self, gaussian_truth):
        # (2 pi)^{-1} sum_{|t|>4} |fhat| dt bounds the sup error exactly
        # (triangle inequality on the synthesis); the closed-form tail
        # integral agrees with that sum up to a boundary bin
        f = gaussian_truth.f
        err = sinc_approx_error(f, gaussian_truth.smooth, 0.25, math.inf)
        t = f.freqs()
        dt = 2 * math.pi / (f.n_points * f.dx)
        discrete = np.abs(f.spectrum[np.abs(t) > 4.0]).sum() * dt / (2 * math.pi)
        assert err <= discrete + 1e-15
        continuous = math.sqrt(2 * math.pi) * erfc(4.0 / math.sqrt(2.0)) / (2 * math.pi)
        assert abs(discrete - continuous) / continuous <= 0.2

    def test_gaussian_decay_slope(self, gaussian_truth):
        sigmas = [0.5, 0.4, 0.3, 0.25, 0.2]
        errs = [
            sinc_approx_error(gaussian_truth.f, gaussian_truth.smooth, s, math.inf)
            for s in sigmas
        ]
        xs = [(gaussian_truth.smooth.rho / s) ** 2 for s in sigmas]
        slope = fit_slope(xs, np.log(errs))
        assert -1.1 <= slope <= -0.85

    def test_cauchy_decay_slope(self, cauchy_truth):
        sigmas = [0.5, 0.4, 0.3, 0.25, 0.2]
        errs = [
            sinc_approx_error(cauchy_truth.f, cauchy_truth.smooth, s, math.inf)
            for s in sigmas
        ]
        xs = [cauchy_truth.smooth.rho / s for s in sigmas]
        slope = fit_slope(xs, np.log(errs))
        assert -1.1 <= slope <= -0.8

    def test_low_p_requires_superkernel(self, gaussian_truth):
        with pytest.raises(InvalidP):
            sinc_approx_error(gaussian_truth.f, gaussian_truth.smooth, 0.25, 1)
        sk = KernelSpec("superkernel", 1.0, (1.0, 2.0))
        err = sinc_approx_error(
            gaussian_truth.f, gaussian_truth.smooth, 0.25, 1, kernel=sk
        )
        assert 0 < err < 1e-2

    def test_cutoff_above_nyquist(self, gaussian_truth):
        with pytest.raises(CutoffAboveNyquist):
            sinc_approx_error(gaussian_truth.f, gaussian_truth.smooth, 1e-4, 2)


class TestQuadraticVariation:
    def test_first_term_oracle(self):
        # direct evaluation at the first two extrema
        s0 = math.sin(math.pi / 2) / (math.pi * math.pi / 2)
        s1 = math.sin(3 * math.pi / 2) / (math.pi * 3 * math.pi / 2)
        assert abs(sinc_quadratic_variation(1) - (s1 - s0) ** 2) <= 1e-15

    def test_bounded(self):
        # tail after n extrema is ~ 4 / (pi^4 n): 4.1e-5 at n = 1e3,
        # below 1e-5 from n = 1e4 on
        v3 = sinc_quadratic_variation(10 ** 3)
        v4 = sinc_quadratic_variation(10 ** 4)
        v6 = sinc_quadratic_variation(10 ** 6)
        assert v6 - v3 < 5e-5
        assert v6 - v4 < 1e-5

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, n):
        assert sinc_quadratic_variation(n + 1) >= sinc_quadratic_variation(n)


class TestPerturbationInequalities:
    def test_scale_perturbation_l1(self):
        # ||K_s - K_s'||_1 <= 2 |s - s'| / min(s, s')
        rng = np.random.default_rng(42)
        half, n = 40.0, 2 ** 13
        for family, shape in (("gaussian", None), ("cauchy", None), ("stable", 1.5)):
            for _ in range(67):
                s1, s2 = rng.uniform(0.3, 2.5, 2)
                k1 = kernel_grid(KernelSpec(family, s1, shape), half, n)
                k2 = kernel_grid(KernelSpec(family, s2, shape), half, n)
                bound = 2 * abs(s1 - s2) / min(s1, s2)
                assert lp_norm(k1 - k2, 1) <= bound + 1e-6

    def test_location_perturbation_l1(self):
        # ||K_s(. - a) - K_s(. - b)||_1 <= 2 ||K||_inf |a - b| / s
        rng = np.random.default_rng(7)
        half, n = 40.0, 2 ** 13
        x = kernel_grid(KernelSpec("gaussian", 1.0), half, n).grid()
        sup_k = 1 / math.sqrt(2 * math.pi)
        dx = 2 * half / n
        for _ in range(200):
            s = rng.uniform(0.3, 2.0)
            a, b = rng.uniform(-5, 5, 2)
            va = np.exp(-(((x - a) / s) ** 2) / 2) / (s * math.sqrt(2 * math.pi))
            vb = np.exp(-(((x - b) / s) ** 2) / 2) / (s * math.sqrt(2 * math.pi))
            l1 = np.abs(va - vb).sum() * dx
            assert l1 <= 2 * sup_k * abs(a - b) / s + 1e-6

    def test_convolution_floor(self, phi1):
        # f * K_s >= zeta * ell / ||f||_inf * f for s below the mass radius
        zeta = 0.9
        ell = math.exp(-0.5) / math.sqrt(2 * math.pi)  # f at the interval ends +-1
        sup_f = 1 / math.sqrt(2 * math.pi)
        c_zeta = zeta * ell / sup_f
        # tau: two-sided kernel mass zeta on [-(b-a), b-a] = [-2, 2]
        from scipy.special import ndtri

        tau = 2.0 / ndtri((1 + zeta) / 2)
        for s in (0.3, 0.6, 0.9, min(1.2, 0.99 * tau)):
            assert s < tau
            ks = kernel_grid(KernelSpec("gaussian", s))
            conv = convolve(phi1, ks)
            assert np.all(conv.values >= c_zeta * phi1.values - 1e-9)
