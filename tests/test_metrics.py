import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from supermix import (
    DiscreteMixingMeasure,
    GridFunction,
    interpolation_checks,
    kl_divergence,
    second_log_moment,
    wasserstein,
)
from supermix.errors import SupportViolation
from supermix.kernels import kernel_grid, parse_kernel_id
from supermix.metrics import floored_mass, quantile_distance

from conftest import random_gaussian_mixture


def random_measure(rng, max_atoms=4):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-3, 3, k))
    while np.any(np.diff(atoms) < 1e-6):
        atoms = np.sort(rng.uniform(-3, 3, k))
    return DiscreteMixingMeasure(atoms, rng.dirichlet(np.ones(k)))


def wasserstein_lp_oracle(
    f1: DiscreteMixingMeasure, f2: DiscreteMixingMeasure, p: float
) -> float:
    """Brute-force transport LP; test oracle for few-atom measures."""
    n, m = len(f1), len(f2)
    cost = np.abs(f1.atoms[:, None] - f2.atoms[None, :]) ** p
    a_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([f1.weights, f2.weights])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None))
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun) ** (1.0 / p)


def quantile_distance_oracle(a1, w1, a2, w2, p):
    """``quantile_distance`` with the cdf breakpoints merged by
    ``np.union1d``, capped at 1 and ended at exactly 1."""
    cum1, cum2 = np.cumsum(w1), np.cumsum(w2)
    levels = np.union1d(np.minimum(cum1, 1.0), np.minimum(cum2, 1.0))
    levels = levels[levels > 0.0]
    if levels[-1] < 1.0:
        levels = np.append(levels, 1.0)
    prev = np.concatenate([[0.0], levels[:-1]])
    mid = 0.5 * (levels + prev)
    q1 = a1[np.minimum(np.searchsorted(cum1, mid), a1.size - 1)]
    q2 = a2[np.minimum(np.searchsorted(cum2, mid), a2.size - 1)]
    gaps = np.abs(q1 - q2)
    if p == math.inf:
        return float(gaps.max())
    return float(((levels - prev) * gaps ** p).sum()) ** (1.0 / p)


def raw_measure(rng):
    """Ascending atoms and weights summing to about 1: a single atom, exact
    eighths (levels tie across measures and end at exactly 1, some weights
    0), or normalized uniforms (ending a few ulps off 1), some zeroed."""
    k = int(rng.integers(1, 7))
    atoms = np.sort(rng.choice(np.linspace(-3.0, 3.0, 25), k, replace=False))
    kind = rng.integers(3)
    if k == 1 or kind == 0:
        weights = rng.multinomial(8, np.ones(k) / k) / 8.0
    else:
        weights = rng.uniform(0.0, 1.0, k)
        if kind == 2:
            weights[rng.random(k) < 0.3] = 0.0
        weights = weights / weights.sum() if weights.sum() > 0 else np.full(k, 1.0 / k)
    return atoms, weights


class TestWasserstein:
    def test_point_masses(self):
        d1 = DiscreteMixingMeasure.point_mass(-1.3)
        d2 = DiscreteMixingMeasure.point_mass(2.2)
        for p in (1, 2, 4):
            assert abs(wasserstein(d1, d2, p) - 3.5) <= 1e-12

    def test_identical_measures(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_measure(rng)
            assert wasserstein(m, m, 2) == 0.0

    def test_two_by_two_against_lp(self):
        f1 = DiscreteMixingMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        f2 = DiscreteMixingMeasure(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        val = wasserstein(f1, f2, 2)
        assert abs(val - math.sqrt(0.5)) <= 1e-12
        assert abs(val - wasserstein_lp_oracle(f1, f2, 2)) <= 1e-7

    def test_random_pairs_against_lp(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f1, f2 = random_measure(rng), random_measure(rng)
            for p in (1, 2):
                quantile = wasserstein(f1, f2, p)
                lp = wasserstein_lp_oracle(f1, f2, p)
                assert abs(quantile - lp) <= 1e-6 * max(1.0, lp)

    def test_triangle_and_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b, c = (random_measure(rng) for _ in range(3))
            dab = wasserstein(a, b, 2)
            dba = wasserstein(b, a, 2)
            assert abs(dab - dba) <= 1e-9
            assert dab <= wasserstein(a, c, 2) + wasserstein(c, b, 2) + 1e-9

    def test_monotone_in_p(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a, b = random_measure(rng), random_measure(rng)
            vals = [wasserstein(a, b, p) for p in (1, 2, 4)]
            assert vals[0] <= vals[1] + 1e-9
            assert vals[1] <= vals[2] + 1e-9

    def test_bounded_by_support_diameter(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b = random_measure(rng), random_measure(rng)
            diam = max(a.atoms.max(), b.atoms.max()) - min(a.atoms.min(), b.atoms.min())
            assert wasserstein(a, b, 2) <= diam + 1e-12

    def test_merged_levels_match_the_union1d_form(self):
        rng = np.random.default_rng(34)
        for _ in range(1000):
            first, second = raw_measure(rng), raw_measure(rng)
            for p in (1.0, 2.0, math.inf):
                assert quantile_distance(*first, *second, p) == quantile_distance_oracle(
                    *first, *second, p)

    def test_unit_shift_is_one_for_cdfs_ending_off_one(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            atoms = np.sort(rng.choice(20, k, replace=False)).astype(float)
            weights = rng.uniform(0.1, 1.0, k)
            m = DiscreteMixingMeasure(atoms, weights / weights.sum())
            shifted = DiscreteMixingMeasure(atoms + 1.0, m.weights)
            for p in (1, 2, math.inf):
                assert abs(wasserstein(m, shifted, p) - 1.0) <= 1e-12

    def test_last_segment_kept_when_both_cdfs_end_above_one(self):
        weights = np.array([0.56, 0.33, 0.11])
        assert np.cumsum(weights)[-1] > 1.0
        f1 = DiscreteMixingMeasure(np.array([0.0, 1.0, 2.0]), weights)
        f2 = DiscreteMixingMeasure(np.array([0.0, 1.0, 3.0]), weights)
        assert abs(wasserstein(f1, f2, 1.0) - 0.11) <= 1e-12
        assert wasserstein(f1, f2, math.inf) == 1.0


class TestKL:
    def test_self_divergence_zero(self, phi1):
        assert abs(kl_divergence(phi1, phi1)) <= 1e-14

    def test_gaussian_closed_form(self, phi1):
        # KL(N(0,1); N(0, 1.1^2)) = log 1.1 + 1/(2*1.1^2) - 1/2
        wide = kernel_grid(parse_kernel_id("gaussian:1.1"))
        expected = math.log(1.1) + 1.0 / (2 * 1.1 ** 2) - 0.5
        assert abs(kl_divergence(phi1, wide) - expected) <= 1e-6

    def test_pinsker_direction(self, phi1):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = random_gaussian_mixture(rng, phi1)
            g = random_gaussian_mixture(rng, phi1)
            kl = kl_divergence(f, g)
            l1 = np.abs(f.values - g.values).sum() * f.dx
            assert kl >= 0.5 * l1 ** 2 - 1e-9

    def test_support_violation(self, phi1):
        zero = GridFunction(phi1.half_width, np.zeros(phi1.n_points))
        with pytest.raises(SupportViolation):
            kl_divergence(phi1, zero)

    def test_floored_mass_reporting(self, phi1):
        # spectral synthesis leaves ~1e-17 noise tails, so the floored mass
        # is noise-level rather than the analytic erfc tail
        g = GridFunction(phi1.half_width, np.where(np.abs(phi1.grid()) < 20, phi1.values, 0.0))
        assert 0 < floored_mass(phi1, g) < 1e-12

    def test_second_log_moment(self, phi1):
        # oracle: E[(a - b X^2)^2] closed form for the Gaussian scale pair
        wide = kernel_grid(parse_kernel_id("gaussian:1.1"))
        a = math.log(1.1)
        b = 0.5 - 1.0 / (2 * 1.1 ** 2)
        expected = a ** 2 - 2 * a * b + 3 * b ** 2  # E X^2 = 1, E X^4 = 3
        assert abs(second_log_moment(phi1, wide) - expected) <= 1e-6


class TestInterpolation:
    def test_equal_densities(self, phi1):
        rep = interpolation_checks(phi1, phi1)
        assert rep.all_hold()

    def test_gaussian_vs_cauchy(self, phi1, cauchy1):
        rep = interpolation_checks(phi1, cauchy1, upsilon=0.5, u=0.5, p=1.5, t=2.0)
        assert rep.moment_margin >= 0
        assert rep.l1_sup_margin >= 0
        assert rep.p_max_margin >= 0

    def test_random_pairs_zero_violations(self, phi1):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = random_gaussian_mixture(rng, phi1)
            g = random_gaussian_mixture(rng, phi1)
            rep = interpolation_checks(f, g, upsilon=0.6, u=1.0, p=1.5, t=2.0)
            assert rep.all_hold()

    @given(
        st.floats(min_value=1.0, max_value=1.9),
        st.floats(min_value=1.1, max_value=4.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_parameter_sweep(self, p, t):
        f = kernel_grid(parse_kernel_id("gaussian:1"))
        g = kernel_grid(parse_kernel_id("gaussian:1.3"))
        rep = interpolation_checks(f, g, upsilon=0.5, u=0.8, p=p, t=t)
        assert rep.all_hold()
