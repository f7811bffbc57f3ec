import math

import numpy as np
import pytest

from supermix import (
    DiscreteMixingMeasure,
    KernelSpec,
    finite_gaussian_mixture,
    moment_match,
    partition_discretize,
    support_budget,
)
from supermix.errors import IllConditionedMoments, InvalidSupport, RegimeUnavailable


def mixture_sup_distance(f1, f2, kernel, sigma, a):
    xs = np.linspace(-a - 8 * sigma, a + 8 * sigma, 4001)
    return np.abs(
        f1.mixture_density(kernel, sigma, xs) - f2.mixture_density(kernel, sigma, xs)
    ).max()


class TestDiscreteMixingMeasure:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DiscreteMixingMeasure(np.array([0.0, 1.0]), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            DiscreteMixingMeasure(np.array([0.0]), np.array([-1.0]))

    def test_sorting_and_duplicate_merge(self):
        m = DiscreteMixingMeasure(np.array([1.0, -1.0, 1.0]), np.array([0.2, 0.5, 0.3]))
        assert np.array_equal(m.atoms, np.array([-1.0, 1.0]))
        assert np.allclose(m.weights, [0.5, 0.5])


class TestMomentMatch:
    def test_uniform_two_point_rule(self):
        # oracle: the symmetric two-point measure matching m_0..m_3 of
        # Uniform[-1,1] solves w = 1/2, x = sqrt(m_2) = 1/sqrt(3)
        mm = moment_match(np.array([1.0, 0.0, 1.0 / 3.0, 0.0]), 3, (-1, 1))
        assert np.abs(mm.atoms - np.array([-1, 1]) / math.sqrt(3)).max() <= 1e-10
        assert np.abs(mm.weights - 0.5).max() <= 1e-10

    def test_point_mass_fixed_point(self):
        src = DiscreteMixingMeasure.point_mass(0.0)
        for order in (3, 8):
            out = moment_match(src, order, (-1, 1))
            assert len(out) == 1 and out.atoms[0] == 0.0 and out.weights[0] == 1.0

    def test_two_point_fixed_point(self):
        src = DiscreteMixingMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        out = moment_match(src, 3, (-1, 1))
        assert np.abs(out.atoms - src.atoms).max() <= 1e-12
        assert np.abs(out.weights - src.weights).max() <= 1e-12

    def test_moment_agreement_scale_aware(self):
        # relative error against max(|m_j|, a^j) covers near-zero moments
        rng = np.random.default_rng(3)
        atoms = rng.uniform(-2, 2, 40)
        w = rng.dirichlet(np.ones(40))
        src = DiscreteMixingMeasure(atoms, w)
        out = moment_match(src, 12, (-2, 2))
        for j in range(13):
            m_in = (src.weights * src.atoms ** j).sum()
            m_out = (out.weights * out.atoms ** j).sum()
            assert abs(m_in - m_out) <= 1e-8 * max(abs(m_in), 2.0 ** j)

    def test_ill_conditioned_moments_raise(self):
        moments = [2.0 / (j + 1) if j % 2 == 0 else 0.0 for j in range(42)]
        with pytest.raises(IllConditionedMoments):
            moment_match(np.array(moments), 40, (-1, 1))

    def test_invalid_support(self):
        src = DiscreteMixingMeasure(np.array([-3.0, 3.0]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidSupport):
            moment_match(src, 3, (-1, 1))

    def test_error_decays_geometrically_in_order(self):
        rng = np.random.default_rng(5)
        atoms = np.linspace(-2, 2, 101)
        w = rng.dirichlet(np.ones(101))
        src = DiscreteMixingMeasure(atoms, w)
        kernel = KernelSpec("gaussian")
        errs = []
        for order in (2, 6, 10, 14, 18, 24):
            out = moment_match(src, order, (-2, 2))
            errs.append(mixture_sup_distance(src, out, kernel, 0.5, 2.0) + 1e-17)
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        # at least geometric: every +4 moment orders cuts the error in half
        assert np.all(ratios < 0.5)
        assert errs[-1] < 1e-7


class TestSupportBudget:
    def test_finite_support_budget(self):
        b = support_budget(1e-3, 2.0, 0.5, KernelSpec("fvp"))
        expected = math.ceil(4 * max(math.log(1e3), 2.0 * math.e ** 2 * 1.0 / 0.5))
        assert b.order == expected and b.regime == "finite-support"

    def test_gaussian_budget(self):
        b = support_budget(1e-4, 2.0, 0.5, KernelSpec("gaussian"))
        expected = math.ceil(4 * max(math.log(1e4), (2.0 / 0.5) ** 2))
        assert b.order == expected and b.regime == "r>1"

    def test_budget_meets_target(self):
        rng = np.random.default_rng(11)
        atoms = np.linspace(-2, 2, 41)
        w = 1 + 0.5 * np.cos(3 * atoms)
        src = DiscreteMixingMeasure(atoms, w / w.sum())
        kernel = KernelSpec("gaussian")
        for eps in (1e-3, 1e-4):
            b = support_budget(eps, 2.0, 0.5, kernel)
            out = moment_match(src, b.order, (-2, 2))
            assert len(out) <= b.n_atoms
            sup = mixture_sup_distance(src, out, kernel, 0.5, 2.0)
            assert sup <= eps / 0.5

    def test_cauchy_regime_unavailable(self):
        with pytest.raises(RegimeUnavailable):
            support_budget(1e-3, 3.0, 0.5, KernelSpec("cauchy"))


class TestPartitionDiscretize:
    def test_single_cell_matches_moment_match(self):
        src = DiscreteMixingMeasure(np.linspace(-0.05, 0.05, 21), np.full(21, 1 / 21))
        kernel = KernelSpec("cauchy")
        eps = 1e-3
        part = partition_discretize(src, eps, 0.05, 1.0, kernel)
        order = math.ceil(4 * math.log(1 / eps))
        direct = moment_match(src, order, (-0.05, 0.05))
        assert np.abs(part.atoms - direct.atoms).max() <= 1e-12
        assert np.abs(part.weights - direct.weights).max() <= 1e-12

    def test_cauchy_uniform_error(self):
        src = DiscreteMixingMeasure(np.linspace(-3, 3, 241), np.full(241, 1 / 241))
        kernel = KernelSpec("cauchy")
        eps, sigma = 1e-3, 0.5
        out = partition_discretize(src, eps, 3.0, sigma, kernel)
        sup = mixture_sup_distance(src, out, kernel, sigma, 3.0)
        assert sup <= eps / sigma

    def test_atom_count_bound(self):
        src = DiscreteMixingMeasure(np.linspace(-3, 3, 241), np.full(241, 1 / 241))
        eps, sigma = 1e-3, 0.5
        out = partition_discretize(src, eps, 3.0, sigma, KernelSpec("cauchy"))
        half_cell = 1.0 * sigma / math.e  # rho * sigma / e at r = 1
        k = math.ceil(3.0 / half_cell)
        order = math.ceil(4 * math.log(1 / eps))
        n_cell = (order + 1) // 2 + (order + 1) % 2
        assert len(out) <= k * n_cell


class TestFiniteGaussianMixture:
    def test_density_and_positivity(self, gaussian_truth):
        approx = finite_gaussian_mixture(gaussian_truth, 0.3)
        assert abs(approx.density.integral() - 1.0) <= 1e-10
        x = approx.density.grid()
        bulk = np.abs(x) <= 12  # beyond this both tails underflow
        assert np.all(approx.density.values[bulk] > 0)

    def test_kl_ladder(self, gaussian_truth):
        sigmas = [0.4, 0.3, 0.25]
        kls, m2s = [], []
        for s in sigmas:
            approx = finite_gaussian_mixture(gaussian_truth, s)
            kls.append(approx.kl)
            m2s.append(approx.second_log_moment)
            assert len(approx.mixing) <= 4 * (approx.half_support / s) ** 2
        assert kls[-1] <= 1e-3 and m2s[-1] <= 1e-3
        assert np.all(np.diff(kls) < 0) and np.all(np.diff(m2s) < 0)

    def test_symmetric_truth_gives_symmetric_atoms(self, gaussian_truth):
        # at sigma = 0.4 the window edge a_sigma = 5 is a grid point, so the
        # last cell must be closed for the source atom at +5 to be kept
        approx = finite_gaussian_mixture(gaussian_truth, 0.4)
        atoms = approx.mixing.atoms
        assert np.abs(atoms + atoms[::-1]).max() <= 1e-10

    def test_rejects_heavy_tailed_truth(self, cauchy_truth):
        with pytest.raises(ValueError):
            finite_gaussian_mixture(cauchy_truth, 0.3)
