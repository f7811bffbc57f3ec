import dataclasses

import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from supermix import (
    FitConfig,
    NIGPartitionPrior,
    PYParams,
    blocked_gibbs_fit,
    lp_norm,
    posterior_mean_density,
)
from supermix.errors import InvalidConfig, TooFewDraws
from supermix.posterior import (
    _worker_count,
    contraction_experiment,
    default_py_config,
    default_w2_config,
    experiment_grid,
    mixture_density_values,
    prior_predictive_density,
    resolve_truth,
    wasserstein_recovery_experiment,
)
from supermix.priors import BaseMeasure


def small_config(**kw):
    defaults = dict(iterations=160, burn_in=60, thinning=1, truncation=12)
    defaults.update(kw)
    return FitConfig(prior=PYParams(c=1.0, d=0.0, base=BaseMeasure("gaussian", 2.0)), **defaults)


@pytest.fixture(scope="module")
def gaussian_data():
    truth = resolve_truth("gaussian:1")
    rng = np.random.default_rng(100)
    return truth, truth.sample(400, rng)


class TestConfigValidation:
    def test_truncation_floor(self):
        with pytest.raises(InvalidConfig):
            FitConfig(truncation=5)

    def test_iterations_exceed_burn_in(self):
        with pytest.raises(InvalidConfig):
            FitConfig(iterations=100, burn_in=100)

    def test_need_some_scale(self):
        with pytest.raises(InvalidConfig):
            FitConfig(scale_prior=None, fixed_sigma=None)

    def test_short_data_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidConfig):
            blocked_gibbs_fit(np.zeros(5), small_config(), rng)

    def test_non_finite_data_rejected(self):
        data = np.random.default_rng(0).standard_normal(20)
        data[3] = np.nan
        with pytest.raises(InvalidConfig):
            blocked_gibbs_fit(data, small_config(), np.random.default_rng(0))

    def test_worker_count_clamp(self):
        assert _worker_count(0, 30, cpu_count=4) == 4
        assert _worker_count(0, 3, cpu_count=4) == 3
        assert _worker_count(1, 30, cpu_count=4) == 1
        assert _worker_count(16, 30, cpu_count=4) == 4
        assert _worker_count(16, 2, cpu_count=4) == 2
        assert _worker_count(2, 0, cpu_count=4) == 1
        with pytest.raises(InvalidConfig):
            _worker_count(-3, 30, cpu_count=4)


class TestGibbsPY:
    def test_prior_only_stick_marginal(self):
        # likelihood off (zero counts): the sampler's stick update must
        # draw V_1 from Beta(1 - d, c + d)
        from supermix.posterior import _update_sticks

        prior = PYParams(c=1.5, d=0.3, base=BaseMeasure("gaussian", 2.0))
        rng = np.random.default_rng(21)
        counts = np.zeros(10, dtype=int)
        js = np.arange(1, 11)
        v1 = np.array(
            [_update_sticks(counts, prior, js, rng)[0] for _ in range(10 ** 4)]
        )
        stat = kstest(v1, beta_dist(1 - 0.3, 1.5 + 0.3).cdf)
        assert stat.pvalue > 0.01

    def test_truncation_weights_sum(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(1)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        for d in draws:
            assert d.mixing.weights.sum() >= 1.0 - 1e-4

    def test_label_permutation_invariance(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(2)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        d = draws[-1]
        x = np.linspace(-5, 5, 100)
        base = mixture_density_values(d.mixing, d.sigma, x)
        perm = np.random.default_rng(0).permutation(len(d.mixing))
        from supermix import DiscreteMixingMeasure

        shuffled = DiscreteMixingMeasure(d.mixing.atoms[perm], d.mixing.weights[perm])
        assert np.array_equal(mixture_density_values(shuffled, d.sigma, x), base)

    def test_fit_quality_median_l1(self):
        # repeated-run calibration: median posterior-mean L1 error at
        # n = 500 measured across seeds; threshold at 3x the median
        truth = resolve_truth("gaussian:1")
        grid = experiment_grid()
        f0 = truth.density(grid)
        errs = []
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            data = truth.sample(500, rng)
            draws = blocked_gibbs_fit(data, default_py_config("dp"), rng)
            mean = posterior_mean_density(draws, grid)
            errs.append(lp_norm(mean - f0, 1))
        assert np.median(errs) <= 0.08

    def test_deterministic_given_seed(self, gaussian_data):
        truth, data = gaussian_data
        out = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            draws = blocked_gibbs_fit(data, small_config(), rng)
            out.append(draws)
        a, b = out
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.sigma == db.sigma and da.loglik == db.loglik
            assert np.array_equal(da.mixing.atoms, db.mixing.atoms)
            assert np.array_equal(da.mixing.weights, db.mixing.weights)

    def test_uniform_base_stays_in_support(self):
        truth = resolve_truth("twopoint")
        rng = np.random.default_rng(3)
        data = truth.sample(200, rng)
        cfg = default_w2_config(theta_half_width=4.0)
        draws = blocked_gibbs_fit(data, cfg, rng)
        for d in draws[::50]:
            assert d.sigma == 1.0
            assert np.all(np.abs(d.mixing.atoms) <= 4.0)


class TestGibbsNIG:
    def test_runs_and_uses_partition_atoms(self, gaussian_data):
        truth, data = gaussian_data
        prior = NIGPartitionPrior()
        cfg = FitConfig(prior=prior, iterations=120, burn_in=40, thinning=2)
        rng = np.random.default_rng(4)
        draws = blocked_gibbs_fit(data, cfg, rng)
        mids = prior.cell_midpoints()
        for d in draws[::10]:
            assert np.array_equal(d.mixing.atoms, mids)
            assert abs(d.mixing.weights.sum() - 1.0) <= 1e-9

    def test_cell_masses_positive(self):
        prior = NIGPartitionPrior()
        alphas = prior.cell_alphas()
        assert alphas.shape == (64,)
        assert np.all(alphas > 0)
        assert abs(alphas.sum() - prior.base.total_mass) <= 1e-12


class TestPosteriorSummaries:
    def test_mean_density_single_draw_identity(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(5)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        grid = experiment_grid()
        one = posterior_mean_density(draws[:1], grid, min_draws=1)
        direct = mixture_density_values(draws[0].mixing, draws[0].sigma, grid.grid())
        assert np.array_equal(one.values, direct)

    def test_mean_density_is_density(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(6)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        grid = experiment_grid()
        mean = posterior_mean_density(draws, grid)
        assert abs(mean.integral() - 1.0) <= 1e-6

    def test_matches_naive_recomputation(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(7)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        grid = experiment_grid()
        mean = posterior_mean_density(draws, grid)
        naive = sum(
            mixture_density_values(d.mixing, d.sigma, grid.grid()) for d in draws
        ) / len(draws)
        assert np.abs(mean.values - naive).max() <= 1e-12

    def test_too_few_draws(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(8)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        with pytest.raises(TooFewDraws):
            posterior_mean_density(draws[:10], experiment_grid())

    def test_density_error_w2_rank_correlation(self):
        # across draws of one fit, the L1 density error and the mixing W2
        # error move together (rank correlation at least 0.5)
        from scipy.stats import spearmanr

        from supermix import wasserstein

        truth = resolve_truth("twopoint")
        rng = np.random.default_rng(11)
        data = truth.sample(600, rng)
        draws = blocked_gibbs_fit(data, default_w2_config(), rng)[::4]
        grid = experiment_grid()
        f0 = truth.density(grid)
        l1 = [
            lp_norm(
                type(f0)(grid.half_width,
                         mixture_density_values(d.mixing, d.sigma, grid.grid()))
                - f0,
                1,
            )
            for d in draws
        ]
        w2 = [wasserstein(d.mixing, truth.mixing, 2.0) for d in draws]
        rho = spearmanr(l1, w2).statistic
        assert rho >= 0.5

    def test_posterior_beats_prior_predictive(self, gaussian_data):
        truth, data = gaussian_data
        grid = experiment_grid()
        f0 = truth.density(grid)
        rng = np.random.default_rng(9)
        cfg = small_config(iterations=400, burn_in=100)
        draws = blocked_gibbs_fit(data, cfg, rng)
        post_err = lp_norm(posterior_mean_density(draws, grid) - f0, 1)
        prior_err = lp_norm(
            prior_predictive_density(cfg, grid, np.random.default_rng(10)) - f0, 1
        )
        assert post_err <= prior_err


class TestExperiments:
    def test_rows_independent_of_thread_count(self):
        # two tasks each: with two or more CPUs, threads=2 runs a two-worker pool
        tiny = dict(iterations=110, burn_in=60, thinning=1, truncation=10)
        cfg = small_config(**tiny)
        rows = [
            contraction_experiment("gaussian:1", "dp", [30, 40], 1, cfg=cfg, seed=3, threads=t)
            for t in (1, 2)
        ]
        assert rows[0] == rows[1]
        w2_cfg = dataclasses.replace(default_w2_config(), **tiny)
        rows = [
            wasserstein_recovery_experiment("twopoint", [30, 40], 1, cfg=w2_cfg, seed=3, threads=t)
            for t in (1, 2)
        ]
        assert rows[0] == rows[1]
