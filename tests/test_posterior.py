import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from supermix import (
    Chain,
    DiscreteMixingMeasure,
    FitConfig,
    KernelSpec,
    NIGPartitionPrior,
    PYParams,
    blocked_gibbs_fit,
    kernel_grid,
    kernels,
    lp_norm,
    parse_kernel_id,
    posterior,
    posterior_mean_density,
    wasserstein,
)
from supermix.discretize import mixture_density
from supermix.errors import InvalidConfig, ScaleTooSmall, TooFewDraws
from supermix.gridfn import GridFunction
from supermix.posterior import (
    LOG_2PI,
    MAX_ITERATIONS,
    MAX_TRUNCATION,
    _Allocation,
    _w2_draws,
    _worker_count,
    contraction_experiment,
    default_py_config,
    default_w2_config,
    experiment_grid,
    prior_predictive_density,
    resolve_truth,
    wasserstein_recovery_experiment,
)
from supermix.priors import BaseMeasure, ScalePriorA0, nig_sample, py_sample

GAUSSIAN = KernelSpec("gaussian")


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

    def test_size_caps(self):
        FitConfig(iterations=MAX_ITERATIONS, truncation=MAX_TRUNCATION)
        with pytest.raises(InvalidConfig, match=f"iterations must be <= {MAX_ITERATIONS}"):
            FitConfig(iterations=MAX_ITERATIONS + 1)
        with pytest.raises(InvalidConfig, match=f"must be in 10..{MAX_TRUNCATION}"):
            FitConfig(truncation=MAX_TRUNCATION + 1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_fixed_sigma_finite_positive(self, sigma):
        with pytest.raises(InvalidConfig, match="fixed_sigma"):
            FitConfig(fixed_sigma=sigma)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(InvalidConfig, match="burn_in"):
            FitConfig(burn_in=-3)

    def test_short_data_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidConfig):
            blocked_gibbs_fit(np.zeros(5), small_config(), rng)

    def test_non_finite_data_rejected(self):
        data = np.random.default_rng(0).standard_normal(20)
        data[3] = np.nan
        with pytest.raises(InvalidConfig):
            blocked_gibbs_fit(data, small_config(), np.random.default_rng(0))

    @pytest.mark.parametrize("prior_id", ["bogus", "DP", "", "nig "])
    def test_unknown_prior_id_rejected(self, prior_id):
        with pytest.raises(InvalidConfig, match="unknown prior id"):
            default_py_config(prior_id)

    def test_named_priors(self):
        assert default_py_config("dp").prior.d == 0.0
        assert default_py_config("py").prior.d == 0.25
        assert isinstance(default_py_config("nig").prior, NIGPartitionPrior)

    def test_worker_count_clamp(self):
        assert _worker_count(0, 30, cpu_count=4) == 4
        assert _worker_count(0, 3, cpu_count=4) == 3
        assert _worker_count(1, 30, cpu_count=4) == 1
        assert _worker_count(16, 30, cpu_count=4) == 4
        assert _worker_count(16, 2, cpu_count=4) == 2
        assert _worker_count(2, 0, cpu_count=4) == 1
        with pytest.raises(InvalidConfig):
            _worker_count(-3, 30, cpu_count=4)


def _stick_updates(prior, counts, n_updates, seed):
    """Sticks after each of ``n_updates`` calls of the sweep's Pitman-Yor
    block update at fixed occupation ``counts`` (one row per update)."""
    rng = np.random.default_rng(seed)
    block = posterior._PYSticks(prior, counts.size, rng)
    alloc = np.repeat(np.arange(counts.size), counts)
    data = np.zeros(alloc.size)
    out = np.empty((n_updates, counts.size))
    for row in out:
        block.update(data, alloc, counts, 1.0, rng)
        row[:] = block.sticks
    return out


class TestGibbsPY:
    def test_prior_only_stick_marginal(self):
        # likelihood off (zero counts): the sampler's stick update must
        # draw V_1 from Beta(1 - d, c + d)
        prior = PYParams(c=1.5, d=0.3, base=BaseMeasure("gaussian", 2.0))
        v = _stick_updates(prior, np.zeros(10, dtype=int), 10 ** 4, seed=21)
        stat = kstest(v[:, 0], beta_dist(1 - 0.3, 1.5 + 0.3).cdf)
        assert stat.pvalue > 0.01

    def test_conjugate_stick_update_with_counts(self):
        # V_j | m ~ Beta(1 - d + m_j, c + d j + M_{>j}), M_{>j} = sum_{k>j} m_k
        c, d = 1.5, 0.3
        prior = PYParams(c=c, d=d, base=BaseMeasure("gaussian", 2.0))
        m = np.array([3, 0, 5, 2, 0, 0, 0, 0, 0, 0])
        v = _stick_updates(prior, m, 10 ** 4, seed=22)
        above = m[::-1].cumsum()[::-1] - m
        for j in range(1, 5):
            law = beta_dist(1 - d + m[j - 1], c + d * j + above[j - 1])
            assert kstest(v[:, j - 1], law.cdf).pvalue > 0.01, j

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
        base = d.mixing.mixture_density(GAUSSIAN, d.sigma, x)
        perm = np.random.default_rng(0).permutation(len(d.mixing))
        from supermix import DiscreteMixingMeasure

        shuffled = DiscreteMixingMeasure(d.mixing.atoms[perm], d.mixing.weights[perm])
        assert np.array_equal(shuffled.mixture_density(GAUSSIAN, d.sigma, x), base)

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

    def test_one_exact_sigma_draw_per_sweep(self, gaussian_data, monkeypatch):
        calls, returned, logliks = [], [], []
        real = ScalePriorA0.posterior_sample
        real_draw = _Allocation.draw

        def counting(self, n, ss, rng):
            calls.append(n)
            returned.append(real(self, n, ss, rng))
            return returned[-1]

        def recording(*args):
            alloc, ll = real_draw(*args)
            logliks.append(ll)
            return alloc, ll

        monkeypatch.setattr(ScalePriorA0, "posterior_sample", counting)
        monkeypatch.setattr(_Allocation, "draw", recording)
        data = gaussian_data[1]
        # with thinning 3 the 20 sweeps after burn-in leave a remainder of 2
        for cfg in (small_config(iterations=30, burn_in=10),
                    small_config(iterations=30, burn_in=10, thinning=3)):
            for trace in (calls, returned, logliks):
                trace.clear()
            chain = blocked_gibbs_fit(data, cfg, np.random.default_rng(4))
            kept = range(cfg.burn_in, cfg.iterations, cfg.thinning)
            assert calls == [data.size] * cfg.iterations
            assert len(chain) == len(kept)
            assert [d.sigma for d in chain] == returned[cfg.burn_in :: cfg.thinning]
            assert chain.sigma.tolist() == [returned[i] for i in kept]
            assert chain.loglik.tolist() == [logliks[i] for i in kept]
        fixed = dataclasses.replace(cfg, fixed_sigma=0.5)
        blocked_gibbs_fit(data, fixed, np.random.default_rng(4))
        assert len(calls) == cfg.iterations

    def test_uniform_base_stays_in_support(self):
        truth = resolve_truth("twopoint")
        rng = np.random.default_rng(3)
        data = truth.sample(200, rng)
        cfg = default_w2_config()
        draws = blocked_gibbs_fit(data, cfg, rng)
        for d in draws[::50]:
            assert d.sigma == 1.0
            assert np.all(np.abs(d.mixing.atoms) <= 4.0)


def _oracle_allocate(data, atoms, log_w, sigma, rng):
    """The allocation step as separate passes: the full n x L log-density
    matrix, a categorical draw per row, and a log-sum-exp per row."""
    z = (data[:, None] - atoms[None, :]) / sigma
    logmat = log_w[None, :] + (-0.5 * z ** 2 - math.log(sigma) - 0.5 * LOG_2PI)
    m = logmat.max(axis=1, keepdims=True)
    cdf = np.cumsum(np.exp(logmat - m), axis=1)
    u = rng.random(data.size)[:, None] * cdf[:, -1:]
    alloc = (u > cdf).sum(axis=1)
    loglik = float((m[:, 0] + np.log(np.exp(logmat - m).sum(axis=1))).sum())
    return alloc, loglik


class TestAllocate:
    @pytest.mark.parametrize("n,L", [(15, 10), (1000, 64), (4000, 50)])
    # False and True are the near and far cases
    @pytest.mark.parametrize("case", [False, True, "offset", "mixed", "light"])
    def test_matches_oracle(self, n, L, case):
        for seed in range(5):
            g = np.random.default_rng(seed)
            log_w = np.log(g.dirichlet(np.ones(L)))
            if case is True or case == "mixed":
                # sigma = 1e-3 and every point about 50 sigma from its two
                # nearest atoms: the log densities sit near -1250, so
                # exponentiating without the max subtraction underflows
                sigma = 1e-3
                atoms = 0.1 * np.arange(L)
                data = atoms[g.integers(0, L - 1, n)] + 0.05 + 1e-5 * g.standard_normal(n)
                if case == "mixed":
                    # every other point sits on an atom, so only the far
                    # half needs the max subtraction
                    data[::2] -= 0.05
            else:
                sigma = g.uniform(0.05, 2.0)
                atoms = 2.0 * g.standard_normal(L)
                data = g.standard_normal(n)
                if case == "offset":
                    # expanded about 0 instead of the data mean, the square
                    # would carry a rounding error near 2e-8 / sigma^2
                    atoms += 1e4
                    data += 1e4
                elif case == "light":
                    # the heaviest component is far from every point and
                    # the others weigh e^-730 as much or less: the column
                    # totals without the max subtraction are subnormal
                    log_w[1:] -= 730.0
                    log_w[0] = 0.0
                    atoms[0] = data.max() + 60.0 * sigma
            ref_rng, rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            want, want_ll = _oracle_allocate(data, atoms, log_w, sigma, ref_rng)
            got, got_ll = _Allocation(data, L).draw(atoms, log_w, sigma, rng)
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert math.isfinite(got_ll)
            assert abs(got_ll - want_ll) <= 1e-12 * abs(want_ll)

    @pytest.mark.parametrize("n,L", [(15, 10), (1000, 64)])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_reused_workspace_matches_oracle(self, n, L, offset):
        """One workspace serves every call of a fit: cycling the near, far,
        mixed and light cases through it in turn, each call must match the
        oracle, so a stale mask, row pair or coefficient row fails."""
        g = np.random.default_rng(7)
        lattice = offset + 0.1 * np.arange(L)
        # half the points on an atom of the lattice, half between two atoms
        data = lattice[g.integers(0, L - 1, n)] + 0.05 + 1e-5 * g.standard_normal(n)
        data[::2] -= 0.05
        work = _Allocation(data, L)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for seed in range(3):
            for case in ("near", "far", "near", "mixed", "light", "far"):
                log_w = np.log(g.dirichlet(np.ones(L)))
                if case == "mixed":
                    # sigma = 1e-3: the points between two atoms sit 50
                    # sigma from both, the others on one
                    sigma, atoms = 1e-3, lattice.copy()
                elif case == "far":
                    # every point 25 sigma or more from its nearest atom
                    sigma, atoms = 5e-4, lattice + 0.025
                else:
                    sigma = g.uniform(0.05, 2.0)
                    atoms = offset + 2.0 * g.standard_normal(L)
                    if case == "light":
                        log_w[1:] -= 730.0
                        log_w[0] = 0.0
                        atoms[0] = data.max() + 60.0 * sigma
                want, want_ll = _oracle_allocate(data, atoms, log_w, sigma, ref_rng)
                got, got_ll = work.draw(atoms, log_w, sigma, rng)
                assert np.array_equal(got, want), (seed, case)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert abs(got_ll - want_ll) <= 1e-12 * abs(want_ll), (seed, case)

    def test_overflowing_spread_is_rejected(self):
        data = np.linspace(-1.0, 1.0, 40) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfig, match=r"data from -1e\+160 to 1e\+160 are too large"):
                blocked_gibbs_fit(data, small_config(), np.random.default_rng(0))

    @pytest.mark.parametrize("prior_id", ["dp", "nig"])
    def test_fit_matches_oracle_sweep(self, gaussian_data, monkeypatch, prior_id):
        cfg = dataclasses.replace(
            default_py_config(prior_id), iterations=80, burn_in=30, thinning=1, truncation=12
        )
        real = blocked_gibbs_fit(gaussian_data[1], cfg, np.random.default_rng(5))
        monkeypatch.setattr(
            _Allocation,
            "draw",
            lambda self, atoms, log_w, sigma, rng: _oracle_allocate(
                self.data, atoms, log_w, sigma, rng
            ),
        )
        ref = blocked_gibbs_fit(gaussian_data[1], cfg, np.random.default_rng(5))
        assert len(real) == len(ref) == 50
        for a, b in zip(real, ref):
            assert a.sigma == b.sigma
            assert np.array_equal(a.mixing.atoms, b.mixing.atoms)
            assert np.array_equal(a.mixing.weights, b.mixing.weights)
            assert abs(a.loglik - b.loglik) <= 1e-12 * abs(b.loglik)


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

    def test_one_vectorised_gig_draw_per_sweep(self, gaussian_data, monkeypatch):
        from supermix import posterior

        calls = []
        real = posterior.gig_sample

        def counting(p, a, b, rng):
            calls.append(np.shape(p))
            return real(p, a, b, rng)

        monkeypatch.setattr(posterior, "gig_sample", counting)
        prior = NIGPartitionPrior()
        cfg = FitConfig(prior=prior, iterations=30, burn_in=10, thinning=2)
        blocked_gibbs_fit(gaussian_data[1], cfg, np.random.default_rng(4))
        assert calls == [(prior.n_cells,)] * cfg.iterations

    def test_cell_masses_positive(self):
        prior = NIGPartitionPrior()
        alphas = prior.cell_alphas()
        assert alphas.shape == (64,)
        assert np.all(alphas > 0)
        assert abs(alphas.sum() - prior.base.total_mass) <= 1e-12


class TestChain:
    @pytest.mark.parametrize("prior_id", ["dp", "nig"])
    def test_rows_match_their_views(self, gaussian_data, prior_id):
        cfg = dataclasses.replace(
            default_py_config(prior_id), iterations=80, burn_in=30, thinning=1, truncation=12
        )
        chain = blocked_gibbs_fit(gaussian_data[1], cfg, np.random.default_rng(5))
        assert isinstance(chain, Chain) and len(chain) == 50
        assert chain.atoms.shape == chain.weights.shape == (50, chain.atoms.shape[1])
        assert np.all(np.diff(chain.atoms, axis=1) > 0)
        for arr in (chain.atoms, chain.weights, chain.sigma, chain.loglik):
            assert not arr.flags.writeable
        for i, d in enumerate(chain):
            assert d.mixing.atoms.tobytes() == chain.atoms[i].tobytes()
            assert d.mixing.weights.tobytes() == chain.weights[i].tobytes()
            assert (d.sigma, d.loglik) == (chain.sigma[i], chain.loglik[i])
        assert chain[-1] is chain[len(chain) - 1]
        with pytest.raises(IndexError):
            chain[len(chain)]
        every4 = chain[::4]
        assert isinstance(every4, Chain) and len(every4) == 13
        for name in ("atoms", "weights", "sigma", "loglik"):
            assert np.array_equal(getattr(every4, name), getattr(chain, name)[::4])

    def test_summaries_match_the_views(self, gaussian_data):
        chain = blocked_gibbs_fit(gaussian_data[1], small_config(), np.random.default_rng(7))
        grid = experiment_grid()
        acc = np.zeros(grid.n_points)
        for d in chain:
            acc += d.mixing.mixture_density(GAUSSIAN, d.sigma, grid.grid())
        mean = posterior_mean_density(chain, grid)
        assert np.abs(mean.values - acc / len(chain)).max() <= 1e-14
        truth = resolve_truth("gaussian:1")
        w2 = [wasserstein(d.mixing, truth.mixing, 2) for d in chain]
        assert _w2_draws(chain, truth).tobytes() == np.array(w2).tobytes()

    def test_no_measure_per_draw(self, monkeypatch):
        calls = []
        real = DiscreteMixingMeasure.__post_init__

        def counting(self):
            calls.append(1)
            real(self)

        monkeypatch.setattr(DiscreteMixingMeasure, "__post_init__", counting)
        counts = []
        for iterations in (110, 160):  # 50 and 100 kept draws
            tiny = dict(iterations=iterations, burn_in=60, thinning=1, truncation=10)
            calls.clear()
            contraction_experiment("gaussian:1", "dp", [30], 1, cfg=small_config(**tiny))
            w2_cfg = dataclasses.replace(default_w2_config(), **tiny)
            wasserstein_recovery_experiment("twopoint", [30], 1, cfg=w2_cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestPosteriorSummaries:
    def test_mean_density_single_draw_identity(self, gaussian_data):
        truth, data = gaussian_data
        rng = np.random.default_rng(5)
        draws = blocked_gibbs_fit(data, small_config(), rng)
        grid = experiment_grid()
        one = posterior_mean_density(draws[:1], grid, min_draws=1)
        direct = draws[0].mixing.mixture_density(GAUSSIAN, draws[0].sigma, grid.grid())
        assert np.abs(one.values - direct).max() <= 1e-14

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
            d.mixing.mixture_density(GAUSSIAN, d.sigma, grid.grid()) for d in draws
        ) / len(draws)
        assert np.abs(mean.values - naive).max() <= 1e-14

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
                         d.mixing.mixture_density(GAUSSIAN, d.sigma, grid.grid()))
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


def direct_mean(atoms, weights, sigma, grid):
    """The per-draw sum that the spectral mean replaces."""
    rows = zip(atoms, weights, np.asarray(sigma).tolist())
    return sum(mixture_density(a, w, GAUSSIAN, s, grid.grid()) for a, w, s in rows) / len(sigma)


def direct_prior_predictive(cfg, grid, rng):
    """``prior_predictive_density`` as a per-draw sum, drawing in its order."""
    atoms, weights, sigma = [], [], []
    for _ in range(posterior.PRIOR_PREDICTIVE_DRAWS):
        if isinstance(cfg.prior, NIGPartitionPrior):
            mix = DiscreteMixingMeasure(cfg.prior.cell_midpoints(),
                                        nig_sample(cfg.prior.nig_params(), rng)[0])
        else:
            draw = py_sample(cfg.prior, posterior.PRIOR_PREDICTIVE_TRUNC_TOL, rng)
            mix = DiscreteMixingMeasure(draw.atoms, draw.weights / draw.weights.sum())
        atoms.append(mix.atoms)
        weights.append(mix.weights)
        sigma.append(cfg.fixed_sigma if cfg.fixed_sigma is not None
                     else float(posterior.SCALE_PRIOR.sample(rng)))
    return direct_mean(atoms, weights, sigma, grid)


class TestSpectralMean:
    """The posterior mean and the prior predictive summed as spectra,
    against the per-draw sum on the experiment grid."""

    @staticmethod
    @pytest.fixture(scope="class")
    def chains(gaussian_data):
        small = dict(iterations=110, burn_in=60, thinning=1, truncation=12)
        return {name: blocked_gibbs_fit(gaussian_data[1],
                                        dataclasses.replace(default_py_config(name), **small),
                                        np.random.default_rng(21))
                for name in ("dp", "py", "nig")}

    @staticmethod
    def spy(monkeypatch):
        """Record the sigma of every draw evaluated directly."""
        calls, real = [], posterior.mixture_density

        def recording(atoms, weights, kernel, sigma, x):
            calls.append(sigma)
            return real(atoms, weights, kernel, sigma, x)

        monkeypatch.setattr(posterior, "mixture_density", recording)
        return calls

    @pytest.mark.parametrize("name", ["dp", "py", "nig"])
    def test_matches_the_per_draw_sum(self, chains, name, monkeypatch):
        chain, grid = chains[name], experiment_grid()
        direct = self.spy(monkeypatch)
        mean = posterior_mean_density(chain, grid)
        assert direct == []
        want = direct_mean(chain.atoms, chain.weights, chain.sigma, grid)
        assert np.abs(mean.values - want).max() <= 1e-14
        # the cached spectrum is the values' own, up to the band's cut
        resynth = GridFunction(grid.half_width, mean.values).spectrum
        assert np.abs(mean.spectrum - resynth).max() <= 1e-13

    @pytest.mark.parametrize("name", ["dp", "nig"])
    def test_narrow_and_wrapping_draws_are_evaluated_directly(self, chains, name, monkeypatch):
        chain, grid = chains[name], experiment_grid()
        atoms, weights, sigma = (np.array(a) for a in (chain.atoms, chain.weights, chain.sigma))
        # band 9.5 / sigma wider than the grid's pi / dx = 201
        sigma[3] = 0.04
        assert posterior.SPECTRAL_BAND / sigma[3] > grid.nyquist
        if name == "dp":
            # draw 7 puts mass 0.1 at 15.9, 0.1 inside the period's edge at 16
            atoms[7, -1], weights[7] = 15.9, np.append(0.9 * weights[7, :-1], 0.1)
        direct = self.spy(monkeypatch)
        mean = posterior_mean_density(Chain(atoms, weights, sigma, chain.loglik), grid)
        assert direct == [sigma[d] for d in ([3, 7] if name == "dp" else [3])]
        assert np.abs(mean.values - direct_mean(atoms, weights, sigma, grid)).max() <= 1e-14
        # no cached spectrum leaves the direct draws out
        resynth = GridFunction(grid.half_width, mean.values).spectrum
        assert np.abs(mean.spectrum - resynth).max() <= 1e-13

    @pytest.mark.parametrize("name", ["nig", "dp", "w2"])
    def test_prior_predictive_matches_the_per_draw_sum(self, name):
        cfg = default_w2_config() if name == "w2" else default_py_config(name)
        grid = experiment_grid()
        got = prior_predictive_density(cfg, grid, np.random.default_rng(4))
        want = direct_prior_predictive(cfg, grid, np.random.default_rng(4))
        assert np.abs(got.values - want).max() <= 1e-14


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


class TestResolveTruth:
    @pytest.mark.parametrize("truth_id", ["gaussian:1", "gaussian", "gaussian:0.50",
                                          "gaussian:1e10", "gaussian:0.01953125"])
    def test_builds_no_grid(self, monkeypatch, truth_id):
        # the name comes from the parsed id; no 2^14-point density is built
        def no_grid(*args):
            raise AssertionError("resolve_truth built a grid density")

        monkeypatch.setattr(kernels, "catalog_density", no_grid)
        monkeypatch.setattr(kernels, "kernel_grid", no_grid)
        spec = parse_kernel_id(truth_id)
        truth = resolve_truth(truth_id)
        assert truth.name == spec.id()
        assert truth.kernel_sigma == spec.scale

    @pytest.mark.parametrize("truth_id", ["gaussian:5e-324", "gaussian:0.0195", "cauchy:1e-300"])
    def test_shares_the_grid_resolution_check(self, truth_id):
        with pytest.raises(ScaleTooSmall) as grid_error:
            kernel_grid(parse_kernel_id(truth_id))
        with pytest.raises(ScaleTooSmall) as truth_error:
            resolve_truth(truth_id)
        assert str(truth_error.value) == str(grid_error.value)
        assert "below grid resolution 4*dx = 0.0195312" in str(truth_error.value)
