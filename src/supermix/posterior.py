"""Desk-scale posterior inference for Gaussian-location mixtures.

One blocked Gibbs sweep (allocation, bandwidth slice update, log
likelihood) serves two priors through a per-prior weight/atom block,
chosen so that the stationary laws are exactly the stated truncated
priors:

* Pitman-Yor / Dirichlet: truncated stick-breaking with conjugate Beta
  stick updates, conjugate (or truncated-conjugate) atom updates, and a
  slice-sampled bandwidth.
* Normalized inverse-Gaussian on a fixed partition: the exact
  finite-dimensional law of the weights is preserved by a latent-scale
  augmentation that makes the un-normalized cell increments conditionally
  generalized-inverse-Gaussian.

Experiments report directional contraction diagnostics (L^p errors of the
posterior mean density, Wasserstein recovery of the mixing measure); all
randomness flows through explicit seeds, replicate k of an experiment
uses ``seed XOR task_index`` so results are reproducible bitwise and
independent of scheduling.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.stats import geninvgauss

from .discretize import DiscreteMixingMeasure
from .errors import InvalidConfig, NonConvergenceWarning, TooFewDraws
from .gridfn import GridFunction, lp_norm
from .kernels import catalog_density
from .metrics import kl_divergence, wasserstein
from .priors import BaseMeasure, NIGParams, PYParams, ScalePriorA0, truncated_normal_sample

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NIGPartitionPrior:
    """N-IG prior projected on a fixed partition of an interval.

    The mixture atoms sit at the cell midpoints; the weight vector across
    cells carries the exact N-IG finite-dimensional distribution with
    parameters alpha(A_k).
    """

    lo: float = -8.0
    hi: float = 8.0
    n_cells: int = 64
    base: BaseMeasure = field(default_factory=lambda: BaseMeasure("gaussian", 2.0))

    def cell_edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_cells + 1)

    def cell_midpoints(self) -> np.ndarray:
        edges = self.cell_edges()
        return 0.5 * (edges[:-1] + edges[1:])

    def cell_alphas(self) -> np.ndarray:
        edges = self.cell_edges()
        mass = np.array(
            [
                self.base.ball_mass((a + b) / 2.0, (b - a) / 2.0)
                for a, b in zip(edges[:-1], edges[1:])
            ]
        )
        return self.base.total_mass * mass / mass.sum()

    def nig_params(self) -> NIGParams:
        return NIGParams(self.cell_alphas())


@dataclass(frozen=True)
class FitConfig:
    """Sampler configuration; validated on construction."""

    prior: Union[PYParams, NIGPartitionPrior] = field(default_factory=PYParams)
    scale_prior: Optional[ScalePriorA0] = field(default_factory=ScalePriorA0)
    fixed_sigma: Optional[float] = None
    truncation: int = 50
    iterations: int = 1500
    burn_in: int = 500
    thinning: int = 2
    remainder_tol: float = 1e-4

    def __post_init__(self):
        if self.truncation < 10:
            raise InvalidConfig("truncation level must be >= 10")
        if not self.iterations > self.burn_in:
            raise InvalidConfig("iterations must exceed burn_in")
        if self.thinning < 1:
            raise InvalidConfig("thinning must be >= 1")
        if self.scale_prior is None and self.fixed_sigma is None:
            raise InvalidConfig("either a scale prior or a fixed sigma is required")


@dataclass(frozen=True)
class PosteriorDraw:
    mixing: DiscreteMixingMeasure
    sigma: float
    loglik: float


@dataclass(frozen=True)
class ContractionRow:
    n: int
    replicate: int
    l1: float
    l2: float
    sup: float
    w2: float
    kl: float


def _slice_sample_log(logpdf, x0: float, rng: np.random.Generator, width=1.0, max_steps=50):
    """Univariate slice sampler with stepping out, on an unbounded axis."""
    ly = logpdf(x0) + math.log(max(rng.random(), 1e-300))
    u = rng.random()
    lo, hi = x0 - width * u, x0 + width * (1.0 - u)
    for _ in range(max_steps):
        if logpdf(lo) < ly:
            break
        lo -= width
    for _ in range(max_steps):
        if logpdf(hi) < ly:
            break
        hi += width
    for _ in range(100):
        x1 = lo + rng.random() * (hi - lo)
        if logpdf(x1) >= ly:
            return x1
        if x1 < x0:
            lo = x1
        else:
            hi = x1
    return x0


def _log_phi_matrix(data: np.ndarray, atoms: np.ndarray, sigma: float) -> np.ndarray:
    z = (data[:, None] - atoms[None, :]) / sigma
    return -0.5 * z ** 2 - math.log(sigma) - 0.5 * LOG_2PI


def _categorical_rows(log_probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row from unnormalized log probabilities."""
    m = log_probs.max(axis=1, keepdims=True)
    probs = np.exp(log_probs - m)
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(log_probs.shape[0])[:, None] * cdf[:, -1:]
    return (u > cdf).sum(axis=1)


def _sigma_logpost(scale_prior: ScalePriorA0, n: int, ss: float):
    def logpost(theta: float) -> float:
        sigma = math.exp(theta)
        return (
            float(scale_prior.logpdf(sigma))
            + theta  # Jacobian of sigma = e^theta
            - n * theta
            - ss / (2.0 * sigma ** 2)
        )

    return logpost


def blocked_gibbs_fit(
    data: np.ndarray,
    cfg: FitConfig,
    rng: np.random.Generator,
) -> list[PosteriorDraw]:
    """Run the blocked Gibbs sampler; returns post-burn-in thinned draws.

    One sweep allocates every observation, updates the prior's weight and
    atom block, slice-samples the bandwidth and records the log likelihood.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 10:
        raise InvalidConfig("need at least 10 observations")
    if not np.all(np.isfinite(data)):
        raise InvalidConfig("data must be finite")
    n = data.size
    sigma = _init_sigma(data, cfg, rng)
    if isinstance(cfg.prior, NIGPartitionPrior):
        block = _NIGCells(cfg.prior)
    else:
        block = _PYSticks(cfg.prior, cfg.truncation, rng)
    draws: list[PosteriorDraw] = []
    logliks: list[float] = []

    for it in range(cfg.iterations):
        logmat = block.log_weights()[None, :] + _log_phi_matrix(data, block.atoms, sigma)
        alloc = _categorical_rows(logmat, rng)
        counts = np.bincount(alloc, minlength=block.atoms.size)

        block.update(data, alloc, counts, sigma, rng)

        if cfg.fixed_sigma is None:
            resid = data - block.atoms[alloc]
            ss = float((resid ** 2).sum())
            logpost = _sigma_logpost(cfg.scale_prior, n, ss)
            sigma = math.exp(_slice_sample_log(logpost, math.log(sigma), rng))

        ll = _mixture_loglik(logmat)
        logliks.append(ll)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            draws.append(
                PosteriorDraw(
                    mixing=DiscreteMixingMeasure(block.atoms.copy(), block.weights()),
                    sigma=sigma,
                    loglik=ll,
                )
            )
    _monitor_burn_in(np.array(logliks), cfg.burn_in)
    return draws


def _monitor_burn_in(logliks: np.ndarray, burn_in: int) -> None:
    if burn_in < 30:
        return
    third = burn_in // 3
    early = logliks[:third].mean()
    late = logliks[burn_in - third : burn_in].mean()
    spread = logliks[:burn_in].std() + 1e-12
    if late < early - 3.0 * spread:
        warnings.warn(
            "running-average log likelihood decreased over burn-in",
            NonConvergenceWarning,
            stacklevel=3,
        )


def _init_sigma(data: np.ndarray, cfg: FitConfig, rng: np.random.Generator) -> float:
    if cfg.fixed_sigma is not None:
        return float(cfg.fixed_sigma)
    sigma = float(cfg.scale_prior.sample(rng))
    spread = float(data.std()) or 1.0
    return min(max(sigma, 1e-3), 10.0 * spread)


def _mixture_loglik(logmat: np.ndarray) -> float:
    m = logmat.max(axis=1, keepdims=True)
    return float((m[:, 0] + np.log(np.exp(logmat - m).sum(axis=1))).sum())


class _PYSticks:
    """Pitman-Yor weight/atom block: truncated sticks with conjugate Beta
    updates and conjugate (or truncated-conjugate) atom updates."""

    def __init__(self, prior: PYParams, truncation: int, rng: np.random.Generator):
        self.prior = prior
        self.js = np.arange(1, truncation + 1)
        self.sticks = rng.beta(1.0 - prior.d, prior.c + prior.d * self.js)
        self.sticks[-1] = 1.0
        self.atoms = prior.base.sample(rng, truncation)

    def log_weights(self) -> np.ndarray:
        return _stick_log_weights(self.sticks)

    def weights(self) -> np.ndarray:
        weights = np.exp(self.log_weights())
        return weights / weights.sum()

    def update(self, data, alloc, counts, sigma, rng) -> None:
        self.sticks = _update_sticks(counts, self.prior, self.js, rng)
        self.atoms = _update_atoms_py(
            data, alloc, counts, sigma, self.prior.base, rng, self.js.size
        )


def _update_sticks(
    counts: np.ndarray, prior: PYParams, js: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Conjugate Beta stick updates; the last stick is pinned to 1 so the
    truncated weights sum to 1 exactly.  With all counts zero this draws
    from the prior stick law."""
    tail = counts[::-1].cumsum()[::-1]
    above = np.concatenate([tail[1:], [0]])
    sticks = rng.beta(1.0 - prior.d + counts, prior.c + prior.d * js + above)
    sticks = np.clip(sticks, 1e-12, 1.0 - 1e-12)
    sticks[-1] = 1.0
    return sticks


def _stick_log_weights(sticks: np.ndarray) -> np.ndarray:
    log_v = np.log(sticks)
    log_1mv = np.log1p(-np.clip(sticks, None, 1.0 - 1e-15))
    return log_v + np.concatenate([[0.0], np.cumsum(log_1mv[:-1])])


def _update_atoms_py(data, alloc, counts, sigma, base: BaseMeasure, rng, L):
    sums = np.bincount(alloc, weights=data, minlength=L)
    if base.family == "gaussian":
        prec = counts / sigma ** 2 + 1.0 / base.scale ** 2
        mean = (sums / sigma ** 2) / prec
        return mean + rng.standard_normal(L) / np.sqrt(prec)
    if base.family == "uniform":
        sd = np.where(counts > 0, sigma / np.sqrt(np.maximum(counts, 1)), np.inf)
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        flat = counts == 0
        out = np.empty(L)
        if flat.any():
            out[flat] = base.sample(rng, int(flat.sum()))
        occ = ~flat
        if occ.any():
            out[occ] = truncated_normal_sample(
                mean[occ], sd[occ], -base.scale, base.scale, rng
            )
        return out
    raise InvalidConfig(f"no conjugate atom update for base family {base.family!r}")


class _NIGCells:
    """N-IG weight block on a fixed partition: atoms stay at the cell
    midpoints; the un-normalized cell increments y are updated through
    the latent total-mass scale."""

    def __init__(self, prior: NIGPartitionPrior):
        self.atoms = prior.cell_midpoints()
        self.alphas = prior.cell_alphas()
        self.y = np.maximum(self.alphas.copy(), 1e-8)

    def log_weights(self) -> np.ndarray:
        return np.log(self.weights())

    def weights(self) -> np.ndarray:
        return self.y / self.y.sum()

    def update(self, data, alloc, counts, sigma, rng) -> None:
        # latent total-mass scale: u | y ~ Gamma(n, rate = sum y)
        u = rng.gamma(data.size, 1.0 / self.y.sum())
        # y_k | rest ~ GIG(p = counts_k - 1/2, a = 1 + 2u, b = alpha_k^2)
        a_gig = 1.0 + 2.0 * u
        b_gig = self.alphas ** 2
        y = geninvgauss.rvs(
            counts - 0.5, np.sqrt(a_gig * b_gig), scale=np.sqrt(b_gig / a_gig),
            random_state=rng,
        )
        self.y = np.maximum(y, 1e-300)


# ---------------------------------------------------------------------
# posterior summaries


def mixture_density_values(
    mixing: DiscreteMixingMeasure, sigma: float, x: np.ndarray
) -> np.ndarray:
    z = (x[None, :] - mixing.atoms[:, None]) / sigma
    block = np.exp(-0.5 * z ** 2)
    return (mixing.weights @ block) / (sigma * math.sqrt(2.0 * math.pi))


def posterior_mean_density(
    draws: Sequence[PosteriorDraw],
    grid: GridFunction,
    min_draws: int = 50,
) -> GridFunction:
    """Average of the draw densities on the reference grid."""
    if len(draws) < min_draws:
        raise TooFewDraws(f"need at least {min_draws} draws, got {len(draws)}")
    x = grid.grid()
    acc = np.zeros_like(x)
    for d in draws:
        acc += mixture_density_values(d.mixing, d.sigma, x)
    return GridFunction(grid.half_width, acc / len(draws))


def prior_predictive_density(
    cfg: FitConfig, grid: GridFunction, rng: np.random.Generator, n_draws: int = 200
) -> GridFunction:
    """Monte-Carlo prior predictive; the no-data baseline for dominance checks."""
    x = grid.grid()
    acc = np.zeros_like(x)
    for _ in range(n_draws):
        if isinstance(cfg.prior, NIGPartitionPrior):
            from .priors import nig_sample

            w = nig_sample(cfg.prior.nig_params(), rng)
            mix = DiscreteMixingMeasure(cfg.prior.cell_midpoints(), w)
        else:
            from .priors import py_sample

            draw = py_sample(cfg.prior, cfg.remainder_tol, rng)
            w = draw.weights / draw.weights.sum()
            mix = DiscreteMixingMeasure(draw.atoms, w)
        sigma = (
            cfg.fixed_sigma
            if cfg.fixed_sigma is not None
            else float(cfg.scale_prior.sample(rng))
        )
        acc += mixture_density_values(mix, sigma, x)
    return GridFunction(grid.half_width, acc / n_draws)


# ---------------------------------------------------------------------
# experiments


EXPERIMENT_HALF_WIDTH = 16.0
EXPERIMENT_N_POINTS = 2 ** 11


def experiment_grid() -> GridFunction:
    return GridFunction(EXPERIMENT_HALF_WIDTH, np.zeros(EXPERIMENT_N_POINTS))


@dataclass(frozen=True)
class TruthSpec:
    """Sampling truth: density id or an explicit Gaussian-mixture mixing."""

    name: str
    mixing: DiscreteMixingMeasure
    kernel_sigma: float = 1.0

    def density(self, grid: GridFunction) -> GridFunction:
        vals = mixture_density_values(self.mixing, self.kernel_sigma, grid.grid())
        return GridFunction(grid.half_width, vals)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.mixing), size=n, p=self.mixing.weights)
        return self.mixing.atoms[idx] + self.kernel_sigma * rng.standard_normal(n)


def resolve_truth(truth_id: str) -> TruthSpec:
    """Map an id like ``gaussian:1`` or ``twopoint`` to a TruthSpec."""
    if truth_id in ("twopoint", "twopoint:1"):
        return TruthSpec(
            name="twopoint",
            mixing=DiscreteMixingMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
        )
    cat = catalog_density(truth_id)
    if not cat.mixing_atoms:
        raise InvalidConfig(
            f"truth {truth_id!r} has no Gaussian mixture representation"
        )
    scale = float(truth_id.split(":")[1]) if ":" in truth_id else 1.0
    return TruthSpec(
        name=cat.name,
        mixing=DiscreteMixingMeasure(
            np.array(cat.mixing_atoms), np.array(cat.mixing_weights)
        ),
        kernel_sigma=scale,
    )


def default_py_config(prior_id: str = "dp") -> FitConfig:
    """Named sampler defaults: ``dp``, ``py`` (d=0.25), or ``nig``."""
    if prior_id == "nig":
        return FitConfig(prior=NIGPartitionPrior())
    d = 0.25 if prior_id == "py" else 0.0
    return FitConfig(prior=PYParams(c=1.0, d=d, base=BaseMeasure("gaussian", 2.0)))


def _task_seed(seed: int, task_index: int) -> int:
    return (int(seed) ^ int(task_index)) & 0xFFFFFFFFFFFFFFFF


def _worker_count(threads: int, n_tasks: int, cpu_count: Optional[int] = None) -> int:
    """Process-pool size for ``threads`` (0 = one per CPU), clamped to
    ``[1, min(cpu_count, n_tasks)]``."""
    if threads < 0:
        raise InvalidConfig(f"threads must be >= 0, got {threads}")
    cap = min(cpu_count or os.cpu_count() or 1, n_tasks)
    return max(1, min(threads or cap, cap))


def _run_task(args):
    summarize, truth_id, n, replicate, task_index, seed, cfg = args
    truth = resolve_truth(truth_id)
    rng = np.random.default_rng(_task_seed(seed, task_index))
    data = truth.sample(n, rng)
    draws = blocked_gibbs_fit(data, cfg, rng)
    return summarize(truth, draws, n, replicate)


def _run_experiment(summarize, truth_id, n_ladder, replicates, cfg, seed, threads):
    """Fit ``cfg`` across an increasing-n ladder, one task per replicate.

    Replicate seeds are ``seed XOR task_index`` with tasks enumerated in
    (ladder, replicate) order; output order matches the enumeration, so
    equal seeds give byte-identical tables regardless of thread count.
    """
    if list(n_ladder) != sorted(n_ladder):
        raise InvalidConfig("n ladder must be increasing")
    tasks = [
        (summarize, truth_id, int(n), rep, i * replicates + rep, seed, cfg)
        for i, n in enumerate(n_ladder)
        for rep in range(replicates)
    ]
    workers = _worker_count(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_task, tasks))
    return [_run_task(t) for t in tasks]


def _contraction_summary(truth: TruthSpec, draws, n: int, replicate: int) -> ContractionRow:
    grid = experiment_grid()
    f0 = truth.density(grid)
    mean = posterior_mean_density(draws, grid)
    diff = mean - f0
    w2_draws = [wasserstein(d.mixing, truth.mixing, 2.0) for d in draws]
    return ContractionRow(
        n=n,
        replicate=replicate,
        l1=lp_norm(diff, 1),
        l2=lp_norm(diff, 2),
        sup=lp_norm(diff, math.inf),
        w2=float(np.median(w2_draws)),
        kl=kl_divergence(f0, mean),
    )


def contraction_experiment(
    truth_id: str,
    prior_id: str,
    n_ladder: Sequence[int],
    replicates: int,
    cfg: Optional[FitConfig] = None,
    seed: int = 0,
    threads: int = 1,
) -> list[ContractionRow]:
    """Fit the prior across an increasing-n ladder and tabulate errors."""
    cfg = cfg or default_py_config(prior_id)
    return _run_experiment(
        _contraction_summary, truth_id, n_ladder, replicates, cfg, seed, threads
    )


@dataclass(frozen=True)
class W2Row:
    n: int
    replicate: int
    w2_median: float
    w2_q90: float
    w2_max: float


def _w2_summary(truth: TruthSpec, draws, n: int, replicate: int) -> W2Row:
    w2 = np.array([wasserstein(d.mixing, truth.mixing, 2.0) for d in draws])
    return W2Row(
        n=n,
        replicate=replicate,
        w2_median=float(np.median(w2)),
        w2_q90=float(np.quantile(w2, 0.9)),
        w2_max=float(w2.max()),
    )


def default_w2_config(theta_half_width: float = 4.0) -> FitConfig:
    """Compact-support setting: uniform base on [-B, B], bandwidth pinned at 1."""
    return FitConfig(
        prior=PYParams(c=1.0, d=0.0, base=BaseMeasure("uniform", theta_half_width)),
        scale_prior=None,
        fixed_sigma=1.0,
    )


def wasserstein_recovery_experiment(
    truth_id: str,
    n_ladder: Sequence[int],
    replicates: int,
    cfg: Optional[FitConfig] = None,
    seed: int = 0,
    threads: int = 1,
) -> list[W2Row]:
    """Posterior Wasserstein recovery of a compactly supported mixing truth."""
    cfg = cfg or default_w2_config()
    return _run_experiment(_w2_summary, truth_id, n_ladder, replicates, cfg, seed, threads)
