"""Desk-scale posterior inference for Gaussian-location mixtures.

One blocked Gibbs sweep (allocation, exact bandwidth draw, log
likelihood) serves two priors through a per-prior weight/atom block,
chosen so that the stationary laws are exactly the stated truncated
priors:

* Pitman-Yor / Dirichlet: truncated stick-breaking with conjugate Beta
  stick updates, conjugate (or truncated-conjugate) atom updates, and an
  exact ratio-of-uniforms draw of the bandwidth from its full conditional.
* Normalized inverse-Gaussian on a fixed partition: the exact
  finite-dimensional law of the weights is preserved by a latent-scale
  augmentation that makes the un-normalized cell increments conditionally
  generalized-inverse-Gaussian (GIG), drawn for all cells in one
  :func:`~supermix.variates.gig_sample` call per sweep.

Allocation and log likelihood come from one :class:`_Allocation`
workspace per fit, which holds what no sweep changes: the data mean and
centred design, a components x observations buffer with the row pairs
of its cumulative sum, a boolean buffer for the label count and the
coefficient buffer.  Per sweep, one matrix product writes the
log-density relative to the largest log-weight, then one
exponentiation, one cumulative sum and one comparison draw the labels.
The exponent is rounded differently from the direct difference-and-square
form, so a label could in principle move when a uniform falls within a
few ulps of a cumulative-sum boundary; over 12,000 sweeps of DP
(n = 4000) and N-IG (n = 1000) fits the labels and the RNG stream equal
the direct form's, and the log likelihood agrees within 2e-15 relative.

A fit returns one :class:`Chain` of read-only arrays, one row per kept
draw, filled in place during the sweep; the summaries read its rows.

The posterior mean and the prior predictive are means of Gaussian
mixtures, summed as spectra by :func:`_mixture_mean`; they agree with the
per-draw sum to a few 1e-16, and far tails may round to about -1e-16,
which is not clipped.

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

from .discretize import DiscreteMixingMeasure, mixture_density
from .errors import InvalidConfig, NonConvergenceWarning, TooFewDraws
from .gridfn import GridFunction, lp_norm
from .kernels import KernelSpec, check_resolution, parse_kernel_id
from .metrics import kl_divergence, quantile_distance
from .priors import (
    BaseMeasure,
    NIGParams,
    PYParams,
    ScalePriorA0,
    nig_sample,
    py_sample,
    py_sticks,
    stick_log_weights,
)
from .variates import gig_sample, truncated_normal_sample

LOG_2PI = math.log(2.0 * math.pi)
_GAUSSIAN = KernelSpec("gaussian")

#: prior predictive: Monte-Carlo draws and the stick-breaking remainder
#: at which each PY draw is truncated
PRIOR_PREDICTIVE_DRAWS = 200
PRIOR_PREDICTIVE_TRUNC_TOL = 1e-4

#: draw d's spectrum is summed over 0 <= t <= SPECTRAL_BAND / sigma_d; a
#: draw whose periodic images may add more than WRAP_TOL is evaluated directly
SPECTRAL_BAND = 9.5
WRAP_TOL = 1e-16

#: half-width B of the uniform base on [-B, B] in the W2 recovery setting
W2_THETA_HALF_WIDTH = 4.0

#: fewest observations a fit accepts
MIN_OBSERVATIONS = 10

#: most sweeps of one fit, 13 times the default 1500: at n = 4000 they take
#: about 9 s on one core at L = 50 and 80 s at L = MAX_TRUNCATION
MAX_ITERATIONS = 20_000

#: most stick-breaking components L of one fit, 10 times the default 50: the
#: allocation buffers take about 9 L n bytes (18 MB at n = 4000), and the
#: kept atoms and weights at most 16 L MAX_ITERATIONS bytes (160 MB)
MAX_TRUNCATION = 500

#: bandwidth prior of every fit whose ``FitConfig.fixed_sigma`` is None
SCALE_PRIOR = ScalePriorA0()


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
    fixed_sigma: Optional[float] = None
    truncation: int = 50
    iterations: int = 1500
    burn_in: int = 500
    thinning: int = 2

    def __post_init__(self):
        if not 10 <= self.truncation <= MAX_TRUNCATION:
            raise InvalidConfig(f"truncation level must be in 10..{MAX_TRUNCATION}, "
                                f"got {self.truncation}")
        if self.burn_in < 0:
            raise InvalidConfig(f"burn_in must be >= 0, got {self.burn_in}")
        if not self.iterations > self.burn_in:
            raise InvalidConfig("iterations must exceed burn_in")
        if self.iterations > MAX_ITERATIONS:
            raise InvalidConfig(f"iterations must be <= {MAX_ITERATIONS}, got {self.iterations}")
        if self.thinning < 1:
            raise InvalidConfig("thinning must be >= 1")
        if self.fixed_sigma is not None and not 0.0 < self.fixed_sigma < math.inf:
            raise InvalidConfig(
                f"fixed_sigma must be finite and positive, got {self.fixed_sigma}"
            )


@dataclass(frozen=True)
class PosteriorDraw:
    mixing: DiscreteMixingMeasure
    sigma: float
    loglik: float


@dataclass(frozen=True, eq=False)
class Chain:
    """Kept draws of one fit as read-only arrays, one row per draw.

    ``atoms`` and ``weights`` are (draws, components), each row in
    ascending atom order; ``sigma`` and ``loglik`` hold one value per draw.
    ``chain[i]`` is draw i as a :class:`PosteriorDraw`, built once, on first
    access; ``chain[a:b:c]`` is a Chain of those rows.
    """

    atoms: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray
    loglik: np.ndarray
    _views: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return self.sigma.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Chain(self.atoms[i], self.weights[i], self.sigma[i], self.loglik[i])
        i = range(len(self))[i]
        if i not in self._views:
            mixing = DiscreteMixingMeasure(self.atoms[i], self.weights[i])
            self._views[i] = PosteriorDraw(mixing, float(self.sigma[i]), float(self.loglik[i]))
        return self._views[i]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class ContractionRow:
    n: int
    replicate: int
    l1: float
    l2: float
    sup: float
    w2: float
    kl: float


#: a column total below this is rebuilt with the exact per-observation
#: shift: a term that underflowed or was rounded as a subnormal is off by
#: at most 2^-1075, which stays below 2^-53 of a total above 2^-969
_RESCUE_FLOOR = np.finfo(float).tiny * 2.0 ** 53


class _Allocation:
    """Allocation and log likelihood for one fit's data, over buffers built
    once per fit.

    One matrix product writes the (L, n) log-density relative to the
    largest log-weight ``top``, ``log w_j - top - (x_i - atom_j)^2 /
    (2 sigma^2)``, into ``out``: an (L, 3) coefficient matrix times the
    (3, n) design ``[x, 1, x^2]``, with data and atoms centred at the data
    mean so that the expanded square keeps its rounding error near
    ``eps * spread^2 / sigma^2``.  Every entry is at most 0 up to rounding,
    so no per-observation max is needed before exponentiating.  The
    buffer is exponentiated and accumulated over components; one uniform
    per observation is compared against that cumulative sum, and its last
    row gives the normalizer of the log likelihood.  A column whose total
    falls below ``_RESCUE_FLOOR`` (every component far from the point) is
    rebuilt from the difference ``x_i - atom_j`` with its own max shift.

    The data mean, the centred design, the buffers and the row pairs of
    the cumulative sum depend only on the data and L, so they are built
    here.  Raises ``InvalidConfig`` when a centred square or the sum of
    the squares overflows: the residual sum of squares of the bandwidth
    draw would too.
    """

    def __init__(self, data: np.ndarray, n_components: int):
        self.data = data
        with np.errstate(over="ignore", invalid="ignore"):
            self.centre = data.mean()
            xc = data - self.centre
            self.design = np.stack([xc, np.ones_like(xc), xc * xc])
            squares = float(data @ data)
        if not (np.isfinite(self.design[2]).all() and squares < math.inf):
            raise InvalidConfig(
                f"data from {data.min():.3g} to {data.max():.3g} are too large: "
                "their squares overflow"
            )
        self.out = np.empty((n_components, data.size))
        # cumulative sum over components, one row at a time: np.cumsum(axis=0)
        # runs its inner loop down each column (stride n) and takes about five
        # times as long; the additions, and so the sums, are the same
        self.pairs = [(self.out[j - 1], self.out[j]) for j in range(1, n_components)]
        self.mask = np.empty(self.out.shape, dtype=bool)
        self.coef = np.empty((n_components, 3))
        # labels are below L, so the count fits the smallest integer type that
        # holds L; summing the booleans into a wider type casts every cell
        self.label_dtype = np.min_scalar_type(n_components)

    def draw(self, atoms, log_w, sigma, rng):
        """Labels and mixture log likelihood; returns ``(alloc, loglik)``."""
        data, out, coef = self.data, self.out, self.coef
        top = float(log_w.max())
        ac = atoms - self.centre
        inv_var = 1.0 / (sigma * sigma)
        coef[:, 0] = ac * inv_var
        coef[:, 1] = (log_w - top) - 0.5 * inv_var * ac * ac
        coef[:, 2] = -0.5 * inv_var
        np.matmul(coef, self.design, out=out)
        np.exp(out, out=out)
        for prev, cur in self.pairs:
            np.add(prev, cur, cur)
        tot = out[-1]
        shift = np.zeros(data.size)
        far = np.flatnonzero(~(tot >= _RESCUE_FLOOR))  # a nan total is rebuilt too
        if far.size:
            z = (data[far] - atoms[:, None]) / sigma
            np.square(z, out=z)
            z *= -0.5
            z += (log_w - top)[:, None]
            shift[far] = z.max(axis=0)
            out[:, far] = np.cumsum(np.exp(z - shift[far]), axis=0)
        u = rng.random(data.size)
        u *= tot
        alloc = np.greater(u, out, self.mask).sum(axis=0, dtype=self.label_dtype)
        const = top - math.log(sigma) - 0.5 * LOG_2PI
        return alloc, float((shift + np.log(tot)).sum()) + data.size * const


def blocked_gibbs_fit(data: np.ndarray, cfg: FitConfig, rng: np.random.Generator) -> Chain:
    """Run the blocked Gibbs sampler; returns the kept draws as one :class:`Chain`.

    One sweep allocates every observation, updates the prior's weight and
    atom block, draws the bandwidth exactly from its full conditional
    (:meth:`~supermix.priors.ScalePriorA0.posterior_sample`) and records
    the log likelihood.  Sweeps ``burn_in, burn_in + thinning, ...`` are
    kept, each filling one row of the chain's arrays in place.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise InvalidConfig("data must be one value per observation")
    if data.size < MIN_OBSERVATIONS:
        raise InvalidConfig(f"need at least {MIN_OBSERVATIONS} observations")
    if not np.all(np.isfinite(data)):
        raise InvalidConfig("data must be finite")
    n = data.size
    nig = isinstance(cfg.prior, NIGPartitionPrior)
    allocation = _Allocation(data, cfg.prior.n_cells if nig else cfg.truncation)
    sigma = _init_sigma(data, cfg, rng)
    block = _NIGCells(cfg.prior) if nig else _PYSticks(cfg.prior, cfg.truncation, rng)
    kept = len(range(cfg.burn_in, cfg.iterations, cfg.thinning))
    atoms, weights = np.empty((2, kept, block.atoms.size))
    sigmas, logliks = np.empty(kept), np.empty(cfg.iterations)

    for it in range(cfg.iterations):
        alloc, logliks[it] = allocation.draw(block.atoms, block.log_weights(), sigma, rng)
        counts = np.bincount(alloc, minlength=block.atoms.size)

        block.update(data, alloc, counts, sigma, rng)

        if cfg.fixed_sigma is None:
            ss = float(((data - block.atoms[alloc]) ** 2).sum())
            sigma = SCALE_PRIOR.posterior_sample(n, ss, rng)

        row, off = divmod(it - cfg.burn_in, cfg.thinning)
        if row >= 0 and off == 0:
            atoms[row] = block.atoms
            weights[row] = block.weights()
            sigmas[row] = sigma
    _monitor_burn_in(logliks, cfg.burn_in)
    order = np.argsort(atoms, axis=1)
    arrays = (np.take_along_axis(atoms, order, axis=1), np.take_along_axis(weights, order, axis=1),
              sigmas, logliks[cfg.burn_in :: cfg.thinning])
    for arr in arrays:
        arr.setflags(write=False)
    return Chain(*arrays)


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
    sigma = float(SCALE_PRIOR.sample(rng))
    spread = float(data.std()) or 1.0
    # within three decades of the data's spread on either side, so the first
    # sweeps' log likelihood stays of order n (x - atom)^2 / sigma^2 <= 1e6 n
    return min(max(sigma, 1e-3 * spread), 10.0 * spread)


class _PYSticks:
    """Pitman-Yor weight/atom block: truncated sticks with conjugate Beta
    updates and conjugate (or truncated-conjugate) atom updates."""

    def __init__(self, prior: PYParams, truncation: int, rng: np.random.Generator):
        self.prior = prior
        self.js = np.arange(1, truncation + 1)
        self._draw_sticks(rng)
        self.atoms = prior.base.sample(rng, truncation)

    def _draw_sticks(self, rng: np.random.Generator, counts=0, above=0) -> None:
        """Sticks from ``py_sticks``, clipped so every log weight is finite;
        the last is pinned to 1 so the truncated weights sum to 1 exactly."""
        self.sticks = np.clip(py_sticks(self.prior, self.js, rng, counts, above), 1e-12, 1 - 1e-12)
        self.sticks[-1] = 1.0

    def log_weights(self) -> np.ndarray:
        return stick_log_weights(self.sticks)

    def weights(self) -> np.ndarray:
        weights = np.exp(self.log_weights())
        return weights / weights.sum()

    def update(self, data, alloc, counts, sigma, rng) -> None:
        self._draw_sticks(rng, counts, counts.sum() - counts.cumsum())
        self.atoms = _update_atoms_py(
            data, alloc, counts, sigma, self.prior.base, rng, self.js.size
        )


def _update_atoms_py(data, alloc, counts, sigma, base: BaseMeasure, rng, L):
    sums = np.bincount(alloc, weights=data, minlength=L)
    if base.family == "gaussian":
        prec = counts / sigma ** 2 + 1.0 / base.scale ** 2
        mean = (sums / sigma ** 2) / prec
        return mean + rng.standard_normal(L) / np.sqrt(prec)
    # uniform base: prior draws for empty components (none is a size-0 draw,
    # which leaves the generator as it is), truncated-conjugate updates for
    # the occupied ones, of which there is at least one
    flat = counts == 0
    out = np.empty(L)
    out[flat] = base.sample(rng, int(flat.sum()))
    occ = ~flat
    out[occ] = truncated_normal_sample(sums[occ] / counts[occ], sigma / np.sqrt(counts[occ]),
                                       -base.scale, base.scale, rng)
    return out


class _NIGCells:
    """N-IG weight block on a fixed partition: atoms stay at the cell
    midpoints; the un-normalized cell increments y are updated through
    the latent total-mass scale."""

    def __init__(self, prior: NIGPartitionPrior):
        self.atoms = prior.cell_midpoints()
        alphas = prior.cell_alphas()
        self.alphas_sq = alphas ** 2
        self.y = np.maximum(alphas, 1e-8)

    def log_weights(self) -> np.ndarray:
        return np.log(self.weights())

    def weights(self) -> np.ndarray:
        return self.y / self.y.sum()

    def update(self, data, alloc, counts, sigma, rng) -> None:
        # latent total-mass scale: u | y ~ Gamma(n, rate = sum y)
        u = rng.gamma(data.size, 1.0 / self.y.sum())
        # y_k | rest ~ GIG(p = counts_k - 1/2, a = 1 + 2u, b = alpha_k^2)
        y = gig_sample(counts - 0.5, 1.0 + 2.0 * u, self.alphas_sq, rng)
        self.y = np.maximum(y, 1e-300)


# ---------------------------------------------------------------------
# posterior summaries


def _wrap_bound(atoms, weights, sigma, half_width: float):
    """Bound, summed over the last axis, on what the 2X-periodic images add
    at a grid point: those of an atom at d = X - |a| > 0 from the edge add
    at most phi_sigma(d) + Q(d / sigma) / (2X) <= phi_sigma(d) (1 +
    sigma^2 / (2X d)) per side; an atom with d <= 0 gets inf."""
    d = half_width - np.abs(atoms)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = d / sigma
        image = np.where(d > 0.0, np.exp(-0.5 * z * z) * (1.0 + sigma / (2.0 * half_width * z)),
                         np.inf)
        return (weights * image / sigma).sum(axis=-1) * (2.0 / math.sqrt(2.0 * math.pi))


def _mixture_mean(grid: GridFunction, atoms, weights, sigma) -> GridFunction:
    """Mean over draws d of sum_j w_dj phi_{sigma_d}(x - a_dj) on ``grid``.

    Draw d adds its spectrum e^{-sigma_d^2 t^2 / 2} sum_j w_dj e^{i t a_dj}
    at the grid frequencies 0 <= t <= SPECTRAL_BAND / sigma_d (beyond, it
    is below e^{-45}); the negative half follows by symmetry and
    :meth:`GridFunction.from_spectrum` synthesizes the mean.  Shared atoms
    share one phase table.  A draw whose band reaches Nyquist, or whose
    :func:`_wrap_bound` exceeds WRAP_TOL, is added by
    :func:`~supermix.discretize.mixture_density` instead, and the result
    then caches no spectrum.
    """
    if len({len(a) for a in atoms}) == 1:
        atoms, weights = np.asarray(atoms), np.asarray(weights)
    t, half_width, n = grid.freqs(), grid.half_width, grid.n_points
    sigma = np.asarray(sigma, dtype=float)
    if isinstance(atoms, np.ndarray):
        wrap = _wrap_bound(atoms, weights, sigma[:, None], half_width)
    else:
        wrap = np.array([_wrap_bound(*row, half_width) for row in zip(atoms, weights, sigma)])
    # a nan bound fails the comparison too
    spectral = (sigma > SPECTRAL_BAND / grid.nyquist) & (wrap <= WRAP_TOL)
    keep = np.flatnonzero(spectral)
    spec = np.zeros(n, dtype=complex)
    if keep.size:
        bands = np.minimum(SPECTRAL_BAND / t[1] / sigma[keep], n // 2 - 1).astype(int)
        top = int(bands.max()) + 1
        damp = np.exp(-0.5 * (sigma[keep, None] * t[:top]) ** 2)
        shared = isinstance(atoms, np.ndarray) and (atoms == atoms[:1]).all()
        phases = np.exp(1j * np.outer(t[:top], atoms[0])) if shared else None
        # only C-ordered (frequencies, atoms) tables times a vector: then each
        # sum is one dot product, in an order no BLAS thread count changes
        for row, d, m in zip(damp, keep.tolist(), (bands + 1).tolist()):
            if shared:
                sums = phases[:m] @ weights[d]
            else:
                # the sum at m = qb + r is row q of high times row r of low
                b, a = math.isqrt(m - 1) + 1, atoms[d]
                high = np.exp(1j * np.outer(t[:m:b], a))
                low = np.exp(1j * np.outer(t[:b], a)) * weights[d]
                sums = np.array([high @ col for col in low]).T.ravel()[:m]
            spec[:m] += row[:m] * sums
        spec[:top] /= sigma.size
        spec[-1:-top:-1] = spec[1:top].conj()
    mean = GridFunction.from_spectrum(half_width, n, spec)
    if keep.size == sigma.size:
        return mean
    acc = sum(mixture_density(atoms[d], weights[d], _GAUSSIAN, float(sigma[d]), grid.grid())
              for d in np.flatnonzero(~spectral).tolist())
    return GridFunction(half_width, mean.values + acc / sigma.size)


def posterior_mean_density(chain: Chain, grid: GridFunction, min_draws: int = 50) -> GridFunction:
    """Average of the draw densities on the reference grid (:func:`_mixture_mean`)."""
    if len(chain) < min_draws:
        raise TooFewDraws(f"need at least {min_draws} draws, got {len(chain)}")
    return _mixture_mean(grid, chain.atoms, chain.weights, chain.sigma)


def _w2_draws(chain: Chain, truth: "TruthSpec") -> np.ndarray:
    """W2 distance from each draw's mixing measure to the truth's."""
    t = truth.mixing
    return np.array([quantile_distance(a, w, t.atoms, t.weights, 2.0)
                     for a, w in zip(chain.atoms, chain.weights)])


def prior_predictive_density(cfg: FitConfig, grid: GridFunction,
                             rng: np.random.Generator) -> GridFunction:
    """Monte-Carlo prior predictive; the no-data baseline for dominance checks."""
    nig = isinstance(cfg.prior, NIGPartitionPrior)
    if nig:
        params, midpoints = cfg.prior.nig_params(), cfg.prior.cell_midpoints()
    mixes, sigma = [], np.empty(PRIOR_PREDICTIVE_DRAWS)
    for i in range(PRIOR_PREDICTIVE_DRAWS):
        if nig:
            mixes.append(DiscreteMixingMeasure(midpoints, nig_sample(params, rng)[0]))
        else:
            draw = py_sample(cfg.prior, PRIOR_PREDICTIVE_TRUNC_TOL, rng)
            mixes.append(DiscreteMixingMeasure(draw.atoms, draw.weights / draw.weights.sum()))
        sigma[i] = cfg.fixed_sigma if cfg.fixed_sigma is not None else SCALE_PRIOR.sample(rng)
    return _mixture_mean(grid, [m.atoms for m in mixes], [m.weights for m in mixes], sigma)


# ---------------------------------------------------------------------
# experiments


EXPERIMENT_HALF_WIDTH = 16.0
EXPERIMENT_N_POINTS = 2 ** 11

#: largest n ladder entry, 25 times the largest in use (4000): a fit's
#: allocation buffers take about 9 L n bytes, 45 MB at L = 50, and its 1500
#: sweeps about 15 s on one core
MAX_LADDER_N = 10 ** 5

#: most tasks (ladder entries times replicates) of one experiment: the task
#: list is built before the first fit, and at 0.5 s or more a fit this many
#: take over an hour per core
MAX_TASKS = 10 ** 4


def experiment_grid() -> GridFunction:
    return GridFunction(EXPERIMENT_HALF_WIDTH, np.zeros(EXPERIMENT_N_POINTS))


@dataclass(frozen=True)
class TruthSpec:
    """Sampling truth: density id or an explicit Gaussian-mixture mixing."""

    name: str
    mixing: DiscreteMixingMeasure
    kernel_sigma: float = 1.0

    def density(self, grid: GridFunction) -> GridFunction:
        vals = self.mixing.mixture_density(_GAUSSIAN, self.kernel_sigma, grid.grid())
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
    spec = parse_kernel_id(truth_id)
    check_resolution(spec)
    if spec.family != "gaussian":
        raise InvalidConfig(
            f"truth {truth_id!r} has no Gaussian mixture representation"
        )
    return TruthSpec(
        name=spec.id(),
        mixing=DiscreteMixingMeasure.point_mass(0.0),
        kernel_sigma=spec.scale,
    )


def default_py_config(prior_id: str = "dp") -> FitConfig:
    """Named sampler defaults: ``dp``, ``py`` (d=0.25), or ``nig``."""
    if prior_id == "nig":
        return FitConfig(prior=NIGPartitionPrior())
    discounts = {"dp": 0.0, "py": 0.25}
    if prior_id not in discounts:
        raise InvalidConfig(f"unknown prior id {prior_id!r}; expected dp, py or nig")
    base = BaseMeasure("gaussian", 2.0)
    return FitConfig(prior=PYParams(c=1.0, d=discounts[prior_id], base=base))


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
    chain = blocked_gibbs_fit(data, cfg, rng)
    return summarize(truth, chain, n, replicate)


def _run_experiment(summarize, truth_id, n_ladder, replicates, cfg, seed, threads):
    """Fit ``cfg`` across an increasing-n ladder, one task per replicate.

    Replicate seeds are ``seed XOR task_index`` with tasks enumerated in
    (ladder, replicate) order; output order matches the enumeration, so
    equal seeds give byte-identical tables regardless of thread count.
    """
    if list(n_ladder) != sorted(n_ladder):
        raise InvalidConfig("n ladder must be increasing")
    if not all(MIN_OBSERVATIONS <= n <= MAX_LADDER_N for n in n_ladder):
        raise InvalidConfig(f"n ladder entries must be in {MIN_OBSERVATIONS}..{MAX_LADDER_N}, "
                            f"got {min(n_ladder)} to {max(n_ladder)}")
    cap = MAX_TASKS // max(len(n_ladder), 1)
    if not 1 <= replicates <= cap:
        raise InvalidConfig(f"replicates must be in 1..{cap} for {len(n_ladder)} ladder "
                            f"entries (at most {MAX_TASKS} tasks), got {replicates}")
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


def _contraction_summary(truth: TruthSpec, chain: Chain, n: int, replicate: int) -> ContractionRow:
    grid = experiment_grid()
    f0 = truth.density(grid)
    mean = posterior_mean_density(chain, grid)
    diff = mean - f0
    return ContractionRow(
        n=n,
        replicate=replicate,
        l1=lp_norm(diff, 1),
        l2=lp_norm(diff, 2),
        sup=lp_norm(diff, math.inf),
        w2=float(np.median(_w2_draws(chain, truth))),
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


def _w2_summary(truth: TruthSpec, chain: Chain, n: int, replicate: int) -> W2Row:
    w2 = _w2_draws(chain, truth)
    return W2Row(
        n=n,
        replicate=replicate,
        w2_median=float(np.median(w2)),
        w2_q90=float(np.quantile(w2, 0.9)),
        w2_max=float(w2.max()),
    )


def default_w2_config() -> FitConfig:
    """Compact-support setting: uniform base on [-B, B], bandwidth pinned at 1."""
    return FitConfig(
        prior=PYParams(c=1.0, d=0.0, base=BaseMeasure("uniform", W2_THETA_HALF_WIDTH)),
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
