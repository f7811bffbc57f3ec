"""Desk-scale posterior inference for Gaussian-location mixtures.

One blocked Gibbs sweep serves two priors.  Its state, :class:`_Sweep`,
holds a per-prior weight/atom block, the bandwidth sigma, the config and
the data's :class:`_Allocation` workspace; :meth:`_Sweep.step` allocates
every observation, updates the block and draws sigma exactly from its
full conditional.  The blocks make the stationary laws exactly the stated
truncated priors:

* Pitman-Yor / Dirichlet (:class:`_PYSticks`): truncated stick-breaking
  with conjugate Beta sticks and conjugate (or truncated-conjugate) atoms.
* Normalized inverse-Gaussian on a fixed partition (:class:`_NIGCells`): a
  latent-scale augmentation makes the un-normalized cell increments
  conditionally generalized-inverse-Gaussian (GIG) of half-integer order
  count - 1/2, drawn for all cells in closed form (an inverse Gaussian
  plus a gamma mixture, no rejection loop) in one
  :func:`~supermix.variates.gig_sample` call per sweep.

The state has two constructors: :meth:`_Sweep.for_data` starts a fit, and
:meth:`_Sweep.from_prior` draws the truncated prior itself, the start of
the successive-conditional (Geweke) test.  :func:`blocked_gibbs_fit` is
``for_data``, a loop of ``step`` and the record: one :class:`Chain` of
read-only arrays, one row per kept draw, filled in place.

Per sweep, the workspace's one matrix product writes the log-density
relative to the largest log-weight; one exponentiation, one cumulative
sum and one comparison draw the labels.  Its exponent is rounded unlike
the direct difference-and-square form, so a label could move when a
uniform falls within a few ulps of a cumulative-sum boundary; over 12,000
sweeps of DP (n = 4000) and N-IG (n = 1000) fits the labels and the RNG
stream equal the direct form's, and the log likelihood agrees within
2e-15 relative.  numpy's exp is 10-100 times slower per element below
``FAST_EXP_MIN`` = -707, so a sweep whose exponents may fall there (each
row is concave in x: checked at the smallest and largest observation,
with a margin of 1) raises them to -707 first; other sweeps run
unclamped.  Every sweep rebuilds the columns whose total is below
L 2^53 e^-707 with their own shift, which keeps an unrescued column's
error below 2^-53 of its total.  In the CLI digest run 265 of 43,000
sweeps clamp, and every digest is unchanged.

The posterior mean density is a mean of Gaussian mixtures, summed as
spectra by :func:`posterior_mean_density`; it agrees with the per-draw sum
to a few 1e-16, and far tails may round to about -1e-16, which is not
clipped.

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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .discretize import FAST_EXP_MIN, DiscreteMixingMeasure, aligned_empty, mixture_density
from .errors import InvalidConfig, NonConvergenceWarning, TooFewDraws
from .gridfn import GridFunction, lp_norm
from .kernels import KernelSpec, check_resolution, parse_kernel_id
from .metrics import kl_divergence, quantile_distance
from .priors import (
    BaseMeasure,
    PYParams,
    ScalePriorA0,
    py_sticks,
    stick_log_weights,
)
from .variates import gig_sample, truncated_normal_sample

LOG_2PI = math.log(2.0 * math.pi)
_GAUSSIAN = KernelSpec("gaussian")

#: draw d's spectrum is summed over 0 <= t <= SPECTRAL_BAND / sigma_d; a
#: draw whose periodic images may add more than WRAP_TOL is evaluated directly
SPECTRAL_BAND = 9.5
WRAP_TOL = 1e-16

#: half-width B of the uniform base on [-B, B] in the W2 recovery setting
W2_THETA_HALF_WIDTH = 4.0

#: fewest observations a fit accepts
MIN_OBSERVATIONS = 10

#: most sweeps of one fit, 13 times the default 1500: at n = 4000 they take
#: about 7 s on one core at the 35 sticks of a ``dp`` fit, 9 s at the 50 of
#: a ``py`` fit and 80 s at L = MAX_TRUNCATION
MAX_ITERATIONS = 20_000

#: largest stick cap ``FitConfig.truncation``, 10 times the default 50: at
#: L sticks the allocation buffers take about 9 L n bytes (18 MB at
#: n = 4000 and L = 500), and the kept atoms and weights at most
#: 16 L MAX_ITERATIONS bytes (160 MB)
MAX_TRUNCATION = 500

#: a Pitman-Yor fit of n observations uses the fewest sticks L >= 10, up to
#: its cap, whose truncation bound 4 n E[R_L] is at most this
TRUNCATION_TOL = 1e-6

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


@dataclass(frozen=True)
class FitConfig:
    """Sampler configuration; validated on construction.

    ``truncation`` is the most sticks a Pitman-Yor fit may use; the fit
    takes the fewest that :func:`stick_truncation` allows.
    """

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
    falls below ``clamp_floor`` (every component far from the point) is
    rebuilt from the difference ``x_i - atom_j`` with its own max shift.

    Exponents below ``FAST_EXP_MIN`` cost numpy's exp 10-100 times more per
    element, so a sweep where some may fall there raises them to it before
    exponentiating.  Each row is concave in x, so its least value sits at
    the smallest or largest observation: the sweep clamps when the (L, 2)
    product with those two design columns ``ends`` has a value below
    ``FAST_EXP_MIN + 1``, the 1 covering the rounding between the two
    products.  Other sweeps exponentiate the product as it is.  A clamped,
    underflowed or subnormal term is off by less than e^FAST_EXP_MIN, so
    every sweep rescues the columns below ``clamp_floor`` = L 2^53
    e^FAST_EXP_MIN, and the error of an unrescued column stays below
    2^-53 of its total; the rescue is exact, so a plain sweep loses
    nothing by the floor that the clamp needs.

    The data mean, the centred design and its end columns, the buffers and
    the row pairs of the cumulative sum depend only on the data and L, so
    they are built here.  Raises ``InvalidConfig`` when a value is not
    finite, or when a centred square or the sum of the squares overflows:
    the residual sum of squares of the bandwidth draw would too.
    """

    def __init__(self, data: np.ndarray, n_components: int):
        if not np.all(np.isfinite(data)):
            raise InvalidConfig("data must be finite")
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
        self.ends = self.design[:, [int(data.argmin()), int(data.argmax())]]
        self.clamp_floor = n_components * 2.0 ** 53 * math.exp(FAST_EXP_MIN)
        self.out = aligned_empty(n_components * data.size).reshape(n_components, -1)
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
        if float(coef.dot(self.ends).min()) < FAST_EXP_MIN + 1.0:
            np.maximum(out, FAST_EXP_MIN, out=out)
        np.exp(out, out=out)
        for prev, cur in self.pairs:
            np.add(prev, cur, cur)
        tot = out[-1]
        far = np.flatnonzero(~(tot >= self.clamp_floor))  # a nan total is rebuilt too
        if far.size:
            z = (data[far] - atoms[:, None]) / sigma
            np.square(z, out=z)
            z *= -0.5
            z += (log_w - top)[:, None]
            shift = z.max(axis=0)
            out[:, far] = np.cumsum(np.exp(z - shift), axis=0)
        log_tot = np.log(tot)
        if far.size:
            log_tot[far] += shift
        u = rng.random(data.size)
        u *= tot
        alloc = np.greater(u, out, self.mask).sum(axis=0, dtype=self.label_dtype)
        const = top - math.log(sigma) - 0.5 * LOG_2PI
        return alloc, float(log_tot.sum()) + data.size * const


def stick_truncation(prior: PYParams, n: int, cap: int) -> tuple[int, float]:
    """Sticks L of a fit of ``n`` observations and its truncation bound.

    Ishwaran & James (JASA 96, 2001, Thm 1) bound the L1 distance between
    the marginal laws of n observations under the sticks truncated at L
    (last stick 1) and under the full Pitman-Yor process by 4 n E[R_L],
    where E[R_L] = prod_{k=1}^{L-1} (c + d k) / (c + d k + 1 - d).  L is
    the smallest value in [10, cap] whose bound is at most
    ``TRUNCATION_TOL``, or ``cap`` when none is; returns ``(L, 4 n E[R_L])``.
    """
    k = np.arange(1, cap)
    log_ratio = np.log(prior.c + prior.d * k) - np.log(prior.c + prior.d * k + 1.0 - prior.d)
    # log 4 n E[R_L] for L = 1, ..., cap
    log_bound = math.log(4.0 * n) + np.concatenate([[0.0], np.cumsum(log_ratio)])
    within = np.flatnonzero(log_bound[9:] <= math.log(TRUNCATION_TOL))
    sticks = 10 + int(within[0]) if within.size else cap
    return sticks, math.exp(log_bound[sticks - 1])


class _Sweep:
    """One blocked Gibbs chain: the prior's weight/atom ``block``, the
    bandwidth ``sigma``, the config and the data's ``allocation`` workspace.
    :meth:`step` is the sweep; :meth:`for_data` and :meth:`from_prior`
    build the state."""

    def __init__(self, block, sigma: float, cfg: FitConfig, allocation: Optional[_Allocation]):
        self.block, self.sigma, self.cfg, self.allocation = block, sigma, cfg, allocation

    @classmethod
    def for_data(cls, data, cfg: FitConfig, rng: np.random.Generator) -> "_Sweep":
        """A fit's start: the prior's sticks and atoms or N-IG increments y =
        alpha, and ``fixed_sigma`` or a prior sigma clipped to within three
        decades of the data's spread, so the first log likelihoods are of order 1e6 n at most."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 1:
            raise InvalidConfig("data must be one value per observation")
        if data.size < MIN_OBSERVATIONS:
            raise InvalidConfig(f"need at least {MIN_OBSERVATIONS} observations")
        nig = isinstance(cfg.prior, NIGPartitionPrior)
        components = (cfg.prior.n_cells if nig
                      else stick_truncation(cfg.prior, data.size, cfg.truncation)[0])
        allocation = _Allocation(data, components)
        spread = float(data.std()) or 1.0
        sigma = cfg.fixed_sigma or min(max(SCALE_PRIOR.sample(rng), 1e-3 * spread), 10.0 * spread)
        block = _NIGCells(cfg.prior) if nig else _PYSticks(cfg.prior, components, rng)
        return cls(block, float(sigma), cfg, allocation)

    @classmethod
    def from_prior(cls, cfg: FitConfig, n: int, rng: np.random.Generator) -> "_Sweep":
        """A state drawn from the truncated prior of a fit of ``n``
        observations: the sticks of :func:`stick_truncation` and atoms from
        the base, or IG(alpha_k, alpha_k^2) cell increments, and sigma from
        ``SCALE_PRIOR`` (or ``fixed_sigma``).  It holds no data: a driver
        sets ``allocation`` before each :meth:`step`."""
        if isinstance(cfg.prior, NIGPartitionPrior):
            block = _NIGCells(cfg.prior)
            block.y = gig_sample(-0.5, 1.0, block.alphas_sq, rng)
        else:
            block = _PYSticks(cfg.prior, stick_truncation(cfg.prior, n, cfg.truncation)[0], rng)
        return cls(block, float(cfg.fixed_sigma or SCALE_PRIOR.sample(rng)), cfg, None)

    def step(self, rng: np.random.Generator):
        """Allocate, update the block, draw sigma exactly from its full
        conditional; returns the labels and the log likelihood."""
        block, data = self.block, self.allocation.data
        alloc, loglik = self.allocation.draw(block.atoms, block.log_weights(), self.sigma, rng)
        counts = np.bincount(alloc, minlength=block.atoms.size)
        block.update(data, alloc, counts, self.sigma, rng)
        if self.cfg.fixed_sigma is None:
            ss = float(((data - block.atoms[alloc]) ** 2).sum())
            self.sigma = SCALE_PRIOR.posterior_sample(data.size, ss, rng)
        return alloc, loglik


def blocked_gibbs_fit(data: np.ndarray, cfg: FitConfig, rng: np.random.Generator) -> Chain:
    """Step :meth:`_Sweep.for_data` ``cfg.iterations`` times; returns the
    kept sweeps ``burn_in, burn_in + thinning, ...`` as one :class:`Chain`,
    each filling one row of its arrays in place."""
    sweep = _Sweep.for_data(data, cfg, rng)
    kept = len(range(cfg.burn_in, cfg.iterations, cfg.thinning))
    atoms, weights = np.empty((2, kept, sweep.block.atoms.size))
    sigmas, logliks = np.empty(kept), np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        logliks[it] = sweep.step(rng)[1]
        row, off = divmod(it - cfg.burn_in, cfg.thinning)
        if row >= 0 and off == 0:
            atoms[row] = sweep.block.atoms
            weights[row] = sweep.block.weights()
            sigmas[row] = sweep.sigma
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
        base, L = self.prior.base, self.js.size
        sums = np.bincount(alloc, weights=data, minlength=L)
        if base.family == "gaussian":
            prec = counts / sigma ** 2 + 1.0 / base.scale ** 2
            self.atoms = (sums / sigma ** 2) / prec + rng.standard_normal(L) / np.sqrt(prec)
            return
        # uniform base: prior draws for empty components (none is a size-0 draw,
        # which leaves the generator as it is), truncated-conjugate updates for
        # the occupied ones, of which there is at least one
        flat, self.atoms = counts == 0, np.empty(L)
        self.atoms[flat] = base.sample(rng, int(flat.sum()))
        occ = ~flat
        self.atoms[occ] = truncated_normal_sample(sums[occ] / counts[occ],
                                                  sigma / np.sqrt(counts[occ]),
                                                  -base.scale, base.scale, rng)


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


def posterior_mean_density(chain: Chain, grid: GridFunction, min_draws: int = 50) -> GridFunction:
    """Mean over the chain's draws d of sum_j w_dj phi_{sigma_d}(x - a_dj)
    on ``grid``.

    Draw d adds its spectrum e^{-sigma_d^2 t^2 / 2} sum_j w_dj e^{i t a_dj}
    at the grid frequencies 0 <= t <= SPECTRAL_BAND / sigma_d (beyond, it
    is below e^{-45}); the negative half follows by symmetry and
    :meth:`GridFunction.from_spectrum` synthesizes the mean.  Shared atoms
    share one phase table.  A draw whose band reaches Nyquist, or whose
    :func:`_wrap_bound` exceeds WRAP_TOL, is added by
    :func:`~supermix.discretize.mixture_density` instead, and the result
    then caches no spectrum.  Raises ``TooFewDraws`` below ``min_draws``.
    """
    if len(chain) < min_draws:
        raise TooFewDraws(f"need at least {min_draws} draws, got {len(chain)}")
    atoms, weights, sigma = chain.atoms, chain.weights, chain.sigma
    t, half_width, n = grid.freqs(), grid.half_width, grid.n_points
    wrap = _wrap_bound(atoms, weights, sigma[:, None], half_width)
    # a nan bound fails the comparison too
    spectral = (sigma > SPECTRAL_BAND / grid.nyquist) & (wrap <= WRAP_TOL)
    keep = np.flatnonzero(spectral)
    spec = np.zeros(n, dtype=complex)
    if keep.size:
        bands = np.minimum(SPECTRAL_BAND / t[1] / sigma[keep], n // 2 - 1).astype(int)
        top = int(bands.max()) + 1
        damp = np.exp(-0.5 * (sigma[keep, None] * t[:top]) ** 2)
        shared = (atoms == atoms[:1]).all()
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


def _w2_draws(chain: Chain, truth: "TruthSpec") -> np.ndarray:
    """W2 distance from each draw's mixing measure to the truth's."""
    t = truth.mixing
    return np.array([quantile_distance(a, w, t.atoms, t.weights, 2.0)
                     for a, w in zip(chain.atoms, chain.weights)])


# ---------------------------------------------------------------------
# experiments


EXPERIMENT_HALF_WIDTH = 16.0
EXPERIMENT_N_POINTS = 2 ** 11

#: largest n ladder entry, 25 times the largest in use (4000): a fit's
#: allocation buffers take about 9 L n bytes, 36 MB at the 40 sticks of a
#: ``dp`` fit and 45 MB at the 50 of a ``py`` fit, and its 1500 sweeps about
#: 12 s and 14 s on one core
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
    With more than one worker the tasks run in a process pool; its module
    (and ``multiprocessing`` with it) is imported only then, so a
    single-worker run and every other entry point do not load it.
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
        from concurrent.futures import ProcessPoolExecutor

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
