"""Prior-mass lower bounds C exp(-rate * exponent) on small L1 balls
around the first N Pitman-Yor sticks, N i.i.d. base-measure locations and
an N-IG weight vector.  The constant C is existential:
:func:`lemma_verification_table` fits it once on a lemma's reference
configuration, after which each bound is falsifiable against Monte-Carlo
probabilities on harder configurations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import PreconditionViolated
from .priors import BaseMeasure, NIGParams, PYParams, _across_columns, _nig_cells


@dataclass(frozen=True)
class FittedConstants:
    """(log C, rate) pair turning an existential bound into a number."""

    log_c: float
    rate: float

    def bound(self, exponent: float) -> float:
        return self.log_c - self.rate * exponent


#: default rates; the fitted log_c anchors come from each lemma's
#: reference configuration
PY_STICKS_RATE = 1.5
PY_LOCATIONS_RATE = 1.0
NIG_RATE = 2.0
#: the fitted bound sits this far (in log) below the reference probability
FIT_LOG_MARGIN = 0.7


def prior_mass_bound_py_sticks(n: int, eps: float, v_max: float, c: float, d: float,
                               constants: FittedConstants) -> float:
    """Log lower bound for the stick event
    ``(sum_{j<=N} sum_{h<=j} |V_h - v_h| <= 2 eps, min V_j > eps/N^2)``,
    with exponent N max{log(N / eps), d N log(1 / (1 - v_max))}."""
    if not 0 < eps < 1:
        raise PreconditionViolated("eps must lie in (0, 1)")
    if not 0 < v_max < 1:
        raise PreconditionViolated("v_max must lie in (0, 1)")
    if not (2.0 * eps / n ** 2) < (1.0 - v_max) / 2.0:
        raise PreconditionViolated("need 2 eps / N^2 < (1 - v_max)/2")
    PYParams(c=c, d=d)  # validates (c, d)
    return constants.bound(
        n * max(math.log(n / eps), d * n * math.log(1.0 / (1.0 - v_max)) if d > 0 else 0.0)
    )


def prior_mass_bound_py_locations(n: int, eps: float, a: float, base: BaseMeasure,
                                  constants: FittedConstants) -> float:
    """Log lower bound for ``P(sum_j |Z_j - z_j| <= eps)`` with targets in
    [-a, a] and i.i.d. base draws, with exponent
    N (log(N M / (2 eps)) + b a^2): M is the base's total mass, and the
    Gaussian base's normalized density decays like exp(-b theta^2) with
    b = 1 / (2 scale^2); the compact uniform base adds no tail term."""
    if not 0 < eps < 1:
        raise PreconditionViolated("eps must lie in (0, 1)")
    if a <= 0:
        raise PreconditionViolated("a must be positive")
    tail = 1.0 / (2.0 * base.scale ** 2) * a ** 2.0 if base.family == "gaussian" else 0.0
    return constants.bound(n * (math.log(n * base.total_mass / (2.0 * eps)) + tail))


def prior_mass_bound_nig(n: int, eps: float, z0: np.ndarray, params: NIGParams,
                         constants: FittedConstants) -> float:
    """Log lower bound for the N-IG event
    ``(sum_j |Z_j - z0_j| <= 2 eps, min Z_j > eps^2 / 2)``, with exponent
    N max{log(1 / eps), log(1 / (min z0 - eps))}.

    Preconditions: min z0 > eps, eps <= 1/N, and cell masses within
    [eps, 1].
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.size != n or params.n_cells != n:
        raise PreconditionViolated("z0 and alphas must have length N")
    if not 0 < eps <= 1.0 / n:
        raise PreconditionViolated("need eps in (0, 1/N]")
    z_min = float(z0.min())
    if not z_min > eps:
        raise PreconditionViolated("need min z0 > eps")
    if np.any(params.alphas < eps - 1e-12) or np.any(params.alphas > 1.0 + 1e-12):
        raise PreconditionViolated(f"cell masses must lie in [{eps:.3g}, 1] for this bound")
    return constants.bound(n * max(math.log(1.0 / eps), math.log(1.0 / (z_min - eps))))


def _event_targets(targets, eps: float, n_mc: int) -> np.ndarray:
    """The targets of a Monte-Carlo event test as a float array, after
    checking the test's inputs: a budget ``n_mc`` >= 1, a non-empty 1-D
    array of finite targets and a finite ``eps`` > 0."""
    targets = np.asarray(targets, dtype=float)
    if not n_mc >= 1:
        raise ValueError(f"Monte-Carlo budget n_mc must be >= 1, got {n_mc}")
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError(f"event targets must be a non-empty 1-D array, got shape {targets.shape}")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"event targets must be finite, got {targets.tolist()}")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    return targets


def _l1_ball_probability(cells: np.ndarray, targets: np.ndarray, radius: float,
                         floor=None, weights=None) -> tuple[float, float]:
    """Monte-Carlo probability, and its binomial standard error, that a
    draw lies in the ball sum_j weights_j |x_j - targets_j| <= radius
    (unit weights by default) and, given a ``floor``, that its smallest
    coordinate exceeds it.  ``cells`` holds the draws cell-major, shape
    (N, n_mc), and is overwritten; the sums and minima run along the long
    axis with numpy's row-wise bits."""
    above = None if floor is None else _across_columns(np.minimum, cells.T) > floor
    cells -= targets[:, None]
    np.abs(cells, out=cells)
    if weights is not None:
        cells *= weights[:, None]
    hit = _across_columns(np.add, cells.T) <= radius
    if above is not None:
        hit &= above
    p = hit.mean()
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / hit.size)
    return float(p), se


def _py_stick_draws(c: float, d: float, n: int, n_mc: int, rng: np.random.Generator) -> np.ndarray:
    """``n_mc`` draws of the first ``n`` Pitman-Yor sticks, cell-major:
    shape (n, n_mc), row j - 1 holding V_j ~ Beta(1 - d, c + d j).

    Each stick is the gamma ratio G_a / (G_a + G_b) of independent
    standard gammas of shapes 1 - d and c + d j (Devroye, Non-Uniform
    Random Variate Generation, 1986, IX.4), which numpy's own ``beta``
    uses whenever a shape exceeds 1; at Beta(1, 1) it replaces Johnk's
    rejection loop by two exponential draws.  Every G_a is drawn first,
    row by row, then every G_b.  Raises ``ValueError`` unless 0 <= d < 1
    and c > -d."""
    if not (0.0 <= d < 1.0 and c > -d):
        raise ValueError(f"Pitman-Yor sticks need 0 <= d < 1 and c > -d, got c={c}, d={d}")
    numerators = rng.standard_gamma(1.0 - d, size=(n, n_mc))
    totals = rng.standard_gamma((c + d * np.arange(1, n + 1))[:, None], size=(n, n_mc))
    totals += numerators
    numerators /= totals
    return numerators


def simulate_py_stick_event(v_targets: np.ndarray, eps: float, c: float, d: float, n_mc: int,
                            rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the stick event, on
    ``n_mc`` draws of the sticks from :func:`_py_stick_draws`."""
    v = _event_targets(v_targets, eps, n_mc)
    n = v.size
    # sum_{j<=N} sum_{h<=j} |V_h - v_h| = sum_h (N - h + 1) |V_h - v_h|
    return _l1_ball_probability(_py_stick_draws(c, d, n, n_mc, rng), v, 2.0 * eps,
                                floor=eps / n ** 2, weights=np.arange(n, 0, -1.0))


def simulate_py_location_event(z_targets: np.ndarray, eps: float, base: BaseMeasure, n_mc: int,
                               rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the location
    event; the base draws come in (n_mc, N) order and are transposed once
    into a cell-major work array."""
    z = _event_targets(z_targets, eps, n_mc)
    cells = np.ascontiguousarray(base.sample(rng, (n_mc, z.size)).T)
    return _l1_ball_probability(cells, z, eps)


def simulate_nig_event(z0: np.ndarray, eps: float, params: NIGParams, n_mc: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo probability (and standard error) of the N-IG event, on
    the cell-major draws of :func:`_nig_cells`."""
    z0 = _event_targets(z0, eps, n_mc)
    if z0.size != params.n_cells:
        raise ValueError(f"need one target per cell: {z0.size} targets, {params.n_cells} cells")
    return _l1_ball_probability(_nig_cells(params, rng, n_mc), z0, 2.0 * eps,
                                floor=eps ** 2 / 2.0)


@dataclass(frozen=True)
class LemmaCheckRow:
    """One (configuration, MC estimate, bound) comparison."""

    config: str
    mc_estimate: float
    mc_stderr: float
    analytic_bound: float

    @property
    def holds(self) -> bool:
        """Bound dominated by the MC probability at 3-s.e. resolution."""
        return self.mc_estimate + 3.0 * self.mc_stderr >= self.analytic_bound


#: verification grids: the reference configuration (used for the fit)
#: first, then at least six strictly harder ones per lemma
_PY_STICKS_GRID = [
    (np.array([0.5, 0.35]), 0.2, 1.0, 0.0),
    (np.array([0.5, 0.35]), 0.10, 1.0, 0.0),
    (np.array([0.5, 0.35, 0.3]), 0.20, 1.0, 0.0),
    (np.array([0.5, 0.35, 0.3]), 0.15, 1.0, 0.0),
    (np.array([0.5, 0.35]), 0.20, 1.0, 0.25),
    (np.array([0.5, 0.35, 0.3]), 0.20, 1.0, 0.25),
    (np.array([0.5, 0.35, 0.3]), 0.20, 0.5, 0.40),
    (np.array([0.4, 0.35, 0.3, 0.25]), 0.25, 1.0, 0.25),
]
_PY_LOCATIONS_GRID = [
    (np.array([0.3]), 0.2, 0.5),
    (np.array([0.3]), 0.10, 0.5),
    (np.array([-0.5, 0.5]), 0.30, 0.8),
    (np.array([-0.5, 0.5]), 0.20, 0.8),
    (np.array([-1.0, 0.0, 1.0]), 0.40, 1.2),
    (np.array([-1.0, 0.0, 1.0]), 0.30, 1.2),
    (np.array([-1.2, -0.4, 0.4, 1.2]), 0.50, 1.5),
]
_NIG_GRID = [
    (np.array([0.5, 0.5]), 0.25, np.array([0.5, 0.5])),
    (np.array([0.5, 0.5]), 0.15, np.array([0.5, 0.5])),
    (np.array([0.5, 0.5]), 0.10, np.array([0.4, 0.4])),
    (np.ones(3) / 3, 0.20, np.array([0.5, 0.5, 0.5])),
    (np.ones(3) / 3, 0.10, np.array([0.5, 0.5, 0.5])),
    (np.ones(3) / 3, 0.15, np.array([0.3, 0.3, 0.3])),
    (np.ones(4) / 4, 0.20, np.array([0.4, 0.4, 0.4, 0.4])),
]


# A lemma case is (label, simulate(n_mc, rng) -> (p, se),
# log_bound(constants)) for one configuration tuple of the lemma's grid.


def _py_sticks_case(v, eps, c, d):
    return (
        f"N={v.size} eps={eps} c={c} d={d}",
        partial(simulate_py_stick_event, v, eps, c, d),
        partial(prior_mass_bound_py_sticks, v.size, eps, float(v.max()), c, d),
    )


def _py_locations_case(z, eps, a):
    base = BaseMeasure("gaussian", 1.0)
    return (
        f"N={z.size} eps={eps} a={a}",
        partial(simulate_py_location_event, z, eps, base),
        partial(prior_mass_bound_py_locations, z.size, eps, a, base),
    )


def _nig_case(z0, eps, alphas):
    params = NIGParams(alphas)
    return (
        f"N={z0.size} eps={eps}",
        partial(simulate_nig_event, z0, eps, params),
        partial(prior_mass_bound_nig, z0.size, eps, z0, params),
    )


_LEMMAS = {
    "py-sticks": (_py_sticks_case, PY_STICKS_RATE, _PY_STICKS_GRID),
    "py-locations": (_py_locations_case, PY_LOCATIONS_RATE, _PY_LOCATIONS_GRID),
    "nig": (_nig_case, NIG_RATE, _NIG_GRID),
}


def lemma_verification_table(lemma: str, budget: int, rng: np.random.Generator
                             ) -> tuple[FittedConstants, list[LemmaCheckRow]]:
    """Fit the lemma constants on the reference configuration, then
    compare the bound with Monte-Carlo probabilities on the harder grid.

    The fit puts the reference bound ``FIT_LOG_MARGIN`` below the log of
    the reference probability: log C = log p_ref - margin - bound_0, where
    bound_0 is the reference bound at log C = 0."""
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}")
    case, rate, (reference, *grid) = _LEMMAS[lemma]
    _, simulate, log_bound = case(*reference)
    p_ref, _ = simulate(budget, rng)
    if p_ref == 0.0:
        raise ValueError(f"no {lemma} reference draw of {budget} hit its event: raise the budget")
    bound_0 = log_bound(FittedConstants(0.0, rate))
    consts = FittedConstants(math.log(p_ref) - FIT_LOG_MARGIN - bound_0, rate)
    return consts, [LemmaCheckRow(label, *simulate(budget, rng), math.exp(log_bound(consts)))
                    for label, simulate, log_bound in (case(*config) for config in grid)]
