"""Moment-matched discretization of mixing measures.

A mixing measure is replaced by a discrete one matching its moments up to
a prescribed order; the sup-norm gap between the two smoothed mixtures
then decays geometrically in the order.  The constructive route is the
classical one: moments (or a discrete measure) -> orthogonal-polynomial
recurrence -> tridiagonal Jacobi matrix -> Gauss nodes and weights.

Support-point budgets follow the spectral-decay case analysis (finite
spectral support; exponent r below, at, or above 1), with a partition
fallback for r <= 1 where the direct budget's side condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .errors import IllConditionedMoments, InvalidSupport, RegimeUnavailable
from .gridfn import GridFunction
from .kernels import CatalogDensity, KernelSpec
from .transforms import make_nonnegative, transform_analytic

HANKEL_CONDITION_CAP = 1e12

#: multiplier applied to every budget (the lemma's implicit constant)
BUDGET_CONSTANT = 4.0

#: largest moment order a budget may ask for: its Gauss rule has at most
#: 501 nodes, so the Lanczos pass over a catalog density's 2^14 grid atoms
#: holds a 2^14 x 501 float64 basis (66 MB); ~1.5 s on a 2-CPU x86 host
MAX_BUDGET_ORDER = 1000

#: most cells of :func:`partition_discretize`: each cell scans every
#: source atom, 1.6e8 comparisons for the 2^14 atoms of a catalog density;
#: ~0.5 s on a 2-CPU x86 host
MAX_PARTITION_CELLS = 10 ** 4

#: Gauss nodes per cell of ``finite_gaussian_mixture``, before the cap
#: that keeps the atom count within the budget
NODES_PER_CELL = 16

#: work buffer of ``mixture_density`` in float64
#: elements (2 MiB): blocks of 16 atoms on a 2^14-point grid, 128 on the
#: 2^11-point experiment grid
_DENSITY_BUFFER = 2 ** 18

#: exponent of the smallest normal float; Gaussian terms whose exponent
#: is at or below it are set to 0.  numpy 2.4's AVX-512 exp is slow on
#: the whole band below about -707.7, this value included: on a 2-CPU
#: x86 host ~1 ns per element above it, ~16-20 ns from -707.75 to
#: -708.4 and below -745.2, and 110-200 ns in between, where the result
#: is subnormal; so those exponents are skipped, not clamped
_LOG_TINY = math.log(np.finfo(float).tiny)
_EXP_LOG_TINY = math.exp(_LOG_TINY)


@dataclass(frozen=True)
class DiscreteMixingMeasure:
    """Finitely supported mixing measure: sorted atoms with weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape != weights.shape or atoms.ndim != 1:
            raise ValueError("atoms and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ValueError("atoms and weights must be finite")
        if np.any(weights < -1e-15):
            raise ValueError("weights must be non-negative")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        order = np.argsort(atoms)
        atoms, weights = atoms[order], np.clip(weights[order], 0.0, None)
        if atoms.size > 1 and np.any(np.diff(atoms) <= 0):
            atoms, weights = _merge_duplicates(atoms, weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point_mass(cls, location: float) -> "DiscreteMixingMeasure":
        return cls(np.array([location]), np.array([1.0]))

    def mixture_density(self, kernel: KernelSpec, sigma: float, x: np.ndarray) -> np.ndarray:
        """Evaluate (F * K_sigma)(x) through :func:`mixture_density`."""
        return mixture_density(self.atoms, self.weights, kernel, sigma, x)

    def __len__(self):
        return self.atoms.size


def _merge_duplicates(atoms: np.ndarray, weights: np.ndarray):
    keep_a, keep_w = [atoms[0]], [weights[0]]
    for a, w in zip(atoms[1:], weights[1:]):
        if a - keep_a[-1] <= 1e-14 * max(1.0, abs(a)):
            keep_w[-1] += w
        else:
            keep_a.append(a)
            keep_w.append(w)
    return np.array(keep_a), np.array(keep_w)


def mixture_density(atoms, weights, kernel: KernelSpec, sigma: float, x) -> np.ndarray:
    """Evaluate (F * K_sigma)(x) for the measure with ascending ``atoms``
    and ``weights``, the atoms taken in blocks.

    Each block of atoms adds ``w_block @ K_sigma(x - a_block)`` to the
    output through one reused work buffer of ``_DENSITY_BUFFER``
    elements.  For the Gaussian kernel a block touches only the
    x-range where some term's exponent is at least log(tiny), and
    inside it terms at or below that are set to exactly 0, so no term
    dropped exceeds tiny / (sigma sqrt(2 pi)).  ``exp`` skips the
    exponents at or below log(tiny), and is called unmasked when the
    block's farthest (x, atom) pair stays above it; either way every bit
    is as the direct form gives it.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    dens = replace(kernel, scale=sigma).density_fn()
    if dens is None:
        raise ValueError(f"no closed-form density for {kernel.family}")
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if atoms.ndim != 1 or not atoms.size:
        raise ValueError(f"atoms must be a non-empty 1-d array, got shape {atoms.shape}")
    if np.any(atoms[1:] < atoms[:-1]):
        raise ValueError("atoms must be in ascending order")
    if weights.shape != atoms.shape:
        raise ValueError(
            f"weights must match atoms in shape, got {weights.shape} and {atoms.shape}"
        )
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    if np.isnan(xs).any():
        raise ValueError("x must not contain nan")
    order = None
    if np.any(xs[1:] < xs[:-1]):
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
    gaussian = kernel.family == "gaussian"
    reach = sigma * math.sqrt(-2.0 * _LOG_TINY)
    n = xs.size
    rows = min(atoms.size, max(1, _DENSITY_BUFFER // max(n, 1)))
    buf = np.empty(rows * n)
    out = np.zeros(n)
    for start in range(0, atoms.size, rows):
        a = atoms[start : start + rows]
        lo, hi = (0, n)
        if gaussian:
            lo, hi = np.searchsorted(xs, (a[0] - reach, a[-1] + reach))
            if lo == hi:
                continue
        terms = buf[: a.size * (hi - lo)].reshape(a.size, hi - lo)
        np.subtract(xs[lo:hi], a[:, None], out=terms)
        if gaussian:
            # exp(-(t / sigma)^2 / 2), skipping the exponents at or below
            # log(tiny) unless the block's farthest pair shows there are none
            far = float(max(xs[hi - 1] - a[0], a[-1] - xs[lo])) / sigma
            terms /= sigma
            np.square(terms, out=terms)
            terms *= -0.5
            np.exp(terms, out=terms, where=-0.5 * (far * far) >= _LOG_TINY or terms > _LOG_TINY)
            terms[terms <= _EXP_LOG_TINY] = 0.0
        else:
            terms = dens(terms)
        out[lo:hi] += weights[start : start + rows] @ terms
    if gaussian:
        out /= sigma * math.sqrt(2.0 * math.pi)
    if order is not None:
        out[order] = out.copy()
    return out.reshape(x.shape)


# ---------------------------------------------------------------------
# Gauss rules: from a discrete measure (stable Lanczos) or raw moments


def _lanczos_jacobi(atoms: np.ndarray, weights: np.ndarray, n_nodes: int):
    """Recurrence coefficients of the discrete measure by Lanczos with
    full reorthogonalization (discretized Stieltjes)."""
    m = atoms.size
    n_nodes = min(n_nodes, m)
    w = weights / weights.sum()
    Q = np.zeros((m, n_nodes))
    alpha = np.zeros(n_nodes)
    beta = np.zeros(max(n_nodes - 1, 0))
    Q[:, 0] = np.sqrt(w)
    for k in range(n_nodes):
        z = atoms * Q[:, k]
        alpha[k] = Q[:, k] @ z
        z = z - alpha[k] * Q[:, k]
        if k > 0:
            z = z - beta[k - 1] * Q[:, k - 1]
        for _ in range(2):  # twice-is-enough reorthogonalization
            z = z - Q[:, : k + 1] @ (Q[:, : k + 1].T @ z)
        if k + 1 < n_nodes:
            nz = float(np.linalg.norm(z))
            if nz < 1e-14:
                return alpha[: k + 1], beta[:k]
            beta[k] = nz
            Q[:, k + 1] = z / nz
    return alpha, beta


def _moment_jacobi(moments: np.ndarray, n_nodes: int):
    """Recurrence coefficients from raw moments via Hankel Cholesky."""
    need = 2 * n_nodes
    if moments.size < need:
        raise ValueError(f"need moments 0..{need - 1}, got {moments.size}")
    H = np.array([[moments[i + j] for j in range(n_nodes)] for i in range(n_nodes)])
    cond = np.linalg.cond(H)
    if not np.isfinite(cond) or cond > HANKEL_CONDITION_CAP:
        raise IllConditionedMoments(
            f"Hankel condition {cond:.3g} above {HANKEL_CONDITION_CAP:g}; "
            "partition the interval instead"
        )
    try:
        R = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedMoments(str(exc)) from exc
    H1 = np.array(
        [[moments[i + j + 1] for j in range(n_nodes)] for i in range(n_nodes)]
    )
    Ri = np.linalg.inv(R.T)
    J = Ri.T @ H1 @ Ri
    J = (J + J.T) / 2.0
    alpha = np.diag(J)
    beta = np.diag(J, k=1)
    return alpha.copy(), beta.copy()


def _gauss_from_recurrence(alpha, beta, total_mass: float = 1.0):
    if alpha.size == 1:
        return alpha.copy(), np.array([total_mass])
    jacobi = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = total_mass * vecs[0] ** 2
    return nodes, weights


def _gauss_rule(atoms: np.ndarray, weights: np.ndarray, lo: float, hi: float, n_nodes: int):
    """``n_nodes``-point Gauss rule of a discrete measure on [lo, hi].

    The atoms are recentred at the midpoint for conditioning (Gauss nodes
    are translation-equivariant) and the nodes shifted back.  Returns
    (nodes, weights), the weights summing to 1 up to rounding.
    """
    mid = 0.5 * (lo + hi)
    alpha, beta = _lanczos_jacobi(atoms - mid, weights, n_nodes)
    nodes, weights = _gauss_from_recurrence(alpha, beta)
    return nodes + mid, weights


def _n_gauss_nodes(order: int) -> int:
    """Nodes of the Gauss rule exact for moments up to ``order`` (at least 1)."""
    return max((order + 1) // 2 + ((order + 1) % 2), 1)


def _check_support(source: DiscreteMixingMeasure, lo: float, hi: float) -> None:
    """Raise ``InvalidSupport`` for a source atom more than 1e-12 outside [lo, hi]."""
    atoms = source.atoms
    if atoms.size and not lo - 1e-12 <= atoms.min() <= atoms.max() <= hi + 1e-12:
        raise InvalidSupport("source atoms fall outside the declared support")


MeasureOrMoments = Union[DiscreteMixingMeasure, np.ndarray, Sequence[float]]


def moment_match(
    source: MeasureOrMoments,
    order: int,
    support: tuple[float, float],
) -> DiscreteMixingMeasure:
    """Discrete measure with at most ``order + 1`` atoms matching the
    source's moments up to ``order`` (in fact up to ``2 n - 1`` with
    n = number of nodes, which is stronger).

    ``source`` is either a discrete measure (stable Lanczos route) or a
    raw moment vector ``[m_0, m_1, ...]`` (Hankel route, guarded by a
    condition-number cap).
    """
    lo, hi = support
    if not lo < hi:
        raise InvalidSupport(f"empty support interval [{lo}, {hi}]")
    n_nodes = _n_gauss_nodes(order)
    if isinstance(source, DiscreteMixingMeasure):
        _check_support(source, lo, hi)
        nodes, weights = _gauss_rule(source.atoms, source.weights, lo, hi, n_nodes)
    else:
        moments = np.asarray(source, dtype=float)
        n_nodes = min(n_nodes, moments.size // 2)
        if n_nodes < 1:
            raise ValueError("need at least moments m_0, m_1")
        alpha, beta = _moment_jacobi(moments / moments[0], n_nodes)
        nodes, weights = _gauss_from_recurrence(alpha, beta, total_mass=moments[0])
    nodes = np.clip(nodes, lo, hi)  # guard rounding at interval ends
    return DiscreteMixingMeasure(nodes, weights / weights.sum())


# ---------------------------------------------------------------------
# support-point budgets


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where the result overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _budget_order(n: float) -> int:
    """The moment order ceil(n); ``ValueError`` above ``MAX_BUDGET_ORDER``."""
    if not n <= MAX_BUDGET_ORDER:
        raise ValueError(f"the support budget needs moment order {n:.4g}, above "
                         f"{MAX_BUDGET_ORDER}: raise epsilon or sigma, or lower a")
    return int(math.ceil(n))


@dataclass(frozen=True)
class SupportBudget:
    """Number of matched moments (and atoms) needed for target accuracy.

    ``n_atoms`` bounds the discrete support size (Gauss nodes); the
    smoothed mixtures then differ by at most ~epsilon/sigma in sup norm.
    """

    order: int
    regime: str

    @property
    def n_atoms(self) -> int:
        return self.order + 1


def support_budget(
    epsilon: float,
    a: float,
    sigma: float,
    kernel: KernelSpec,
) -> SupportBudget:
    """Moment order per the decay-class case analysis.

    The kernel's unit-scale decay parameters (rho, r) are used; ``sigma``
    enters as the mixture bandwidth.  Raises RegimeUnavailable when the
    r <= 1 side conditions fail (partition path required), and
    ``ValueError`` for an order above ``MAX_BUDGET_ORDER``.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if a <= 0 or sigma <= 0:
        raise ValueError("a and sigma must be positive")
    unit = replace(kernel, scale=1.0)
    rho, r, support = unit.supersmooth_parameters()
    log_eps = math.log(1.0 / epsilon)
    if math.isfinite(support):
        n = BUDGET_CONSTANT * max(log_eps, a * math.e ** 2 * support / sigma)
        regime = "finite-support"
    elif r > 1:
        n = BUDGET_CONSTANT * max(log_eps, _power(a / sigma, r / (r - 1.0)))
        regime = "r>1"
    elif r == 1:
        if a / sigma / rho > math.exp(-1.0):
            raise RegimeUnavailable(f"r=1 needs a/(rho sigma) <= 1/e, got {a / sigma / rho:.3g}")
        n = BUDGET_CONSTANT * log_eps
        regime = "r=1"
    else:
        side = _power(rho * sigma / a, r / (1.0 - r))
        if side < log_eps:
            raise RegimeUnavailable(
                "r<1 needs (rho sigma / a)^{r/(1-r)} >= log(1/eps); "
                f"got {side:.3g} < {log_eps:.3g}"
            )
        n = BUDGET_CONSTANT * log_eps
        regime = "r<1"
    return SupportBudget(order=_budget_order(n), regime=regime)


def partition_discretize(
    source: DiscreteMixingMeasure,
    epsilon: float,
    a: float,
    sigma: float,
    kernel: KernelSpec,
) -> DiscreteMixingMeasure:
    """Composite discretization for r <= 1 kernels.

    Partitions [-a, a] into equal cells short enough that the per-cell
    budget applies (cell half-length rho*sigma*(log 1/eps)^{-(1-r)/r}/e),
    moment-matches each re-normalized cell restriction, and recombines.
    Source atoms must lie in [-a, a], as for :func:`moment_match`; those
    within its rounding slack outside are moved onto the end points.
    More than ``MAX_PARTITION_CELLS`` cells, or a per-cell order above
    ``MAX_BUDGET_ORDER``, raise ``ValueError``.
    """
    unit = replace(kernel, scale=1.0)
    rho, r, support = unit.supersmooth_parameters()
    if not (r <= 1 or math.isfinite(support)):
        raise ValueError("partition path is for r <= 1 kernels")
    _check_support(source, -a, a)
    source = DiscreteMixingMeasure(np.clip(source.atoms, -a, a), source.weights)
    log_eps = math.log(1.0 / epsilon)
    exponent = (1.0 - r) / r
    half_cell = rho * sigma * _power(log_eps, -exponent) / math.e
    cells = a / half_cell if half_cell > 0 else math.inf  # cell length 2a/k <= 2*half_cell
    if not cells <= MAX_PARTITION_CELLS:
        raise ValueError(f"the partition needs {cells:.4g} cells, above {MAX_PARTITION_CELLS}: "
                         "raise epsilon or sigma, or lower a")
    order = _budget_order(BUDGET_CONSTANT * log_eps)
    edges = np.linspace(-a, a, max(1, int(math.ceil(cells))) + 1)
    atoms, weights = _cellwise_gauss(source, edges, _n_gauss_nodes(order))
    return DiscreteMixingMeasure(atoms, weights / weights.sum())


def _cellwise_gauss(source: DiscreteMixingMeasure, edges: np.ndarray, n_nodes: int):
    """Composite Gauss rule: an ``n_nodes``-point rule for the source
    restricted to each closed cell ``[edges[k], edges[k+1]]``, weighted by
    the cell's mass; empty cells give no atoms.  A source atom on an
    interior edge gives half its weight to each neighbouring cell, so on
    mirror-symmetric edges the rule commutes with x -> -x.
    Returns (atoms, weights)."""
    atoms_list, weights_list = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (source.atoms >= lo) & (source.atoms <= hi)
        atoms, weights = source.atoms[inside], source.weights[inside]
        on_edge = ((atoms == lo) & (lo != edges[0])) | ((atoms == hi) & (hi != edges[-1]))
        weights = np.where(on_edge, 0.5 * weights, weights)
        mass = weights.sum()
        if mass <= 0:
            continue
        nodes, weights = _gauss_rule(atoms, weights, lo, hi, n_nodes)
        atoms_list.append(nodes)
        weights_list.append(weights / weights.sum() * mass)
    return np.concatenate(atoms_list), np.concatenate(weights_list)


# ---------------------------------------------------------------------
# finite Gaussian mixture approximating an analytic density


@dataclass(frozen=True)
class MixtureApproximation:
    """Finite Gaussian mixture m_sigma plus approximation diagnostics."""

    mixing: DiscreteMixingMeasure
    sigma: float
    density: GridFunction
    half_support: float
    kl: float
    second_log_moment: float


def finite_gaussian_mixture(truth: CatalogDensity, sigma: float) -> MixtureApproximation:
    """Build the finite Gaussian mixture approximating a sub-exponential
    analytic truth at bandwidth sigma.

    Pipeline: corrected transform -> non-negativization -> restriction to
    [-a_sigma, a_sigma] with a_sigma from the truth's tail law -> per-cell
    moment matching of the induced mixing density -> Gaussian floor
    component ``D_sigma * phi_sigma`` with ``D_sigma = exp(-sigma^-r0) / sigma``
    and final renormalization.  The atom count is O((a_sigma/sigma)^2).
    """
    if truth.tail_power <= 0:
        raise ValueError("truth must have a sub-exponential tail bound")
    f0 = truth.f
    r0 = truth.smooth.r
    result = transform_analytic(f0, sigma)
    nn = make_nonnegative(result, f0)
    pw = min(truth.tail_power, 2.0)
    a_sigma = float(
        math.ceil((2.0 / truth.tail_rate * (1.0 / sigma) ** r0) ** (1.0 / pw))
    )
    a_sigma = min(a_sigma, 0.9 * f0.half_width)
    x = f0.grid()
    window = np.abs(x) <= a_sigma
    h_vals = nn.h.values.copy()
    h_vals[~window] = 0.0
    c_h = h_vals.sum() * f0.dx
    # mixing density restricted to the window, as a dense discrete measure
    source = DiscreteMixingMeasure(x[window], h_vals[window] / h_vals[window].sum())
    # composite Gauss rule on cells of width ~sigma
    n_cells = max(1, int(math.ceil(2.0 * a_sigma / sigma)))
    cap = int(BUDGET_CONSTANT * (a_sigma / sigma) ** 2)
    nodes_per_cell = max(2, min(NODES_PER_CELL, max(2, (cap - 1) // max(n_cells, 1))))
    edges = np.linspace(-a_sigma, a_sigma, n_cells + 1)
    atoms, weights = _cellwise_gauss(source, edges, nodes_per_cell)

    # Gaussian floor keeps the mixture strictly positive everywhere
    d_sigma = math.exp(-((1.0 / sigma) ** r0)) / sigma
    floor_weight = d_sigma / (c_h + d_sigma)
    atoms = np.concatenate([atoms, [0.0]])
    weights = np.concatenate(
        [weights * c_h / (c_h + d_sigma), [floor_weight]]
    )
    mixing = DiscreteMixingMeasure(atoms, weights / weights.sum())

    dens_vals = mixing.mixture_density(KernelSpec("gaussian"), sigma, x)
    density = GridFunction(f0.half_width, dens_vals)

    from .metrics import kl_divergence, second_log_moment

    kl = kl_divergence(f0, density)
    m2 = second_log_moment(f0, density)
    return MixtureApproximation(
        mixing=mixing,
        sigma=sigma,
        density=density,
        half_support=a_sigma,
        kl=kl,
        second_log_moment=m2,
    )
