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
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import IllConditionedMoments, InvalidSupport, RegimeUnavailable
from .gridfn import GridFunction
from .kernels import CatalogDensity, KernelSpec
from .transforms import TransformResult, make_nonnegative, transform_analytic

HANKEL_CONDITION_CAP = 1e12

#: multiplier applied to every budget (the lemma's implicit constant)
BUDGET_CONSTANT = 4.0


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
        if np.any(weights < -1e-15):
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-12:
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

    def moments(self, orders: Sequence[int]) -> np.ndarray:
        return np.array([(self.weights * self.atoms ** j).sum() for j in orders])

    def cdf_quantile_arrays(self):
        """(cumulative weights, atoms) for quantile-based couplings."""
        return np.cumsum(self.weights), self.atoms

    def mixture_density(self, kernel: KernelSpec, sigma: float, x: np.ndarray) -> np.ndarray:
        """Evaluate (F * K_sigma)(x) by direct summation over atoms."""
        dens = KernelSpec(kernel.family, sigma, kernel.shape).density_fn()
        if dens is None:
            raise ValueError(f"no closed-form density for {kernel.family}")
        out = np.zeros_like(np.asarray(x, dtype=float))
        for a, w in zip(self.atoms, self.weights):
            out += w * dens(x - a)
        return out

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
    nodes, vecs = eigh_tridiagonal(alpha, beta)
    weights = total_mass * vecs[0] ** 2
    return nodes, weights


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
    n_nodes = max((order + 1) // 2 + ((order + 1) % 2), 1)
    if isinstance(source, DiscreteMixingMeasure):
        if source.atoms.size and (
            source.atoms.min() < lo - 1e-12 or source.atoms.max() > hi + 1e-12
        ):
            raise InvalidSupport("source atoms fall outside the declared support")
        # recenter for conditioning; Gauss nodes are translation-equivariant
        mid = 0.5 * (lo + hi)
        alpha, beta = _lanczos_jacobi(source.atoms - mid, source.weights, n_nodes)
        nodes, weights = _gauss_from_recurrence(alpha, beta)
        nodes = nodes + mid
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


@dataclass(frozen=True)
class SupportBudget:
    """Number of matched moments (and atoms) needed for target accuracy.

    ``n_atoms`` bounds the discrete support size (Gauss nodes); the
    smoothed mixtures then differ by at most ~epsilon/sigma in sup norm.
    """

    epsilon: float
    a: float
    sigma: float
    r: float
    rho: float
    spectral_support: float
    order: int
    regime: str

    @property
    def n_atoms(self) -> int:
        return self.order + 1

    @property
    def n_nodes(self) -> int:
        return (self.order + 1) // 2 + ((self.order + 1) % 2)


def support_budget(
    epsilon: float,
    a: float,
    sigma: float,
    kernel: KernelSpec,
    constant: float = BUDGET_CONSTANT,
) -> SupportBudget:
    """Moment order per the decay-class case analysis.

    The kernel's unit-scale decay parameters (rho, r) are used; ``sigma``
    enters as the mixture bandwidth.  Raises RegimeUnavailable when the
    r <= 1 side conditions fail (partition path required).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if a <= 0 or sigma <= 0:
        raise ValueError("a and sigma must be positive")
    unit = KernelSpec(kernel.family, 1.0, kernel.shape)
    rho, r, support = unit.supersmooth_parameters()
    log_eps = math.log(1.0 / epsilon)
    if math.isfinite(support):
        n = constant * max(log_eps, a * math.e ** 2 * support / sigma)
        regime = "finite-support"
    elif r > 1:
        n = constant * max(log_eps, (a / sigma) ** (r / (r - 1.0)))
        regime = "r>1"
    elif r == 1:
        if a / (rho * sigma) > math.exp(-1.0):
            raise RegimeUnavailable(
                f"r=1 needs a/(rho sigma) <= 1/e, got {a / (rho * sigma):.3g}"
            )
        n = constant * log_eps
        regime = "r=1"
    else:
        side = (rho * sigma / a) ** (r / (1.0 - r))
        if side < log_eps:
            raise RegimeUnavailable(
                "r<1 needs (rho sigma / a)^{r/(1-r)} >= log(1/eps); "
                f"got {side:.3g} < {log_eps:.3g}"
            )
        n = constant * log_eps
        regime = "r<1"
    return SupportBudget(
        epsilon=epsilon,
        a=a,
        sigma=sigma,
        r=r,
        rho=rho,
        spectral_support=support,
        order=int(math.ceil(n)),
        regime=regime,
    )


def partition_discretize(
    source: DiscreteMixingMeasure,
    epsilon: float,
    a: float,
    sigma: float,
    kernel: KernelSpec,
    constant: float = BUDGET_CONSTANT,
) -> DiscreteMixingMeasure:
    """Composite discretization for r <= 1 kernels.

    Partitions [-a, a] into equal cells short enough that the per-cell
    budget applies (cell half-length rho*sigma*(log 1/eps)^{-(1-r)/r}/e),
    moment-matches each re-normalized cell restriction, and recombines.
    """
    unit = KernelSpec(kernel.family, 1.0, kernel.shape)
    rho, r, support = unit.supersmooth_parameters()
    if not (r <= 1 or math.isfinite(support)):
        raise ValueError("partition path is for r <= 1 kernels")
    log_eps = math.log(1.0 / epsilon)
    exponent = (1.0 - r) / r
    half_cell = rho * sigma * log_eps ** (-exponent) / math.e
    n_cells = max(1, int(math.ceil(a / half_cell)))  # cell length 2a/k <= 2*half_cell
    edges = np.linspace(-a, a, n_cells + 1)
    order = int(math.ceil(constant * log_eps))
    n_nodes = (order + 1) // 2 + ((order + 1) % 2)
    atoms, weights = _cellwise_gauss(source, edges, n_nodes)
    return DiscreteMixingMeasure(atoms, weights / weights.sum())


def _cellwise_gauss(source: DiscreteMixingMeasure, edges: np.ndarray, n_nodes: int):
    """Composite Gauss rule: an ``n_nodes``-point rule for the source
    restricted to each cell ``[edges[k], edges[k+1])`` (the last cell
    closed), weighted by the cell's mass; empty cells give no atoms.
    Returns (atoms, weights)."""
    atoms_list, weights_list = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        below = source.atoms <= hi if hi == edges[-1] else source.atoms < hi
        inside = (source.atoms >= lo) & below
        mass = source.weights[inside].sum()
        if mass <= 0:
            continue
        mid = 0.5 * (lo + hi)
        alpha, beta = _lanczos_jacobi(
            source.atoms[inside] - mid, source.weights[inside], n_nodes
        )
        nodes, weights = _gauss_from_recurrence(alpha, beta)
        atoms_list.append(nodes + mid)
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
    floor_weight: float
    transform: TransformResult


def finite_gaussian_mixture(
    truth: CatalogDensity,
    sigma: float,
    nodes_per_cell: int = 16,
    floor_power: float = 2.0,
    floor_rate: float = 1.0,
) -> MixtureApproximation:
    """Build the finite Gaussian mixture approximating a sub-exponential
    analytic truth at bandwidth sigma.

    Pipeline: corrected transform -> non-negativization -> restriction to
    [-a_sigma, a_sigma] with a_sigma from the truth's tail law -> per-cell
    moment matching of the induced mixing density -> Gaussian floor
    component ``D_sigma * phi_sigma`` and final renormalization.  The atom
    count is O((a_sigma/sigma)^2).
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
    nodes_per_cell = max(2, min(nodes_per_cell, max(2, (cap - 1) // max(n_cells, 1))))
    edges = np.linspace(-a_sigma, a_sigma, n_cells + 1)
    atoms, weights = _cellwise_gauss(source, edges, nodes_per_cell)

    # Gaussian floor keeps the mixture strictly positive everywhere
    d_sigma = sigma ** (-(floor_power - 1.0)) * math.exp(
        -floor_rate * (1.0 / sigma) ** r0
    )
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
        floor_weight=floor_weight,
        transform=result,
    )
