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
from supermix import discretize
from supermix.discretize import (
    _EXP_LOG_TINY,
    _GAUSS_BUFFER,
    _LOG_TINY,
    MAX_PARTITION_CELLS,
    _cellwise_gauss,
    _gauss_from_recurrence,
    aligned_empty,
    mixture_density,
)
from supermix.errors import IllConditionedMoments, InvalidSupport, RegimeUnavailable
from supermix.posterior import NIGPartitionPrior, experiment_grid


def mixture_sup_distance(f1, f2, kernel, sigma, a):
    xs = np.linspace(-a - 8 * sigma, a + 8 * sigma, 4001)
    return np.abs(
        f1.mixture_density(kernel, sigma, xs) - f2.mixture_density(kernel, sigma, xs)
    ).max()


def per_atom_density(mixing, kernel, sigma, x):
    """Reference for ``mixture_density``: one kernel evaluation per atom,
    summed in atom order.  Returns the signed sum and the sum of the
    terms' absolute values (the scale of its rounding error)."""
    dens = KernelSpec(kernel.family, sigma, kernel.shape).density_fn()
    out = np.zeros_like(np.asarray(x, dtype=float))
    scale = np.zeros_like(out)
    for a, w in zip(mixing.atoms, mixing.weights):
        term = w * dens(x - a)
        out += term
        scale += np.abs(term)
    return out, scale


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


def cell_rules_oracle(source, edges, n_nodes):
    """Reference for ``_cellwise_gauss``: one Lanczos pass
    (:func:`_lanczos_jacobi`) and one dense eigen-solve per closed cell.
    Returns per cell with mass (recentred atoms, weights, midpoint, nodes,
    node weights)."""
    rules = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (source.atoms >= lo) & (source.atoms <= hi)
        atoms, weights = source.atoms[inside], source.weights[inside]
        on_edge = ((atoms == lo) & (lo != edges[0])) | ((atoms == hi) & (hi != edges[-1]))
        weights = np.where(on_edge, 0.5 * weights, weights)
        mass = weights.sum()
        if mass <= 0:
            continue
        mid = 0.5 * (lo + hi)
        alpha, beta = _lanczos_jacobi(atoms - mid, weights, n_nodes)
        nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        rule = vecs[0] ** 2
        rules.append((atoms - mid, weights, mid, nodes + mid, rule / rule.sum() * mass))
    return rules


@pytest.mark.parametrize("size", [1, 15, 1000, 2 ** 18])
def test_aligned_empty_starts_on_a_64_byte_boundary(size):
    for _ in range(5):
        buf = aligned_empty(size)
        assert buf.shape == (size,) and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0


class TestMixtureDensity:
    GRID = np.linspace(-40.0, 40.0, 2 ** 14, endpoint=False)

    @staticmethod
    def mixing(far=True):
        # 40 atoms in [-5, 5] (three blocks on a 2^14-point grid), with
        # ``far`` also atoms far outside the grid on both sides, which
        # widen the first and last block's window to the whole grid
        rng = np.random.default_rng(17)
        atoms = rng.uniform(-5, 5, 40)
        if far:
            atoms = np.concatenate([atoms, [-1e4, -200.0, 150.0, 3e5]])
        weights = rng.dirichlet(np.ones(atoms.size))
        return DiscreteMixingMeasure(atoms, weights)

    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize(
        "kernel_id, sigma",
        [("gaussian", 0.05), ("gaussian", 0.25), ("gaussian", 1.0), ("cauchy", 0.5),
         ("student_t:3", 0.5), ("sinc", 0.5), ("fvp", 0.5)],
    )
    def test_matches_per_atom_sum(self, kernel_id, sigma, far):
        from supermix import parse_kernel_id

        kernel = parse_kernel_id(kernel_id)
        mixing = self.mixing(far)
        got = mixing.mixture_density(kernel, sigma, self.GRID)
        want, scale = per_atom_density(mixing, kernel, sigma, self.GRID)
        # Gaussian terms below the smallest normal float are dropped, each
        # worth at most tiny / (sigma sqrt(2 pi)) after normalisation
        tiny = np.finfo(float).tiny
        floor = max(tiny, tiny / (sigma * math.sqrt(2.0 * math.pi)))
        assert np.all(np.abs(got - want) <= 1e-13 * scale + floor)

    def test_terms_below_tiny_are_exactly_zero(self):
        # one block holds both atoms, so its window covers [-6.9, 6.9];
        # on [-1, 1] both terms are at least 80 sigma away
        mixing = DiscreteMixingMeasure(np.array([-5.0, 5.0]), np.array([0.5, 0.5]))
        got = mixing.mixture_density(KernelSpec("gaussian"), 0.05, np.linspace(-1, 1, 201))
        assert np.all(got == 0.0)

    @pytest.mark.parametrize("kernel_id", ["gaussian", "cauchy"])
    def test_permuted_x_gives_permuted_output(self, kernel_id):
        from supermix import parse_kernel_id

        kernel = parse_kernel_id(kernel_id)
        mixing = self.mixing()
        base = mixing.mixture_density(kernel, 0.25, self.GRID)
        perm = np.random.default_rng(3).permutation(self.GRID.size)
        shuffled = mixing.mixture_density(kernel, 0.25, self.GRID[perm])
        assert np.array_equal(shuffled, base[perm])
        square = mixing.mixture_density(kernel, 0.25, self.GRID[perm].reshape(128, -1))
        assert np.array_equal(square, base[perm].reshape(128, -1))

    def test_nan_x_raises(self):
        with pytest.raises(ValueError):
            self.mixing().mixture_density(KernelSpec("gaussian"), 1.0, np.array([0.0, np.nan]))


class TestGaussianMixtureDensityBits:
    """The Gaussian evaluator against the direct form, bit for bit: on
    lattice grids and off them, and however many terms underflow."""

    ATOMS = NIGPartitionPrior().cell_midpoints()
    WEIGHTS = np.random.default_rng(0).dirichlet(np.ones(ATOMS.size))
    GRID = experiment_grid().grid()

    @staticmethod
    def direct(atoms, weights, sigma, x):
        terms = np.subtract(x, atoms[:, None])
        terms /= sigma
        np.square(terms, out=terms)
        terms *= -0.5
        np.maximum(terms, _LOG_TINY, out=terms)
        np.exp(terms, out=terms)
        terms[terms <= _EXP_LOG_TINY] = 0.0
        return weights @ terms / (sigma * math.sqrt(2.0 * math.pi))

    def check(self, atoms, x, sigma):
        got = mixture_density(atoms, self.WEIGHTS, KernelSpec("gaussian"), sigma, x)
        assert np.array_equal(got, self.direct(atoms, self.WEIGHTS, sigma, x))

    @pytest.mark.parametrize("sigma", [0.15, 0.4, 1.0])
    def test_nig_midpoints_on_the_experiment_grid(self, sigma):
        # -7.875 + 0.25 j = x[520 + 16 j] with dx = 2^-6
        assert np.array_equal(self.ATOMS, self.GRID[520 + 16 * np.arange(64)])
        self.check(self.ATOMS, self.GRID, sigma)

    def test_power_of_two_linspace_is_a_lattice(self):
        x = np.linspace(-8.0, 8.0, 1025)
        self.check(self.ATOMS, x, 0.15)

    @pytest.mark.parametrize("sigma", [0.1, 0.15, 1.0])
    @pytest.mark.parametrize("case", ["step", "ulp", "unsorted"])
    def test_general_path(self, case, sigma):
        atoms, x = self.ATOMS, self.GRID
        if case == "step":
            x = np.linspace(-8.0, 8.0, 1001)  # step 0.016, not a power of two
        elif case == "ulp":
            atoms = atoms.copy()
            atoms[40] = np.nextafter(atoms[40], np.inf)
        else:
            x = x[::-1]
        self.check(atoms, x, sigma)

    def test_most_terms_underflow_at_small_sigma(self):
        # the one block's window is [-11.6, 11.6], and each atom's terms
        # stay above tiny only within 3.76 of it: over two thirds underflow
        sigma, x = 0.1, self.GRID
        window = np.abs(x) <= self.ATOMS[-1] + sigma * math.sqrt(-2.0 * _LOG_TINY)
        exponents = -0.5 * ((x[window] - self.ATOMS[:, None]) / sigma) ** 2
        assert np.mean(exponents <= _LOG_TINY) > 0.5
        self.check(self.ATOMS, x, sigma)

    @pytest.mark.parametrize(
        "atoms, weights, sigma, match",
        [
            ([0.0], [1.0], math.inf, "sigma must be finite"),
            ([0.0], [1.0], math.nan, "sigma must be finite"),
            ([], [], 1.0, "atoms must be a non-empty 1-d array"),
            ([[0.0, 1.0]], [[0.5, 0.5]], 1.0, "atoms must be a non-empty 1-d array"),
            ([0.0, 1.0], [1.0], 1.0, "weights must match atoms"),
            # the blocks' windows assume ascending atoms; unchecked, this
            # input would silently drop the mass of the atom at 5
            ([-5.0, 5.0, 0.0], [0.3, 0.3, 0.4], 0.05, "atoms must be in ascending order"),
        ],
        ids=["inf-sigma", "nan-sigma", "no-atoms", "2d-atoms", "unequal-lengths",
             "unsorted-atoms"],
    )
    def test_bad_input_raises(self, atoms, weights, sigma, match):
        with pytest.raises(ValueError, match=match):
            mixture_density(np.array(atoms), np.array(weights), KernelSpec("gaussian"),
                            sigma, self.GRID)


class TestDiscreteMixingMeasure:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            DiscreteMixingMeasure(np.array([0.0, 1.0]), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            DiscreteMixingMeasure(np.array([0.0]), np.array([-1.0]))

    @pytest.mark.parametrize(
        "atoms, weights",
        [([0.0, np.nan], [0.5, 0.5]),
         ([0.0, np.inf], [0.5, 0.5]),
         ([0.0, 1.0], [1.0, np.nan]),
         ([0.0, 1.0], [np.nan, np.nan]),
         ([0.0, 1.0], [0.5, np.inf])],
    )
    def test_non_finite_atoms_and_weights_raise(self, atoms, weights):
        with pytest.raises(ValueError, match="must be finite"):
            DiscreteMixingMeasure(np.array(atoms), np.array(weights))

    def test_sorting_and_duplicate_merge(self):
        m = DiscreteMixingMeasure(np.array([1.0, -1.0, 1.0]), np.array([0.2, 0.5, 0.3]))
        assert np.array_equal(m.atoms, np.array([-1.0, 1.0]))
        assert np.allclose(m.weights, [0.5, 0.5])

    @pytest.mark.parametrize("atoms, merged", [
        ([1.0, np.nextafter(1.0, 2.0)], [1.0]),
        ([1.0, np.nextafter(1.0, 2.0), 3.0, 3.0], [1.0, 3.0]),
    ], ids=["without-exact-tie", "with-exact-tie"])
    def test_near_duplicates_merge_with_or_without_an_exact_tie(self, atoms, merged):
        m = DiscreteMixingMeasure(np.array(atoms), np.full(len(atoms), 1.0 / len(atoms)))
        assert np.array_equal(m.atoms, merged)
        assert np.array_equal(m.weights, np.full(len(merged), 1.0 / len(merged)))


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

    def test_gauss_rule_matches_tridiagonal_solver(self):
        # the dense symmetric eigen-solve against scipy's tridiagonal one
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(21)
        for n in (2, 3, 8, 16, 33, 60):
            alpha = rng.normal(size=n)
            beta = rng.uniform(0.01, 2.0, size=n - 1)
            nodes, weights = _gauss_from_recurrence(alpha, beta)
            ref_nodes, vecs = eigh_tridiagonal(alpha, beta)
            scale = np.abs(ref_nodes).max()
            assert np.abs(nodes - ref_nodes).max() <= 1e-14 * scale
            assert np.abs(weights - vecs[0] ** 2).max() <= 4e-14
            assert abs(weights.sum() - 1.0) <= 4e-14

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

    def test_cauchy_budget_within_side_condition(self):
        # a / (rho sigma) = 0.3 <= 1/e
        b = support_budget(1e-3, 0.3, 1.0, KernelSpec("cauchy"))
        assert b.order == math.ceil(4 * math.log(1e3)) == 28 and b.regime == "r=1"

    def test_stable_half_budget_on_both_sides_of_side_condition(self):
        kernel = KernelSpec("stable", 1.0, 0.5)
        # at a = 0.1, (rho sigma / a)^{r/(1-r)} = 10 >= log(1e3)
        b = support_budget(1e-3, 0.1, 1.0, kernel)
        assert b.order == 28 and b.regime == "r<1"
        # at a = 1 it is 1 < log(1e3)
        with pytest.raises(RegimeUnavailable, match="r<1"):
            support_budget(1e-3, 1.0, 1.0, kernel)


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

    def test_atoms_outside_support_raise(self):
        # the moment-match route rejects these atoms too
        src = DiscreteMixingMeasure(np.array([-1.0, 5.0]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidSupport):
            partition_discretize(src, 1e-2, 2.0, 0.5, KernelSpec("cauchy"))

    def test_atom_within_rounding_slack_keeps_its_mass(self):
        src = DiscreteMixingMeasure(np.array([-1.0, 2.0 + 5e-13]), np.array([0.5, 0.5]))
        out = partition_discretize(src, 1e-2, 2.0, 0.5, KernelSpec("cauchy"))
        assert out.atoms.max() <= 2.0
        assert abs(out.weights[out.atoms > 0.0].sum() - 0.5) <= 1e-12

    def test_atom_count_bound(self):
        src = DiscreteMixingMeasure(np.linspace(-3, 3, 241), np.full(241, 1 / 241))
        eps, sigma = 1e-3, 0.5
        out = partition_discretize(src, eps, 3.0, sigma, KernelSpec("cauchy"))
        half_cell = 1.0 * sigma / math.e  # rho * sigma / e at r = 1
        k = math.ceil(3.0 / half_cell)
        order = math.ceil(4 * math.log(1 / eps))
        n_cell = (order + 1) // 2 + (order + 1) % 2
        assert len(out) <= k * n_cell


def ragged_cells(rng):
    """Random edges and a source on them with ragged cells: empty cells,
    1-120 atoms, fewer atoms than nodes, zero weights (which break the
    recurrence) and atoms on interior edges."""
    n_cells = int(rng.integers(1, 13))
    edges = -2.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n_cells))])
    atoms, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = int(rng.choice([0, 1, 2, 3, 5, 8, 15, 16, 17, 40, 120]))
        a = rng.uniform(lo, hi, m)
        w = rng.uniform(0.5, 1.5, m)
        if rng.random() < 0.3:
            w[rng.random(m) < 0.7] = 0.0
        atoms.append(a)
        weights.append(w)
    interior = edges[1:-1][rng.random(n_cells - 1) < 0.5]
    atoms = np.concatenate(atoms + [interior])
    weights = np.concatenate(weights + [rng.uniform(0.5, 1.5, interior.size)])
    if not weights.sum() > 0:
        atoms, weights = np.append(atoms, edges[0]), np.append(weights, 1.0)
    return DiscreteMixingMeasure(atoms, weights / weights.sum()), edges


class TestBatchedCellRules:
    @pytest.mark.parametrize("budget", [_GAUSS_BUFFER, 64], ids=["default-chunks", "small-chunks"])
    def test_ragged_cells_match_the_per_cell_oracle(self, budget, monkeypatch):
        # a budget of 64 elements puts most cells in chunks of their own
        monkeypatch.setattr(discretize, "_GAUSS_BUFFER", budget)
        rng = np.random.default_rng(33)
        for _ in range(60):
            source, edges = ragged_cells(rng)
            n_nodes = int(rng.choice([1, 2, 5, 16, 33]))
            nodes, weights = _cellwise_gauss(source, edges, n_nodes)
            rules = cell_rules_oracle(source, edges, n_nodes)
            counts = [rule[3].size for rule in rules]
            assert nodes.size == sum(counts)
            scale = np.abs(edges).max()
            assert np.abs(nodes - np.concatenate([r[3] for r in rules])).max() <= 1e-12 * scale
            assert np.abs(weights - np.concatenate([r[4] for r in rules])).max() <= 1e-12
            # each cell's rule matches its moments 0..2n-1 about the midpoint,
            # relative to max(|m_j|, mass (h/2)^j)
            stops = np.cumsum(counts)
            for (t, w, mid, _, _), start, stop in zip(rules, stops - counts, stops):
                half = float(np.abs(t).max()) or 1.0
                tn, wn = nodes[start:stop] - mid, weights[start:stop]
                for j in range(2 * (stop - start)):
                    m_in, m_out = (w * t ** j).sum(), (wn * tn ** j).sum()
                    assert abs(m_in - m_out) <= 1e-8 * max(abs(m_in), w.sum() * half ** j)

    def test_duplicate_atoms_break_down_row_by_row(self):
        # a discrete measure holds distinct atoms, so exact duplicates are
        # given to the batched recurrence directly: rows of 1-120 atoms,
        # half of them drawn from at most four points, padded with zero
        # weights
        rng = np.random.default_rng(34)
        for _ in range(20):
            rows = []
            for _ in range(int(rng.integers(1, 9))):
                m = int(rng.integers(1, 121))
                a = rng.uniform(-0.5, 0.5, m)
                if rng.random() < 0.5:
                    # points 1/8 apart or more: closer ones make the breakdown
                    # depend on rounding
                    a = rng.choice(rng.permutation(np.linspace(-0.5, 0.5, 9))[: rng.integers(1, 5)], m)
                rows.append((a, rng.uniform(0.5, 1.5, m)))
            n_nodes = int(rng.choice([1, 2, 5, 16, 33]))
            width = max(a.size for a, _ in rows)
            x, w = np.zeros((len(rows), width)), np.zeros((len(rows), width))
            for c, (a, wc) in enumerate(rows):
                x[c, : a.size], w[c, : a.size] = a, wc / wc.sum()
            steps = np.minimum([a.size for a, _ in rows], n_nodes)
            alpha, beta, sizes = discretize._lanczos_rows(x, w, steps)
            for c, (a, wc) in enumerate(rows):
                want_alpha, want_beta = _lanczos_jacobi(a, wc, n_nodes)
                assert sizes[c] == want_alpha.size == min(np.unique(a).size, n_nodes)
                assert np.abs(alpha[c, : sizes[c]] - want_alpha).max() <= 1e-12
                assert np.abs(beta[c, : sizes[c] - 1] - want_beta).max(initial=0.0) <= 1e-12

    def test_ulp_neighbours_give_no_spurious_nodes(self):
        # cells of 8-17 points at |x| in 1-4, each point with neighbours one
        # ulp either side: unmerged, the recurrence runs on past the points
        # on rounding noise and returns more nodes than the cell has atoms
        rng = np.random.default_rng(71)
        for _ in range(60):
            edges = np.sort(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0, int(rng.integers(2, 8))))
            points = [rng.uniform(lo + 1e-3, hi - 1e-3, int(rng.integers(8, 18)))
                      for lo, hi in zip(edges[:-1], edges[1:])]
            points = np.concatenate(points)
            atoms = np.concatenate([np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)])
            weights = rng.uniform(0.5, 1.5, atoms.size)
            source = DiscreteMixingMeasure(atoms, weights / weights.sum())
            assert source.atoms.size == points.size
            nodes, _ = _cellwise_gauss(source, edges, 16)
            held = np.bincount(np.searchsorted(edges, points) - 1, minlength=edges.size - 1)
            given = np.bincount(np.searchsorted(edges, nodes) - 1, minlength=edges.size - 1)
            assert np.all(given <= held)

    def test_a_crowded_cell_stays_within_the_chunk_budget(self):
        # 10^4 cells, one atom in each but cell 5000, which holds 2^14:
        # padding every cell to the widest would take 10^4 x 2^14 x 16
        # doubles (21 GB); the crowded cell is a chunk of its own, with a
        # basis of 2^14 x 16 doubles (2 MiB)
        import tracemalloc

        edges = np.linspace(-1.0, 1.0, MAX_PARTITION_CELLS + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        crowd = np.linspace(edges[5000], edges[5001], 2 ** 14 + 2)[1:-1]
        atoms = np.concatenate([np.delete(mids, 5000), crowd])
        source = DiscreteMixingMeasure(atoms, np.full(atoms.size, 1.0 / atoms.size))
        tracemalloc.start()
        try:
            nodes, weights = _cellwise_gauss(source, edges, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nodes.size == MAX_PARTITION_CELLS - 1 + 16
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert peak <= 3 * 8 * max(_GAUSS_BUFFER, 2 ** 14 * 16)


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

    @staticmethod
    def assert_mirror_symmetric(approx):
        atoms, weights = approx.mixing.atoms, approx.mixing.weights
        assert np.abs(atoms + atoms[::-1]).max() <= 1e-12
        assert np.abs(weights - weights[::-1]).max() <= 1e-12

    def test_symmetric_truth_gives_symmetric_atoms(self, gaussian_truth):
        # at sigma = 0.4 the window edge a_sigma = 5 is a grid point, so the
        # last cell must be closed for the source atom at +5 to be kept
        self.assert_mirror_symmetric(finite_gaussian_mixture(gaussian_truth, 0.4))

    @pytest.mark.xfail(strict=True, reason=(
        "round-off in the transformed mixing density is not mirror-"
        "symmetric (4e-16 absolute, up to 1e-2 relative in the tails "
        "of the window), which moves tail Gauss nodes"))
    @pytest.mark.parametrize("sigma", [0.3, 0.25])
    def test_symmetric_truth_gives_symmetric_atoms_fine(self, gaussian_truth, sigma):
        self.assert_mirror_symmetric(finite_gaussian_mixture(gaussian_truth, sigma))

    @pytest.mark.parametrize("sigma, half", [(0.4, 5.0), (0.3, 7.0), (0.25, 8.0)])
    def test_cell_rule_commutes_with_mirror(self, gaussian_truth, sigma, half):
        # the cells finite_gaussian_mixture uses at sigma, on an exactly
        # mirror-symmetric source; at sigma = 0.25 thirteen interior edges
        # are source atoms
        x = gaussian_truth.f.grid()
        x = x[np.abs(x) <= half]
        w = np.exp(-(x ** 2) / 2.0)
        source = DiscreteMixingMeasure(x, w / w.sum())
        edges = np.linspace(-half, half, math.ceil(2.0 * half / sigma) + 1)
        atoms, weights = _cellwise_gauss(source, edges, 16)
        order = np.argsort(atoms)
        atoms, weights = atoms[order], weights[order]
        assert np.abs(atoms + atoms[::-1]).max() <= 1e-12
        assert np.abs(weights - weights[::-1]).max() <= 1e-12
        assert abs(weights.sum() - 1.0) <= 1e-12

    def test_density_peak_memory(self, gaussian_truth):
        # evaluating 1,025 atoms on 2^14 points densely would hold ~134 MB
        import tracemalloc

        tracemalloc.start()
        try:
            finite_gaussian_mixture(gaussian_truth, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_rejects_heavy_tailed_truth(self, cauchy_truth):
        with pytest.raises(ValueError):
            finite_gaussian_mixture(cauchy_truth, 0.3)
