"""The benchmark's workloads: one task each, with its output checks.

Every task is composed from public supermix calls, takes a 64-bit task
seed and returns an :class:`Outcome` whose digest covers its outputs
byte for byte, so that the same task run twice in one process can be
compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from supermix import cli, discretize, gridfn, kernels, metrics, posterior, priors, transforms
from supermix.errors import NonConvergenceWarning

from ess import geyer_ess
from tracing import Hook


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digest: str = ""
    stats: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.asarray(part, dtype=float).tobytes())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


# ---------------------------------------------------------------------
# posterior contraction tasks

TRUTH = "gaussian:1"


@dataclass(frozen=True)
class PosteriorWorkload:
    """One contraction replicate, as ``posterior._contraction_task`` composes it."""

    prior: str
    n: int
    l1_max: float
    iterations: int = 300
    burn_in: int = 100
    thinning: int = 2

    @property
    def draws_expected(self) -> int:
        return -(-(self.iterations - self.burn_in) // self.thinning)

    def config(self) -> posterior.FitConfig:
        return dataclasses.replace(
            posterior.default_py_config(self.prior),
            iterations=self.iterations,
            burn_in=self.burn_in,
            thinning=self.thinning,
        )

    def make_data(self, truth, rng: np.random.Generator) -> np.ndarray:
        return truth.sample(self.n, rng)

    def run(self, seed: int, tr, scratch: Path) -> Outcome:
        cfg = self.config()
        truth = posterior.resolve_truth(TRUTH)
        rng = np.random.default_rng(seed)
        data = self.make_data(truth, rng)
        with tr.span("posterior.fit_self_s"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonConvergenceWarning)
            draws = posterior.blocked_gibbs_fit(data, cfg, rng)
        grid = posterior.experiment_grid()
        f0 = truth.density(grid)
        with tr.span("posterior.mean_density_s"):
            mean = posterior.posterior_mean_density(draws, grid)
        diff = mean - f0
        l1, l2, sup = (gridfn.lp_norm(diff, p) for p in (1, 2, math.inf))
        w2 = float(np.median([metrics.wasserstein(d.mixing, truth.mixing, 2.0) for d in draws]))
        kl = metrics.kl_divergence(f0, mean)

        sigmas = np.array([d.sigma for d in draws])
        logliks = np.array([d.loglik for d in draws])
        atoms = np.concatenate([d.mixing.atoms for d in draws])
        weights = np.concatenate([d.mixing.weights for d in draws])
        summary = np.array([l1, l2, sup, w2, kl])
        ess_loglik = geyer_ess(logliks) if len(draws) >= 4 else math.nan
        components = cfg.truncation if isinstance(cfg.prior, priors.PYParams) else cfg.prior.n_cells
        stats = {
            "posterior.sweeps": cfg.iterations,
            "posterior.alloc_cells": cfg.iterations * self.n * components,
            "posterior.draws_kept": len(draws),
            "posterior.burnin_warnings": sum(
                issubclass(w.category, NonConvergenceWarning) for w in caught
            ),
            "posterior.ess_loglik": ess_loglik,
            "posterior.ess_sigma": geyer_ess(sigmas) if len(draws) >= 4 else math.nan,
            "l1": l1,
        }
        digest = _digest(sigmas, logliks, atoms, weights, summary)
        if len(draws) != self.draws_expected:
            return Outcome(False, f"kept {len(draws)} draws, expected {self.draws_expected}", digest, stats)
        if not _finite(sigmas, logliks, atoms, weights, summary, ess_loglik):
            return Outcome(False, "non-finite draw, summary or ESS", digest, stats)
        if not l1 <= self.l1_max:
            return Outcome(False, f"L1 error {l1:.4g} above {self.l1_max:g}", digest, stats)
        return Outcome(True, "", digest, stats)


# ---------------------------------------------------------------------
# constructions outside the posterior


@dataclass(frozen=True)
class ConstructionsWorkload:
    """CLI subcommands at fixed configs plus a finite Gaussian mixture ladder."""

    budget: int = 100_000
    fgm_sigmas: tuple = (0.4, 0.3, 0.25)
    kl_max: float = 1e-3

    def commands(self) -> list[list[str]]:
        budget = str(self.budget)
        disc = ["discretize", "--epsilon", "1e-3", "--a", "2", "--sigma", "0.5"]
        return [
            ["approx", "--density", "fvp:1", "--sigma", "1,0.7,0.5"],
            ["transform", "--density", "cauchy:1", "--sigma", "0.5,0.4,0.3"],
            ["transform", "--density", "gaussian:1", "--sigma", "0.5,0.4,0.3"],
            disc + ["--density", "gaussian:1"],
            disc + ["--density", "cauchy:1", "--kernel", "cauchy:1"],
            ["prior-mass", "--lemma", "py-sticks", "--budget", budget],
            ["prior-mass", "--lemma", "py-locations", "--budget", budget],
            ["prior-mass", "--lemma", "nig", "--budget", budget],
            ["nig-check", "--alphas", "1,1", "--budget", budget],
        ]

    def run(self, seed: int, tr, scratch: Path) -> Outcome:
        parts, problems = [], []
        written = 0
        for i, argv in enumerate(self.commands()):
            out = scratch / f"cmd{i}.csv"
            meta = Path(str(out) + ".meta.json")
            for stale in (out, meta):
                stale.unlink(missing_ok=True)
            with tr.span("cli.self_s"):
                code = run_cli(argv + ["--seed", str(seed), "--out", str(out)])
            if code != 0:
                problems.append(f"{argv[0]} exited {code}")
                continue
            csv, sidecar = out.read_bytes(), meta.read_bytes()
            written += len(csv) + len(sidecar)
            parts += [csv, sidecar]
            problems += _check_cli_output(argv[0], csv.decode(), sidecar.decode())

        with tr.span("kernels.catalog_density_s"):
            truth = kernels.catalog_density(TRUTH)
        kls, atoms_out = [], 0
        for sigma in self.fgm_sigmas:
            with tr.span("discretize.fgm_self_s"):
                approx = discretize.finite_gaussian_mixture(truth, sigma)
            kls.append(approx.kl)
            atoms_out += len(approx.mixing)
            parts += [approx.mixing.atoms, approx.mixing.weights, approx.density.values]
        kls = np.array(kls)
        parts.append(kls)
        if not (_finite(kls) and np.all(np.diff(kls) < 0)):
            problems.append(f"KL ladder {kls.tolist()} not strictly decreasing")
        if not kls[-1] <= self.kl_max:
            problems.append(f"KL {kls[-1]:.3g} at sigma={self.fgm_sigmas[-1]} above {self.kl_max:g}")
        stats = {"cli.bytes_written": written, "discretize.atoms_out": atoms_out}
        return Outcome(not problems, "; ".join(problems), _digest(*parts), stats)


def run_cli(argv: list[str]) -> int:
    """``supermix.cli.main`` in-process; an argparse exit becomes its code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _check_cli_output(command: str, csv: str, sidecar: str) -> list[str]:
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    if not rows:
        return [f"{command} wrote no rows"]
    if command == "prior-mass":
        bad = [r[0] for r in rows if r[-1] != "1"]
        return [f"prior-mass rows without holds=1: {bad}"] if bad else []
    if command == "discretize":
        meta = json.loads(sidecar)["config"]
        if not meta["sup_distance"] <= meta["target"]:
            return [f"discretize sup_distance {meta['sup_distance']:.3g} above target {meta['target']:.3g}"]
        return []
    values = [float(v) for r in rows for v in r[1:] if v not in ("inf", "-inf")]
    return [] if _finite(values) else [f"{command} wrote non-finite values"]


WORKLOADS = {
    "dp_contract": PosteriorWorkload(prior="dp", n=4000, l1_max=0.15),
    "nig_contract": PosteriorWorkload(prior="nig", n=1000, l1_max=0.3),
    "constructions": ConstructionsWorkload(),
}


# ---------------------------------------------------------------------
# set-up and tracing hooks


def first_calls(scratch: Path) -> None:
    """Make each public entry point's first call on a throwaway input."""
    truth = kernels.catalog_density("gaussian:1")
    result = transforms.transform_analytic(truth.f, 0.5)
    transforms.make_nonnegative(result, truth.f)
    transforms.gaussian_smoothing_error(result, truth.f)
    fvp = kernels.catalog_density("fvp:1")
    kernels.sinc_approx_error(fvp.f, fvp.smooth, 1.0, math.inf)
    small = discretize.DiscreteMixingMeasure(np.array([-0.5, 0.0, 0.5]), np.full(3, 1.0 / 3))
    discretize.moment_match(small, 3, (-1.0, 1.0))
    small.mixture_density(kernels.KernelSpec("gaussian"), 0.5, np.linspace(-1.0, 1.0, 9))
    grid = posterior.experiment_grid()
    rng = np.random.default_rng(0)
    for prior in ("dp", "nig"):
        cfg = dataclasses.replace(
            posterior.default_py_config(prior), iterations=12, burn_in=2, thinning=1
        )
        draws = posterior.blocked_gibbs_fit(rng.standard_normal(20), cfg, rng)
        mean = posterior.posterior_mean_density(draws, grid, min_draws=1)
        metrics.wasserstein(draws[0].mixing, draws[-1].mixing, 2.0)
        f0 = posterior.resolve_truth("gaussian:1").density(grid)
        metrics.kl_divergence(f0, mean)
        gridfn.lp_norm(mean - f0, 1)
    out = scratch / "setup.csv"
    for argv in (
        ["prior-mass", "--lemma", "nig", "--budget", "2000"],
        ["nig-check", "--alphas", "1,1", "--budget", "1000"],
    ):
        if run_cli(argv + ["--out", str(out)]) != 0:
            raise RuntimeError(f"set-up call {argv[0]} failed")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


HOOKS = (
    Hook("supermix.priors", "ScalePriorA0.logpdf", "priors.scale_logpdf_s",
         lambda a, k, r: {"priors.scale_logpdf_calls": 1}),
    Hook("supermix.posterior", "geninvgauss.rvs", "posterior.gig_s",
         lambda a, k, r: {"posterior.gig_calls": np.size(r)}),
    Hook("supermix.posterior", "catalog_density", "kernels.catalog_density_s"),
    Hook("supermix.cli", "catalog_density", "kernels.catalog_density_s"),
    Hook("supermix.cli", "sinc_approx_error", "kernels.sinc_approx_error_s"),
    Hook("supermix.cli", "transform_analytic", "transforms.transform_analytic_s"),
    Hook("supermix.discretize", "transform_analytic", "transforms.transform_analytic_s"),
    Hook("supermix.discretize", "make_nonnegative", "transforms.make_nonnegative_s"),
    Hook("supermix.cli", "gaussian_smoothing_error", "transforms.smoothing_error_s"),
    Hook("supermix.cli", "lemma_verification_table",
         lambda a, k: "priors.lemma_s." + _arg(a, k, 0, "lemma"),
         lambda a, k, r: {"priors.mc_draws": _arg(a, k, 1, "budget") * (1 + len(r[1]))}),
    Hook("supermix.cli", "nig_sample", "priors.nig_sample_s"),
    Hook("supermix.discretize", "DiscreteMixingMeasure.mixture_density",
         "discretize.mixture_density_s",
         lambda a, k, r: {"discretize.mixture_density_atom_points": len(a[0]) * np.size(r)}),
    Hook("supermix.discretize", "moment_match", "discretize.moment_match_s",
         lambda a, k, r: {"discretize.atoms_out": len(r)}),
    Hook("supermix.discretize", "partition_discretize", "discretize.moment_match_s",
         lambda a, k, r: {"discretize.atoms_out": len(r)}),
    Hook("supermix.metrics", "wasserstein", "metrics.wasserstein_s",
         lambda a, k, r: {"metrics.wasserstein_calls": 1}),
    Hook("supermix.metrics", "kl_divergence", "metrics.kl_s"),
    Hook("supermix.gridfn", "lp_norm", "gridfn.lp_norm_s"),
    Hook("supermix.kernels", "lp_norm", "gridfn.lp_norm_s"),
    Hook("supermix.gridfn", "GridFunction.from_spectrum", "gridfn.synth_s",
         lambda a, k, r: {"gridfn.synth_calls": 1, "gridfn.synth_bytes_computed": 24 * r.n_points}),
)
