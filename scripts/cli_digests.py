#!/usr/bin/env python3
"""SHA-256 digests of every CLI subcommand's outputs at ``--seed 0``.

Runs each subcommand on a small fixed config (``contract`` and ``w2`` at
``--threads 1`` and ``2``, and ``contract`` once more at ``--truth
gaussian:0.5`` and ``--threads 1``; ``approx`` and ``transform`` on
densities that together cover all seven kernel families; ``discretize``
on a catalog density with the Gaussian, Cauchy, Student-t, superkernel
and sinc kernels, and on an ``--atoms-csv`` file the script writes)
inside OUTDIR and prints one ``sha256  file`` line per CSV and sidecar.
It then prints one ``sha256  name`` line for the raw float64 values and
the raw complex128 spectrum of ``catalog_density(id).f`` for one id per
kernel family (``GRID_IDS``): the CSVs carry summaries of these grids,
not the grids.
Next, one line for the atoms, the weights and the grid density of
``finite_gaussian_mixture(catalog_density("gaussian:1"), sigma)`` at
sigma = 0.4, 0.3 and 0.25, digesting the raw float64 bytes, and one for
the ``gig_sample`` draws over a (p, a, b) grid that covers both of its
forms (the inverse Gaussian at p = -1/2, the inverse Gaussian plus the
gamma mixture at p >= 1/2) at seed 0, and one for the generator state
after them.  It prints the raw-byte digest of ``nig_sample`` at size
1000 and seed 0 for each alpha vector in ``NIG_ALPHAS``: ``nig-check``
writes only summary statistics of the draws.  For one small ``dp`` fit and one small
``nig`` fit of the ``fit`` data, it prints the raw-byte digests of the
``posterior_mean_density`` values, of the per-draw W2 distances to the
``gaussian:1`` mixing measure (``posterior._w2_draws``, the loop that
``contract`` and ``w2`` summarize) and of the chain's sigma and log
likelihood arrays; the CSVs round floats to
17 digits, these do not.  For the ``dp`` fit it also digests the
posterior mean with two draws edited so that they take the direct
``mixture_density`` evaluation: draw 3 at sigma = 0.04, too narrow for
the grid's band, and draw 7 with mass 0.1 at 15.9, inside the period's
edge.  It then prints the raw-byte digest of
``mixture_density`` for the 64 N-IG cell midpoints with seed-0 Dirichlet
weights on ``experiment_grid()`` at sigma = 0.15, 0.4 and 1.0 (each
midpoint is a grid point).  Last, for d = 0 and d = 0.25 (c = 1),
it prints the raw-byte digests of the sticks, the atoms, the weights and
the remainders of 50 ``py_sample`` draws at seed 0 and tolerance 1e-4,
each concatenated over the draws.  Outputs are named relative to OUTDIR,
so the sidecars do not depend on where OUTDIR lives, and a refactor that
keeps the RNG stream proves byte identity with one ``diff``:

    python3 scripts/cli_digests.py /tmp/new > new.txt
    (in a checkout of the parent) python3 scripts/cli_digests.py /tmp/old > old.txt
    diff old.txt new.txt

``--write`` instead writes the listing to ``tests/data/cli_digests.txt``
below a fingerprint of the machine (``FINGERPRINT``: the numpy version,
``platform.machine()`` and the BLAS name and version), which
``tests/test_digests.py`` compares against a fresh run:

    python3 scripts/cli_digests.py --write /tmp/digests

Exits 1 if a subcommand fails.  Takes well under a minute on two CPUs.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from supermix.cli import main
from supermix.discretize import finite_gaussian_mixture, mixture_density
from supermix.kernels import KernelSpec, catalog_density
from supermix.posterior import (
    Chain,
    NIGPartitionPrior,
    _w2_draws,
    blocked_gibbs_fit,
    default_py_config,
    experiment_grid,
    posterior_mean_density,
    resolve_truth,
)
from supermix.priors import NIGParams, PYParams, nig_sample, py_sample
from supermix.variates import gig_sample

DISCRETIZE = ["discretize", "--epsilon", "1e-3", "--a", "2", "--sigma", "0.5"]
FIT = ["fit", "--data", "fit_data.txt", "--iterations", "200", "--burn-in", "50",
       "--truncation", "20"]
LADDER = ["--n-ladder", "60,120", "--replicates", "2"]

#: one catalog id per kernel family for the grid digests
GRID_IDS = ("gaussian:1", "cauchy:1", "stable:1.5:1", "student_t:3:1", "fvp:1", "sinc:0.5",
            "superkernel:1:2:1")

#: the GIG digest grid: every (p, a, b) combination, 32 draws each
GIG_P = (-0.5, 0.5, 1.5, 2.5, 30.5)
GIG_AB = (1e-3, 0.5, 2.0, 2001.0)
GIG_DRAWS_PER_CELL = 32

#: the ``nig_sample`` digest cases: mixed masses, a zero cell, and the
#: 64 cells of the N-IG prior, where rows are summed pairwise
NIG_ALPHAS = {
    "mixed3": [0.5, 1.0, 2.0],
    "zero_cell3": [0.0, 1.0, 1.0],
    "uniform64": [0.1] * 64,
}
NIG_DRAWS = 1000

#: the ``py_sample`` digest cases: discounts, draws per discount, tolerance
PY_SAMPLE_DISCOUNTS = (0.0, 0.25)
PY_SAMPLE_DRAWS = 50
PY_SAMPLE_TOL = 1e-4

#: the committed listing that ``--write`` regenerates
DIGEST_FILE = ROOT / "tests" / "data" / "cli_digests.txt"

RUNS = {
    "approx_fvp": ["approx", "--density", "fvp:1", "--sigma", "1,0.7,0.5"],
    "approx_gaussian": ["approx", "--density", "gaussian:1", "--sigma", "0.5,0.3",
                        "--p", "2"],
    **{
        f"approx_{family}": ["approx", "--density", density, "--sigma", "0.5,0.3"]
        for family, density in (("stable", "stable:1.5:1"), ("student_t", "student_t:3:1"),
                                ("sinc", "sinc:0.5"), ("superkernel", "superkernel:1:2:1"))
    },
    "transform_cauchy": ["transform", "--density", "cauchy:1", "--sigma", "0.5,0.4,0.3"],
    "transform_gaussian": ["transform", "--density", "gaussian:1",
                           "--sigma", "0.5,0.4,0.3"],
    "transform_gaussian_order40": ["transform", "--density", "gaussian:1",
                                   "--sigma", "0.4", "--order", "40"],
    "transform_stable": ["transform", "--density", "stable:1.5:1", "--sigma", "0.5,0.4,0.3"],
    "discretize_gaussian": DISCRETIZE + ["--density", "gaussian:1"],
    "discretize_cauchy": DISCRETIZE + ["--density", "cauchy:1", "--kernel", "cauchy:1"],
    **{
        f"discretize_gaussian_kernel_{family}": DISCRETIZE + ["--density", "gaussian:1",
                                                              "--kernel", kernel]
        for family, kernel in (("student_t", "student_t:3:1"),
                               ("superkernel", "superkernel:1:2:1"), ("sinc", "sinc:1"))
    },
    "discretize_atoms_gaussian": DISCRETIZE + ["--atoms-csv", "atoms.csv"],
    "discretize_atoms_cauchy": DISCRETIZE + ["--atoms-csv", "atoms.csv",
                                             "--kernel", "cauchy:1"],
    "prior_mass_py_sticks": ["prior-mass", "--lemma", "py-sticks", "--budget", "20000"],
    "prior_mass_py_locations": ["prior-mass", "--lemma", "py-locations",
                                "--budget", "20000"],
    "prior_mass_nig": ["prior-mass", "--lemma", "nig", "--budget", "20000"],
    "nig_check_2": ["nig-check", "--alphas", "1,1", "--budget", "20000"],
    "nig_check_3": ["nig-check", "--alphas", "0.5,1,2", "--budget", "20000"],
    "fit_dp": FIT + ["--prior", "dp"],
    "fit_py": FIT + ["--prior", "py"],
    "fit_nig": FIT + ["--prior", "nig"],
    **{
        f"contract_{prior}_t{threads}": ["contract", "--prior", prior, *LADDER,
                                         "--threads", str(threads)]
        for prior in ("dp", "nig") for threads in (1, 2)
    },
    "contract_dp_gaussian0.5_t1": ["contract", "--prior", "dp", "--truth", "gaussian:0.5",
                                   *LADDER, "--threads", "1"],
    **{f"w2_t{threads}": ["w2", *LADDER, "--threads", str(threads)] for threads in (1, 2)},
}


def run_all(outdir: Path) -> list[str]:
    """Run every config in ``outdir``; return the output file names."""
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    data = np.random.default_rng(0).standard_normal(150)
    np.savetxt("fit_data.txt", data, fmt="%.17g")
    rng = np.random.default_rng(1)
    atoms = np.column_stack([rng.uniform(-2.0, 2.0, 200), rng.random(200)])
    np.savetxt("atoms.csv", atoms, fmt="%.17g", delimiter=",")
    names = []
    for name, argv in RUNS.items():
        out = f"{name}.csv"
        code = main(argv + ["--seed", "0", "--out", out])
        if code != 0:
            raise SystemExit(f"{name}: {argv[0]} exited {code}")
        names += [out, out + ".meta.json"]
    return names


def _array_digest(values, dtype="<f8") -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def grid_digests() -> list[tuple[str, str]]:
    """(sha256, name) of the grid values and spectrum of each ``GRID_IDS``
    catalog density."""
    out = []
    for density_id in GRID_IDS:
        f = catalog_density(density_id).f
        out += [(_array_digest(f.values), f"grid_{density_id}.values"),
                (_array_digest(f.spectrum, "<c16"), f"grid_{density_id}.spectrum")]
    return out


def mixture_digests() -> list[tuple[str, str]]:
    """(sha256, name) of the Gaussian-truth mixture arrays at each sigma."""
    truth = catalog_density("gaussian:1")
    out = []
    for sigma in (0.4, 0.3, 0.25):
        approx = finite_gaussian_mixture(truth, sigma)
        arrays = {
            "atoms": approx.mixing.atoms,
            "weights": approx.mixing.weights,
            "density": approx.density.values,
        }
        for part, values in arrays.items():
            out.append((_array_digest(values), f"fgm_gaussian1_sigma{sigma}.{part}"))
    return out


def gig_digests() -> list[tuple[str, str]]:
    """(sha256, name) of one ``gig_sample`` call over the grid at seed 0,
    and of the generator state after it."""
    grid = np.meshgrid(GIG_P, GIG_AB, GIG_AB, indexing="ij")
    p, a, b = (np.repeat(g.ravel(), GIG_DRAWS_PER_CELL) for g in grid)
    rng = np.random.default_rng(0)
    draws = gig_sample(p, a, b, rng)
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    return [(_array_digest(draws), "gig_sample.draws"),
            (hashlib.sha256(state).hexdigest(), "gig_sample.rng_state")]


def nig_digests() -> list[tuple[str, str]]:
    """(sha256, name) of ``nig_sample`` draws for each ``NIG_ALPHAS`` case
    at seed 0."""
    return [
        (_array_digest(nig_sample(NIGParams(np.array(alphas)), np.random.default_rng(0),
                                  size=NIG_DRAWS)), f"nig_sample_{name}.draws")
        for name, alphas in NIG_ALPHAS.items()
    ]


def posterior_digests() -> list[tuple[str, str]]:
    """(sha256, name) of the summaries of a ``dp`` and a ``nig`` fit of
    the ``fit`` data at the ``fit`` config, each at seed 0; reads
    ``fit_data.txt`` from the working directory that ``run_all`` set."""
    data = np.loadtxt("fit_data.txt")
    truth = resolve_truth("gaussian:1")
    out = []
    for prior in ("dp", "nig"):
        cfg = replace(default_py_config(prior), iterations=200, burn_in=50,
                      thinning=2, truncation=20)
        chain = blocked_gibbs_fit(data, cfg, np.random.default_rng(0))
        arrays = {
            "mean_density": posterior_mean_density(chain, experiment_grid()).values,
            "w2": _w2_draws(chain, truth),
            "sigma": chain.sigma,
            "loglik": chain.loglik,
        }
        for part, values in arrays.items():
            out.append((_array_digest(values), f"posterior_{prior}.{part}"))
        if prior == "dp":
            atoms, weights, sigma = chain.atoms.copy(), chain.weights.copy(), chain.sigma.copy()
            sigma[3] = 0.04
            atoms[7, -1], weights[7] = 15.9, np.append(0.9 * weights[7, :-1], 0.1)
            edited = Chain(atoms, weights, sigma, chain.loglik)
            values = posterior_mean_density(edited, experiment_grid()).values
            out.append((_array_digest(values), "posterior_dp.mean_density_direct"))
    return out


def density_digests() -> list[tuple[str, str]]:
    """(sha256, name) of ``mixture_density`` for the N-IG cell midpoints
    on the experiment grid."""
    x = experiment_grid().grid()
    atoms = NIGPartitionPrior().cell_midpoints()
    weights = np.random.default_rng(0).dirichlet(np.ones(atoms.size))
    out = []
    for sigma in (0.15, 0.4, 1.0):
        values = mixture_density(atoms, weights, KernelSpec("gaussian"), sigma, x)
        out.append((_array_digest(values), f"mixture_density_nig_midpoints_sigma{sigma}"))
    return out


def py_sample_digests() -> list[tuple[str, str]]:
    """(sha256, name) of the parts of ``PY_SAMPLE_DRAWS`` seed-0
    ``py_sample`` draws for each discount in ``PY_SAMPLE_DISCOUNTS``."""
    out = []
    for d in PY_SAMPLE_DISCOUNTS:
        rng = np.random.default_rng(0)
        draws = [py_sample(PYParams(c=1.0, d=d), PY_SAMPLE_TOL, rng)
                 for _ in range(PY_SAMPLE_DRAWS)]
        arrays = {
            "sticks": np.concatenate([draw.sticks for draw in draws]),
            "atoms": np.concatenate([draw.atoms for draw in draws]),
            "weights": np.concatenate([draw.weights for draw in draws]),
            "remainders": [draw.remainder for draw in draws],
        }
        for part, values in arrays.items():
            out.append((_array_digest(values), f"py_sample_d{d}.{part}"))
    return out


def fingerprint() -> dict[str, str]:
    """The fields of the machine on which matmul and exp rounding may
    depend: the numpy version, the CPU architecture and the BLAS build."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def listing(outdir: Path) -> list[str]:
    """Every ``sha256  name`` line, in output order."""
    lines = [f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}"
             for name in run_all(outdir)]
    for digest, name in (grid_digests() + mixture_digests() + gig_digests() + nig_digests()
                         + posterior_digests() + density_digests() + py_sample_digests()):
        lines.append(f"{digest}  {name}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path, help="directory for the CLI outputs")
    parser.add_argument("--write", action="store_true",
                        help=f"write the listing with its fingerprint to {DIGEST_FILE}")
    args = parser.parse_args()
    lines = listing(args.outdir)
    if args.write:
        header = [f"# {key}: {value}" for key, value in fingerprint().items()]
        DIGEST_FILE.parent.mkdir(parents=True, exist_ok=True)
        DIGEST_FILE.write_text("\n".join(header + lines) + "\n")
    else:
        print("\n".join(lines))
