"""Batch experiment front end.

Every subcommand writes a CSV with a header row (floats serialized with
17 significant digits) plus a ``<out>.meta.json`` sidecar echoing the full
configuration, package and library versions, and the seed.  Exit codes:
0 success, 2 validation/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import SupermixError
from .kernels import catalog_density, parse_kernel_id, sinc_approx_error
from .priors import NIGParams, lemma_verification_table, nig_marginal_cdf, nig_sample
from .transforms import gaussian_smoothing_error, spectral_symbol_check, transform_analytic


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_rows(path: Path, row_type, rows: list) -> None:
    """CSV of dataclass rows, one column per field."""
    write_csv(path, [f.name for f in fields(row_type)], [astuple(r) for r in rows])


def write_meta(path: Path, config: dict) -> None:
    import scipy

    meta = {
        "config": {k: (v if not isinstance(v, Path) else str(v)) for k, v in config.items()},
        "versions": {
            "supermix": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def _parse_threads(text: str) -> int:
    threads = int(text)
    if threads < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {threads}")
    return threads


def _parse_p(text: str) -> float:
    return math.inf if text in ("inf", "Inf", "INF") else float(text)


def _load_config_file(path: str) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="supermix",
        description="Spectral approximation, discretization, prior-mass and "
        "posterior-contraction experiments for kernel mixtures",
    )
    parser.add_argument("--config", default=None, help="key=value file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        subparsers[name] = p
        return p

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True)
        p.add_argument("--threads", type=_parse_threads, default=0, help="0 = one per CPU")

    p = add_parser("approx", help="sinc/superkernel approximation error")
    common(p)
    p.add_argument("--density", required=True, help="e.g. fvp:1, gaussian:1, cauchy:1")
    p.add_argument("--sigma", type=_parse_float_list, required=True, help="comma list")
    p.add_argument("--p", type=_parse_p, default=math.inf)

    p = add_parser("transform", help="corrected-transform error ladder")
    common(p)
    p.add_argument("--density", required=True)
    p.add_argument("--sigma", type=_parse_float_list, required=True)
    p.add_argument("--order", type=int, default=None)

    p = add_parser("discretize", help="moment-matched discretization")
    common(p)
    p.add_argument("--density", default=None, help="catalog id; or use --atoms-csv")
    p.add_argument("--atoms-csv", type=Path, default=None, help="CSV atom,weight rows")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--kernel", default="gaussian:1")

    p = add_parser("prior-mass", help="MC vs analytic prior-mass lower bounds")
    common(p)
    p.add_argument("--lemma", choices=["py-sticks", "py-locations", "nig"], required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)

    p = add_parser("nig-check", help="N-IG sampler vs density diagnostics")
    common(p)
    p.add_argument("--alphas", type=_parse_float_list, required=True)
    p.add_argument("--budget", type=int, default=10 ** 5)

    p = add_parser("fit", help="posterior draws for a data file")
    common(p)
    p.add_argument("--data", type=Path, required=True, help="one real per line")
    p.add_argument("--prior", default="dp", choices=["dp", "py", "nig"])
    p.add_argument("--iterations", type=int, default=1500)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--thinning", type=int, default=2)
    p.add_argument("--truncation", type=int, default=50)

    p = add_parser("contract", help="contraction-rate experiment")
    common(p)
    p.add_argument("--truth", default="gaussian:1")
    p.add_argument("--prior", default="dp", choices=["dp", "py", "nig"])
    p.add_argument("--n-ladder", type=_parse_int_list, default=[250, 1000, 4000])
    p.add_argument("--replicates", type=int, default=10)

    p = add_parser("w2", help="Wasserstein recovery experiment")
    common(p)
    p.add_argument("--truth", default="twopoint")
    p.add_argument("--n-ladder", type=_parse_int_list, default=[250, 1000, 4000])
    p.add_argument("--replicates", type=int, default=10)
    return parser, subparsers


def cmd_approx(args) -> None:
    cat = catalog_density(args.density)
    rows = []
    for sigma in args.sigma:
        err = sinc_approx_error(cat.f, cat.smooth, sigma, args.p)
        rows.append((cat.name, cat.smooth.rho, cat.smooth.r, sigma, args.p, err))
    write_csv(args.out, ["density", "rho", "r", "sigma", "p", "error"], rows)


def cmd_transform(args) -> None:
    cat = catalog_density(args.density)
    rows = []
    for sigma in args.sigma:
        res = transform_analytic(cat.f, sigma, args.order)
        err = gaussian_smoothing_error(res, cat.f)
        dev = spectral_symbol_check(res.truncation_order, 0.5)
        rows.append((sigma, err, res.mass_defect, dev))
    write_csv(args.out, ["sigma", "sup_error", "mass_defect", "identity_deviation"], rows)


def cmd_discretize(args) -> None:
    from .discretize import DiscreteMixingMeasure, moment_match, partition_discretize, support_budget
    from .errors import RegimeUnavailable

    kernel = parse_kernel_id(args.kernel)
    if args.atoms_csv is not None:
        raw = np.loadtxt(args.atoms_csv, delimiter=",", ndmin=2)
        source = DiscreteMixingMeasure(raw[:, 0], raw[:, 1] / raw[:, 1].sum())
    elif args.density is not None:
        cat = catalog_density(args.density)
        x = cat.f.grid()
        window = np.abs(x) <= args.a
        w = np.clip(cat.f.values[window], 0.0, None)
        source = DiscreteMixingMeasure(x[window], w / w.sum())
    else:
        raise SupermixError("need --density or --atoms-csv")
    try:
        budget = support_budget(args.epsilon, args.a, args.sigma, kernel)
        out = moment_match(source, budget.order, (-args.a, args.a))
        regime = budget.regime
    except RegimeUnavailable:
        out = partition_discretize(source, args.epsilon, args.a, args.sigma, kernel)
        regime = "partition"
    xs = np.linspace(-args.a - 8 * args.sigma, args.a + 8 * args.sigma, 4001)
    f_in = source.mixture_density(kernel, args.sigma, xs)
    f_out = out.mixture_density(kernel, args.sigma, xs)
    sup = float(np.abs(f_in - f_out).max())
    write_csv(
        args.out,
        ["atom", "weight"],
        list(zip(out.atoms.tolist(), out.weights.tolist())),
    )
    write_meta(
        args.out,
        {
            **vars_config(args),
            "regime": regime,
            "n_atoms": len(out),
            "sup_distance": sup,
            "target": args.epsilon / args.sigma,
        },
    )


def cmd_prior_mass(args) -> None:
    rng = np.random.default_rng(args.seed)
    _, rows = lemma_verification_table(args.lemma, args.budget, rng)
    write_csv(
        args.out,
        ["config", "mc_estimate", "mc_stderr", "analytic_bound", "holds"],
        [
            (r.config, r.mc_estimate, r.mc_stderr, r.analytic_bound, int(r.holds))
            for r in rows
        ],
    )


def cmd_nig_check(args) -> None:
    rng = np.random.default_rng(args.seed)
    params = NIGParams(np.array(args.alphas))
    draws = nig_sample(params, rng, size=args.budget)
    rows = [("coordinate_mean_max_dev",
             float(np.abs(draws.mean(axis=0) - params.alphas / params.total).max()))]
    if params.n_cells == 2:
        zs = np.linspace(1e-9, 1 - 1e-9, 20001)
        cdf = nig_marginal_cdf(params, zs)
        emp = np.sort(draws[:, 0])
        ks = float(
            np.abs(np.interp(emp, zs, cdf) - np.arange(1, emp.size + 1) / emp.size).max()
        )
        rows.append(("marginal_ks", ks))
    write_csv(args.out, ["statistic", "value"], rows)


def cmd_fit(args) -> None:
    from .posterior import blocked_gibbs_fit, default_py_config

    data = np.loadtxt(args.data)
    cfg = replace(
        default_py_config(args.prior),
        iterations=args.iterations,
        burn_in=args.burn_in,
        thinning=args.thinning,
        truncation=args.truncation,
    )
    rng = np.random.default_rng(args.seed)
    draws = blocked_gibbs_fit(data, cfg, rng)
    rows = []
    for i, d in enumerate(draws):
        rows.append(
            (i, d.sigma, d.loglik, len(d.mixing),
             ";".join(_fmt(a) for a in d.mixing.atoms),
             ";".join(_fmt(w) for w in d.mixing.weights))
        )
    write_csv(args.out, ["draw", "sigma", "loglik", "n_atoms", "atoms", "weights"], rows)


def cmd_contract(args) -> None:
    from .posterior import ContractionRow, contraction_experiment

    rows = contraction_experiment(
        args.truth,
        args.prior,
        args.n_ladder,
        args.replicates,
        seed=args.seed,
        threads=args.threads,
    )
    write_rows(args.out, ContractionRow, rows)


def cmd_w2(args) -> None:
    from .posterior import W2Row, wasserstein_recovery_experiment

    rows = wasserstein_recovery_experiment(
        args.truth,
        args.n_ladder,
        args.replicates,
        seed=args.seed,
        threads=args.threads,
    )
    write_rows(args.out, W2Row, rows)


COMMANDS = {
    "approx": cmd_approx,
    "transform": cmd_transform,
    "discretize": cmd_discretize,
    "prior-mass": cmd_prior_mass,
    "nig-check": cmd_nig_check,
    "fit": cmd_fit,
    "contract": cmd_contract,
    "w2": cmd_w2,
}


def vars_config(args) -> dict:
    return {
        k: (v if not isinstance(v, Path) else str(v))
        for k, v in vars(args).items()
        if k != "config"
    }


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    """Parse the command line; a ``--config`` file's values become the
    subcommand's defaults, so argparse parses them with each flag's type
    and explicit flags still win.  A key that is not a flag of the
    subcommand is a usage error."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        overrides = _load_config_file(args.config)
        unknown = sorted(set(overrides) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            parser.error(
                f"{args.config}: not flags of {args.command}: {', '.join(unknown)}"
            )
        subparsers[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)
    return args


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    try:
        COMMANDS[args.command](args)
        if args.command not in ("discretize",):  # discretize writes its own meta
            write_meta(args.out, vars_config(args))
        return 0
    except (SupermixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
