"""Batch experiment front end.

Every subcommand writes a CSV with a header row (floats serialized with
17 significant digits) plus a ``<out>.meta.json`` sidecar echoing the full
configuration, package and library versions, and the seed; the two are
written as a pair, so a failed run leaves neither.  Exit codes: 0 success,
2 validation/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .discretize import DiscreteMixingMeasure, moment_match, partition_discretize, support_budget
from .errors import RegimeUnavailable, SupermixError
from .kernels import catalog_density, parse_kernel_id, sinc_approx_error
from .posterior import (
    ContractionRow,
    FitConfig,
    W2Row,
    blocked_gibbs_fit,
    contraction_experiment,
    default_py_config,
    default_w2_config,
    stick_truncation,
    wasserstein_recovery_experiment,
)
from .prior_mass import lemma_verification_table
from .priors import NIGParams, PYParams, nig_marginal_cdf, nig_sample
from .transforms import gaussian_smoothing_error, spectral_symbol_check, transform_analytic


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _dataclass_table(row_type, rows: list) -> tuple[list[str], list[tuple]]:
    """Header and rows of dataclass rows, one column per field."""
    return [f.name for f in fields(row_type)], [astuple(r) for r in rows]


def _meta_text(config: dict) -> str:
    meta = {
        "config": config,
        "versions": {"supermix": __version__, "numpy": np.__version__},
    }
    return json.dumps(meta, sort_keys=True, indent=1)


def write_outputs(out: Path, header: list[str], rows: list[tuple], config: dict) -> None:
    """Write the CSV and its ``<out>.meta.json`` sidecar as one pair.

    Both go to temporary files next to their targets and replace the
    targets only after both were written; the temporary files are removed
    whatever happens, so a failed write leaves the previous pair (or none)
    and nothing else.
    """
    texts = {out: _csv_text(header, rows), Path(str(out) + ".meta.json"): _meta_text(config)}
    staged = {}
    try:
        for target, text in texts.items():
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged[tmp] = target
            tmp.write_text(text)
        for tmp, target in staged.items():
            os.replace(tmp, target)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _parse_list(text: str, item) -> list:
    values = [item(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def _parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float)


def _parse_int_list(text: str) -> list[int]:
    return _parse_list(text, int)


def _parse_threads(text: str) -> int:
    threads = int(text)
    if threads < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {threads}")
    return threads


def _config_line_to_args(line: str) -> list[str]:
    """One line of an ``@file`` as argv tokens: ``key=value`` is the token
    ``--key=value``, with ``_`` in the key read as ``-``; a blank line or
    a ``#`` comment line gives none."""
    line = line.strip()
    if not line or line.startswith("#"):
        return []
    key, _, value = line.partition("=")
    return [f"--{key.strip().replace('_', '-')}={value.strip()}"]


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a token of a minus sign and then a
    digit, a dot and a digit, ``inf`` or ``nan`` for a value, not a flag:
    ``-1e-3`` and ``-inf`` as well as the ``-2`` and ``-.5`` that argparse
    alone accepts.  No flag of this parser starts that way, so none is
    read as a value; subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``supermix`` parser.  An argument ``@FILE`` after the subcommand
    stands for FILE's ``key=value`` lines, each read as ``--key=value``, so
    argparse checks file values by each flag's type and choices like any
    other; a later flag wins.  Flags are never abbreviated, so a misspelt
    key cannot prefix-match a flag.

    It is built once per process (~1.2 ms: eight subparsers) and shared by
    every :func:`main` call; parsing keeps no state in it, every default
    is immutable, and an ``@FILE`` is read by each parse."""
    parser = _Parser(
        prog="supermix",
        description="Spectral approximation, discretization, prior-mass and "
        "posterior-contraction experiments for kernel mixtures",
        fromfile_prefix_chars="@",
        epilog="@FILE after the subcommand reads key=value lines as --key=value flags",
    )
    parser.convert_arg_line_to_args = _config_line_to_args
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, allow_abbrev=False, **kw)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True)

    def experiment(p, truth):
        common(p)
        p.add_argument("--threads", type=_parse_threads, default=0, help="0 = one per CPU")
        p.add_argument("--truth", default=truth)
        p.add_argument("--n-ladder", type=_parse_int_list, default=(250, 1000, 4000))
        p.add_argument("--replicates", type=int, default=10)

    p = add_parser("approx", help="sinc/superkernel approximation error")
    common(p)
    p.add_argument("--density", required=True, help="e.g. fvp:1, gaussian:1, cauchy:1")
    p.add_argument("--sigma", type=_parse_float_list, required=True, help="comma list")
    p.add_argument("--p", type=float, default=math.inf)

    p = add_parser("transform", help="corrected-transform error ladder")
    common(p)
    p.add_argument("--density", required=True)
    p.add_argument("--sigma", type=_parse_float_list, required=True)
    p.add_argument("--order", type=int, default=None)

    p = add_parser("discretize", help="moment-matched discretization")
    common(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--density", help="catalog id of the mixing density")
    source.add_argument("--atoms-csv", type=Path, help="CSV atom,weight rows")
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
    fit_defaults = FitConfig()
    p.add_argument("--iterations", type=int, default=fit_defaults.iterations)
    p.add_argument("--burn-in", type=int, default=fit_defaults.burn_in)
    p.add_argument("--thinning", type=int, default=fit_defaults.thinning)
    p.add_argument("--truncation", type=int, default=fit_defaults.truncation,
                   help="most sticks a dp or py fit may use")

    p = add_parser("contract", help="contraction-rate experiment")
    experiment(p, "gaussian:1")
    p.add_argument("--prior", default="dp", choices=["dp", "py", "nig"])

    experiment(add_parser("w2", help="Wasserstein recovery experiment"), "twopoint")
    return parser


#: what a subcommand returns: CSV header, CSV rows and the entries it adds
#: to the sidecar's config
Output = tuple[list[str], list[tuple], dict]


def cmd_approx(args) -> Output:
    cat = catalog_density(args.density)
    rows = []
    for sigma in args.sigma:
        err = sinc_approx_error(cat.f, cat.smooth, sigma, args.p)
        rows.append((cat.name, cat.smooth.rho, cat.smooth.r, sigma, args.p, err))
    return ["density", "rho", "r", "sigma", "p", "error"], rows, {}


def cmd_transform(args) -> Output:
    cat = catalog_density(args.density)
    rows = []
    for sigma in args.sigma:
        res = transform_analytic(cat.f, sigma, args.order)
        err = gaussian_smoothing_error(res, cat.f)
        dev = spectral_symbol_check(res.truncation_order, 0.5)
        rows.append((sigma, err, res.mass_defect, dev))
    return ["sigma", "sup_error", "mass_defect", "identity_deviation"], rows, {}


def _load_table(path: Path, **kwargs) -> np.ndarray:
    """``np.loadtxt(path, **kwargs)``; an empty file gives an empty array
    without numpy's warning, and the caller's checks reject it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, **kwargs)


def cmd_discretize(args) -> Output:
    for flag, value in (("--a", args.a), ("--sigma", args.sigma)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{flag} must be finite and positive, got {value}")
    kernel = parse_kernel_id(args.kernel)
    if kernel.density_fn() is None:
        raise ValueError(f"no closed-form density for {kernel.family}: "
                         "discretize cannot compare the mixtures")
    if args.atoms_csv is not None:
        raw = _load_table(args.atoms_csv, delimiter=",", ndmin=2)
        if raw.shape[0] == 0 or raw.shape[1] != 2:
            raise ValueError(f"{args.atoms_csv}: need atom,weight rows, got shape {raw.shape}")
        with np.errstate(over="ignore"):  # an infinite total is rejected below
            total = raw[:, 1].sum()
        if not 0 < total < math.inf:
            raise ValueError(f"{args.atoms_csv}: weights must sum to a positive value, got {total}")
        source = DiscreteMixingMeasure(raw[:, 0], raw[:, 1] / total)
    else:
        cat = catalog_density(args.density)
        x = cat.f.grid()
        window = np.abs(x) <= args.a
        w = np.clip(cat.f.values[window], 0.0, None)
        source = DiscreteMixingMeasure(x[window], w / w.sum())
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
    return (
        ["atom", "weight"],
        list(zip(out.atoms.tolist(), out.weights.tolist())),
        {
            "regime": regime,
            "n_atoms": len(out),
            "sup_distance": sup,
            "target": args.epsilon / args.sigma,
        },
    )


#: largest Monte-Carlo work array, in draws: the budget of ``prior-mass``,
#: and the budget times the cell count of ``nig-check``; ten times the
#: largest budget in use, 80 MB per float64 work array
MC_BUDGET_CAP = 10 ** 7


def _check_budget(budget: int, cells: int = 1) -> None:
    if not (budget >= 1 and budget * cells <= MC_BUDGET_CAP):
        draws = f" x {cells} cells = {budget * cells} draws" if cells > 1 else ""
        raise ValueError(f"Monte-Carlo budget must be >= 1 and <= {MC_BUDGET_CAP}, "
                         f"got {budget}{draws}")


def cmd_prior_mass(args) -> Output:
    _check_budget(args.budget)
    rng = np.random.default_rng(args.seed)
    _, rows = lemma_verification_table(args.lemma, args.budget, rng)
    return (
        ["config", "mc_estimate", "mc_stderr", "analytic_bound", "holds"],
        [
            (r.config, r.mc_estimate, r.mc_stderr, r.analytic_bound, int(r.holds))
            for r in rows
        ],
        {},
    )


#: the logit range of the ``nig-check`` grid ends where the Bessel argument
#: of the marginal density exceeds its smallest value by this much
_NIG_CHECK_LOG_DROP = 40.0


def _nig_check_grid(a_s: float, a_l: float) -> np.ndarray:
    """The 20001-point z-grid for the marginal cdf of the first coordinate
    at N = 2 and cell masses (a_s, a_l), from the masses alone.

    The logit t of that coordinate has density proportional to
    cosh(t / 2) K_1(r) / r, where r^2 = (a_s + a_l)^2 + 2 a_s a_l
    (cosh(t - t_c) - 1) and t_c = log(a_s / a_l).  The grid is the logistic
    map of an even t-grid over |t - t_c| <= w, where r has grown by
    ``_NIG_CHECK_LOG_DROP``: there the density lies about 38 or more below
    its peak in log.  Raises ``ValueError`` naming the masses where float
    arithmetic cannot represent the law: where the range's ends round to 0
    or 1, or where neighbouring grid points round to the same float."""
    total, drop = a_s + a_l, _NIG_CHECK_LOG_DROP
    w = 2.0 * math.asinh(math.sqrt(drop * (2.0 * total + drop) / (4.0 * a_s * a_l)))
    t = math.log(a_s / a_l) + w * np.linspace(-1.0, 1.0, 20001)
    z = np.exp(-np.logaddexp(0.0, -t))
    if not (z[0] > 0.0 and z[-1] < 1.0 and np.all(np.diff(z) > 0.0)):
        raise ValueError(f"nig-check cannot represent the marginal law of cell masses "
                         f"{a_s:g} and {a_l:g} in floats")
    return z


def cmd_nig_check(args) -> Output:
    """Coordinate means of ``budget`` draws against alpha / sum(alpha), and
    at N = 2 the KS distance of the smaller mass's coordinate, which keeps
    its relative precision, to its marginal law: the cdf of the first
    coordinate with the masses ordered (smaller, larger)."""
    _check_budget(args.budget, len(args.alphas))
    params = NIGParams(np.array(args.alphas))
    if params.n_cells == 2:
        small = int(np.argmin(params.alphas))
        law = NIGParams(params.alphas[[small, 1 - small]])
        if law.alphas[0] == 0.0:
            raise ValueError("a zero cell mass puts the N = 2 law on a vertex: no marginal cdf")
        zs = _nig_check_grid(*law.alphas.tolist())
    draws = nig_sample(params, np.random.default_rng(args.seed), size=args.budget)
    rows = [("coordinate_mean_max_dev",
             float(np.abs(draws.mean(axis=0) - params.alphas / params.total).max()))]
    if params.n_cells == 2:
        cdf = nig_marginal_cdf(law, zs)
        emp = np.sort(draws[:, small])
        ks = float(
            np.abs(np.interp(emp, zs, cdf) - np.arange(1, emp.size + 1) / emp.size).max()
        )
        rows.append(("marginal_ks", ks))
    return ["statistic", "value"], rows, {}


def cmd_fit(args) -> Output:
    data = _load_table(args.data)
    cfg = replace(
        default_py_config(args.prior),
        iterations=args.iterations,
        burn_in=args.burn_in,
        thinning=args.thinning,
        truncation=args.truncation,
    )
    rng = np.random.default_rng(args.seed)
    chain = blocked_gibbs_fit(data, cfg, rng)
    columns = (chain.atoms, chain.weights, chain.sigma, chain.loglik)
    rows = [
        (i, sigma, loglik, len(atoms), ";".join(map(_fmt, atoms)), ";".join(map(_fmt, weights)))
        for i, (atoms, weights, sigma, loglik) in enumerate(zip(*(c.tolist() for c in columns)))
    ]
    header = ["draw", "sigma", "loglik", "n_atoms", "atoms", "weights"]
    return header, rows, _stick_meta(cfg, [data.size])


def _stick_meta(cfg: FitConfig, ns) -> dict:
    """Sidecar entries of a Pitman-Yor config: for each number of
    observations n, the sticks L of its fits and their truncation bound
    4 n E[R_L] (:func:`~supermix.posterior.stick_truncation`); none for
    an N-IG config."""
    if not isinstance(cfg.prior, PYParams):
        return {}
    entries = []
    for n in ns:
        sticks, bound = stick_truncation(cfg.prior, n, cfg.truncation)
        entries.append({"n": n, "sticks": sticks, "bound": bound})
    return {"stick_truncation": entries}


def cmd_contract(args) -> Output:
    cfg = default_py_config(args.prior)
    rows = contraction_experiment(
        args.truth,
        args.prior,
        args.n_ladder,
        args.replicates,
        cfg=cfg,
        seed=args.seed,
        threads=args.threads,
    )
    return (*_dataclass_table(ContractionRow, rows), _stick_meta(cfg, args.n_ladder))


def cmd_w2(args) -> Output:
    cfg = default_w2_config()
    rows = wasserstein_recovery_experiment(
        args.truth,
        args.n_ladder,
        args.replicates,
        cfg=cfg,
        seed=args.seed,
        threads=args.threads,
    )
    return (*_dataclass_table(W2Row, rows), _stick_meta(cfg, args.n_ladder))


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
    return {k: (v if not isinstance(v, Path) else str(v)) for k, v in vars(args).items()}


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    try:
        header, rows, extra = COMMANDS[args.command](args)
        write_outputs(args.out, header, rows, {**vars_config(args), **extra})
        return 0
    except (SupermixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
