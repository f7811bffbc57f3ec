import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import supermix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermix import catalog_density, cli, posterior, sinc_approx_error
from supermix.cli import MC_BUDGET_CAP, build_parser, main, parse_args


def run_python(args, env=None):
    """``python <args>`` in a child that imports the same supermix as the
    tests, with ``env`` added to the environment."""
    src = str(Path(supermix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
    )


def run_cli(args):
    return run_python(["-m", "supermix", *args])


class Hang(Exception):
    """A command that did not return in time.  main counts it as a runtime
    error (exit 1); a TimeoutError, being an OSError, would pass as bad
    input (exit 2)."""


def main_within(seconds, argv):
    """``main(argv)``, or argparse's exit code, with the command interrupted
    by :class:`Hang` after ``seconds``."""
    def interrupt(signum, frame):
        raise Hang(f"the command did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(seconds)
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the value
        return exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_import_and_first_wasserstein_load_no_pool_masked_arrays_or_statistics():
    # a fresh interpreter: numpy.ma, the process pool and statistics are
    # imported only by the code paths that run them
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import supermix",
        "from supermix import DiscreteMixingMeasure, metrics, variates",
        "m = DiscreteMixingMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))",
        "metrics.wasserstein(m, DiscreteMixingMeasure.point_mass(2.0), 2.0)",
        "deferred = ['numpy.ma', 'concurrent.futures', 'multiprocessing', 'statistics']",
        "print([name for name in deferred if name in sys.modules])",
        "variates.ndtri(0.3)",
        "print('statistics' in sys.modules)",
    ])
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True"]


def test_fvp_approx_error_column_zero(tmp_path):
    out = tmp_path / "approx.csv"
    code = main(
        ["approx", "--density", "fvp:1", "--sigma", "1.0", "--p", "inf",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "density,rho,r,sigma,p,error"
    assert lines[1].split(",")[-1] == "0"
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["config"]["seed"] == 0
    assert sorted(meta["versions"]) == ["numpy", "supermix"]


def test_large_student_t_degrees_of_freedom_approx(tmp_path):
    # Gamma((nu + 1) / 2) alone overflows a float above nu ~ 342
    out = tmp_path / "approx.csv"
    code = main(["approx", "--density", "student_t:400:1", "--sigma", "0.5",
                 "--out", str(out)])
    assert code == 0
    error = float(out.read_text().splitlines()[1].split(",")[-1])
    assert np.isfinite(error) and error > 0


def test_unknown_flag_exits_2():
    res = run_cli(["approx", "--density", "fvp:1", "--sigma", "1", "--out", "/tmp/x.csv",
                   "--bogus-flag", "3"])
    assert res.returncode == 2
    assert "--bogus-flag" in res.stderr


def test_unknown_density_exits_2(tmp_path):
    code = main(["approx", "--density", "nosuch:1", "--sigma", "1.0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_seeded_rerun_is_byte_identical(tmp_path):
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["nig-check", "--alphas", "1,1", "--budget", "20000",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_float_serialization_roundtrips(tmp_path):
    out = tmp_path / "tr.csv"
    code = main(["transform", "--density", "gaussian:1", "--sigma", "0.3",
                 "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    val = float(row[1])
    assert "%.17g" % val == row[1]  # binary64 round-trip safe


def test_config_file_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=5000\nseed=9\n")
    out1 = tmp_path / "c1.csv"
    code = main(["nig-check", f"@{cfg}", "--alphas", "1,1", "--out", str(out1)])
    assert code == 0
    meta = json.loads(Path(str(out1) + ".meta.json").read_text())
    assert meta["config"]["budget"] == 5000
    assert meta["config"]["seed"] == 9
    # a flag after the file wins over it
    out2 = tmp_path / "c2.csv"
    main(["nig-check", f"@{cfg}", "--alphas", "1,1", "--budget", "7000", "--out", str(out2)])
    meta2 = json.loads(Path(str(out2) + ".meta.json").read_text())
    assert meta2["config"]["budget"] == 7000


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main parses with one parser per process: after a call that exits 2
    # mid-parse, another subcommand writes the bytes it writes alone
    out = tmp_path / "c.csv"
    argv = ["nig-check", "--alphas", "1,1", "--budget", "2000", "--out", str(out)]
    outputs = [out, Path(str(out) + ".meta.json")]
    build_parser.cache_clear()
    assert main(argv) == 0
    alone = [path.read_bytes() for path in outputs]
    for path in outputs:
        path.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["prior-mass", "--seed", "5", "--budget", "300", "--lemma", "bogus",
              "--out", str(out)])
    assert exc.value.code == 2
    assert main(argv) == 0
    assert [path.read_bytes() for path in outputs] == alone
    # an @FILE is read again by every call
    cfg = tmp_path / "run.cfg"
    for budget in (3000, 4000):
        cfg.write_text(f"budget={budget}\n")
        assert parse_args(["nig-check", f"@{cfg}", "--alphas", "1,1", "--out", "c.csv"]).budget == budget
    # every parse shares the defaults, so each must be immutable
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subcommands.choices.values():
        for action in sub._actions:
            hash(action.default)


def test_config_file_values_parse_by_flag_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ladder=60,120\nreplicates=3\n")
    args = parse_args(["contract", f"@{cfg}", "--out", "c.csv"])
    assert args.n_ladder == [60, 120]
    assert args.replicates == 3


def test_config_file_explicit_flag_at_default_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=5000\n")
    args = parse_args(["nig-check", f"@{cfg}", "--alphas", "1,1",
                       "--budget", "100000", "--out", "c.csv"])
    assert args.budget == 100000


def test_config_file_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bugdet=5000\n")
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        main(["nig-check", f"@{cfg}", "--alphas", "1,1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize("via_file", [True, False], ids=["file", "command-line"])
def test_config_file_abbreviated_key_exits_2(tmp_path, capsys, via_file):
    # argparse would otherwise take the unique prefix bud for --budget
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bud=5000\n")
    out = tmp_path / "c.csv"
    flags = [f"@{cfg}"] if via_file else ["--bud=5000"]
    with pytest.raises(SystemExit) as exc:
        main(["nig-check", "--alphas", "1,1", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bud=5000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\n  \n  # indented comment\n budget = 5000 \n")
    args = parse_args(["nig-check", f"@{cfg}", "--alphas", "1,1", "--out", "c.csv"])
    assert (args.budget, args.seed) == (5000, 0)


def test_config_file_gives_required_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "n.csv"
    cfg.write_text(f"alphas=1,2\nbudget=100\nout={out}\n")
    assert main(["nig-check", f"@{cfg}"]) == 0
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["config"]["alphas"] == [1.0, 2.0]
    assert meta["config"]["out"] == str(out)


@pytest.mark.parametrize("before", [True, False], ids=["before-the-subcommand", "missing-file"])
def test_config_file_misplaced_or_missing_exits_2(tmp_path, before):
    # keys before the subcommand are not its flags; a missing file is a usage error
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "n.csv"
    if before:
        cfg.write_text("budget=100\n")
    argv = [f"@{cfg}", "nig-check"] if before else ["nig-check", f"@{cfg}"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--alphas", "1,1", "--out", str(out)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == ([cfg] if before else [])


def test_negative_threads_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["w2", "--n-ladder", "60", "--replicates", "1", "--threads", "-3",
              "--out", str(tmp_path / "w2.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "data.txt"],
    ["approx", "--density", "fvp:1", "--sigma", "1"],
], ids=["fit", "approx"])
def test_threads_only_on_experiments(tmp_path, argv):
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(["0.5"] * 20) + "\n")
    argv = [str(data_file) if a == "data.txt" else a for a in argv]
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt"]


def test_fit_non_finite_data_exits_2(tmp_path):
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(["0.1", "nan"] + ["0.5"] * 20) + "\n")
    out = tmp_path / "fit.csv"
    code = main(["fit", "--data", str(data_file), "--iterations", "60",
                 "--burn-in", "20", "--truncation", "10", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_fit_negative_burn_in_exits_2(tmp_path):
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(["0.5", "-0.5"] * 10) + "\n")
    out = tmp_path / "fit.csv"
    code = main(["fit", "--data", str(data_file), "--iterations", "60",
                 "--burn-in", "-3", "--truncation", "10", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_fit_two_column_data_exits_2(tmp_path, capsys):
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(["0.5 1.5", "-0.5 2.5"] * 15) + "\n")
    out = tmp_path / "fit.csv"
    code = main(["fit", "--data", str(data_file), "--iterations", "60",
                 "--burn-in", "20", "--truncation", "10", "--out", str(out)])
    assert code == 2
    assert "one value per observation" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data_file]


@pytest.mark.parametrize(
    "argv",
    [["prior-mass", "--lemma", "nig", "--budget", "0"],
     ["prior-mass", "--lemma", "py-sticks", "--budget", "-5"],
     ["nig-check", "--alphas", "1,1", "--budget", "0"]],
)
def test_empty_monte_carlo_budget_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "mc.csv")]) == 2
    assert "budget must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["transform", "--density", "gaussian:1", "--sigma", "-0.5"],
     ["transform", "--density", "gaussian:1", "--sigma", "0.5,0"],
     ["transform", "--density", "gaussian:1", "--sigma", "nan"],
     ["approx", "--density", "fvp:1", "--sigma", "0"],
     ["approx", "--density", "fvp:1", "--sigma", "-1"]],
)
def test_non_positive_bandwidth_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 2
    assert "sigma must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [(["approx", "--density", "cauchy:inf", "--sigma", "0.5"], "got inf"),
     (["transform", "--density", "gaussian:inf", "--sigma", "0.5"], "got inf"),
     (["approx", "--density", "student_t:inf:1", "--sigma", "0.5"], "got inf"),
     (["approx", "--density", "superkernel:1:inf:1", "--sigma", "0.5"], "cutoff=inf"),
     (["contract", "--truth", "gaussian:1e200", "--n-ladder", "20", "--replicates", "1"],
      "got 1e+200"),
     (["transform", "--density", "gaussian:1e200", "--sigma", "0.5"], "got 1e+200")],
    ids=["cauchy-inf-scale", "gaussian-inf-scale", "student_t-inf-df",
         "superkernel-inf-cutoff", "contract-overflowing-scale", "transform-overflowing-scale"],
)
def test_non_finite_kernel_parameter_exits_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "k.csv")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [(["approx", "--density", "gaussian:1:2", "--sigma", "0.5"], "gaussian takes 0 shape"),
     (["approx", "--density", "superkernel:1.5", "--sigma", "0.5"], "superkernel takes 2 shape"),
     (["approx", "--density", "stable:1.5:1:9", "--sigma", "0.5"], "stable takes 1 shape"),
     (["contract", "--truth", "gaussian:1:9", "--n-ladder", "20", "--replicates", "1"],
      "gaussian takes 0 shape")],
    ids=["gaussian-extra-field", "superkernel-one-shape-field", "stable-extra-field",
         "contract-extra-field"],
)
def test_malformed_kernel_id_exits_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "k.csv")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "alphas, message",
    [("0,1", "zero cell mass"), ("1e-300,1", "got 1e-300"), ("1e300,1", "got 1e+300")],
    ids=["zero-cell", "underflowing-square", "overflowing-square"],
)
def test_nig_check_degenerate_cell_mass_exits_2(tmp_path, capsys, alphas, message):
    assert main(["nig-check", "--alphas", alphas, "--budget", "100",
                 "--out", str(tmp_path / "nc.csv")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nig_check_of_far_apart_masses_returns(tmp_path):
    # the Bessel sum behind the N=2 marginal cdf never ended beyond x ~ 1e60
    code = main_within(60, ["nig-check", "--alphas", "1e100,1", "--budget", "2000",
                            "--out", str(tmp_path / "nc.csv")])
    assert code in (0, 2)


@pytest.mark.parametrize("alphas", ["1e-3,1", "1e-6,1", "1,1e-6", "1e6,1", "1,1"])
def test_nig_check_marginal_ks_at_unequal_masses(tmp_path, alphas):
    # a fixed z-grid on [1e-9, 1 - 1e-9] missed the law: 0.71 at 1e-3,1
    # and 0.94 at 1e6,1, for a sampler that is right
    out = tmp_path / "n.csv"
    assert main(["nig-check", "--alphas", alphas, "--budget", "2000", "--out", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["marginal_ks"]) <= 0.05


@pytest.mark.parametrize("alphas", ["1e16,1", "1e100,1"])
def test_nig_check_marginal_ks_at_far_apart_masses(tmp_path, alphas):
    # the log density formed sum(alpha) - root(sum alpha_j^2 / z_j) as a
    # difference, whose rounding grew with sum(alpha); both exited 2
    out = tmp_path / "n.csv"
    assert main(["nig-check", "--alphas", alphas, "--budget", "100000", "--out", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["marginal_ks"]) < 0.01


@pytest.mark.parametrize("alphas, masses", [("1e-8,1e-8", "1e-08 and 1e-08"),
                                            ("1e30,1e30", "1e+30 and 1e+30")])
def test_nig_check_of_unrepresentable_marginal_law_exits_2(tmp_path, capsys, alphas, masses):
    # at 1e-8 the range's ends round to 0 and 1; at 1e30 the law's width,
    # about 1e-15, spans a few floats, and marginal_ks came out 0.08 (nan at 1e50)
    assert main(["nig-check", "--alphas", alphas, "--budget", "100",
                 "--out", str(tmp_path / "n.csv")]) == 2
    assert f"cannot represent the marginal law of cell masses {masses}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["prior-mass", "--lemma", "py-locations"],
                                  ["nig-check", "--alphas", "1,1"]])
def test_budget_above_the_cap_exits_2(tmp_path, capsys, argv):
    # 10^12 draws used to fail with "Unable to allocate 7.28 TiB" and exit 1
    assert main(argv + ["--budget", str(10 ** 12), "--out", str(tmp_path / "b.csv")]) == 2
    assert f"<= {MC_BUDGET_CAP}, got {10 ** 12}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nig_check_work_array_above_the_cap_exits_2(tmp_path, capsys):
    # 10^7 draws of 5000 cells used to fail with "Unable to allocate 373.
    # GiB" and exit 1: the cap bounded the draws per cell only
    alphas = ",".join(["1"] * 5000)
    argv = ["nig-check", "--alphas", alphas, "--budget", str(10 ** 7)]
    assert main(argv + ["--out", str(tmp_path / "n.csv")]) == 2
    assert (f"<= {MC_BUDGET_CAP}, got {10 ** 7} x 5000 cells = {5 * 10 ** 10} draws"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


#: values that replace a Monte-Carlo flag, or that a list of ordinary
#: alphas gains as its last entry; "" is an empty list or an empty number
_FUZZ_EDGES = ["0", "-0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "-1e-300", "inf",
               "-inf", "nan", "", str(MC_BUDGET_CAP + 1), str(10 ** 12)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([["prior-mass", "--lemma", "py-sticks"],
                             ["prior-mass", "--lemma", "py-locations"],
                             ["prior-mass", "--lemma", "nig"], ["nig-check"]]),
    flags=st.fixed_dictionaries({
        "--alphas": st.lists(st.floats(1e-3, 1e3).map(repr), min_size=2, max_size=3).map(",".join),
        "--budget": st.integers(1, 1000).map(str),
        "--seed": st.integers(0, 2 ** 64).map(str),
    }),
    edges=st.dictionaries(st.sampled_from(["--alphas", "--budget", "--seed"]),
                          st.sampled_from(_FUZZ_EDGES), max_size=2),
)
def test_monte_carlo_commands_exit_0_or_2(command, flags, edges):
    if "--alphas" in edges:
        edge = edges.pop("--alphas")
        flags["--alphas"] = f"{flags['--alphas']},{edge}" if edge else ""
    flags.update(edges)
    if command != ["nig-check"]:
        del flags["--alphas"]
    check_exit_0_or_2(command + [text for flag in flags.items() for text in flag], first=1)


def check_exit_0_or_2(argv, first, inf_column=None):
    """Run ``argv`` within 10 s: exit 2 must write nothing, and exit 0 only
    finite numbers from column ``first`` on, in a field of its own or in a
    ``;`` list, apart from a literal ``inf`` in column ``inf_column``.
    Returns the data rows of exit 0, as lists of fields, and None on exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        code = main_within(10, argv + ["--out", str(out)])
        assert code in (0, 2), argv
        if code == 2:
            assert list(Path(tmp).iterdir()) == []
            return None
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        values = [float(x) for i, v in enumerate(row) if i >= first and
                  not (i == inf_column and v == "inf") for x in v.split(";")]
        assert np.all(np.isfinite(values)), row
    return rows


#: values that replace an experiment flag: no ladder entry or replicate
#: count is large, since each one is a fit
_EXPERIMENT_EDGES = {
    "--truth": ["gaussian:0", "gaussian:-1", "gaussian:inf", "gaussian:nan", "gaussian:5e-324",
                "gaussian:1e300", "gaussian:1e-150", "cauchy:1", "twopoint:2", "", "bogus"],
    "--n-ladder": ["0", "-5", "9", "", ",", "40,20", "nan", "1e300", "5e-324"],
    "--replicates": ["0", "-1", "", "nan", "1e300"],
    "--seed": ["-1", str(2 ** 64), str(-2 ** 63), "", "nan"],
    "--threads": ["-1", "", "nan", "1e300"],
}

#: the fuzzed experiments' fits: 50 kept draws, the fewest the posterior
#: mean accepts
_TINY_FIT = dict(iterations=60, burn_in=10, thinning=1, truncation=10)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([["contract", "--prior", "dp"], ["contract", "--prior", "py"],
                             ["contract", "--prior", "nig"], ["w2"]]),
    flags=st.fixed_dictionaries({
        "--truth": st.sampled_from(["gaussian:1", "gaussian:0.5", "twopoint"]),
        "--n-ladder": st.lists(st.integers(10, 40), min_size=1, max_size=2, unique=True)
                        .map(lambda ns: ",".join(map(str, sorted(ns)))),
        "--replicates": st.integers(1, 2).map(str),
        "--seed": st.integers(0, 2 ** 64).map(str),
        "--threads": st.just("1"),
    }),
    edges=st.lists(st.sampled_from(sorted(_EXPERIMENT_EDGES)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(_EXPERIMENT_EDGES[flag]))),
        max_size=2),
)
def test_experiment_commands_exit_0_or_2(command, flags, edges):
    flags.update(edges)
    argv = command + [text for flag in flags.items() for text in flag]
    calls = []

    def tiny(real):
        def config(*args):
            calls.append(args)
            return replace(real(*args), **_TINY_FIT)
        return config

    # the commands call the names that ``cli`` bound at import
    with mock.patch.object(cli, "default_py_config", tiny(posterior.default_py_config)), \
            mock.patch.object(cli, "default_w2_config", tiny(posterior.default_w2_config)):
        rows = check_exit_0_or_2(argv, first=0)
    # a table means that the fits ran, so on the tiny config
    assert rows is None or len(calls) == 1


@pytest.mark.parametrize("command", ["contract", "w2"])
@pytest.mark.parametrize(
    "flags, message",
    [(["--n-ladder", "9"], "n ladder entries must be in 10..100000, got 9 to 9"),
     (["--n-ladder", "20,100001"], "n ladder entries must be in 10..100000, got 20 to 100001"),
     (["--n-ladder", "20", "--replicates", str(10 ** 9)],
      f"replicates must be in 1..10000 for 1 ladder entries (at most 10000 tasks), "
      f"got {10 ** 9}"),
     (["--n-ladder", "10,20", "--replicates", "5001"],
      "replicates must be in 1..5000 for 2 ladder entries (at most 10000 tasks), got 5001")],
    ids=["below-the-fit-minimum", "above-the-ladder-cap", "billion-tasks", "above-the-task-cap"],
)
def test_experiment_inputs_outside_their_caps_exit_2(tmp_path, capsys, command, flags, message):
    # 10^9 replicates used to build the task list before any fit and exit 1
    # with an empty MemoryError; n = 9 failed only in the first fit
    argv = [command, *flags, "--threads", "1", "--out", str(tmp_path / "e.csv")]
    assert main_within(10, argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


#: extreme values of the construction commands' flags
_SIGMA_EDGES = ["0", "-0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "-1e-300", "inf",
                "-inf", "nan"]
_ORDER_EDGES = ["1", "121", "2000", str(10 ** 9)]
_P_EDGES = ["0.5", "1000", "1e300", "nan"]
_DENSITY_EDGES = ["gaussian:5e-324", "gaussian:1e154", "cauchy:1e300", "fvp:1e-300", "fvp:1e300",
                  "stable:5e-324:1", "stable:2:1e300", "student_t:1e300:1", "student_t:5e-324:1",
                  "superkernel:1e-300:1:1", "superkernel:1:1e300:1", "superkernel:1:2:5e-324"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["approx", "transform"]),
    density=st.sampled_from(["gaussian:1", "cauchy:1", "fvp:1", "stable:1.5:1", "student_t:3:1",
                             "superkernel:1:2:1", *_DENSITY_EDGES]),
    sigma=st.lists(st.one_of(st.floats(0.2, 1.0).map(repr), st.sampled_from(_SIGMA_EDGES)),
                   min_size=1, max_size=3).map(",".join),
    order=st.one_of(st.none(), st.integers(2, 120).map(str), st.sampled_from(_ORDER_EDGES)),
    p=st.sampled_from(["1", "2", "3.5", "inf", *_P_EDGES]),
)
@example("transform", "gaussian:1", "0.5", "2000", "inf")  # ran for minutes
@example("transform", "gaussian:1", "0.5", str(10 ** 9), "inf")
@example("approx", "gaussian:1", "0.5", None, "1000")  # wrote error 0
def test_construction_commands_exit_0_or_2(command, density, sigma, order, p):
    argv = [command, "--density", density, "--sigma", sigma]
    if command == "transform":
        argv += [] if order is None else ["--order", order]
        check_exit_0_or_2(argv, first=0)
        return
    rows = check_exit_0_or_2(argv + ["--p", p], first=1, inf_column=4)
    if rows is None:
        return
    # the Riemann sum of |error|^p holds the largest term and at most n of
    # them: at p = 1000 the error of gaussian:1 came out 0
    f = catalog_density(density)
    for row in rows:
        sigma_row, p_row, err = float(row[3]), float(row[4]), float(row[5])
        if p_row < math.inf:
            sup = sinc_approx_error(f.f, f.smooth, sigma_row, math.inf)
            lo, hi = f.f.dx ** (1.0 / p_row), (f.f.n_points * f.f.dx) ** (1.0 / p_row)
            assert sup * lo * (1 - 1e-9) <= err <= sup * hi * (1 + 1e-9), row


#: a valid discretize window for checks of its source
_SMALL_WINDOW = ["--epsilon", "1e-3", "--a", "1.5", "--sigma", "0.5"]

#: flags whose fuzzed value is the text of a file, written for the run
_FILE_FLAGS = ("--atoms-csv", "--data")


def _run_with_inputs(argv, flags, via_file, **check):
    """``check_exit_0_or_2`` of ``argv`` plus ``flags``, given as
    ``--flag=value`` tokens or, if ``via_file``, as the lines of an
    ``@file``; the value of a ``_FILE_FLAGS`` flag is written to a file,
    whose path replaces it."""
    with tempfile.TemporaryDirectory() as tmp:
        for flag in set(_FILE_FLAGS) & set(flags):
            path = Path(tmp) / flag.strip("-")
            path.write_text(flags[flag])
            flags = {**flags, flag: str(path)}
        if via_file:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("".join(f"{flag[2:]}={value}\n" for flag, value in flags.items()))
            return check_exit_0_or_2(argv + [f"@{cfg}"], **check)
        return check_exit_0_or_2(argv + [f"{flag}={value}" for flag, value in flags.items()],
                                 **check)


#: extreme values of a real flag; "" is an empty number
_REAL_EDGES = ["0", "-0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "-1e-300", "inf",
               "-inf", "nan", ""]
_KERNEL_IDS = ["gaussian:1", "cauchy:1", "stable:1.5:1", "student_t:3:1", "fvp:1", "sinc:1",
               "superkernel:1:2:1"]
_KERNEL_EDGES = ["gaussian:5e-324", "gaussian:1e300", "cauchy:1e-300", "stable:5e-324:1",
                 "stable:0.1:1", "stable:2:1e300", "student_t:5e-324:1", "student_t:1e-300:1",
                 "student_t:1e300:1", "fvp:1e300", "sinc:5e-324", "superkernel:1e-300:1:1",
                 "superkernel:1:1e300:1", "superkernel:1:2:5e-324"]
_ATOMS_EDGES = ["", "-1,0.5\nnan,0.5\n", "-1,0.5\n1,inf\n", "-1,0.5\n1,-0.25\n",
                "-1,0\n1,0\n", "0,-1\n", "-1,5e-324\n1,5e-324\n", "-1,1e308\n1,1e308\n",
                "-1e300,1\n"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    source=st.one_of(
        st.tuples(st.just("--density"),
                  st.sampled_from(["gaussian:1", "cauchy:1", "student_t:3:1", "fvp:1"])),
        st.tuples(st.just("--atoms-csv"), st.one_of(
            st.sampled_from(_ATOMS_EDGES),
            st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 1.0)),
                     min_size=1, max_size=20)
            .map(lambda rows: "".join(f"{x!r},{w!r}\n" for x, w in rows))))),
    flags=st.tuples(
        st.fixed_dictionaries({
            "--epsilon": st.floats(1e-4, 0.5).map(repr),
            "--a": st.floats(1.0, 3.0).map(repr),
            "--sigma": st.floats(0.2, 2.0).map(repr),
            "--kernel": st.sampled_from(_KERNEL_IDS + _KERNEL_EDGES),
        }),
        st.dictionaries(st.sampled_from(["--epsilon", "--a", "--sigma"]),
                        st.sampled_from(_REAL_EDGES), max_size=2),
    ).map(lambda drawn: {**drawn[0], **drawn[1]}),
    via_file=st.sampled_from([False, False, False, True]),
)
@example(("--density", "gaussian:1"),  # exit 1: an infinite log(1 / epsilon)
         {"--epsilon": "5e-324", "--a": "2", "--sigma": "0.5", "--kernel": "cauchy:1"}, False)
@example(("--density", "gaussian:1"),  # exit 1: the budget's power overflowed
         {"--epsilon": "1e-3", "--a": "1e300", "--sigma": "0.5", "--kernel": "gaussian:1"}, False)
@example(("--density", "gaussian:1"),
         {"--epsilon": "1e-3", "--a": "2", "--sigma": "1e-300", "--kernel": "gaussian:1"}, True)
@example(("--density", "gaussian:1"),  # ran for over 30 s on 3.9e8 partition cells
         {"--epsilon": "1e-3", "--a": "2", "--sigma": "0.5", "--kernel": "stable:0.1:1"}, False)
def test_discretize_exits_0_or_2(source, flags, via_file):
    _run_with_inputs(["discretize"], dict([source], **flags), via_file, first=0)


@pytest.mark.parametrize(
    "flags, message",
    [(["--epsilon", "5e-324", "--kernel", "cauchy:1"], "moment order inf, above 1000"),
     (["--a", "1e300"], "moment order inf, above 1000"),
     (["--sigma", "1e-300"], "moment order inf, above 1000"),
     (["--epsilon", "1e-300", "--kernel", "cauchy:1"], "moment order 2763, above 1000"),
     (["--a", "40", "--sigma", "0.5"], "moment order 2.56e+04, above 1000"),
     (["--sigma", "1e-9", "--kernel", "cauchy:1"], "needs 5.437e+09 cells, above 10000"),
     (["--kernel", "stable:0.1:1"], "no closed-form density for stable"),
     (["--kernel", "stable:0.01:1"], "no closed-form density for stable")],
    ids=["subnormal-epsilon", "huge-a", "tiny-sigma", "tiny-epsilon-partition", "wide-window",
         "partition-cells", "stable-partition", "stable-huge-partition"],
)
def test_discretize_budget_out_of_range_exits_2_at_once(tmp_path, capsys, flags, message):
    # the first three exited 1 with OverflowError, the wide window ran for
    # over a minute, 5.4e9 partition cells exited 1 with "Unable to
    # allocate", and stable kernels failed only after the discretization
    # (stable:0.1:1 after more than 30 s on 3.9e8 partition cells)
    base = {"--epsilon": "1e-3", "--a": "2", "--sigma": "0.5"}
    base.update(zip(flags[::2], flags[1::2]))
    argv = ["discretize", "--density", "gaussian:1", *[t for kv in base.items() for t in kv]]
    assert main_within(1, argv + ["--out", str(tmp_path / "d.csv")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


#: values that replace a fit flag
_FIT_EDGES = {
    "--iterations": ["0", "-1", "", "nan", "1e300", str(10 ** 7), str(10 ** 12)],
    "--burn-in": ["-1", "", "nan", str(10 ** 12)],
    "--thinning": ["0", "-1", "", str(10 ** 12)],
    "--truncation": ["0", "9", "-1", "", str(10 ** 8), str(10 ** 12)],
    "--prior": ["DP", "bogus", ""],
}
#: values a fit's data file may hold
_DATA_EDGES = ["nan", "inf", "-inf", "5e-324", "-5e-324", "1e153", "-1e153", "0"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    flags=st.tuples(
        st.fixed_dictionaries({
            "--prior": st.sampled_from(["dp", "py", "nig"]),
            "--iterations": st.integers(6, 30).map(str),
            "--burn-in": st.integers(0, 5).map(str),
            "--thinning": st.integers(1, 3).map(str),
            "--truncation": st.integers(10, 15).map(str),
            "--seed": st.integers(0, 2 ** 64).map(str),
        }),
        st.lists(st.sampled_from(sorted(_FIT_EDGES)).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(_FIT_EDGES[flag]))),
            max_size=2),
    ).map(lambda drawn: {**drawn[0], **dict(drawn[1])}),
    values=st.tuples(st.lists(st.floats(-3.0, 3.0).map(repr), min_size=10, max_size=30),
                     st.lists(st.sampled_from(_DATA_EDGES), max_size=2))
    .map(lambda parts: parts[0] + parts[1]),
    layout=st.sampled_from(["column"] * 4 + ["two-columns", "empty", "nine-values", "all-edges"]),
    via_file=st.sampled_from([False, False, False, True]),
)
@example({"--iterations": str(10 ** 12)}, ["0.5"] * 20, "column", False)  # exit 1: allocation
@example({"--truncation": str(10 ** 8)}, ["0.5"] * 20, "column", False)  # exit 1: allocation
@example({"--iterations": str(10 ** 7)}, ["0.5"] * 20, "column", True)  # ran for hours
def test_fit_exits_0_or_2(flags, values, layout, via_file):
    if layout == "all-edges":
        values = [v for v in values if v in _DATA_EDGES] * 10
    rows = {"two-columns": [f"{v} {v}" for v in values], "empty": [], "nine-values": values[:9]}
    text = "".join(f"{row}\n" for row in rows.get(layout, values))
    _run_with_inputs(["fit"], {**flags, "--data": text}, via_file, first=0)


@pytest.mark.parametrize(
    "flags, message",
    [(["--iterations", str(10 ** 12)], f"iterations must be <= 20000, got {10 ** 12}"),
     (["--iterations", str(10 ** 7)], f"iterations must be <= 20000, got {10 ** 7}"),
     (["--truncation", str(10 ** 8)], f"truncation level must be in 10..500, got {10 ** 8}")],
    ids=["trillion-sweeps", "ten-million-sweeps", "huge-truncation"],
)
def test_fit_above_its_caps_exits_2_at_once(tmp_path, capsys, flags, message):
    # the first and last exited 1 with "Unable to allocate"; 10^7 sweeps
    # would have run for hours
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(["0.5", "-0.5"] * 10) + "\n")
    argv = ["fit", "--data", str(data_file), *flags, "--out", str(tmp_path / "fit.csv")]
    assert main_within(1, argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data_file]


@pytest.mark.parametrize("sigma", ["1e10", "1e150"])
def test_transform_at_huge_bandwidth_warns_nothing(tmp_path, sigma):
    # the correction series ran at every frequency, out of band too, where
    # it overflowed into numpy warnings; the kept in-band values were finite
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["transform", "--density", "gaussian:1", "--sigma", sigma, "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert np.all(np.isfinite([float(v) for v in row]))


def test_student_t_with_vanishing_half_degrees_exits_2(tmp_path, capsys):
    # nu / 2 rounds to 0 and lgamma(0) raised a bare "math domain error"
    assert main(["approx", "--density", "student_t:5e-324:1", "--sigma", "0.5",
                 "--out", str(tmp_path / "a.csv")]) == 2
    assert "error: student_t degrees of freedom nu = 5e-324 have nu / 2 = 0" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", ["0", "1", "3", "5"])
def test_transform_unconverged_order_exits_2(tmp_path, capsys, order):
    assert main(["transform", "--density", "gaussian:1", "--sigma", "0.5",
                 "--order", order, "--out", str(tmp_path / "t.csv")]) == 2
    assert "increase the truncation order" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["approx", "--density", "fvp:1", "--sigma", ","],
     ["transform", "--density", "gaussian:1", "--sigma", ",,"],
     ["contract", "--n-ladder", ",", "--replicates", "1"],
     ["w2", "--n-ladder", ",", "--replicates", "1"],
     ["nig-check", "--alphas", ","]],
)
def test_empty_list_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "e.csv")])
    assert exc.value.code == 2
    assert "empty list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alphas", ["1,nan", "1,inf", "nan,nan"])
def test_nig_check_non_finite_alphas_exits_2(tmp_path, capsys, alphas):
    assert main(["nig-check", "--alphas", alphas, "--budget", "100",
                 "--out", str(tmp_path / "n.csv")]) == 2
    assert "alphas must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [(["--a", "-2", "--sigma", "0.5"], "--a must be finite and positive, got -2.0"),
     (["--a", "0", "--sigma", "0.5"], "--a must be finite and positive, got 0.0"),
     (["--a", "inf", "--sigma", "0.5"], "--a must be finite and positive, got inf"),
     (["--a", "2", "--sigma", "-0.5"], "--sigma must be finite and positive, got -0.5"),
     (["--a", "2", "--sigma", "nan"], "--sigma must be finite and positive, got nan"),
     # a negative value in exponent or inf form is a value, not a flag
     (["--a", "-1e-3", "--sigma", "0.5"], "--a must be finite and positive, got -0.001"),
     (["--a", "2", "--sigma", "-inf"], "--sigma must be finite and positive, got -inf"),
     (["--a", "-2E+1", "--sigma", "-Infinity"], "--a must be finite and positive, got -20.0")],
)
def test_discretize_bad_window_exits_2(tmp_path, capsys, flags, message):
    # the check comes before the window: no divide-by-zero warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["discretize", "--density", "gaussian:1", "--epsilon", "1e-3", *flags,
                     "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, text, message",
    [(["fit", "--data"], "", "error: need at least 10 observations"),
     (["discretize", *_SMALL_WINDOW, "--atoms-csv"], "",
      "error: {path}: need atom,weight rows, got shape (0, 1)"),
     (["discretize", *_SMALL_WINDOW, "--atoms-csv"], "-1,1e308\n1,1e308\n",
      "error: {path}: weights must sum to a positive value, got inf")],
    ids=["empty-data", "empty-atoms", "overflowing-weights"],
)
def test_bad_input_file_prints_only_the_error(tmp_path, argv, text, message):
    # numpy's loadtxt and overflow warnings came before the error line
    path = tmp_path / "input.txt"
    path.write_text(text)
    res = run_cli([*argv, str(path), "--out", str(tmp_path / "out.csv")])
    assert res.returncode == 2
    assert res.stderr == message.format(path=path) + "\n"
    assert list(tmp_path.iterdir()) == [path]


def test_prior_mass_csv_shape(tmp_path):
    out = tmp_path / "pm.csv"
    code = main(["prior-mass", "--lemma", "py-locations", "--budget", "20000",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "config,mc_estimate,mc_stderr,analytic_bound,holds"
    assert len(lines) >= 7


def test_discretize_roundtrip(tmp_path):
    src = tmp_path / "atoms.csv"
    rows = ["-1.0,0.25", "-0.2,0.25", "0.4,0.25", "1.0,0.25"]
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "disc.csv"
    code = main(["discretize", "--atoms-csv", str(src), "--epsilon", "1e-3",
                 "--a", "1.5", "--sigma", "0.5", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert abs(data[:, 1].sum() - 1.0) <= 1e-9
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["config"]["sup_distance"] <= 1e-3 / 0.5


@pytest.mark.parametrize(
    "text, message",
    [("-1.0,0.5\nnan,0.5\n", "atoms and weights must be finite"),
     ("-1.0,0.5\n1.0,nan\n", "weights must sum to a positive value, got nan"),
     ("-1.0\n1.0\n", "need atom,weight rows"),
     ("-1.0,0.5,1\n1.0,0.5,1\n", "need atom,weight rows"),
     ("-1.0,0\n1.0,0\n", "weights must sum to a positive value"),
     ("-1.0,1e308\n1.0,1e308\n", "weights must sum to a positive value, got inf"),
     ("atom,weight\n", "could not convert")],
    ids=["nan_atom", "nan_weight", "one_column", "three_columns", "zero_weights",
         "overflowing_weights", "header_only"],
)
def test_discretize_bad_atoms_csv_exits_2(tmp_path, capsys, text, message):
    src = tmp_path / "atoms.csv"
    src.write_text(text)
    code = main(["discretize", "--atoms-csv", str(src), "--epsilon", "1e-3",
                 "--a", "1.5", "--sigma", "0.5", "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("kernel", ["gaussian", "cauchy:1"])
def test_discretize_atoms_outside_support_exit_2(tmp_path, capsys, kernel):
    # cauchy:1 takes the partition route, gaussian the moment-match route
    src = tmp_path / "atoms.csv"
    src.write_text("-1,0.5\n5,0.5\n")
    code = main(["discretize", "--atoms-csv", str(src), "--epsilon", "0.01",
                 "--a", "2", "--sigma", "0.5", "--kernel", kernel,
                 "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "outside the declared support" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


def test_nig_check_budget_one_writes_both_rows(tmp_path):
    out = tmp_path / "n.csv"
    assert main(["nig-check", "--alphas", "1,1", "--budget", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "statistic,value"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "coordinate_mean_max_dev", "marginal_ks"]


def test_fit_contract_smoke(tmp_path):
    data_file = tmp_path / "data.txt"
    rng = np.random.default_rng(0)
    np.savetxt(data_file, rng.standard_normal(80))
    out = tmp_path / "fit.csv"
    code = main(["fit", "--data", str(data_file), "--iterations", "60",
                 "--burn-in", "20", "--truncation", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("draw,sigma,loglik")
    assert len(lines) > 10
    # an explicit cap of 10 sticks is kept; its bound 4 n 2^-9 says it is loose
    meta = json.loads(Path(str(out) + ".meta.json").read_text())["config"]
    [entry] = meta["stick_truncation"]
    assert (entry["n"], entry["sticks"]) == (80, 10)
    assert entry["bound"] == pytest.approx(0.625, rel=1e-12)

    out2 = tmp_path / "contract.csv"
    code = main(["contract", "--truth", "gaussian:1", "--prior", "dp",
                 "--n-ladder", "60,120", "--replicates", "1", "--seed", "5",
                 "--out", str(out2)])
    assert code == 0
    rows = out2.read_text().splitlines()
    assert rows[0] == "n,replicate,l1,l2,sup,w2,kl"
    assert len(rows) == 3
    meta = json.loads(Path(str(out2) + ".meta.json").read_text())["config"]
    assert [(e["n"], e["sticks"]) for e in meta["stick_truncation"]] == [(60, 29), (120, 30)]
    assert all(e["bound"] <= posterior.TRUNCATION_TOL for e in meta["stick_truncation"])


def _fit_wide_data(tmp_path, scale, prior):
    """``fit`` on 40 standard-normal values times ``scale``; returns the
    exit code, the output path and the warnings raised."""
    data_file = tmp_path / "data.txt"
    np.savetxt(data_file, np.random.default_rng(3).standard_normal(40) * scale, fmt="%.17g")
    out = tmp_path / "fit.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--data", str(data_file), "--prior", prior, "--iterations", "60",
                     "--burn-in", "20", "--truncation", "10", "--out", str(out)])
    return code, out, caught


@pytest.mark.parametrize("prior", ["dp", "nig"])
@pytest.mark.parametrize("scale", [1e104, 1e150])
def test_fit_of_widely_spread_data_is_finite(tmp_path, scale, prior):
    # the bandwidth's sum of squares is near 1e209 or 1e301, where the
    # direct form of its ratio-of-uniforms bounds overflows
    code, out, caught = _fit_wide_data(tmp_path, scale, prior)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 20
    sigma = np.array([float(r[1]) for r in rows])
    loglik = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(loglik))
    assert np.all((sigma > 1e-3 * scale) & (sigma < 1e3 * scale))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("prior", ["dp", "nig"])
@pytest.mark.parametrize("scale", [1e100, 1e153])
def test_fit_of_huge_data_warns_nothing(tmp_path, scale, prior):
    # with sigma started at its prior scale, the first sweeps' log likelihood
    # was of order -n scale^2 (-inf at 1e153) and the burn-in monitor's
    # spread overflowed; under warnings-as-errors that was exit 1
    data_file = tmp_path / "data.txt"
    np.savetxt(data_file, np.random.default_rng(0).standard_normal(40) * scale, fmt="%.17g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--data", str(data_file), "--prior", prior, "--iterations", "120",
                     "--burn-in", "60", "--truncation", "10", "--out", str(tmp_path / "fit.csv")])
    assert code == 0


@pytest.mark.parametrize("prior", ["dp", "nig"])
def test_fit_of_overflowing_data_exits_2(tmp_path, capsys, prior):
    code, out, caught = _fit_wide_data(tmp_path, 1e160, prior)
    assert code == 2
    err = capsys.readouterr().err
    assert "data from -2.83e+160 to 3.32e+160 are too large" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["contract", "--replicates", "0"], ["w2", "--replicates", "-2"]]
)
def test_no_replicates_exits_2(tmp_path, argv):
    out = tmp_path / "empty.csv"
    assert main(argv + ["--n-ladder", "60", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["prior=bogus", "prior=DP"])
def test_config_file_value_outside_choices_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        main(["contract", f"@{cfg}", "--n-ladder", "60", "--replicates", "1", "--out", str(out)])
    assert exc.value.code == 2
    value = line.partition("=")[2]
    assert f"argument --prior: invalid choice: '{value}'" in capsys.readouterr().err
    assert not out.exists()
    # every value is checked as it is read: a later flag does not hide a bad one
    with pytest.raises(SystemExit) as exc:
        parse_args(["contract", f"@{cfg}", "--prior", "py", "--out", "c.csv"])
    assert exc.value.code == 2


def test_config_file_value_inside_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("prior=nig\n")
    args = parse_args(["fit", f"@{cfg}", "--data", "d.txt", "--out", "f.csv"])
    assert args.prior == "nig"


@pytest.mark.parametrize("argv", [["--density", "gaussian:1", "--atoms-csv", "atoms.csv"], []],
                         ids=["both", "neither"])
def test_discretize_takes_exactly_one_source(tmp_path, capsys, argv):
    # with both, --atoms-csv used to win and --density was ignored
    src = tmp_path / "atoms.csv"
    src.write_text("-1.0,0.5\n1.0,0.5\n")
    argv = [str(src) if a == "atoms.csv" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["discretize", *argv, "--epsilon", "1e-3", "--a", "1.5", "--sigma", "0.5",
              "--out", str(tmp_path / "d.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("not allowed with argument" in err if argv else
            "one of the arguments --density --atoms-csv is required" in err)
    assert list(tmp_path.iterdir()) == [src]


def test_failed_sidecar_write_leaves_previous_pair(tmp_path, monkeypatch):
    out = tmp_path / "nig.csv"
    meta = Path(str(out) + ".meta.json")
    argv = ["nig-check", "--alphas", "1,1", "--budget", "2000", "--out", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    before = out.read_bytes(), meta.read_bytes()

    real_write_text = Path.write_text

    def failing_sidecar(self, *args, **kwargs):
        if ".meta.json" in self.name:
            real_write_text(self, "{partial")  # some bytes land, then the disk fills
            raise OSError("No space left on device")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_sidecar)
    assert main(argv + ["--seed", "2"]) == 2
    monkeypatch.undo()
    assert (out.read_bytes(), meta.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nig.csv", "nig.csv.meta.json"]
    # a first run that fails writes nothing at all
    fresh = tmp_path / "fresh.csv"
    monkeypatch.setattr(Path, "write_text", failing_sidecar)
    assert main(argv[:-1] + [str(fresh)]) == 2
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nig.csv", "nig.csv.meta.json"]


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats costs ~0.8 s and ~38 MB; the library does not need it
    code = (
        "import sys, supermix, supermix.cli, supermix.posterior; "
        "print('scipy.stats' in sys.modules)"
    )
    res = run_python(["-c", code])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_runs_without_loading_scipy(tmp_path):
    # the runtime needs numpy only: an N-IG fit, a W2 fit on the uniform
    # base (truncated-normal atom draws), the Gauss rules of discretize,
    # the N-IG density (Bessel K) and the N-IG cell masses (normal cdf)
    np.savetxt(tmp_path / "data.txt", np.random.default_rng(3).normal(size=40))
    runs = [
        ["fit", "--data", str(tmp_path / "data.txt"), "--prior", "nig",
         "--iterations", "30", "--burn-in", "10"],
        ["w2", "--n-ladder", "40", "--replicates", "1"],
        ["discretize", "--density", "gaussian:1", "--epsilon", "1e-3", "--a", "2",
         "--sigma", "0.5"],
        ["nig-check", "--alphas", "1,1", "--budget", "2000"],
        ["prior-mass", "--lemma", "nig", "--budget", "2000"],
    ]
    code = (
        "import json, sys, supermix; from supermix.cli import main; "
        f"codes = [main(argv + ['--out', '{tmp_path}/o%d.csv' % i]) "
        f"for i, argv in enumerate({runs!r})]; "
        "print(json.dumps([codes, sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))]))"
    )
    res = run_python(["-c", code])
    assert res.returncode == 0, res.stderr
    codes, loaded = json.loads(res.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(runs)
    assert loaded == []


def test_fit_independent_of_blas_threads():
    # the allocation step is a matrix product, which the BLAS may split
    # across threads; the draws must not depend on that split
    code = (
        "import dataclasses, hashlib, numpy as np; from supermix import posterior; "
        "rng = np.random.default_rng(11); "
        "data = posterior.resolve_truth('gaussian:1').sample(4000, rng); "
        "cfg = dataclasses.replace(posterior.default_py_config('dp'), "
        "iterations=40, burn_in=10, thinning=1); "
        "h = hashlib.sha256(); "
        "[h.update(np.array([d.sigma, d.loglik, *d.mixing.atoms, *d.mixing.weights]).tobytes()) "
        "for d in posterior.blocked_gibbs_fit(data, cfg, rng)]; "
        "print(h.hexdigest())"
    )
    digests = []
    for threads in ("1", "2"):
        res = run_python(["-c", code], env={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        digests.append(res.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_spectral_means_independent_of_blas_threads():
    # the spectral sums are BLAS products too, and a matrix-matrix product
    # there would round differently at one and two threads.
    # The chain is a py fit: its truncation bound stays above TRUNCATION_TOL
    # up to L = 300 (0.012 at n = 400), so it keeps all 300 sticks and its
    # mean is a wide product
    code = (
        "import dataclasses, hashlib, numpy as np; from supermix import posterior; "
        "grid, h = posterior.experiment_grid(), hashlib.sha256(); "
        "rng = np.random.default_rng(11); "
        "data = posterior.resolve_truth('gaussian:1').sample(400, rng); "
        "cfg = dataclasses.replace(posterior.default_py_config('py'), "
        "iterations=110, burn_in=10, thinning=1, truncation=300); "
        "chain = posterior.blocked_gibbs_fit(data, cfg, rng); "
        "assert chain.atoms.shape[1] == 300, chain.atoms.shape; "
        "h.update(posterior.posterior_mean_density(chain, grid).values.tobytes()); "
        "print(h.hexdigest())"
    )
    digests = []
    for threads in ("1", "2"):
        res = run_python(["-c", code], env={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        digests.append(res.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
