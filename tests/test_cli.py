import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import supermix
from hypothesis import given, settings
from hypothesis import strategies as st

from supermix.cli import MC_BUDGET_CAP, main, parse_args


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
    code = main(["--config", str(cfg), "nig-check", "--alphas", "1,1",
                 "--out", str(out1)])
    assert code == 0
    meta = json.loads(Path(str(out1) + ".meta.json").read_text())
    assert meta["config"]["budget"] == 5000
    assert meta["config"]["seed"] == 9
    # explicit flag wins over the file
    out2 = tmp_path / "c2.csv"
    main(["--config", str(cfg), "nig-check", "--alphas", "1,1",
          "--budget", "7000", "--out", str(out2)])
    meta2 = json.loads(Path(str(out2) + ".meta.json").read_text())
    assert meta2["config"]["budget"] == 7000


def test_config_file_values_parse_by_flag_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_ladder=60,120\nreplicates=3\n")
    args = parse_args(["--config", str(cfg), "contract", "--out", "c.csv"])
    assert args.n_ladder == [60, 120]
    assert args.replicates == 3


def test_config_file_explicit_flag_at_default_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=5000\n")
    args = parse_args(["--config", str(cfg), "nig-check", "--alphas", "1,1",
                       "--budget", "100000", "--out", "c.csv"])
    assert args.budget == 100000


def test_config_file_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bugdet=5000\n")
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "nig-check", "--alphas", "1,1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert not Path(str(out) + ".meta.json").exists()


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
    # the Bessel sum behind the N=2 marginal cdf never ended beyond x ~ 1e60;
    # a stuck run is interrupted, and main reports the interruption as exit 1
    def interrupt(signum, frame):
        raise TimeoutError("nig-check did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(60)
    try:
        code = main(["nig-check", "--alphas", "1e100,1", "--budget", "2000",
                     "--out", str(tmp_path / "nc.csv")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2)


@pytest.mark.parametrize("alphas", ["1e-3,1", "1e-6,1", "1,1e-6", "1e6,1", "1,1"])
def test_nig_check_marginal_ks_at_unequal_masses(tmp_path, alphas):
    # a fixed z-grid on [1e-9, 1 - 1e-9] missed the law: 0.71 at 1e-3,1
    # and 0.94 at 1e6,1, for a sampler that is right
    out = tmp_path / "n.csv"
    assert main(["nig-check", "--alphas", alphas, "--budget", "2000", "--out", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["marginal_ks"]) <= 0.05


@pytest.mark.parametrize("alphas, masses", [("1e100,1", "1 and 1e+100"),
                                            ("1e-8,1e-8", "1e-08 and 1e-08")])
def test_nig_check_of_unrepresentable_marginal_law_exits_2(tmp_path, capsys, alphas, masses):
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
    # exit 2 writes nothing and exit 0 writes only finite numbers; a case
    # that hangs is interrupted, which main reports as exit 1
    def interrupt(signum, frame):
        raise TimeoutError("the command did not return within 10 s")

    if "--alphas" in edges:
        edge = edges.pop("--alphas")
        flags["--alphas"] = f"{flags['--alphas']},{edge}" if edge else ""
    flags.update(edges)
    if command != ["nig-check"]:
        del flags["--alphas"]
    argv = command + [text for flag in flags.items() for text in flag]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "mc.csv"
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.alarm(10)
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2), argv
        if code == 2:
            assert list(Path(tmp).iterdir()) == []
            return
        for line in out.read_text().splitlines()[1:]:
            values = [float(v) for v in line.split(",")[1:]]  # column 0 is a label
            assert np.all(np.isfinite(values)), line


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
     (["--a", "2", "--sigma", "nan"], "--sigma must be finite and positive, got nan")],
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
     ("atom,weight\n", "could not convert")],
    ids=["nan_atom", "nan_weight", "one_column", "three_columns", "zero_weights",
         "header_only"],
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

    out2 = tmp_path / "contract.csv"
    code = main(["contract", "--truth", "gaussian:1", "--prior", "dp",
                 "--n-ladder", "60,120", "--replicates", "1", "--seed", "5",
                 "--out", str(out2)])
    assert code == 0
    rows = out2.read_text().splitlines()
    assert rows[0] == "n,replicate,l1,l2,sup,w2,kl"
    assert len(rows) == 3


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
        main(["--config", str(cfg), "contract", "--n-ladder", "60", "--replicates", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "is not one of dp, py, nig" in capsys.readouterr().err
    assert not out.exists()
    # an explicit flag still wins over the file, and is checked by argparse
    args = parse_args(["--config", str(cfg), "contract", "--prior", "py", "--out", "c.csv"])
    assert args.prior == "py"


def test_config_file_value_inside_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("prior=nig\n")
    args = parse_args(["--config", str(cfg), "fit", "--data", "d.txt", "--out", "f.csv"])
    assert args.prior == "nig"


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
