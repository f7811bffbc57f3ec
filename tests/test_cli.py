import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supermix.cli import main, parse_args


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "supermix", *args], capture_output=True, text=True
    )


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
    assert "numpy" in meta["versions"]


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


def test_fit_non_finite_data_exits_2(tmp_path):
    data_file = tmp_path / "data.txt"
    data_file.write_text("\n".join(["0.1", "nan"] + ["0.5"] * 20) + "\n")
    out = tmp_path / "fit.csv"
    code = main(["fit", "--data", str(data_file), "--iterations", "60",
                 "--burn-in", "20", "--truncation", "10", "--out", str(out)])
    assert code == 2
    assert not out.exists()


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
