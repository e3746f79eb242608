import math

import pytest
from click.testing import CliRunner

import macwt.cli
from macwt.cli import main
from macwt.montecarlo import MonteCarloEstimate
from macwt.rates import RateTriple
from macwt.config import ConfigError, ExperimentConfig, load_config, parse_config_text


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text_basics():
    values = parse_config_text(
        "var_g = 0.5   # second value\n"
        "\n"
        "snr_db = 0, 10, 20\n"
        "schemes = esa, sba\n"
        "samples = 5000\n")
    assert values["var_g"] == 0.5
    assert values["snr_db"] == (0.0, 10.0, 20.0)
    assert values["schemes"] == ("esa", "sba")
    assert values["samples"] == 5000


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("var_g = 0.5\nnot a config line\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("# ok\nvar_h = 1.0\nsamples = many\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(schemes=("nope",))
    with pytest.raises(ConfigError):
        ExperimentConfig(snr_db=())
    with pytest.raises(ConfigError):
        ExperimentConfig(var_g=-1.0)
    cfg = ExperimentConfig()
    assert cfg.seed == 12345  # explicit default, never wall-clock


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("var_g = 0.5\nseed = 7\nsamples = 100\n")
    cfg = load_config(str(path), samples=999, seed=None)
    assert cfg.var_g == 0.5     # file value
    assert cfg.seed == 7        # file value (flag was None)
    assert cfg.samples == 999   # flag overrides file
    assert cfg.var_h == 1.0     # built-in default


# ---------------------------------------------------------------------------
# query subcommand
# ---------------------------------------------------------------------------

def _run(*args):
    return CliRunner().invoke(main, list(args))


def test_query_esa_rates_example():
    res = _run("query", "--scheme", "esa", "--state", "1,1,1,1",
               "--powers", "1,1")
    assert res.exit_code == 0
    rsum = float(res.output.split("rsum  = ")[1].split()[0])
    assert rsum == pytest.approx(0.5 * math.log2(9 / 5), abs=1e-9)
    assert abs(rsum - 0.42397) < 1e-3


def test_query_case1_branch():
    res = _run("query", "--scheme", "esa", "--effective",
               "0.4,0.6,0.5,0.5", "--duals", "0.5,0.5")
    assert res.exit_code == 0
    assert "branch    = A.1" in res.output
    assert "P1=0 P2=0" in res.output


def test_query_cj_branch_report():
    res = _run("query", "--scheme", "esa_cj", "--effective",
               "5,0.1,1,4", "--duals", "0.05,0.05")
    assert res.exit_code == 0
    assert "branch    = B.2d" in res.output
    assert "residuals =" in res.output


def test_query_sba_needs_even_slot():
    res = _run("query", "--scheme", "sba", "--state", "1,2,1,1",
               "--powers", "1,1")
    assert res.exit_code != 0
    res = _run("query", "--scheme", "sba", "--state", "1,2,1,1",
               "--even", "2,1,1,1", "--powers", "1,1")
    assert res.exit_code == 0
    assert "rsum  = 1 bits" in res.output


def test_query_malformed_literal_fails_cleanly():
    res = _run("query", "--scheme", "esa", "--state", "1,zzz,1,1",
               "--powers", "1,1")
    assert res.exit_code != 0
    assert "position 2" in res.output
    assert "rsum" not in res.output  # no partial output
    res = _run("query", "--scheme", "esa", "--state", "1,1,1",
               "--powers", "1,1")
    assert res.exit_code != 0


def test_query_argument_combinations():
    # exactly one of state/effective and one of powers/duals
    res = _run("query", "--scheme", "esa", "--powers", "1,1")
    assert res.exit_code != 0
    res = _run("query", "--scheme", "esa", "--state", "1,1,1,1")
    assert res.exit_code != 0
    res = _run("query", "--scheme", "gs_cj", "--effective", "1,1,1,1",
               "--powers", "1,1")
    assert res.exit_code != 0  # effective gains are a repetition concept


# ---------------------------------------------------------------------------
# figure/dof subcommands (small grids; full-size runs live in acceptance)
# ---------------------------------------------------------------------------

def test_figure1_writes_expected_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 2000\ndual_samples = 2000\ninner_samples = 50\n")
    res = _run("figure1", "--config", str(cfg), "--snr-db", "0,10",
               "--scheme", "esa,sba", "--out", str(out))
    assert res.exit_code == 0, res.output
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "snr_db,var_g,scheme,rsum_bits,stderr,n,status"
    # 2 var_g values x 2 schemes x 2 SNR points
    assert len(lines) == 1 + 8
    assert all(line.endswith(",ok") for line in lines[1:])


def test_figure1_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = -5\n")
    res = _run("figure1", "--config", str(cfg))
    assert res.exit_code != 0


def test_dof_reports_slopes(tmp_path):
    out = tmp_path / "dof.csv"
    res = _run("dof", "--scheme", "esa", "--samples", "4000",
               "--powers", "1e2,1e3,1e4", "--out", str(out), "--seed", "3")
    assert res.exit_code == 0, res.output
    eta = float([ln for ln in res.output.splitlines()
                 if ln.startswith("eta esa")][0].split()[2])
    assert 0.3 < eta < 0.7
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,power,rsum_bits,stderr,n,status"
    assert len(lines) == 4


def test_figure2_small_run(tmp_path):
    out = tmp_path / "fig2.csv"
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 2000\ndual_samples = 2000\n")
    res = _run("figure2", "--config", str(cfg), "--snr-db", "10",
               "--scheme", "gs_cj", "--out", str(out))
    assert res.exit_code == 0, res.output
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "snr_db,var_g,scheme,rsum_bits,stderr,n,status"
    assert len(lines) == 1 + 2  # 2 var_g values x 1 variant x 1 SNR


def test_csv_determinism_same_seed(tmp_path):
    args = ["figure1", "--snr-db", "0", "--scheme", "esa",
            "--samples", "2000", "--seed", "99"]
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = _run(*args, "--out", str(out))
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cmd", ["figure1", "figure2"])
def test_figure_non_finite_row_is_not_ok(tmp_path, monkeypatch, cmd):
    nan = float("nan")
    est = MonteCarloEstimate(mean=RateTriple(nan, nan, nan),
                             stderr=RateTriple(nan, nan, nan), n=2000,
                             avg_power=(nan, nan), avg_power_stderr=(nan, nan))
    monkeypatch.setattr(macwt.cli, "ergodic_region", lambda *a, **kw: est)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 2000\ndual_samples = 2000\n")
    out = tmp_path / f"{cmd}.csv"
    res = _run(cmd, "--config", str(cfg), "--snr-db", "0", "--scheme", "esa",
               "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(row.endswith(",non-finite") for row in rows)
