import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import macwt.cli
import macwt.montecarlo
from macwt.channel import FadingParams
from macwt.cli import main
from macwt.montecarlo import (CONSTANT, ESA, MonteCarloEstimate, _point_seed,
                              grid_point)
from macwt.powerctl import LAM_MIN, DualVars, RootSolveError
from macwt.rates import PowerBudget, RateTriple
from macwt.config import ConfigError, ExperimentConfig, load_config, parse_config_text
from rate_reference import e1, esa_const_rsum


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
    # each SNR must give a finite positive power 10 ** (db / 10); variances
    # must be finite; seeds nonnegative
    for bad in ({"snr_db": (math.nan,)}, {"snr_db": (4000.0,)},
                {"snr_db": (-4000.0,)}, {"var_g": math.inf},
                {"seed": -1}):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
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


@pytest.mark.parametrize("args", [
    ("--scheme", "esa", "--state", "1,1,0.5,0.5", "--powers", "1,1"),
    ("--scheme", "esa_cj", "--state", "1,1,0.5,0.5", "--duals", "0.1,0.1"),
    ("--scheme", "esa", "--effective", "2,2,1,1", "--duals", "0.1,0.1"),
    ("--scheme", "sba", "--state", "1,2,1,1", "--duals", "0.1,0.1"),
], ids=["esa-powers", "esa_cj-duals", "effective", "sba-duals"])
def test_query_refuses_an_unused_even_slot(args):
    # only the two-slot scaled scheme's rates read the even slot; a flag
    # that changes nothing is refused, as dof refuses --snr-db
    res = _run("query", *args, "--even", "1,1,1,1")
    assert res.exit_code == 2
    assert "Error: --even:" in res.output
    assert "=" not in res.output  # no report


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


@pytest.mark.parametrize("args", [
    ("figure2", "--snr-db", "abc"),
    ("dof", "--powers", "abc"),
    ("dof", "--samples", "2000", "--powers", "1e3,1e4"),  # too few to fit
    ("query", "--scheme", "esa", "--effective", "1,1,1,nan",
     "--duals", "0.1,0.1"),
    ("query", "--scheme", "esa", "--effective", "1,1,1,1",
     "--duals", "nan,0.1"),
    ("query", "--scheme", "esa", "--effective", "1,1,1,1",
     "--powers", "inf,1"),
    ("figure2", "--snr-db", "4000"),  # 10 ** 400 overflows
    ("figure2", "--seed", "-1"),
    ("figure1", "--scheme", "esa_cj"),  # selects none of the figure's rows
    ("dof", "--scheme", "esa_cj"),
    # |h1|^2 overflows, and finite |h1|^2 whose effective gain overflows
    ("query", "--scheme", "esa", "--state", "1e200,1,1,1",
     "--duals", "0.1,0.1"),
    ("query", "--scheme", "esa", "--state", "1.3e154,1,1,1",
     "--duals", "0.1,0.1"),
    # the jamming tree's powers come out NaN
    ("query", "--scheme", "esa_cj", "--effective", "1e308,1,1,1",
     "--duals", "0.1,0.1"),
    # the case tree finds no common root at a subnormal multiplier
    ("query", "--scheme", "esa", "--effective", "2,2,1,1",
     "--duals", "1e-320,0.1"),
    # rates that leave the float range
    ("query", "--scheme", "esa", "--effective", "1e308,1e308,1,1",
     "--powers", "1e308,1e308"),
])
def test_malformed_input_fails_cleanly(tmp_path, args):
    out = tmp_path / "out.csv"
    extra = ("--out", str(out)) if args[0] != "query" else ()
    res = _run(*args, *extra)
    # a usage error: exit 1, no traceback, nothing before the message
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.output.startswith("Error: ")
    assert not out.exists()


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


def test_dof_has_no_snr_grid(tmp_path):
    # dof's grid is linear powers; an SNR grid is refused, not ignored
    out = tmp_path / "dof.csv"
    res = _run("dof", "--snr-db", "0", "--powers", "1e2,1e3,1e4",
               "--out", str(out))
    assert res.exit_code == 2
    assert "No such option" in res.output
    assert not out.exists()


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


def _dof_run(tmp_path, schemes, *extra):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("dual_samples = 2000\n")
    out = tmp_path / f"dof-{schemes}.csv"
    res = _run("dof", "--config", str(cfg), "--scheme", schemes,
               "--samples", "2000", "--powers", "1e2,1e3,1e4",
               "--out", str(out), *extra)
    assert res.exit_code == 0, res.output
    return res.output.splitlines(), out.read_bytes().splitlines(True)


def test_dof_reports_the_gs_cj_ceiling(tmp_path, monkeypatch):
    seeds = {"curve": [], "ceiling": []}
    curve, bound = macwt.cli.sum_rate_curve, macwt.cli.gs_cj_upper_bound

    def curve_spy(scheme, params, powers, n, seed, **kwargs):
        seeds["curve"].append(seed)
        return curve(scheme, params, powers, n, seed, **kwargs)

    def bound_spy(params, n, seed):
        seeds["ceiling"].append(seed)
        return bound(params, n, seed)

    monkeypatch.setattr(macwt.cli, "sum_rate_curve", curve_spy)
    monkeypatch.setattr(macwt.cli, "gs_cj_upper_bound", bound_spy)
    out, csv_all = _dof_run(tmp_path, "sba,esa,gs_cj")
    ceiling = [ln for ln in out if ln.startswith("ceiling")]
    assert len(ceiling) == 1
    assert out.index(ceiling[0]) == out.index(
        [ln for ln in out if ln.startswith("eta gs_cj")][0]) + 1
    _, scheme, value, stderr = ceiling[0].split()
    assert scheme == "gs_cj"
    assert math.isfinite(float(value)) and math.isfinite(float(stderr))
    assert 0 < float(stderr) < float(value)
    # the ceiling's states come from a seed of their own
    assert len(seeds["curve"]) == 3 and len(seeds["ceiling"]) == 1
    assert seeds["ceiling"][0] not in seeds["curve"]
    # the ceiling changes no CSV byte and no other line: not with its
    # computation stubbed out, and not without gs_cj
    monkeypatch.setattr(macwt.cli, "gs_cj_upper_bound",
                        lambda *args: (0.0, 0.0))
    out_stub, csv_stub = _dof_run(tmp_path, "sba,esa,gs_cj")
    assert csv_stub == csv_all
    assert [ln for ln in out_stub if not ln.startswith("ceiling")] == [
        ln for ln in out if not ln.startswith("ceiling")]
    out_se, csv_se = _dof_run(tmp_path, "sba,esa")
    assert not any(ln.startswith("ceiling") for ln in out_se)
    assert csv_se == csv_all[:len(csv_se)]
    assert out_se[:2] == out[:2]
    # and it follows --seed
    monkeypatch.undo()
    out_seed, _ = _dof_run(tmp_path, "gs_cj", "--seed", "7")
    assert out_seed[1].startswith("ceiling gs_cj ")
    assert out_seed[1] != ceiling[0]


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


@pytest.mark.parametrize("cmd, subset, grid", [
    ("figure2", "gs_cj", ("--snr-db", "0")),
    ("dof", "esa", ("--powers", "1e2,1e3,1e4"))], ids=["figure2", "dof"])
def test_scheme_subset_keeps_the_full_runs_rows(tmp_path, cmd, subset, grid):
    # a row's seed is its variant's place in the full command: a --scheme
    # subset drops rows and moves none
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 2000\ndual_samples = 2000\n")
    runs = {}
    for schemes in ((), ("--scheme", subset)):
        out = tmp_path / f"{cmd}{len(schemes)}.csv"
        res = _run(cmd, "--config", str(cfg), *grid, *schemes,
                   "--out", str(out))
        assert res.exit_code == 0, res.output
        runs[schemes] = (res.output.splitlines(),
                         out.read_text(encoding="utf-8").splitlines())
    (out_all, csv_all), (out_sub, csv_sub) = runs.values()
    col = 2 if cmd == "figure2" else 0
    kept = [ln for ln in csv_all[1:] if ln.split(",")[col] == subset]
    assert kept and csv_sub == csv_all[:1] + kept
    # and dof prints the kept scheme's slope line as the full run does
    eta = [ln for ln in out_sub if ln.startswith("eta ")]
    assert set(eta) <= set(out_all) and len(eta) == (cmd == "dof")


@pytest.mark.parametrize("s, value", [
    (0.1, 1.8229239584193906), (1.0, 0.2193839343955205),
    (2.0, 0.048900510708061125), (10.0, 4.156968929685325e-06)])
def test_e1_reference_values(s, value):
    # the series (s <= 1) and the continued fraction (s > 1) behind the
    # closed form below
    assert e1(s) == pytest.approx(value, rel=1e-12, abs=0)


def test_figure2_esa_const_rows_match_the_closed_form(tmp_path):
    # constant-power repetition under Rayleigh fading has a closed form;
    # every default figure2 esa_const row lies within 3 stderr of it
    cfg = ExperimentConfig()
    si = macwt.cli._FIG2_VARIANTS.index(("esa_const", ESA, CONSTANT))
    rows = {}
    for vi, var_g in enumerate((cfg.var_g, cfg.var_g_alt)):
        params = FadingParams.symmetric(cfg.var_h, var_g)
        for pi, db in enumerate(cfg.snr_db):
            p = 10.0 ** (db / 10.0)
            point = (cfg.seed, 2, vi, si, pi)  # the CLI's point seeds
            est, status = grid_point(
                ESA, CONSTANT, params, PowerBudget(p, p), cfg.samples,
                _point_seed(*point), cfg.dual_samples, _point_seed(*point, 9))
            exact = esa_const_rsum(p, cfg.var_h, var_g)
            assert status == "ok"
            assert abs(est.mean.rsum - exact) <= 3 * est.stderr.rsum, (
                db, var_g, est.mean.rsum, exact, est.stderr.rsum)
            rows[var_g, db] = est.mean.rsum
    # the same seeds as the command: its first SNR's rows are the ones
    # above (they do not depend on the dual search's batch size)
    out = tmp_path / "fig2.csv"
    small = tmp_path / "small.cfg"
    small.write_text("dual_samples = 2000\n")
    db = cfg.snr_db[0]
    res = _run("figure2", "--config", str(small), "--snr-db", str(db),
               "--scheme", "esa", "--out", str(out))
    assert res.exit_code == 0, res.output
    with open(out, encoding="utf-8", newline="") as fh:
        got = [r for r in csv.DictReader(fh) if r["scheme"] == "esa_const"]
    assert [(r["var_g"], r["rsum_bits"]) for r in got] == [
        (format(var_g, ".12g"), format(rows[var_g, db], ".12g"))
        for var_g in (cfg.var_g, cfg.var_g_alt)]


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


def test_figure2_over_budget_row_is_not_ok(tmp_path, monkeypatch):
    # a search that leaves user 1 unpriced at 60 dB, as a stale slack flag
    # did: the tree then spends many times user 1's budget
    search = macwt.cli.dual_search

    def unpriced(*args, **kwargs):
        res = search(*args, **kwargs)
        return dataclasses.replace(
            res, duals=DualVars(LAM_MIN, res.duals.lambda2))

    monkeypatch.setattr(macwt.cli, "dual_search", unpriced)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 2000\ndual_samples = 2000\n")
    out = tmp_path / "fig2.csv"
    res = _run("figure2", "--config", str(cfg), "--snr-db", "60",
               "--scheme", "esa", "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = [row.split(",")
            for row in out.read_text(encoding="utf-8").splitlines()[1:]]
    # two var_g values, each with a constant-power and a KKT row
    assert sorted((r[2], r[-1]) for r in rows) == (
        [("esa_const", "ok")] * 2 + [("esa_kkt", "over-budget")] * 2)


@pytest.mark.parametrize("change, status", [
    (lambda res: dataclasses.replace(res, converged=False),
     "dual-not-converged"),
    # user 1 left unpriced, as in the figure2 case above
    (lambda res: dataclasses.replace(
        res, duals=DualVars(LAM_MIN, res.duals.lambda2)), "over-budget"),
], ids=["not-converged", "over-budget"])
def test_dof_search_row_is_not_ok(tmp_path, monkeypatch, change, status):
    search = macwt.montecarlo.dual_search
    monkeypatch.setattr(macwt.montecarlo, "dual_search",
                        lambda *a, **kw: change(search(*a, **kw)))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("dual_samples = 2000\n")
    out = tmp_path / "dof.csv"
    res = _run("dof", "--config", str(cfg), "--scheme", "gs_cj",
               "--samples", "2000", "--powers", "1e2,1e3,1e4",
               "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == [status] * 3


def test_dof_non_finite_point_is_recorded(tmp_path, monkeypatch):
    # a point whose sum rate is not finite (forced here above 1e150) is
    # written non-finite, not dropped, and the slope over it is nan
    sba_triple = macwt.montecarlo.sba_triple

    def overflowing(A1, A2, C, Dsq, p1, p2):
        r1, r2, rsum = sba_triple(A1, A2, C, Dsq, p1, p2)
        return r1, r2, np.where(p1 > 1e150, np.inf, rsum)

    monkeypatch.setattr(macwt.montecarlo, "sba_triple", overflowing)
    out = tmp_path / "dof.csv"
    # the row's status says it: no warning from the moments either
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = _run("dof", "--scheme", "sba", "--samples", "200",
                   "--powers", "1e100,1e200,1e300", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert "eta sba nan" in res.output.splitlines()
    rows = [row.split(",")
            for row in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(r[4], r[5]) for r in rows] == (
        [("200", "ok")] + [("200", "non-finite")] * 2)


def test_dof_sba_extreme_powers_are_finite(tmp_path):
    # past powers of about 1e154 the two-slot sum rate and the realized
    # powers' second moments leave the float range; every row stays ok
    out = tmp_path / "dof.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = _run("dof", "--scheme", "sba", "--samples", "200",
                   "--powers", "1e100,1e200,1e300", "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = [row.split(",")
            for row in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(r[4], r[5]) for r in rows] == [("200", "ok")] * 3
    rsum = [float(r[2]) for r in rows]
    assert all(math.isfinite(float(r[3])) for r in rows)
    # each factor 1e100 in both powers adds about 0.5 log2(1e100) bits
    assert np.diff(rsum) == pytest.approx([0.5 * 100 * math.log2(10)] * 2,
                                          abs=1.0)


@pytest.mark.parametrize("cmd, module, scheme", [
    ("figure2", macwt.cli, "esa"), ("dof", macwt.montecarlo, "gs_cj")])
def test_search_failure_row_is_recorded(tmp_path, monkeypatch, cmd, module,
                                        scheme):
    def fail(*args, **kwargs):
        raise RootSolveError("realized power [nan, nan] is not finite")

    monkeypatch.setattr(module, "dual_search", fail)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 2000\ndual_samples = 2000\n")
    out = tmp_path / f"{cmd}.csv"
    grid = ("--snr-db", "0") if cmd == "figure2" else ("--powers",
                                                       "1e2,1e3,1e4")
    res = _run(cmd, "--config", str(cfg), "--scheme", scheme, *grid,
               "--out", str(out))
    assert res.exit_code == 0, res.output
    with open(out, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    failed = [r[-4:] for r in rows if r[2] != "esa_const"]
    assert len(failed) == (2 if cmd == "figure2" else 3)
    assert all(r == ["nan", "nan", "0", "dual-failed:realized power "
                     "[nan, nan] is not finite"] for r in failed)
    if cmd == "dof":
        assert f"eta {scheme} nan" in res.output.splitlines()
