"""Full-scale acceptance checks, one test per criterion.

Each test records its verdict in the shared summary table (printed after
the run) and then asserts.  These run at the published sample sizes, so
the module takes substantially longer than the unit tests.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import conftest
from macwt.channel import FadingParams, SbaBlock, sample_batch
from macwt.cli import main as cli_main
from macwt.dof import estimate_dof, gs_cj_upper_bound, sum_rate_curve
from macwt.montecarlo import ESA, ESA_CJ, GS_CJ, SBA
from macwt.powerctl import (DualPolicy, DualVars, EffectiveState,
                            dual_search, esa_cj_policy_batch,
                            esa_policy_batch, grid_oracle, lagrangian_esa,
                            lagrangian_esa_cj, stationary_candidates)
from macwt.rates import (PowerBudget, PowerDecision, esa_general_triple,
                         esa_triple)


def _record(num, ok, detail):
    conftest.ACCEPTANCE_RESULTS[num] = (bool(ok), detail)
    assert ok, f"criterion {num} failed: {detail}"


UNIT_PARAMS = FadingParams.symmetric(1.0, 1.0)
FIG_PARAMS = FadingParams.symmetric(1.0, 0.75)
DOF_POWERS = (1e3, 1e4, 1e5, 1e6)


# ---------------------------------------------------------------------------
# 1. half-bit-per-log-P scaling of the two aligned schemes
# ---------------------------------------------------------------------------

def test_criterion_1_alignment_dof():
    etas = {}
    for scheme in (SBA, ESA):
        curve = sum_rate_curve(scheme, UNIT_PARAMS, DOF_POWERS, n=100_000,
                               seed=1001)
        etas[scheme] = estimate_dof(curve)
    ok = all(0.45 <= e <= 0.55 for e in etas.values())
    _record(1, ok, "eta_sba=%.4f eta_esa=%.4f (target [0.45, 0.55])"
            % (etas[SBA], etas[ESA]))


# ---------------------------------------------------------------------------
# 2. single-slot baseline saturates below the constant ceiling
# ---------------------------------------------------------------------------

def test_criterion_2_baseline_saturation():
    curve = sum_rate_curve(GS_CJ, UNIT_PARAMS, DOF_POWERS, n=100_000,
                           seed=1002)
    eta = estimate_dof(curve)
    bound, bound_se = gs_cj_upper_bound(UNIT_PARAMS, 1_000_000, seed=1003)
    below = [r <= bound + 3 * math.hypot(bound_se, se)
             for r, se in zip(curve.rsum, curve.stderr)]
    ok = (-0.02 <= eta <= 0.05) and all(below)
    _record(2, ok, "eta_gs_cj=%.4f (target [-0.02, 0.05]); "
            "bound=%.3f+-%.3f, points below bound: %d/%d"
            % (eta, bound, bound_se, sum(below), len(below)))


# ---------------------------------------------------------------------------
# 3. the rotation pair (pi, 0) maximizes the general repetition rates
# ---------------------------------------------------------------------------

def test_criterion_3_rotation_argmax():
    rng = np.random.default_rng(np.random.SeedSequence(1004))
    n = 1000
    h1, h2, g1, g2 = sample_batch(UNIT_PARAMS, n, rng).sq()
    p1 = rng.exponential(2.0, n)
    p2 = rng.exponential(2.0, n)
    grid = np.linspace(0.0, 2.0 * math.pi, 32)
    worst = 0.0
    best = esa_general_triple(h1, h2, g1, g2, math.pi, 0.0, p1, p2)
    for theta in grid:
        for omega in grid:
            cand = esa_general_triple(h1, h2, g1, g2, theta, omega, p1, p2)
            for b, c in zip(best, cand):
                worst = max(worst, float(np.max(c - b)))
    ok = worst <= 1e-12
    _record(3, ok, "max excess of any grid rotation over (pi, 0): %.2e "
            "(tolerance 1e-12)" % worst)


# ---------------------------------------------------------------------------
# 4. equivalent-channel identities of code repetition
# ---------------------------------------------------------------------------

def test_criterion_4_repetition_identities():
    from macwt.channel import simulate_repetition
    rng = np.random.default_rng(np.random.SeedSequence(1005))
    worst = 0.0
    for _ in range(10_000):
        batch = sample_batch(UNIT_PARAMS, 1, rng)
        s = batch.state(0)
        x1, x2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        noise = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        n1, n2, n1p, n2p = noise
        y1, y2, z1, z2 = simulate_repetition(s, x1, x2, noise)
        worst = max(
            worst,
            abs(y1 - (2 * s.h1 * x1 + n1 + n2)),
            abs(y2 - (2 * s.h2 * x2 + n1 - n2)),
            abs(z1 - (2 * s.g1 * x1 + 2 * s.g2 * x2 + n1p + n2p)),
            abs(z2 - (n1p - n2p)),
        )
    rank_ok = True
    odd = sample_batch(UNIT_PARAMS, 200, rng)
    even = sample_batch(UNIT_PARAMS, 200, rng)
    for i in range(200):
        m = SbaBlock(odd.state(i), even.state(i)).eavesdropper_matrix()
        if not np.array_equal(m[:, 0], m[:, 1]) \
                or np.linalg.matrix_rank(m) != 1:
            rank_ok = False
    ok = worst <= 1e-12 and rank_ok
    _record(4, ok, "max identity error %.2e over 1e4 trials "
            "(tolerance 1e-12); rank-1 exact: %s" % (worst, rank_ok))


# ---------------------------------------------------------------------------
# 5. KKT correctness of both case trees
# ---------------------------------------------------------------------------

def _esa_round_violations(h1, h2, g1, g2, l1, l2):
    p1, p2, _ = esa_policy_batch(h1, h2, g1, g2, l1, l2)
    den = 1.0 + g1 * p1 + g2 * p2
    res1 = h1 / (1.0 + h1 * p1) - g1 / den - l1
    res2 = h2 / (1.0 + h2 * p2) - g2 / den - l2
    s1 = np.maximum.reduce([h1, g1, np.ones_like(h1)])
    s2 = np.maximum.reduce([h2, g2, np.ones_like(h2)])
    bad = 0
    bad += int(np.sum(np.abs(np.where(p1 > 0, res1, 0.0)) > 1e-8 * s1))
    bad += int(np.sum(np.abs(np.where(p2 > 0, res2, 0.0)) > 1e-8 * s2))
    # positivity iff-conditions at the returned partner power
    bad += int(np.sum((p1 > 0) != (h1 - g1 / (1.0 + g2 * p2) > l1)))
    bad += int(np.sum((p2 > 0) != (h2 - g2 / (1.0 + g1 * p1) > l2)))
    return bad, (p1, p2)


def _cj_round_violations(h1, h2, g1, g2, l1, l2):
    p1, p2, q1, q2, _ = esa_cj_policy_batch(h1, h2, g1, g2, l1, l2)
    bad = 0
    bad += int(np.sum((p1 > 0) & (q1 > 0)))      # no splitting
    bad += int(np.sum((p2 > 0) & (q2 > 0)))
    bad += int(np.sum(q1[h1 >= g1] != 0.0))      # jamming suppression
    bad += int(np.sum(q2[h2 >= g2] != 0.0))
    t1, t2 = p1 + q1, p2 + q2
    den = 1.0 + g1 * t1 + g2 * t2
    denq = 1.0 + g1 * q1 + g2 * q2
    resp1 = h1 / (1.0 + h1 * t1) - g1 / den - l1
    resp2 = h2 / (1.0 + h2 * t2) - g2 / den - l2
    resq1 = resp1 + g1 / denq - h1 / (1.0 + h1 * q1)
    resq2 = resp2 + g2 / denq - h2 / (1.0 + h2 * q2)
    s1 = np.maximum.reduce([h1, g1, np.ones_like(h1)])
    s2 = np.maximum.reduce([h2, g2, np.ones_like(h2)])
    for power, res, s in ((p1, resp1, s1), (p2, resp2, s2),
                          (q1, resq1, s1), (q2, resq2, s2)):
        bad += int(np.sum(np.abs(np.where(power > 0, res, 0.0)) > 1e-8 * s))
    # inactive directions must not be profitable
    for power, res, s in ((p1, resp1, s1), (p2, resp2, s2),
                          (q1, resq1, s1), (q2, resq2, s2)):
        bad += int(np.sum(np.where(power > 0, 0.0, res) > 1e-8 * s))
    return bad, (p1, p2, q1, q2)


def test_criterion_5_kkt_correctness():
    rng = np.random.default_rng(np.random.SeedSequence(1006))
    n = 10_000
    h1, h2, g1, g2 = (rng.exponential(2.0, n) for _ in range(4))
    violations = 0
    dom_checked = 0
    dom_bad = 0
    for _ in range(10):
        l1 = 10.0 ** rng.uniform(-2.0, 0.5)
        l2 = 10.0 ** rng.uniform(-2.0, 0.5)
        duals = DualVars(l1, l2)
        bad_esa, (p1, p2) = _esa_round_violations(h1, h2, g1, g2, l1, l2)
        bad_cj, (cp1, cp2, cq1, cq2) = _cj_round_violations(
            h1, h2, g1, g2, l1, l2)
        violations += bad_esa + bad_cj
        # grid-oracle dominance wherever the stationary point is unique
        # (deterministic subsample per dual pair; the oracle is scalar and
        # would dominate the runtime at the full state count)
        for i in range(60):
            s = EffectiveState(h1[i], h2[i], g1[i], g2[i])
            for scheme in ("esa", "esa_cj"):
                if len(stationary_candidates(s, duals, scheme)) != 1:
                    continue
                dom_checked += 1
                if scheme == "esa":
                    val = float(lagrangian_esa(s, p1[i], p2[i], duals))
                    gmax = 2.0 * max(p1[i] + p2[i], 1.0)
                else:
                    d = PowerDecision(cp1[i], cp2[i], cq1[i], cq2[i])
                    val = float(lagrangian_esa_cj(s, d, duals))
                    gmax = 2.0 * max(d.p1 + d.q1 + d.p2 + d.q2, 1.0)
                _, oracle_val = grid_oracle(s, duals, scheme, gmax, 200)
                if val < oracle_val - 1e-6:
                    dom_bad += 1
    ok = violations == 0 and dom_bad == 0 and dom_checked > 500
    _record(5, ok, "KKT/iff/no-splitting/suppression violations: %d of "
            "2x10x%d decisions; oracle dominance failures: %d of %d "
            "stationarity-unique states" % (violations, n, dom_bad,
                                            dom_checked))


# ---------------------------------------------------------------------------
# 6. dual search meets the average-power budgets
# ---------------------------------------------------------------------------

def test_criterion_6_dual_feasibility():
    budget = PowerBudget(10.0, 10.0)
    details = []
    ok = True
    for scheme in ("esa", "esa_cj", "gs_cj"):
        res = dual_search(FIG_PARAMS, budget, scheme, 100_000, seed=1007)
        for k in (0, 1):
            within = abs(res.realized[k] - 10.0) <= 0.01 * 10.0
            if not (res.slack[k] or within):
                ok = False
        # independent evaluation batch with a different seed
        rng = np.random.default_rng(np.random.SeedSequence(1008))
        batch = sample_batch(FIG_PARAMS, 100_000, rng)
        p1, p2, q1, q2 = DualPolicy(scheme, res.duals).decide_batch(batch)
        for k, tot in enumerate((p1 + q1, p2 + q2)):
            mean = float(tot.mean())
            se = float(tot.std(ddof=1)) / math.sqrt(tot.size)
            within = (mean <= 10.0 * 1.01 + 3 * se if res.slack[k]
                      else abs(mean - 10.0) <= 0.01 * 10.0 + 3 * se)
            if not within:
                ok = False
        details.append("%s realized=(%.3f, %.3f) conv=%s"
                       % (scheme, res.realized[0], res.realized[1],
                          res.converged))
    _record(6, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. figure reproductions: scheme ordering at the published parameters
# ---------------------------------------------------------------------------

def _read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_7_figure_ordering(tmp_path):
    runner = CliRunner()
    t0 = time.monotonic()
    fig1 = tmp_path / "figure1.csv"
    fig2 = tmp_path / "figure2.csv"
    res = runner.invoke(cli_main, ["figure1", "--out", str(fig1)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli_main, ["figure2", "--out", str(fig2)])
    assert res.exit_code == 0, res.output
    elapsed = time.monotonic() - t0

    def table(rows):
        out = {}
        for r in rows:
            key = (float(r["var_g"]), r["scheme"], float(r["snr_db"]))
            out[key] = (float(r["rsum_bits"]), float(r["stderr"]))
        return out

    t1 = table(_read_csv_rows(fig1))
    t2 = table(_read_csv_rows(fig2))
    var_gs = sorted({k[0] for k in t1})
    snrs = sorted({k[2] for k in t1})
    bad = []
    for vg in var_gs:
        for snr in snrs:
            esa_r, esa_se = t1[(vg, "esa", snr)]
            sba_r, sba_se = t1[(vg, "sba", snr)]
            if esa_r < sba_r - 2 * (esa_se + sba_se):
                bad.append(f"fig1 esa<sba @{snr}dB vg={vg}")
            if snr >= 30.0:
                gs_r, gs_se = t1[(vg, "gs_cj", snr)]
                for name, (r, se) in (("esa", (esa_r, esa_se)),
                                      ("sba", (sba_r, sba_se))):
                    if r <= gs_r - 2 * (se + gs_se):
                        bad.append(f"fig1 {name}<=gs_cj @{snr}dB vg={vg}")
            cj_r, cj_se = t2[(vg, "esa_cj_kkt", snr)]
            kkt_r, kkt_se = t2[(vg, "esa_kkt", snr)]
            if cj_r < kkt_r - 2 * (cj_se + kkt_se):
                bad.append(f"fig2 esa_cj<esa @{snr}dB vg={vg}")
    ok = not bad and elapsed < 900.0
    _record(7, ok, "ordering violations: %s; runtime %.0fs (budget 900s)"
            % (bad if bad else "none", elapsed))


# ---------------------------------------------------------------------------
# 8. byte-identical CSVs across runs and worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, monkeypatch):
    runner = CliRunner()
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 4000\ndual_samples = 4000\n"
                   "inner_samples = 50\nsnr_db = 0, 20\n")
    outputs = {"figure1": [], "figure2": []}
    for workers in ("1", "1", "4"):
        monkeypatch.setenv("MACWT_WORKERS", workers)
        for cmd in ("figure1", "figure2"):
            out = tmp_path / f"{cmd}_w{workers}_{len(outputs[cmd])}.csv"
            res = runner.invoke(cli_main, [cmd, "--config", str(cfg),
                                           "--out", str(out)])
            assert res.exit_code == 0, res.output
            outputs[cmd].append(out.read_bytes())
    ok = all(len(set(blobs)) == 1 for blobs in outputs.values())
    _record(8, ok, "figure1/figure2 byte-identical across repeat run and "
            "worker counts {1, 4}: %s" % ok)
