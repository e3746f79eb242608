"""Tests of the benchmark's own arithmetic, checks and tracing.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import macwt  # noqa: E402
import macwt.cli  # noqa: E402
from macwt import powerctl  # noqa: E402
from perfbench import checks, tracer, workloads  # noqa: E402


def span(name, start, end, parent=None, tid=1, states=None, info=None):
    return [name, start, end, parent, tid, states, info]


def test_self_time_nested_one_thread():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 4.0, parent=0),
             span("c", 2.0, 3.0, parent=1),
             span("d", 5.0, 9.0, parent=0)]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_two_worker_threads():
    # the main thread waits in ergodic_region while two workers run shards
    er = "montecarlo.ergodic_region"
    spans = [span(er, 0.0, 10.0, tid=1, states=100),
             span("channel.sample_batch", 0.0, 6.0, parent=0, tid=2, states=50),
             span("channel.sample_batch", 1.0, 9.0, parent=0, tid=3, states=50),
             span("rates.esa_triple", 2.0, 5.0, parent=1, tid=2, states=50)]
    assert tracer.self_times(spans) == pytest.approx([10.0, 3.0, 8.0, 3.0])
    stats = tracer.layer_stats(spans, workers=2)
    assert stats[f"{er}.self_s"] == pytest.approx(10.0)
    assert stats["montecarlo.thread_util"] == pytest.approx((6.0 + 8.0) / 20.0)
    assert stats["channel.sample_batch.calls"] == 2
    assert stats["channel.sample_batch.states"] == 100
    assert stats["channel.sample_batch.busy_s"] == pytest.approx(14.0)


def test_dual_search_counts():
    ds, esa, cj = ("powerctl.dual_search", "powerctl.esa_policy_batch",
                   "powerctl.esa_cj_policy_batch")
    info = {"sweeps": 2, "converged": True}
    spans = [span(ds, 0.0, 5.0, states=10, info=info),
             span(cj, 0.5, 1.0, parent=0, states=10, info=4),
             span(esa, 0.6, 0.7, parent=1, states=6, info=3),  # nested
             span(cj, 1.0, 2.0, parent=0, states=10, info=2),
             span(tracer.NP_ROOTS, 1.1, 1.2, parent=3),
             span(esa, 6.0, 7.0, states=10, info=1)]
    stats = tracer.layer_stats(spans)
    assert stats["powerctl.dual_search.evals"] == 2
    assert stats["powerctl.dual_search.evals_max"] == 2
    assert stats["powerctl.dual_search.sweeps"] == 2
    assert stats["powerctl.dual_search.converged"] == 1
    # the nested plain-tree call is already inside the jamming tree's codes
    assert stats["powerctl.root_case_frac"] == pytest.approx(7 / 30)
    assert stats["powerctl.np_roots_per_root_state"] == pytest.approx(1 / 7)


def _row(status="ok", rsum="1.5", stderr="0.01"):
    return {"snr_db": "60", "var_g": "0.75", "scheme": "esa_kkt",
            "rsum_bits": rsum, "stderr": stderr, "n": "20000",
            "status": status}


def _record(power):
    return {"avg_power": [power, 1e6], "avg_power_stderr": [1e3, 1e3],
            "budget": [1e6, 1e6], "dual_stderr": [3e3, 3e3]}


def test_row_classifier():
    assert checks.row_failure(_row(rsum="nan")) is not None
    assert checks.row_failure(_row(stderr="inf")) is not None
    assert checks.row_failure(
        _row("dual-failed:could not bracket", "nan", "nan")) is not None
    assert checks.row_failure(_row("dual-not-converged")) is not None
    assert "user 1" in checks.row_failure(_row(), _record(1.23e7))
    assert checks.row_failure(_row(), _record(1.0e6)) is None
    # 2 % tolerance plus three combined standard errors
    se = math.hypot(1e3, 3e3)
    assert checks.row_failure(_row(), _record(1.02e6 + 2.9 * se)) is None
    assert checks.row_failure(_row(), _record(1.02e6 + 3.1 * se)) is not None
    # rows without a searched policy have no budget to check
    assert checks.row_failure(_row(), {"avg_power": [5e6, 5e6],
                                       "avg_power_stderr": [1, 1]}) is None
    assert checks.row_failure(_row()) is None


def test_query_classifier():
    report = checks.parse_report("branch    = A.4\n"
                                 "powers    = P1=1.5 P2=0\n"
                                 "residuals = -1e-12 3e-13\n")
    expect = {"powers": (1.5, 0.0), "branch": "A.4", "scale": 10.0}
    assert checks.query_failure(report, expect) is None
    assert checks.query_failure(report, dict(expect, branch="A.5")) is not None
    assert checks.query_failure(report, dict(expect, powers=(1.6, 0.0))) is not None
    bad = checks.parse_report("branch    = A.4\npowers    = P1=nan P2=0\n")
    assert checks.query_failure(bad, expect) is not None
    neg = checks.parse_report("branch    = A.4\npowers    = P1=-1 P2=0\n")
    assert "negative" in checks.query_failure(neg, dict(expect, powers=(-1, 0)))
    rates = checks.parse_report("r1    = -0.25 bits\nr2    = 1 bits\n"
                                "rsum  = 0.75 bits\n")
    assert checks.query_failure(rates, {"rates": (-0.25, 1, 0.75),
                                        "scale": 1.0}) is None


def test_cj_label_matches_program():
    rng = np.random.default_rng(7)
    for _ in range(40):
        s = powerctl.EffectiveState(*rng.exponential(2.0, 4))
        d = powerctl.DualVars(*np.exp(rng.uniform(-6, 0, 2)))
        *_, case = powerctl.esa_cj_policy_batch(
            np.array([s.h1]), np.array([s.h2]), np.array([s.g1]),
            np.array([s.g2]), d.lambda1, d.lambda2)
        assert checks.cj_label(int(case[0])) == powerctl.esa_cj_case_label(s, d)


def test_queries_depend_only_on_seed():
    a = workloads.make_queries(3, n=40)
    b = workloads.make_queries(3, n=40)
    assert [q["args"] for q in a] == [q["args"] for q in b]
    assert [q["args"] for q in a] != [q["args"] for q in workloads.make_queries(4, n=40)]
    assert {q["kind"] for q in a} == set(workloads.QUERY_KINDS)


def _snapshot():
    mods = [macwt] + [getattr(macwt, m) for m in tracer.MODULES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for m in mods[1:]:
        for k, v in vars(m).items():
            if isinstance(v, type) and v.__module__ == m.__name__:
                snap.update({(v.__qualname__, a): f for a, f in vars(v).items()})
    snap[("numpy", "roots")] = np.roots
    return snap


def test_wrappers_restored():
    before = _snapshot()
    tr = tracer.Tracer()
    tr.install(macwt)
    assert macwt.cli.dual_search is macwt.powerctl.dual_search
    assert macwt.powerctl.dual_search is not before[("macwt.powerctl", "dual_search")]
    assert np.roots is not before[("numpy", "roots")]
    macwt.powerctl.esa_case_id(powerctl.EffectiveState(2, 2, 1, 1),
                               powerctl.DualVars(0.1, 0.1))
    tr.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[tracer.NAME] for s in tr.spans}
    assert {"powerctl.esa_case_id", "powerctl.esa_policy_batch"} <= names


def _traced_counts(tmp_path, tag):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("samples = 200\ndual_samples = 200\n")
    tr = tracer.Tracer()
    tr.install(macwt)
    try:
        macwt.cli.main.main(
            args=["figure2", "--config", str(cfg), "--snr-db", "60",
                  "--out", str(tmp_path / f"{tag}.csv")],
            prog_name="macwt", standalone_mode=False)
    finally:
        tr.restore()
    stats = tracer.layer_stats(tr.spans)
    # counts only: times and their ratios vary from run to run
    return {k: v for k, v in stats.items()
            if not k.endswith(("_s", "thread_util"))}


def test_traced_counts_repeat(tmp_path):
    a = _traced_counts(tmp_path, "a")
    assert a["powerctl.dual_search.evals"] > 0
    assert a["powerctl.np_roots.calls"] > 0
    assert a == _traced_counts(tmp_path, "b")
