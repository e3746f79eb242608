"""Output checks that decide which operations of a run failed.

An operation is one figure CSV row or one ``macwt query`` call.  Import
this module only with the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import math
import re

import numpy as np

from macwt import powerctl, rates
from perfbench.workloads import QUERY_KINDS

DUAL_TOL = 0.02        # the ``tol`` the figure commands pass to dual_search
BUDGET_SIGMAS = 3.0    # sampling allowance, in combined standard errors
QUERY_RTOL = 1e-6      # scalar query vs batched tree, relative
QUERY_ATOL = 1e-9      # ... and absolute, in units of the state's scale


def row_failure(row, record=None):
    """Why a figure CSV row failed, or None.

    ``row`` maps the CSV columns to strings.  ``record`` describes the
    ``ergodic_region`` estimate behind the row: ``avg_power`` and
    ``avg_power_stderr`` of the estimate and, for rows whose policy came
    from ``dual_search``, ``budget`` and the realized-power standard
    errors ``dual_stderr`` on the search's own batch.
    """
    if row["status"] != "ok":
        return f"status {row['status']}"
    if not (math.isfinite(float(row["rsum_bits"]))
            and math.isfinite(float(row["stderr"]))):
        return "non-finite rsum/stderr"
    if record is not None and record.get("budget") is not None:
        for k in (0, 1):
            budget = record["budget"][k]
            se = math.hypot(record["avg_power_stderr"][k], record["dual_stderr"][k])
            excess = record["avg_power"][k] - budget
            if not excess <= DUAL_TOL * budget + BUDGET_SIGMAS * se:
                return (f"user {k + 1} spends {record['avg_power'][k]:.6g} "
                        f"on a budget of {budget:.6g}")
    return None


# ---------------------------------------------------------------------------
# query reports
# ---------------------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)", re.I)


def parse_report(text):
    """``macwt query`` output -> {field: [numbers]} plus the branch label."""
    out = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition("=")
        key = key.strip()
        if key == "branch":
            out[key] = val.strip()
        elif key == "powers":
            out[key] = [float(v.split("=")[1]) for v in val.split()]
        else:
            out[key] = [float(v) for v in _NUM.findall(val)]
    return out


def _close(got, want, scale):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    tol = QUERY_RTOL * np.maximum(np.abs(got), np.abs(want)) + QUERY_ATOL * scale
    return bool(np.all(np.abs(got - want) <= tol))


def query_failure(report, expect):
    """Why one query failed, or None.

    ``report`` is the parsed output; ``expect`` holds the batched tree's
    answer for the same state: ``powers`` and ``branch`` for a policy
    query, ``rates`` for a rate query, plus ``scale`` (the largest value
    the answer can take) for the absolute tolerance.
    """
    if "error" in expect:
        return f"the batched tree raised {expect['error']}"
    values = [v for key, vals in report.items() if key != "branch"
              for v in vals]
    if not values or not all(math.isfinite(v) for v in values):
        return "non-finite or missing value"
    if "powers" in expect:
        got = report.get("powers", [])
        if any(v < 0 for v in got):
            return "negative power"
        if len(got) != len(expect["powers"]) or not _close(
                got, expect["powers"], expect["scale"]):
            return f"powers {got} != batched {list(expect['powers'])}"
        if "branch" in expect and report.get("branch") != expect["branch"]:
            return f"branch {report.get('branch')} != batched {expect['branch']}"
    if "rates" in expect:
        got = [report.get(k, [math.nan])[0] for k in ("r1", "r2", "rsum")]
        if not _close(got, expect["rates"], expect["scale"]):
            return f"rates {got} != batched {list(expect['rates'])}"
    return None


def cj_label(code):
    """Branch label the query prints for an esa_cj case code."""
    if 11 <= code <= 17:
        return f"B.1/A.{code - 10}"
    if code == 45:
        return "B.4d-A"
    if code == 46:
        return "B.4d-B"
    branch, sub = divmod(code, 10)
    return f"B.{branch}{'abcd'[sub - 1]}"


def _batched(kind, qs):
    """The batched tree's answer for queries ``qs``, all of one kind."""
    g = np.array([q["gains"] for q in qs])
    lam = np.array([q["duals"] for q in qs])
    h1, h2, g1, g2 = g.T
    if kind == "gs_cj-duals":
        sq = np.abs(np.array([q["state"] for q in qs])) ** 2
        res = powerctl.gs_cj_baseline_batch(*sq.T, lam[:, 0], lam[:, 1])
        rows = [{"powers": p} for p in np.stack(res, axis=1)]
    elif kind == "esa-duals":
        p1, p2, case = powerctl.esa_policy_batch(h1, h2, g1, g2,
                                                 lam[:, 0], lam[:, 1])
        rows = [{"powers": (a, b), "branch": f"A.{c}"}
                for a, b, c in zip(p1, p2, case)]
    elif kind == "esa_cj-duals":
        *pw, case = powerctl.esa_cj_policy_batch(h1, h2, g1, g2,
                                                 lam[:, 0], lam[:, 1])
        rows = [{"powers": p, "branch": cj_label(int(c))}
                for p, c in zip(np.stack(pw, axis=1), case)]
    else:
        pw = np.array([q["powers"] for q in qs])
        r = rates.esa_cj_triple(h1 / 2, h2 / 2, g1 / 2, g2 / 2, *pw.T)
        rows = [{"rates": t} for t in np.stack(r, axis=1)]
    for row, lj in zip(rows, lam):
        # powers are bounded by the water-filling level 1/lambda
        row["scale"] = 1.0 / float(lj.min()) if "powers" in row else 1.0
    return rows


def _batched_or_isolate(kind, qs):
    """As ``_batched``; if the batch raises, halve it until the states that
    make it raise are isolated, so the other queries are still checked."""
    try:
        return _batched(kind, qs)
    except (powerctl.CaseSolverError, powerctl.RootSolveError) as exc:
        if len(qs) == 1:
            return [{"error": repr(exc)}]
        mid = len(qs) // 2
        return (_batched_or_isolate(kind, qs[:mid])
                + _batched_or_isolate(kind, qs[mid:]))


def batched_expectations(queries):
    """The batched tree's answer for every query, one batch per kind."""
    expect = [None] * len(queries)
    for kind in QUERY_KINDS:
        idx = [i for i, q in enumerate(queries) if q["kind"] == kind]
        if idx:
            rows = _batched_or_isolate(kind, [queries[i] for i in idx])
            for i, row in zip(idx, rows):
                expect[i] = row
    return expect
