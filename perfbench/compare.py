"""Compare two directories of run records written by ``run.py``.

    python3 perfbench/run.py --compare RUNS_A RUNS_B

A is the baseline (the parent commit), B the change.  For each workload
and metric it prints both sides' median and quartiles, the fraction of
pairs B wins (the i-th run of A against the i-th run of B, in start
order, so runs made alternately pair up), and a verdict against the bound
in ``BENCHMARK.json``: ``unresolved`` where A's own spread exceeds the
bound.  For runs of one seed on both sides it reports whether the output
digests match and, for figure rows, the largest |delta rsum_bits| in units
of the combined ``stderr``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(directory):
    runs = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            runs.append(rec)
    return sorted(runs, key=lambda r: r["started"])


def load_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, bound, better):
    """Compare metric values of A (baseline) and B (change)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    win_frac = wins / len(pairs) if pairs else float("nan")
    if bound is None:
        return win_frac, "-"
    spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
    worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if spread > bound:
        if (max(b) < min(a)) if better == "lower" else (min(b) > max(a)):
            return win_frac, "better (every run)"
        return win_frac, "unresolved"
    if worse > bound:
        return win_frac, "worse"
    if win_frac >= 0.9 and -worse * qa[1] > qa[2] - qa[0]:
        return win_frac, "better"
    return win_frac, "same"


def row_delta(rows_a, rows_b):
    """Largest |delta rsum| over matching figure rows, in combined stderr."""
    b = {tuple(r[:3]): r for r in rows_b}
    worst = 0.0
    for r in rows_a:
        o = b.get(tuple(r[:3]))
        if o is None:
            return float("inf")
        ra, sa, rb, sb = float(r[3]), float(r[4]), float(o[3]), float(o[4])
        if ra == rb:
            continue
        worst = max(worst, abs(ra - rb) / math.hypot(sa, sb))
    return worst


def values(runs, name):
    out = []
    for r in runs:
        m = r["metrics"].get(name) or r.get("extra", {}).get(name)
        if m is not None:
            out.append(m["value"])
    return out


def main(dir_a, dir_b):
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    bounds = load_bounds()
    for side, runs in (("A", runs_a), ("B", runs_b)):
        seen = {}
        for r in runs:
            key = (r["workload"], r["seed"])
            if seen.setdefault(key, r["digests"]) != r["digests"]:
                print(f"FAILED: {side} {key[0]} seed {key[1]}: outputs differ "
                      "between runs of the same code and seed")
    for w in sorted({r["workload"] for r in runs_a + runs_b}):
        a = [r for r in runs_a if r["workload"] == w]
        b = [r for r in runs_b if r["workload"] == w]
        print(f"== {w}: {len(a)} runs in A, {len(b)} in B")
        if not a or not b:
            continue
        names = []
        for r in a + b:
            for k in list(r["metrics"]) + list(r.get("extra", {})):
                if k not in names:
                    names.append(k)
        print(f"{'metric':<16}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
              f"{'B wins':>8}  verdict")
        for name in names:
            va, vb = values(a, name), values(b, name)
            if not va or not vb:
                continue
            bound, better = bounds.get(name, (None, "lower"))
            win_frac, v = verdict(va, vb, bound, better)
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{name:<16}"
                  f"{qa[1]:>14.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"{qb[1]:>14.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"{win_frac:>8.2f}  {v}")
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"failed_frac: A {fa:.6g}, B {fb:.6g}")
        for seed in sorted({r["seed"] for r in a} & {r["seed"] for r in b}):
            ra = next(r for r in a if r["seed"] == seed)
            rb = next(r for r in b if r["seed"] == seed)
            same = ra["digests"] == rb["digests"]
            line = f"seed {seed}: outputs {'identical' if same else 'differ'}"
            if not same and ra.get("rows") and rb.get("rows"):
                line += (f", largest |delta rsum_bits| = "
                         f"{row_delta(ra['rows'], rb['rows']):.3g} combined stderr")
            print(line)
