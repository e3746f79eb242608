"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --out R.json
    python3 perfbench/worker.py --setup-only --workload W --out R.json

Set-up (importing ``macwt.cli`` and loading the workload's config) is
timed first, before anything else imports numpy.  The result JSON holds
the timings, the output digest, and which operations failed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def setup(cfg_path):
    """Import the CLI from this checkout and load the config; seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import macwt.cli
    from macwt.config import load_config
    load_config(cfg_path)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(macwt.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"macwt imported from {macwt.cli.__file__}, not {SRC}")
    return elapsed


class FigureProbe:
    """Records what each figure row was computed from, without timing it.

    Wraps the CLI's ``dual_search`` and ``ergodic_region`` names so each
    estimate is paired with the search (if any) that chose its policy.
    """

    def __init__(self, cli):
        self.cli = cli
        self.records = []
        self._pending = None
        self._orig = (cli.dual_search, cli.ergodic_region)

        def dual_search(params, budget, scheme, n, seed, *a, **kw):
            result = self._orig[0](params, budget, scheme, n, seed, *a, **kw)
            self._pending = {"params": params, "budget": budget, "n": n,
                             "seed": seed}
            return result

        def ergodic_region(scheme, policy, params, n, seed, *a, **kw):
            est = self._orig[1](scheme, policy, params, n, seed, *a, **kw)
            self.records.append({"policy": policy, "est": est,
                                 "search": self._pending})
            self._pending = None
            return est

        cli.dual_search, cli.ergodic_region = dual_search, ergodic_region

    def restore(self):
        self.cli.dual_search, self.cli.ergodic_region = self._orig


def _dual_stderr(search, policy):
    """Realized-power standard errors of ``policy`` on the search's batch."""
    import numpy as np
    from macwt.channel import sample_batch
    rng = np.random.default_rng(np.random.SeedSequence(search["seed"]))
    batch = sample_batch(search["params"], search["n"], rng)
    p1, p2, q1, q2 = policy.decide_batch(batch)
    out = []
    for t in (p1 + q1, p2 + q2):
        var = max(float(np.mean(t * t) - np.mean(t) ** 2), 0.0)
        out.append((var / t.size) ** 0.5)
    return out


def run_figure(cli, workload, seed, cfg_path, call, stop):
    import csv
    from perfbench import checks, workloads
    fig = workloads.FIGURES[workload]
    csv_path = os.path.join(os.path.dirname(cfg_path), f"{workload}.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    probe = FigureProbe(cli)
    error = None
    t0 = time.perf_counter()
    try:
        call(workloads.figure_args(workload, seed, cfg_path, csv_path))
    except Exception as exc:  # the CLI writes no row, so every row fails
        error = repr(exc)
    wall = time.perf_counter() - t0
    probe.restore()
    stop()

    rows, digest = [], None
    if error is None:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    records = iter(probe.records)
    failures = []
    for row in rows:
        rec = None
        if not row["status"].startswith("dual-failed"):
            r = next(records)
            est, search = r["est"], r["search"]
            rec = {"avg_power": [float(v) for v in est.avg_power],
                   "avg_power_stderr": [float(v) for v in est.avg_power_stderr]}
            if search is not None:
                b = search["budget"]
                rec["budget"] = [b.pbar1, b.pbar2]
                rec["dual_stderr"] = _dual_stderr(search, r["policy"])
        why = checks.row_failure(row, rec)
        if why is not None:
            failures.append(f"{row['snr_db']} dB var_g={row['var_g']} "
                            f"{row['scheme']}: {why}")
    missing = fig["rows"] - len(rows)
    if missing:
        failures += [f"row not written: {error}"] * missing
    return {"wall_s": wall, "attempted": fig["rows"], "failed": len(failures),
            "failures": failures, "digest": digest, "error": error,
            "rows": [[r["snr_db"], r["var_g"], r["scheme"], r["rsum_bits"],
                      r["stderr"], r["status"]] for r in rows]}


def run_queries(cli, seed, call, stop):
    from perfbench import checks, workloads
    queries = workloads.make_queries(seed)
    outputs, errors, op_ms = [], {}, []
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                call(q["args"])
        except Exception as exc:
            errors[i] = repr(exc)
        op_ms.append(1e3 * (time.perf_counter() - t))
        outputs.append(buf.getvalue())
    wall = time.perf_counter() - t0
    stop()

    expect = checks.batched_expectations(queries)
    failures = []
    for i, (q, text) in enumerate(zip(queries, outputs)):
        why = errors.get(i)
        if why is None:
            try:
                why = checks.query_failure(checks.parse_report(text), expect[i])
            except ValueError as exc:
                why = f"unparsable report: {exc}"
        if why is not None:
            failures.append(f"{' '.join(q['args'])}: {why}")
    digest = hashlib.sha256("\0".join(outputs).encode("utf-8")).hexdigest()
    return {"wall_s": wall, "attempted": len(queries), "failed": len(failures),
            "failures": failures, "digest": digest, "op_ms": op_ms}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_s = setup(args.config)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        sys.path.insert(0, ROOT)
        import macwt
        import macwt.cli as cli
        from perfbench import tracer, workloads

        def call(argv):
            return cli.main.main(args=argv, prog_name="macwt",
                                 standalone_mode=False)

        tr = tracer.Tracer() if args.trace else None
        if tr is not None:
            tr.install(macwt)
            call = tr.wrap("cli.main", call)
        stop = tr.restore if tr is not None else (lambda: None)
        try:
            if args.workload in workloads.FIGURES:
                result.update(run_figure(cli, args.workload, args.seed,
                                         args.config, call, stop))
            else:
                result.update(run_queries(cli, args.seed, call, stop))
        finally:
            stop()
        if tr is not None:
            result["layers"] = tracer.layer_stats(
                tr.spans, workloads.workers(args.workload))
            tr.dump(os.path.splitext(args.out)[0] + "-spans.json")
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
