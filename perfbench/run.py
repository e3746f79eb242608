"""Benchmark of the ``macwt`` pipeline: one command per workload run.

    python3 perfbench/run.py --workload fig2-kkt --seed 12345 --seconds 40 --trace 0
    python3 perfbench/run.py --compare RUNS_A RUNS_B

Each repetition runs in a fresh ``perfbench/worker.py`` process; repetitions
continue until ``--seconds`` have passed (at least one).  Set-up is also
timed in separate set-up-only processes.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Every run also writes a record to ``.perfbench/runs/`` in
the checkout; ``--compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 8
WORKER_TIMEOUT = 170

sys.path.insert(0, ROOT)
from perfbench import tracer, workloads  # noqa: E402


def percentile(xs, q):
    """Linear-interpolated q-th percentile (0 < q < 100)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def run_record(workload, seed, seconds, trace):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                                 capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    status = git("status", "--porcelain")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "started": time.time(),
            "git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "click": version("click"),
            "MACWT_WORKERS": workloads.workers(workload),
            "loadavg_1m": os.getloadavg()[0]}


def spawn(workload, seed, trace, cfg, tag, setup_only=False):
    """One worker process; returns its result dict."""
    out = os.path.join(OUT, "work", f"{workload}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--config", cfg, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, MACWT_WORKERS=str(workloads.workers(workload)))
    log = os.path.join(OUT, "work", f"{workload}-{tag}.log")
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=fh,
                              stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as fh:
            sys.stderr.write(fh.read())
        raise SystemExit(f"worker for {workload} exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(reps, setups):
    # Other tenants of a shared machine only ever add time, and their
    # slowdowns last seconds to minutes, so the fastest repetition is the
    # steadiest estimate of the workload's own wall time.
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (min(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def query_latency(reps):
    """Single-query latency over every query of the run."""
    ops = [t for r in reps for t in r["op_ms"]]
    return {"query_p50_ms": (percentile(ops, 50), "ms"),
            "query_p99_ms": (percentile(ops, 99), "ms")}


def measure(workload, seed, seconds, trace):
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    record = run_record(workload, seed, seconds, trace)
    cfg = os.path.join(OUT, "work", f"{workload}.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(workload))

    setups, reps, extra = [], [], {}
    if trace:
        # one untraced and one traced repetition; the ratio is the overhead
        reps.append(spawn(workload, seed, 0, cfg, "plain"))
        traced = spawn(workload, seed, 1, cfg, "traced")
        layers = traced["layers"]
        layers["trace_overhead_frac"] = traced["wall_s"] / reps[0]["wall_s"] - 1
        reps.append(traced)
        metrics = {k: (v, tracer.layer_unit(k)) for k, v in layers.items()}
    else:
        def probe_setup(n):
            for _ in range(n):
                setups.append(spawn(workload, seed, 0, cfg, f"setup{len(setups)}",
                                    setup_only=True)["setup_s"])

        spawn(workload, seed, 0, cfg, "warm", setup_only=True)  # bytecode
        # half the set-up probes before the repetitions and half after, so
        # a passing burst of load on the machine moves few of them
        probe_setup(SETUP_PROBES // 2)
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < seconds:
            reps.append(spawn(workload, seed, 0, cfg, f"rep{len(reps)}"))
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        setups += [r["setup_s"] for r in reps]
        metrics = end_to_end(reps, setups)
        if workload == workloads.QUERY_MIX:
            extra = query_latency(reps)

    digests = {r["digest"] for r in reps if r["digest"] is not None}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # a digest that differs between repetitions of one seed is a failure
    correct = len(digests) <= 1
    if not correct:
        failed = attempted
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "digests": sorted(map(str, digests)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "rows": reps[0].get("rows"),
        "reps": [{k: r.get(k) for k in ("setup_s", "wall_s", "peak_rss_mb",
                                         "attempted", "failed", "digest", "error")}
                 for r in reps],
    })
    name = f"{workload}-s{seed}-t{trace}-{int(record['started'] * 1000)}.json"
    with open(os.path.join(OUT, "runs", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    for f in record["failures"]:
        print(f"failed: {f}")
    print(f"failed_frac {record['failed_frac']:.6g} 1 "
          f"({record['failed']} of {record['attempted']})")
    for k, m in {**record["metrics"], **record["extra"]}.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("RUNS_A", "RUNS_B"))
    args = ap.parse_args(argv)
    if args.compare:
        from perfbench import compare
        compare.main(*args.compare)
        return
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "macwt", "cli.py")):
        raise SystemExit(f"no macwt sources under {os.path.join(ROOT, 'src')}")
    report(measure(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
