"""Workload definitions: what each benchmark workload asks ``macwt`` to do.

Inputs depend only on the workload seed.  The figure workloads pass it to
the CLI as ``--seed``; ``query-mix`` uses it to draw its queries.
"""

from __future__ import annotations

import math

import numpy as np

FIGURES = {
    # dual_samples has no CLI flag, so it goes through a config file
    "fig2-kkt": {"command": "figure2", "workers": 1, "rows": 24,
                 "args": ["--snr-db", "0,30,60"],
                 "config": {"dual_samples": 2000}},
    "fig1-mc": {"command": "figure1", "workers": 2, "rows": 42,
                "args": [], "config": {}},
}
QUERY_MIX = "query-mix"
QUERIES = 3000
QUERY_KINDS = ("esa-duals", "esa_cj-duals", "gs_cj-duals", "esa_cj-powers")
WORKLOADS = tuple(FIGURES) + (QUERY_MIX,)


def workers(workload):
    return FIGURES[workload]["workers"] if workload in FIGURES else 1


def config_text(workload):
    cfg = FIGURES.get(workload, {}).get("config", {})
    return "".join(f"{k} = {v}\n" for k, v in sorted(cfg.items()))


def figure_args(workload, seed, config_path, out_path):
    fig = FIGURES[workload]
    return [fig["command"], "--config", config_path, "--seed", str(seed),
            "--out", out_path] + fig["args"]


def _strata(rng, m, k):
    """``m`` x ``k`` uniforms in [0, 1): each column has one value in each
    of ``m`` equal strata, in random order (a Latin hypercube)."""
    return (np.stack([rng.permutation(m) for _ in range(k)], axis=1)
            + rng.uniform(size=(m, k))) / m


def _loguniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def make_queries(seed, n=QUERIES):
    """``n`` query inputs: four kinds in equal shares, half of each kind on
    typical and half on extreme gains and duals, in a seeded order.

    Typical: effective gains exponential with mean 2, duals log-uniform in
    [1e-6, 1].  Extreme: gains log-uniform in [1e-3, 1e3], duals in
    [1e-8, 10].  Rate queries use powers in a single transmit/jam role
    pattern, log-uniform in [1e-2, 1e2] (typical) or [1e-6, 1e6] (extreme).
    Each block of one kind and class is a Latin hypercube sample, so the
    mix, and with it the work, varies little from seed to seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9E)))
    m = n // (2 * len(QUERY_KINDS))
    # roles: both transmit, user 1 transmits / 2 jams, or the mirror
    roles = np.array([[1, 1, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float)
    out = []
    for kind in QUERY_KINDS:
        for extreme in (False, True):
            if extreme:
                gains = _loguniform(_strata(rng, m, 4), 1e-3, 1e3)
                duals = _loguniform(_strata(rng, m, 2), 1e-8, 10.0)
                powers = _loguniform(_strata(rng, m, 4), 1e-6, 1e6)
            else:
                gains = -2.0 * np.log1p(-_strata(rng, m, 4))
                duals = _loguniform(_strata(rng, m, 2), 1e-6, 1.0)
                powers = _loguniform(_strata(rng, m, 4), 1e-2, 1e2)
            powers *= roles[rng.permutation(np.arange(m) % len(roles))]
            phases = rng.uniform(0.0, 2.0 * math.pi, (m, 4))
            for i in range(m):
                out.append(_query(kind, extreme, gains[i], duals[i],
                                  powers[i], phases[i]))
    return [out[i] for i in rng.permutation(len(out))]


def _query(kind, extreme, gains, duals, powers, phases):
    q = {"kind": kind, "extreme": extreme, "gains": gains, "duals": duals,
         "powers": powers}
    if kind == "gs_cj-duals":
        # complex gains whose effective gains 2|x|^2 are the drawn ones
        z = np.sqrt(gains / 2.0) * np.exp(1j * phases)
        q["state"] = z
        args = ["--scheme", "gs_cj", "--state",
                ",".join(f"{float(v.real)!r}{float(v.imag):+.17g}j" for v in z)]
    else:
        args = ["--scheme", kind.split("-")[0], "--effective", _csv(gains)]
    if kind.endswith("powers"):
        args += ["--powers", _csv(powers)]
    else:
        args += ["--duals", _csv(duals)]
    q["args"] = ["query"] + args
    return q
