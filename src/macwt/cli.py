"""Experiment runner CLI.

Subcommands produce deterministic CSV files (UTF-8, ``\\n`` line endings,
12 significant digits) or single-shot policy reports.  The SNR axis is
the dB value of the average power ``(pbar1 + pbar2) / 2``; budgets are
symmetric.  Worker count is read from the ``MACWT_WORKERS`` environment
variable.
"""

from __future__ import annotations

import csv
import math
import sys

import click
import numpy as np

from .channel import ChannelState, FadingParams, StateBatch, sba_block_gains
from .config import ConfigError, ExperimentConfig, load_config
from .dof import estimate_dof, sum_rate_curve
from .montecarlo import (ESA, ESA_CJ, GS_CJ, SBA, ergodic_region,
                         scheme_rates)
from .powerctl import (DualPolicy, DualVars, EffectiveState, RootSolveError,
                       cj_case_label, dual_search, effective_state,
                       esa_cj_kkt_residual, esa_cj_policy_batch,
                       esa_kkt_residual, esa_policy_batch,
                       gs_cj_baseline_batch)
from .rates import (ConstantPolicy, PowerBudget, PowerDecision,
                    RudimentaryEsaPolicy, RudimentarySbaPolicy)


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _point_seed(seed: int, *tags) -> int:
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def _load(config, **overrides) -> ExperimentConfig:
    try:
        return load_config(config, **overrides)
    except (ConfigError, OSError) as exc:
        raise click.ClickException(str(exc))


def _common(fn):
    fn = click.option("--config", type=click.Path(exists=True), default=None,
                      help="key=value config file (flags override it)")(fn)
    fn = click.option("--seed", type=int, default=None, help="master seed")(fn)
    fn = click.option("--samples", type=int, default=None,
                      help="Monte Carlo samples per grid point")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="output CSV path")(fn)
    fn = click.option("--snr-db", default=None,
                      help="comma-separated SNR grid in dB")(fn)
    fn = click.option("--scheme", "schemes", default=None,
                      help="comma-separated scheme subset")(fn)
    return fn


def _parse_grid(text):
    if text is None:
        return None
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_schemes(text):
    if text is None:
        return None
    return tuple(v.strip() for v in text.split(",") if v.strip())


@click.group()
def main():
    """Ergodic secrecy-rate experiments for the two-user fading wiretap MAC."""


# Figure variants: (row name, scheme, policy kind)
CONSTANT, RUDIMENTARY, DUAL = "constant", "rudimentary", "dual"
_FIG1_VARIANTS = (
    (SBA, SBA, RUDIMENTARY),
    (ESA, ESA, RUDIMENTARY),
    (GS_CJ, GS_CJ, DUAL),
)
_FIG2_VARIANTS = (
    ("esa_const", ESA, CONSTANT),
    ("esa_kkt", ESA, DUAL),
    ("esa_cj_kkt", ESA_CJ, DUAL),
    ("gs_cj", GS_CJ, DUAL),
)


def _figure(tag, variants, default_out, config, seed, samples, out, snr_db,
            schemes):
    """Secrecy sum rate per (var_g, variant, SNR) grid point, one CSV row
    each.  ``tag`` keeps the two figures' point seeds apart."""
    cfg = _load(config, seed=seed, samples=samples, out=out,
                snr_db=_parse_grid(snr_db), schemes=_parse_schemes(schemes))
    variants = [v for v in variants if v[1] in cfg.schemes]
    rows = []
    for vi, var_g in enumerate((cfg.var_g, cfg.var_g_alt)):
        params = FadingParams.symmetric(cfg.var_h, var_g)
        for si, (name, scheme, kind) in enumerate(variants):
            for pi, db in enumerate(cfg.snr_db):
                p = 10.0 ** (db / 10.0)
                budget = PowerBudget(p, p)
                point = (cfg.seed, tag, vi, si, pi)
                status = "ok"
                if kind == CONSTANT:
                    policy = ConstantPolicy(p, p)
                elif kind == RUDIMENTARY and scheme == SBA:
                    policy = RudimentarySbaPolicy(
                        budget, params, m_inner=cfg.inner_samples,
                        seed=_point_seed(*point, 7))
                elif kind == RUDIMENTARY:
                    policy = RudimentaryEsaPolicy(budget)
                else:
                    try:
                        search = dual_search(params, budget, scheme,
                                             cfg.dual_samples,
                                             _point_seed(*point, 9), tol=0.02)
                    except RootSolveError as exc:
                        rows.append([db, var_g, name, float("nan"),
                                     float("nan"), 0, f"dual-failed:{exc}"])
                        continue
                    if not search.converged:
                        status = "dual-not-converged"
                    policy = DualPolicy(scheme, search.duals)
                est = ergodic_region(scheme, policy, params, cfg.samples,
                                     _point_seed(*point))
                if not (math.isfinite(est.mean.rsum)
                        and math.isfinite(est.stderr.rsum)):
                    status = "non-finite"
                rows.append([db, var_g, name, est.mean.rsum,
                             est.stderr.rsum, est.n, status])
    path = cfg.out or default_out
    _write_csv(path, ["snr_db", "var_g", "scheme", "rsum_bits", "stderr",
                      "n", "status"], rows)
    click.echo(f"wrote {len(rows)} rows to {path}")


@main.command()
@_common
def figure1(**opts):
    """Secrecy sum rate vs SNR: rudimentary two-slot policies + baseline."""
    _figure(1, _FIG1_VARIANTS, "figure1.csv", **opts)


@main.command()
@_common
def figure2(**opts):
    """Secrecy sum rate vs SNR: constant vs KKT power control, with jamming."""
    _figure(2, _FIG2_VARIANTS, "figure2.csv", **opts)


@main.command()
@_common
@click.option("--powers", default="1e3,1e4,1e5,1e6",
              help="comma-separated linear power grid")
def dof(config, seed, samples, out, snr_db, schemes, powers):
    """Sum-rate scaling: slope of rsum vs log2 P per scheme.

    Always runs with unit-variance gains (the scaling setup)."""
    del snr_db  # the scaling grid is linear powers, not dB
    cfg = _load(config, seed=seed, samples=samples, out=out,
                schemes=_parse_schemes(schemes), var_h=1.0, var_g=1.0)
    grid = _parse_grid(powers)
    params = FadingParams.symmetric(cfg.var_h, cfg.var_g)
    wanted = [s for s in (SBA, ESA, GS_CJ) if s in cfg.schemes]
    rows = []
    for si, scheme in enumerate(wanted):
        curve = sum_rate_curve(scheme, params, grid, cfg.samples,
                               _point_seed(cfg.seed, 3, si),
                               dual_n=cfg.dual_samples)
        eta = estimate_dof(curve)
        for p, r, se in zip(curve.powers, curve.rsum, curve.stderr):
            rows.append([scheme, p, r, se, cfg.samples, "ok"])
        click.echo(f"eta {scheme} {_fmt(eta)}")
    path = cfg.out or "dof.csv"
    _write_csv(path, ["scheme", "power", "rsum_bits", "stderr", "n",
                      "status"], rows)
    click.echo(f"wrote {len(rows)} rows to {path}")


# ---------------------------------------------------------------------------
# query: single-shot policy / rate report
# ---------------------------------------------------------------------------

def _column(values):
    """Length-1 arrays, one per value: a single state as a batch."""
    return [np.array([v]) for v in values]


def _parse_values(text, conv, name, counts):
    parts = text.split(",")
    if len(parts) not in counts:
        want = " or ".join(str(c) for c in sorted(counts))
        raise click.ClickException(
            f"{name}: expected {want} comma-separated values, got {len(parts)}")
    vals = []
    for i, tok in enumerate(parts):
        tok = tok.strip()
        try:
            vals.append(conv(tok))
        except ValueError:
            raise click.ClickException(
                f"{name}: could not parse {tok!r} at position {i + 1}")
    return vals


@main.command()
@click.option("--scheme", required=True,
              type=click.Choice([GS_CJ, SBA, ESA, ESA_CJ]))
@click.option("--state", default=None,
              help="complex gains h1,h2,g1,g2 (e.g. '1+0j,1j,0.5,0.5j')")
@click.option("--even", default=None,
              help="even-slot complex gains for the two-slot scaled scheme")
@click.option("--effective", default=None,
              help="effective gains 2|h1|^2,2|h2|^2,2|g1|^2,2|g2|^2")
@click.option("--powers", default=None, help="p1,p2 or p1,p2,q1,q2")
@click.option("--duals", default=None, help="lambda1,lambda2")
def query(scheme, state, even, effective, powers, duals):
    """Report integrands, case branch and stationarity residuals."""
    if (state is None) == (effective is None):
        raise click.ClickException("provide exactly one of --state / --effective")
    if (powers is None) == (duals is None):
        raise click.ClickException("provide exactly one of --powers / --duals")
    eff = None
    if state is not None:
        st = ChannelState(*_parse_values(state, complex, "--state", {4}))
        sq = (st.h1_sq, st.h2_sq, st.g1_sq, st.g2_sq)
        if scheme in (ESA, ESA_CJ):
            eff = effective_state(st)
    else:
        vals = _parse_values(effective, float, "--effective", {4})
        if min(vals) < 0:
            raise click.ClickException("--effective: gains must be nonnegative")
        eff = EffectiveState(*vals)
        sq = tuple(v / 2 for v in vals)
        if scheme in (GS_CJ, SBA):
            raise click.ClickException(
                f"--effective is only meaningful for {ESA}/{ESA_CJ}")

    lines = []
    if powers is not None:
        counts = {2, 4} if scheme in (GS_CJ, ESA_CJ) else {2}
        vals = _parse_values(powers, float, "--powers", counts)
        if min(vals) < 0:
            raise click.ClickException("--powers: values must be nonnegative")
        if len(vals) == 2:
            vals += [0.0, 0.0]
        gains = sq
        if scheme == SBA:
            if even is None:
                raise click.ClickException(
                    "the two-slot scaled scheme needs --even")
            ev = ChannelState(*_parse_values(even, complex, "--even", {4}))
            gains = [float(a[0]) for a in
                     sba_block_gains(StateBatch.of(st), StateBatch.of(ev))]
        t = [float(v) for v in scheme_rates(scheme, gains, *vals)]
        lines.append(f"r1    = {_fmt(t[0])} bits")
        lines.append(f"r2    = {_fmt(t[1])} bits")
        lines.append(f"rsum  = {_fmt(t[2])} bits")
    else:
        l1, l2 = _parse_values(duals, float, "--duals", {2})
        if min(l1, l2) <= 0:
            raise click.ClickException("--duals: values must be positive")
        dv = DualVars(l1, l2)
        res = ()
        if scheme in (ESA, ESA_CJ):
            one = _column((eff.h1, eff.h2, eff.g1, eff.g2))
        if scheme == ESA:
            *p, case = esa_policy_batch(*one, l1, l2)
            p = [float(v[0]) for v in p]
            lines.append(f"branch    = A.{int(case[0])}")
            res = esa_kkt_residual(eff, *p, dv)
        elif scheme == ESA_CJ:
            *p, case = esa_cj_policy_batch(*one, l1, l2)
            p = [float(v[0]) for v in p]
            lines.append(f"branch    = {cj_case_label(int(case[0]))}")
            res = esa_cj_kkt_residual(eff, PowerDecision(*p), dv)
        elif scheme == GS_CJ:
            p = [float(v[0])
                 for v in gs_cj_baseline_batch(*_column(sq), l1, l2)]
        else:
            raise click.ClickException(
                "no dual-variable policy for the two-slot scaled scheme")
        lines.append("powers    = " + " ".join(
            f"{k}={_fmt(v)}" for k, v in zip(("P1", "P2", "Q1", "Q2"), p)))
        if res:
            lines.append("residuals = " + " ".join(_fmt(r) for r in res))
    click.echo("\n".join(lines))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
