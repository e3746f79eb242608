"""Experiment runner CLI.

Subcommands produce deterministic CSV files (UTF-8, ``\\n`` line endings,
12 significant digits) or single-shot policy reports.  The SNR axis is
the dB value of the average power ``(pbar1 + pbar2) / 2``; budgets are
symmetric.  The worker count is the ``MACWT_WORKERS`` environment
variable, which only :mod:`macwt.pool` reads.
"""

from __future__ import annotations

import cmath
import csv
import os
import sys

import click
import numpy as np

from .channel import ChannelState, FadingParams, StateBatch, sba_block_gains
from .config import ConfigError, ExperimentConfig, load_config
from .dof import DOF_KINDS, estimate_dof, gs_cj_upper_bound, sum_rate_curve
from .montecarlo import (CONSTANT, DUAL, ESA, ESA_CJ, GS_CJ, RUDIMENTARY, SBA,
                         _point_seed, ergodic_region, grid_point, scheme_rates)
from .powerctl import (CaseSolverError, DualVars, EffectiveState, _dual_powers,
                       cj_case_label, dual_search, effective_state,
                       esa_cj_kkt_residual)
from .rates import PowerBudget, PowerDecision


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _check_out(path: str) -> None:
    """A usage error if ``path`` is a directory or lies in a missing one,
    before any grid point runs; the file is neither created nor
    truncated here."""
    if os.path.isdir(path):
        raise click.ClickException(f"output CSV {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise click.ClickException(f"output CSV {path}: no directory {parent}")


def _write_csv(path: str, header: list, rows: list) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise click.ClickException(f"output CSV {path}: {exc.strerror}")


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
    fn = click.option("--scheme", "schemes", default=None,
                      help="comma-separated scheme subset")(fn)
    return fn


_snr_db = click.option("--snr-db", default=None,
                       help="comma-separated SNR grid in dB")


def _parse_value(tok, conv, name, pos):
    """One finite value of option ``name``, at 1-based position ``pos``."""
    tok = tok.strip()
    try:
        val = conv(tok)
    except ValueError:
        raise click.ClickException(
            f"{name}: could not parse {tok!r} at position {pos}")
    if not cmath.isfinite(val):
        raise click.ClickException(
            f"{name}: {tok!r} at position {pos} is not finite")
    return val


def _parse_grid(text, name):
    """A comma-separated grid of finite floats (blank entries skipped)."""
    if text is None:
        return None
    return tuple(_parse_value(tok, float, name, i + 1)
                 for i, tok in enumerate(text.split(",")) if tok.strip())


def _parse_schemes(text):
    if text is None:
        return None
    return tuple(v.strip() for v in text.split(",") if v.strip())


@click.group()
def main():
    """Ergodic secrecy-rate experiments for the two-user fading wiretap MAC."""


def _select(command, offered, wanted):
    """The ``offered`` schemes in ``wanted``; none is a usage error."""
    chosen = [s for s in offered if s in wanted]
    if not chosen:
        raise click.ClickException(
            f"--scheme: {command} runs only {', '.join(offered)}")
    return chosen


# Figure variants: (row name, scheme, power-control kind)
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
                snr_db=_parse_grid(snr_db, "--snr-db"),
                schemes=_parse_schemes(schemes))
    chosen = _select(f"figure{tag}", list(dict.fromkeys(
        scheme for _, scheme, _ in variants)), cfg.schemes)
    path = cfg.out or default_out
    _check_out(path)
    rows = []
    for vi, var_g in enumerate((cfg.var_g, cfg.var_g_alt)):
        params = FadingParams.symmetric(cfg.var_h, var_g)
        # si counts every variant, so a --scheme subset keeps its rows' seeds
        for si, (name, scheme, kind) in enumerate(variants):
            if scheme not in chosen:
                continue
            for pi, db in enumerate(cfg.snr_db):
                p = 10.0 ** (db / 10.0)
                point = (cfg.seed, tag, vi, si, pi)
                est, status = grid_point(
                    scheme, kind, params, PowerBudget(p, p), cfg.samples,
                    _point_seed(*point), cfg.dual_samples,
                    _point_seed(*point, 9), cfg.inner_samples,
                    _point_seed(*point, 7), search=dual_search,
                    estimate=ergodic_region)
                rows.append([db, var_g, name, est.rsum, est.rsum_stderr,
                             est.n, status])
    _write_csv(path, ["snr_db", "var_g", "scheme", "rsum_bits", "stderr",
                      "n", "status"], rows)
    click.echo(f"wrote {len(rows)} rows to {path}")


@main.command()
@_snr_db
@_common
def figure1(**opts):
    """Secrecy sum rate vs SNR: rudimentary two-slot policies + baseline."""
    _figure(1, _FIG1_VARIANTS, "figure1.csv", **opts)


@main.command()
@_snr_db
@_common
def figure2(**opts):
    """Secrecy sum rate vs SNR: constant vs KKT power control, with jamming."""
    _figure(2, _FIG2_VARIANTS, "figure2.csv", **opts)


@main.command()
@_common
@click.option("--powers", default="1e3,1e4,1e5,1e6",
              help="comma-separated linear power grid")
def dof(config, seed, samples, out, schemes, powers):
    """Sum-rate scaling: slope of rsum vs log2 P per scheme, and the
    baseline's finite ceiling (value and stderr) when it runs.

    Always runs with unit-variance gains (the scaling setup)."""
    grid = _parse_grid(powers, "--powers")
    # the slope fit needs three points; check before any Monte Carlo runs
    if len(grid) < 3 or grid[0] <= 0 or any(
            b <= a for a, b in zip(grid, grid[1:])):
        raise click.ClickException(
            "--powers: need at least 3 positive, strictly increasing values")
    cfg = _load(config, seed=seed, samples=samples, out=out,
                schemes=_parse_schemes(schemes), var_h=1.0, var_g=1.0)
    params = FadingParams.symmetric(cfg.var_h, cfg.var_g)
    rows = []
    chosen = _select("dof", list(DOF_KINDS), cfg.schemes)
    path = cfg.out or "dof.csv"
    _check_out(path)
    for si, scheme in enumerate(DOF_KINDS):  # seeded by place, as in _figure
        if scheme not in chosen:
            continue
        curve = sum_rate_curve(scheme, params, grid, cfg.samples,
                               _point_seed(cfg.seed, 3, si),
                               dual_n=cfg.dual_samples)
        eta = estimate_dof(curve)
        rows += [[scheme, *point] for point in zip(
            curve.powers, curve.rsum, curve.stderr, curve.n, curve.status)]
        click.echo(f"eta {scheme} {_fmt(eta)}")
        if scheme == GS_CJ:  # tag 4: apart from the curves' (3, si) seeds
            bound = gs_cj_upper_bound(params, cfg.samples,
                                      _point_seed(cfg.seed, 4))
            click.echo(f"ceiling {scheme} {' '.join(map(_fmt, bound))}")
    _write_csv(path, ["scheme", "power", "rsum_bits", "stderr", "n",
                      "status"], rows)
    click.echo(f"wrote {len(rows)} rows to {path}")


# ---------------------------------------------------------------------------
# query: single-shot policy / rate report
# ---------------------------------------------------------------------------

def _parse_values(text, conv, name, counts):
    parts = text.split(",")
    if len(parts) not in counts:
        want = " or ".join(str(c) for c in sorted(counts))
        raise click.ClickException(
            f"{name}: expected {want} comma-separated values, got {len(parts)}")
    return [_parse_value(tok, conv, name, i + 1)
            for i, tok in enumerate(parts)]


def _finite(what, values):
    """``values`` as floats; a usage error if one of them is not finite."""
    values = [float(v) for v in values]
    if not all(np.isfinite(values)):
        raise click.ClickException(
            f"{what} are not finite: {' '.join(_fmt(v) for v in values)}")
    return values


@main.command()
@click.option("--scheme", required=True,
              type=click.Choice([GS_CJ, SBA, ESA, ESA_CJ]))
@click.option("--state", default=None,
              help="complex gains h1,h2,g1,g2 (e.g. '1+0j,1j,0.5,0.5j')")
@click.option("--even", default=None,
              help="even-slot complex gains (two-slot scaled scheme rates)")
@click.option("--effective", default=None,
              help="effective gains 2|h1|^2,2|h2|^2,2|g1|^2,2|g2|^2")
@click.option("--powers", default=None, help="p1,p2 or p1,p2,q1,q2")
@click.option("--duals", default=None, help="lambda1,lambda2")
@np.errstate(all="ignore")  # a value that is not finite is refused instead
def query(scheme, state, even, effective, powers, duals):
    """Report integrands, case branch and stationarity residuals."""
    if (state is None) == (effective is None):
        raise click.ClickException("provide exactly one of --state / --effective")
    if (powers is None) == (duals is None):
        raise click.ClickException("provide exactly one of --powers / --duals")
    if even is not None and (scheme != SBA or powers is None):
        raise click.BadOptionUsage(
            "even", f"--even: only --scheme {SBA} with --powers takes "
            "even-slot gains")
    if state is not None:
        st = ChannelState(*_parse_values(state, complex, "--state", {4}))
        try:
            sq = st.sq()
            eff = effective_state(st) if scheme in (ESA, ESA_CJ) else None
        except (OverflowError, ValueError):  # |z|^2 or 2|z|^2 overflows
            raise click.ClickException("--state: a squared gain overflows")
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
        t = _finite("rates", scheme_rates(scheme, gains, *vals))
        lines.append(f"r1    = {_fmt(t[0])} bits")
        lines.append(f"r2    = {_fmt(t[1])} bits")
        lines.append(f"rsum  = {_fmt(t[2])} bits")
    else:
        l1, l2 = _parse_values(duals, float, "--duals", {2})
        if min(l1, l2) <= 0:
            raise click.ClickException("--duals: values must be positive")
        dv = DualVars(l1, l2)
        if scheme == SBA:
            raise click.ClickException(
                "no dual-variable policy for the two-slot scaled scheme")
        try:
            *p, case = _dual_powers(scheme, np.array(sq)[:, None], l1, l2)
        except (CaseSolverError, ArithmeticError) as exc:
            raise click.ClickException(f"the {scheme} policy failed: {exc}")
        # the scheme without jamming reports its two transmit powers
        p = _finite("powers", [v[0] for v in p[:2 if scheme == ESA else 4]])
        if scheme == ESA:
            lines.append(f"branch    = A.{int(case[0])}")
        elif scheme == ESA_CJ:
            lines.append(f"branch    = {cj_case_label(int(case[0]))}")
        lines.append("powers    = " + " ".join(
            f"{k}={_fmt(v)}" for k, v in zip(("P1", "P2", "Q1", "Q2"), p)))
        if case is not None:
            res = _finite("residuals", esa_cj_kkt_residual(
                eff, PowerDecision(*p), dv)[:len(p)])
            lines.append("residuals = " + " ".join(_fmt(r) for r in res))
    click.echo("\n".join(lines))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
