"""Deterministic sharded Monte Carlo estimation of ergodic rate regions.

Sampling is split into a fixed number of logical shards regardless of how
many workers execute them; per-shard generators are spawned from the
master seed via ``numpy`` ``SeedSequence`` children and partial sums are
reduced in shard order.  Results are therefore byte-identical for any
worker count.

A shard owns its generator, its rows and its partial sums.  A worker
thread evaluates one contiguous run of shards as one batch: the shards
draw into their rows of the run's arrays, one policy call and one pass of
the rate kernels cover the run, and each shard's sums are taken over its
own rows.  The calling thread evaluates the first run and the process's
one worker pool (:mod:`macwt.pool`), its only user, the others.  The
serial path evaluates one shard per call, which bounds the memory the KKT
root solver's scratch holds at any time.
:func:`grid_point` evaluates one experiment point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, StateBatch, sample_batch, sba_block_gains
from .pool import run_all, worker_count
from .powerctl import DualPolicy, RootSolveError, dual_search
from .rates import (ESA, ESA_CJ, GS_CJ, SBA, SCHEMES, ConstantPolicy,
                    PowerBudget, RateTriple, RudimentaryEsaPolicy,
                    RudimentarySbaPolicy, esa_cj_triple, esa_triple,
                    gs_cj_triple, sba_powers, sba_triple)

SHARDS = 16
# moment unit of columns whose sum of squares overflows (an exact power of 2)
_BIG = 2.0 ** 512


def spawn_rngs(seed: int, n: int):
    """Independent generators derived from a master seed (documented split)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean / standard error of a rate triple plus realized powers."""

    mean: RateTriple
    stderr: RateTriple
    n: int
    avg_power: tuple  # realized (E[P1+Q1], E[P2+Q2])
    avg_power_stderr: tuple

    @property
    def region(self) -> RateTriple:
        """Region point: negative ergodic means clamped to zero."""
        return RateTriple(max(self.mean.r1, 0.0), max(self.mean.r2, 0.0),
                          max(self.mean.rsum, 0.0))


def _shard_sizes(n: int) -> list[int]:
    base, rem = divmod(n, SHARDS)
    return [base + (1 if i < rem else 0) for i in range(SHARDS)]


def _shard_runs(workers: int) -> list[range]:
    """The shards each policy call evaluates, in shard order.

    One shard per call on the serial path; with threads, each worker
    takes one contiguous run of about ``SHARDS / workers`` shards."""
    w = SHARDS if workers <= 1 else min(workers, SHARDS)
    return [range(i * SHARDS // w, (i + 1) * SHARDS // w) for i in range(w)]


def scheme_rates(scheme: str, gains, p1, p2, q1, q2):
    """Per-state rate triple ``(r1, r2, rsum)`` of ``scheme`` (bits).

    ``gains`` is ``batch.sq()`` for the single-slot and repetition
    schemes and ``sba_block_gains(odd, even)`` for the two-slot scaled
    scheme; the schemes without jamming ignore ``q1``/``q2``.
    """
    if scheme == SBA:
        return sba_triple(*gains, p1, p2)
    if scheme == ESA:
        return esa_triple(*gains, p1, p2)
    if scheme == ESA_CJ:
        return esa_cj_triple(*gains, p1, p2, q1, q2)
    if scheme == GS_CJ:
        return gs_cj_triple(*gains, p1, p2, q1, q2)
    raise ValueError(f"unknown scheme {scheme!r}")


def _draw(params: FadingParams, bounds, rngs) -> StateBatch:
    """One batch of a run's states: shard ``k`` draws rows
    ``bounds[k]:bounds[k + 1]`` from its own generator, in place."""
    run = StateBatch(*(np.empty(bounds[-1], dtype=complex) for _ in range(4)))
    for k, rng in enumerate(rngs):
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            sample_batch(params, hi - lo, rng, out=StateBatch(
                run.h1[lo:hi], run.h2[lo:hi], run.g1[lo:hi], run.g2[lo:hi]))
    return run


def _eval_run(scheme: str, policy, params: FadingParams, sizes, rngs) -> np.ndarray:
    """Per-shard moments of (r1, r2, rsum, p1+q1, p2+q2) over a run of
    shards with ``sizes`` states, as a (shards, 3, 5) array.

    Row 0 is the shard's sum and row 1 its sum of squares, each over the
    shard's own rows.  Row 2 is the sum of squares in units of
    ``_BIG**2``: ``Σ(x / _BIG)**2`` where row 1 overflowed, else row 1
    rescaled.  The run's states go through one ``decide_batch`` call.
    """
    bounds = np.cumsum([0, *sizes])
    parts = np.zeros((len(sizes), 3, 5))
    if bounds[-1] == 0:
        return parts
    batch = _draw(params, bounds, rngs)
    p1, p2, q1, q2 = policy.decide_batch(batch)
    for arr, name in ((p1, "p1"), (p2, "p2"), (q1, "q1"), (q2, "q2")):
        if not np.all(arr >= 0):  # also rejects NaN
            raise ValueError(f"policy returned negative or NaN {name}")
    if scheme == SBA:  # the even slot is drawn after the policy has decided
        gains = sba_block_gains(batch, _draw(params, bounds, rngs))
    else:
        gains = batch.sq()
    del batch  # a worker's run is large: free its complex gains early
    r1, r2, rsum = scheme_rates(scheme, gains, p1, p2, q1, q2)
    cols = np.stack([r1, r2, rsum, p1 + q1, p2 + q2], axis=1)
    rows = [slice(bounds[k], bounds[k + 1]) for k in range(len(sizes))]
    for k, r in enumerate(rows):
        parts[k, 0] = cols[r].sum(axis=0)
    with np.errstate(over="ignore"):  # handled by row 2
        sq = np.multiply(cols, cols, out=cols)
    for k, r in enumerate(rows):
        parts[k, 1] = sq[r].sum(axis=0)
    parts[:, 2] = parts[:, 1] / _BIG / _BIG
    for k, j in zip(*np.nonzero(np.isinf(parts[:, 1]) & np.isfinite(parts[:, 0]))):
        x = (r1, r2, rsum, p1 + q1, p2 + q2)[j][rows[k]]
        parts[k, 2, j] = np.square(x / _BIG).sum()
    return parts


def ergodic_region(scheme: str, policy, params: FadingParams, n: int,
                   seed: int) -> MonteCarloEstimate:
    """Monte Carlo mean and standard error of the per-state rate triple.

    ``policy`` must provide ``decide_batch(StateBatch)``; for the two-slot
    scaled scheme it sees the odd-slot states only.  Raw (signed) means
    are reported; the clamped region view is
    :attr:`MonteCarloEstimate.region`.

    The ``n`` states always fall into ``SHARDS`` shards.  A shard owns
    its generator, its rows and its ``[sum, sumsq]``, and the shards'
    moments are added in shard order, so the estimate is byte-identical
    for any worker count.  With more than one worker
    (:func:`~macwt.pool.worker_count`), each evaluates one contiguous
    run of shards as one batch: one ``decide_batch`` call and one pass of
    each rate kernel, which keeps both cores busy in numpy rather than in
    per-call overhead under the GIL.  W workers are W threads: the caller
    evaluates the first run and W - 1 threads of the process's shared pool
    (:func:`macwt.pool.run_all`) the others, which keeps one fewer
    thread's malloc arena resident than a caller that only waits.  The
    serial path keeps one call per shard: a run of all 16 shards would
    hold the KKT root solver's scratch (about 1 KB per state) for every
    state at once.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    sizes = _shard_sizes(n)
    rngs = spawn_rngs(seed, SHARDS)

    def run(shards):
        return _eval_run(scheme, policy, params,
                         sizes[shards.start:shards.stop],
                         rngs[shards.start:shards.stop])

    # inline at one worker: a 1-thread pool made figure2 ~20 % slower
    parts = np.concatenate(run_all(run, _shard_runs(worker_count())))
    total = np.zeros((3, 5))
    for part in parts:  # fixed-order reduction
        total = total + part
    s, ss, ss_big = total
    mean = s / n
    # a second moment past the float range (powers above about 1e154) is
    # taken in units of _BIG**2; every finite one keeps its bits
    big = np.isinf(ss) & np.isfinite(mean)
    m, ss = np.where(big, mean / _BIG, mean), np.where(big, ss_big, ss)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite row
        var = np.maximum(ss / n - m * m, 0.0)
    stderr = np.sqrt(var / n) * np.where(big, _BIG, 1.0)
    return MonteCarloEstimate(
        mean=RateTriple(*mean[:3]),
        stderr=RateTriple(*stderr[:3]),
        n=n,
        avg_power=(mean[3], mean[4]),
        avg_power_stderr=(stderr[3], stderr[4]),
    )


# Power-control rules of a grid point and the schemes each has a policy for
CONSTANT, RUDIMENTARY, DUAL = "constant", "rudimentary", "dual"
KIND_SCHEMES = {CONSTANT: SCHEMES, RUDIMENTARY: (SBA, ESA),
                DUAL: (GS_CJ, ESA, ESA_CJ)}
# Dual-search tolerance of every grid point, and the sampling allowance
# (in combined standard errors) of the over-budget fence
DUAL_TOL = 0.02
BUDGET_SIGMAS = 3.0


def _point_seed(seed: int, *tags) -> int:
    """A grid point's seed from the master seed and its integer tags."""
    return int(np.random.SeedSequence((seed,) + tags).generate_state(1)[0])


def grid_point(scheme: str, kind: str, params: FadingParams,
               budget: PowerBudget, n: int, seed: int, dual_n: int,
               dual_seed: int, inner_n: int = 1, inner_seed: int = 0,
               search=None, estimate=None):
    """Ergodic estimate and row status ``(est, status)`` of one point.

    ``kind`` is the power control: ``DUAL`` prices ``scheme``'s dual
    policy by ``dual_search`` on ``dual_n`` states from ``dual_seed``;
    ``RUDIMENTARY`` is on/off at full budget (the two-slot rule's inner
    expectation uses ``inner_n`` states from ``inner_seed``); ``CONSTANT``
    powers meet the budgets; any other pair (:data:`KIND_SCHEMES`) raises
    ``ValueError``.  The estimate uses ``n`` states from ``seed``.  The
    status is ``dual-failed:<reason>`` if the search meets a power that
    is not finite (the estimate is then NaN over 0 states), else
    ``non-finite``, else ``dual-not-converged``, else ``over-budget`` (a
    user's realized power exceeds its budget by more than ``DUAL_TOL``
    plus ``BUDGET_SIGMAS`` combined standard errors of the estimate and
    the search batch), else ``ok``.

    ``search`` and ``estimate`` default to ``dual_search`` and
    :func:`ergodic_region`; a caller passing its own module's names lets
    wrappers set on them (perfbench's figure probe) see each call.
    """
    if scheme not in KIND_SCHEMES.get(kind, ()):
        raise ValueError(f"no {kind!r} power control for scheme {scheme!r}")
    res = None
    if kind == DUAL:
        try:
            res = (search or dual_search)(params, budget, scheme, dual_n,
                                          dual_seed, tol=DUAL_TOL)
        except RootSolveError as exc:
            nan = RateTriple(math.nan, math.nan, math.nan)
            return (MonteCarloEstimate(nan, nan, 0, (math.nan,) * 2,
                                       (math.nan,) * 2), f"dual-failed:{exc}")
        policy = DualPolicy(scheme, res.duals)
    elif kind == RUDIMENTARY and scheme == SBA:
        policy = RudimentarySbaPolicy(budget, params, m_inner=inner_n,
                                      seed=inner_seed)
    elif kind == RUDIMENTARY:
        policy = RudimentaryEsaPolicy(budget)
    elif scheme == SBA:
        policy = ConstantPolicy(*sba_powers(budget, params))
    else:
        policy = ConstantPolicy(budget.pbar1, budget.pbar2)
    est = (estimate or ergodic_region)(scheme, policy, params, n, seed)
    if not (math.isfinite(est.mean.rsum) and math.isfinite(est.stderr.rsum)):
        return est, "non-finite"
    if res is None:
        return est, "ok"
    if not res.converged:
        return est, "dual-not-converged"
    for k, pbar in enumerate((budget.pbar1, budget.pbar2)):
        se = math.hypot(est.avg_power_stderr[k], res.realized_stderr[k])
        if est.avg_power[k] - pbar > DUAL_TOL * pbar + BUDGET_SIGMAS * se:
            return est, "over-budget"
    return est, "ok"
