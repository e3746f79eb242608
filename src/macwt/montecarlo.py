"""Deterministic sharded Monte Carlo estimation of ergodic rate regions.

Sampling is split into a fixed number of logical shards regardless of how
many workers execute them; per-shard generators are spawned from the
master seed via ``numpy`` ``SeedSequence`` children and partial sums are
reduced in shard order.  Results are therefore byte-identical for any
worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, sample_batch, sba_block_gains
from .rates import RateTriple, esa_cj_triple, esa_triple, gs_cj_triple, sba_triple

SHARDS = 16

GS_CJ = "gs_cj"
SBA = "sba"
ESA = "esa"
ESA_CJ = "esa_cj"
SCHEMES = (GS_CJ, SBA, ESA, ESA_CJ)


def spawn_rngs(seed: int, n: int):
    """Independent generators derived from a master seed (documented split)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def worker_count(default: int = 1) -> int:
    """Worker count from the MACWT_WORKERS environment variable."""
    try:
        return max(1, int(os.environ.get("MACWT_WORKERS", default)))
    except ValueError:
        return default


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


def _eval_shard(scheme: str, policy, params: FadingParams, m: int, rng) -> np.ndarray:
    """Returns [sum, sumsq] for (r1, r2, rsum, p1+q1, p2+q2) over m states."""
    if m == 0:
        return np.zeros((2, 5))
    batch = sample_batch(params, m, rng)
    p1, p2, q1, q2 = policy.decide_batch(batch)
    for arr, name in ((p1, "p1"), (p2, "p2"), (q1, "q1"), (q2, "q2")):
        if np.any(arr < 0):
            raise ValueError(f"policy returned negative {name}")
    if scheme == SBA:  # the even slot is drawn after the policy has decided
        gains = sba_block_gains(batch, sample_batch(params, m, rng))
    else:
        gains = batch.sq()
    r1, r2, rsum = scheme_rates(scheme, gains, p1, p2, q1, q2)
    cols = np.stack([r1, r2, rsum, p1 + q1, p2 + q2], axis=1)
    return np.stack([cols.sum(axis=0), (cols * cols).sum(axis=0)])


def ergodic_region(scheme: str, policy, params: FadingParams, n: int,
                   seed: int, workers: int | None = None) -> MonteCarloEstimate:
    """Monte Carlo mean and standard error of the per-state rate triple.

    ``policy`` must provide ``decide_batch(StateBatch)``; for the two-slot
    scaled scheme it sees the odd-slot states only.  Raw (signed) means
    are reported; the clamped region view is
    :attr:`MonteCarloEstimate.region`.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if workers is None:
        workers = worker_count()
    sizes = _shard_sizes(n)
    rngs = spawn_rngs(seed, SHARDS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda im: _eval_shard(scheme, policy, params, im[1], rngs[im[0]]),
                enumerate(sizes)))
    else:
        parts = [_eval_shard(scheme, policy, params, m, rngs[i])
                 for i, m in enumerate(sizes)]
    total = np.zeros((2, 5))
    for part in parts:  # fixed-order reduction
        total = total + part
    s, ss = total[0], total[1]
    mean = s / n
    var = np.maximum(ss / n - mean * mean, 0.0)
    stderr = np.sqrt(var / n)
    return MonteCarloEstimate(
        mean=RateTriple(*mean[:3]),
        stderr=RateTriple(*stderr[:3]),
        n=n,
        avg_power=(mean[3], mean[4]),
        avg_power_stderr=(stderr[3], stderr[4]),
    )
