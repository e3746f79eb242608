"""High-SNR scaling experiments: sum-rate curves, slope estimation and
the dominated-convergence majorants.

The scaling exponent of interest is the limit of the ergodic secrecy sum
rate divided by log P.  Both two-slot aligned schemes reach slope 1/2
(in bits per bit of log2 P); single-slot Gaussian signaling with jamming
saturates at a finite ceiling, estimated here by an indicator-weighted
Monte Carlo integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, FadingParams, SbaBlock, sample_batch
from .montecarlo import ESA, GS_CJ, SBA, ergodic_region
from .powerctl import DualPolicy, dual_search
from .rates import ConstantPolicy, PowerBudget

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SumRateCurve:
    """Ergodic sum-rate samples along a strictly increasing power grid."""

    scheme: str
    params: FadingParams
    powers: tuple        # linear powers, strictly increasing
    rsum: tuple          # ergodic sum-rate estimates (bits)
    stderr: tuple

    def __post_init__(self):
        if len(self.powers) != len(self.rsum) or len(self.rsum) != len(self.stderr):
            raise ValueError("grid/estimate length mismatch")
        p = np.asarray(self.powers)
        if not np.all(np.diff(p) > 0):
            raise ValueError("powers must be strictly increasing")
        if not (np.all(np.isfinite(self.rsum)) and np.all(np.isfinite(self.stderr))):
            raise ValueError("estimates must be finite")


class _ScaledConstantPolicy(ConstantPolicy):
    """Constant powers P/(2 var_g2), P/(2 var_g1) for the two-slot scaled
    scheme's scaling experiment (meets the average power constraints)."""

    def __init__(self, power: float, params: FadingParams):
        super().__init__(power / (2.0 * params.var_g2),
                         power / (2.0 * params.var_g1))


def sum_rate_curve(scheme: str, params: FadingParams, powers, n: int,
                   seed: int, dual_n: int = 20000) -> SumRateCurve:
    """Ergodic sum rate along a (log-spaced) power grid, symmetric budgets.

    Per-point seeds are spawned from ``(seed, point index)`` so points are
    independent and individually reproducible.  The single-slot baseline
    re-solves its dual variables at every grid point (on ``dual_n``
    states) before measuring on ``n`` fresh states.
    """
    powers = tuple(float(p) for p in powers)
    rs = []
    se = []
    for i, p in enumerate(powers):
        if not p > 0:
            raise ValueError("grid powers must be positive")
        point_seed = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
        if scheme == ESA:
            policy = ConstantPolicy(p, p)
        elif scheme == SBA:
            policy = _ScaledConstantPolicy(p, params)
        elif scheme == GS_CJ:
            search = dual_search(params, PowerBudget(p, p), GS_CJ,
                                 dual_n, point_seed ^ 0x5F5F, tol=0.02)
            policy = DualPolicy(GS_CJ, search.duals)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        est = ergodic_region(scheme, policy, params, n, point_seed)
        rs.append(est.mean.rsum)
        se.append(est.stderr.rsum)
    return SumRateCurve(scheme=scheme, params=params, powers=powers,
                        rsum=tuple(rs), stderr=tuple(se))


def estimate_dof(curve: SumRateCurve, window: slice | None = None) -> float:
    """Least-squares slope of rsum (bits) against log2 P over the window.

    Defaults to the top four grid points; the window must keep at least
    three.
    """
    if window is None:
        window = slice(max(0, len(curve.powers) - 4), len(curve.powers))
    x = np.log2(np.asarray(curve.powers[window], dtype=float))
    y = np.asarray(curve.rsum[window], dtype=float)
    if x.size < 3:
        raise ValueError("slope window needs at least 3 points")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Dominated-convergence majorants (base-2; looser than natural-log forms)
# ---------------------------------------------------------------------------

def _l2(x):
    return np.log1p(x) / LOG2


def dominated_bound_sba(block: SbaBlock, params: FadingParams) -> float:
    """Majorant of f_P / log2 P for the scaled two-slot scheme."""
    o, e = block.odd, block.even
    const = 4.0 + 2.0 * (_l2(1.0 / params.var_g1) + _l2(1.0 / params.var_g2)) \
        + _l2((params.var_g1 + params.var_g2) / (params.var_g1 * params.var_g2))
    hsum = sum(_l2(abs(z) ** 2) for z in (o.h1, o.h2, e.h1, e.h2))
    gsum = sum(_l2(abs(z) ** 2) for z in (o.g1, o.g2, e.g1, e.g2))
    return float(const + 3.0 * hsum + 4.0 * gsum)


def dominated_bound_esa(state: ChannelState, params: FadingParams) -> float:
    """Majorant of the repetition scheme's f_P / log2 P."""
    return float(6.0 + _l2(2.0 * state.h1_sq) + _l2(2.0 * state.h2_sq)
                 + _l2(2.0 * (state.g1_sq + state.g2_sq)))


# ---------------------------------------------------------------------------
# Finite sum-rate ceiling for single-slot Gaussian signaling with jamming
# ---------------------------------------------------------------------------

def gs_cj_upper_bound(params: FadingParams, n: int, seed: int) -> tuple:
    """Monte Carlo estimate (value, stderr) of the indicator-weighted bound.

    Both-receivers-strong states contribute the two log-ratio terms; mixed
    states contribute one bit plus the strong user's log-ratio and the
    weak user's inverted ratio.  The both-weak region contributes zero.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h1, h2, g1, g2 = sample_batch(params, n, rng).sq()
    s1 = h1 > g1
    s2 = h2 > g2
    t1 = np.log1p(h1 / g1) / LOG2
    t2 = np.log1p(h2 / g2) / LOG2
    u1 = np.log1p(g1 / h1) / LOG2
    u2 = np.log1p(g2 / h2) / LOG2
    vals = np.where(s1 & s2, t1 + t2,
                    np.where(s1 & ~s2, 1.0 + t1 + u2,
                             np.where(~s1 & s2, 1.0 + t2 + u1, 0.0)))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr
