"""High-SNR scaling experiments: sum-rate curves, slope estimation and
the single-slot baseline's finite ceiling.

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

from .channel import FadingParams, sample_gains
from .montecarlo import (CONSTANT, DUAL, ESA, GS_CJ, SBA, _point_seed,
                         grid_point)
from .rates import PowerBudget, _log2p1 as _l2

# Power control of each scheme on the scaling grid, in output order
DOF_KINDS = {SBA: CONSTANT, ESA: CONSTANT, GS_CJ: DUAL}


@dataclass(frozen=True)
class SumRateCurve:
    """Ergodic sum-rate samples along a strictly increasing power grid."""

    scheme: str
    params: FadingParams
    powers: tuple        # linear powers, strictly increasing
    rsum: tuple          # ergodic sum-rate estimates (bits)
    stderr: tuple
    status: tuple = None  # per point: its row status (None: all "ok")
    n: tuple = None       # per point: states in its estimate (None: not kept)

    def __post_init__(self):
        if self.status is None:
            object.__setattr__(self, "status", ("ok",) * len(self.powers))
        if not (len(self.powers) == len(self.rsum) == len(self.stderr)
                == len(self.status)):
            raise ValueError("grid/estimate length mismatch")
        p = np.asarray(self.powers)
        if not np.all(np.diff(p) > 0):
            raise ValueError("powers must be strictly increasing")
        ok = np.asarray(self.status) == "ok"
        if not np.all(np.isfinite(np.asarray([self.rsum, self.stderr])[:, ok])):
            raise ValueError("estimates of ok points must be finite")


def sum_rate_curve(scheme: str, params: FadingParams, powers, n: int,
                   seed: int, dual_n: int = 20000) -> SumRateCurve:
    """Ergodic sum rate along a (log-spaced) power grid, symmetric budgets.

    Each scheme runs the power control ``DOF_KINDS`` gives it, through
    :func:`~macwt.montecarlo.grid_point`.  Per-point seeds are spawned
    from ``(seed, point index)`` so points are independent and
    individually reproducible.  The single-slot baseline re-solves its
    dual variables at every grid point (on ``dual_n`` states) before
    measuring on ``n`` fresh states.  Each point's row status and state
    count are carried in :attr:`SumRateCurve.status` and
    :attr:`SumRateCurve.n`; a failed point is kept with a NaN estimate.
    """
    if scheme not in DOF_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    powers = tuple(float(p) for p in powers)
    if not (all(p > 0 for p in powers) and np.all(np.diff(powers) > 0)):
        raise ValueError("powers must be positive and strictly increasing")
    points = []
    for i, p in enumerate(powers):
        point_seed = _point_seed(seed, i)
        points.append(grid_point(scheme, DOF_KINDS[scheme], params,
                                 PowerBudget(p, p), n, point_seed, dual_n,
                                 point_seed ^ 0x5F5F))
    return SumRateCurve(scheme=scheme, params=params, powers=powers,
                        rsum=tuple(est.rsum for est, _ in points),
                        stderr=tuple(est.rsum_stderr for est, _ in points),
                        status=tuple(status for _, status in points),
                        n=tuple(est.n for est, _ in points))


def estimate_dof(curve: SumRateCurve, window: slice | None = None) -> float:
    """Least-squares slope of rsum (bits) against log2 P over the window.

    Defaults to the top four grid points; the window must keep at least
    three.  NaN if an estimate in the window is not finite.
    """
    if window is None:
        window = slice(max(0, len(curve.powers) - 4), len(curve.powers))
    x = np.log2(np.asarray(curve.powers[window], dtype=float))
    y = np.asarray(curve.rsum[window], dtype=float)
    if x.size < 3:
        raise ValueError("slope window needs at least 3 points")
    if not np.all(np.isfinite(y)):
        return math.nan
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


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
    h1, h2, g1, g2 = sample_gains(params, n, rng).sq()
    s1 = h1 > g1
    s2 = h2 > g2
    t1, t2, u1, u2 = _l2(h1 / g1), _l2(h2 / g2), _l2(g1 / h1), _l2(g2 / h2)
    vals = np.where(s1 & s2, t1 + t2,
                    np.where(s1 & ~s2, 1.0 + t1 + u2,
                             np.where(~s1 & s2, 1.0 + t2 + u1, 0.0)))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr
