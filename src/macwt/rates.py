"""Instantaneous secrecy-rate integrands for the four transmission schemes.

Every function here returns the *integrand* (no expectation); the half
prefactor from code repetition is included for the two-slot schemes but
not for single-slot Gaussian signaling with jamming.  All rates are in
bits per channel use (base-2 logs); integrands may be negative.

The ``*_triple`` functions are the vectorized kernels operating on squared
magnitudes; :func:`macwt.montecarlo.scheme_rates` picks the kernel of a
scheme.  The policy classes map a batch of states to per-state powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, StateBatch, sample_batch, sba_block_gains

LOG2 = math.log(2.0)
SBA_CHUNK = 4096  # odd-slot states per block of the two-slot inner expectation


def _log2p1(x):
    return np.log1p(x) / LOG2


@dataclass(frozen=True)
class PowerDecision:
    """Per-state transmit (P) and jamming (Q) powers, linear scale."""

    p1: float
    p2: float
    q1: float = 0.0
    q2: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "q1", "q2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class RateTriple:
    """Instantaneous bounds on R1, R2 and R1+R2 (bits/channel use)."""

    r1: float
    r2: float
    rsum: float


@dataclass(frozen=True)
class PowerBudget:
    """Average power constraints (pbar1, pbar2)."""

    pbar1: float
    pbar2: float

    def __post_init__(self):
        if self.pbar1 < 0 or self.pbar2 < 0:
            raise ValueError("power budgets must be nonnegative")


# ---------------------------------------------------------------------------
# Vectorized integrand kernels (inputs are squared magnitudes / power arrays)
# ---------------------------------------------------------------------------

def gs_cj_triple(h1, h2, g1, g2, p1, p2, q1, q2):
    """Gaussian signaling with cooperative jamming, single slot, no 1/2 factor."""
    dy = 1.0 + h1 * q1 + h2 * q2
    r1 = _log2p1(h1 * p1 / dy) - _log2p1(g1 * p1 / (1.0 + g1 * q1 + g2 * (p2 + q2)))
    r2 = _log2p1(h2 * p2 / dy) - _log2p1(g2 * p2 / (1.0 + g1 * (p1 + q1) + g2 * q2))
    rsum = _log2p1((h1 * p1 + h2 * p2) / dy) \
        - _log2p1((g1 * p1 + g2 * p2) / (1.0 + g1 * q1 + g2 * q2))
    return r1, r2, rsum


def sba_triple(A1, A2, C, Dsq, p1, p2):
    """Scaled two-slot alignment: A1/A2 are the per-user receiver gains,
    C the common eavesdropper gain, Dsq the squared receiver determinant."""
    r1 = 0.5 * (_log2p1(A1 * p1) - _log2p1(C * p1 / (1.0 + C * p2)))
    r2 = 0.5 * (_log2p1(A2 * p2) - _log2p1(C * p2 / (1.0 + C * p1)))
    rsum = 0.5 * (_log2p1(A1 * p1 + A2 * p2 + Dsq * p1 * p2)
                  - _log2p1(C * (p1 + p2)))
    return r1, r2, rsum


def esa_triple(h1, h2, g1, g2, p1, p2):
    """Repetition at the matched partner state (orthogonal receiver MAC)."""
    r1 = 0.5 * (_log2p1(2.0 * h1 * p1)
                - _log2p1(2.0 * g1 * p1 / (1.0 + 2.0 * g2 * p2)))
    r2 = 0.5 * (_log2p1(2.0 * h2 * p2)
                - _log2p1(2.0 * g2 * p2 / (1.0 + 2.0 * g1 * p1)))
    rsum = 0.5 * (_log2p1(2.0 * h1 * p1) + _log2p1(2.0 * h2 * p2)
                  - _log2p1(2.0 * (g1 * p1 + g2 * p2)))
    return r1, r2, rsum


def esa_general_triple(h1, h2, g1, g2, theta, omega, p1, p2):
    """General rotated repetition; reduces to :func:`esa_triple` at
    theta=pi, omega=0."""
    ct = 2.0 * (1.0 - np.cos(theta)) * h1 * h2 * p1 * p2
    cw = 2.0 * (1.0 - np.cos(omega)) * g1 * g2 * p1 * p2
    r1 = 0.5 * (_log2p1(2.0 * h1 * p1)
                - _log2p1((2.0 * g1 * p1 + cw) / (1.0 + 2.0 * g2 * p2)))
    r2 = 0.5 * (_log2p1(2.0 * h2 * p2)
                - _log2p1((2.0 * g2 * p2 + cw) / (1.0 + 2.0 * g1 * p1)))
    rsum = 0.5 * (_log2p1(2.0 * h1 * p1 + 2.0 * h2 * p2 + ct)
                  - _log2p1(2.0 * g1 * p1 + 2.0 * g2 * p2 + cw))
    return r1, r2, rsum


def esa_cj_triple(h1, h2, g1, g2, p1, p2, q1, q2):
    """Partner-state repetition with cooperative jamming."""
    r1 = 0.5 * (_log2p1(2.0 * h1 * p1 / (1.0 + 2.0 * h1 * q1))
                - _log2p1(2.0 * g1 * p1
                          / (1.0 + 2.0 * g1 * q1 + 2.0 * g2 * (p2 + q2))))
    r2 = 0.5 * (_log2p1(2.0 * h2 * p2 / (1.0 + 2.0 * h2 * q2))
                - _log2p1(2.0 * g2 * p2
                          / (1.0 + 2.0 * g1 * (p1 + q1) + 2.0 * g2 * q2)))
    rsum = 0.5 * (_log2p1(2.0 * h1 * p1 / (1.0 + 2.0 * h1 * q1))
                  + _log2p1(2.0 * h2 * p2 / (1.0 + 2.0 * h2 * q2))
                  - _log2p1(2.0 * (g1 * p1 + g2 * p2)
                            / (1.0 + 2.0 * (g1 * q1 + g2 * q2))))
    return r1, r2, rsum


# Batched policy objects used by the Monte Carlo engine.  Each policy maps
# a batch of states to per-state power arrays; all are deterministic given
# their construction arguments, so sharded evaluation stays reproducible.

class ConstantPolicy:
    """Fixed powers for every state."""

    def __init__(self, p1: float, p2: float, q1: float = 0.0, q2: float = 0.0):
        self.decision = PowerDecision(p1, p2, q1, q2)

    def decide_batch(self, batch: StateBatch):
        n = len(batch)
        d = self.decision
        return (np.full(n, d.p1), np.full(n, d.p2),
                np.full(n, d.q1), np.full(n, d.q2))


class RudimentaryEsaPolicy:
    """On/off at full budget based on the sign of the sum-rate integrand."""

    def __init__(self, budget: PowerBudget):
        self.budget = budget

    def decide_batch(self, batch: StateBatch):
        h1, h2, g1, g2 = batch.sq()
        _, _, rsum = esa_triple(h1, h2, g1, g2, self.budget.pbar1, self.budget.pbar2)
        on = rsum >= 0.0
        return (np.where(on, self.budget.pbar1, 0.0),
                np.where(on, self.budget.pbar2, 0.0),
                np.zeros(len(batch)), np.zeros(len(batch)))


class RudimentarySbaPolicy:
    """On/off from the inner even-slot expectation, with candidate powers
    scaled by the eavesdropper variances.

    The inner even-slot sample is drawn once from ``seed`` and shared by
    every call (common random numbers), so sharded outer evaluation does
    not change the decisions.
    """

    def __init__(self, budget: PowerBudget, params: FadingParams,
                 m_inner: int = 1000, seed: int = 0):
        if m_inner < 1:
            raise ValueError("m_inner must be >= 1")
        self.budget = budget
        self.params = params
        self.m_inner = m_inner
        self.p1 = budget.pbar1 / (2.0 * params.var_g2)
        self.p2 = budget.pbar2 / (2.0 * params.var_g1)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._inner = sample_batch(params, m_inner, rng)

    def decide_batch(self, batch: StateBatch):
        n = len(batch)
        on = np.empty(n, dtype=bool)
        ev = self._inner
        for lo in range(0, n, SBA_CHUNK):
            hi = min(lo + SBA_CHUNK, n)
            odd = StateBatch(h1=batch.h1[lo:hi, None], h2=batch.h2[lo:hi, None],
                             g1=batch.g1[lo:hi, None], g2=batch.g2[lo:hi, None])
            even = StateBatch(h1=ev.h1[None, :], h2=ev.h2[None, :],
                              g1=ev.g1[None, :], g2=ev.g2[None, :])
            A1, A2, C, Dsq = sba_block_gains(odd, even)
            _, _, rsum = sba_triple(A1, A2, C, Dsq, self.p1, self.p2)
            on[lo:hi] = rsum.mean(axis=1) >= 0.0
        return (np.where(on, self.p1, 0.0), np.where(on, self.p2, 0.0),
                np.zeros(n), np.zeros(n))
