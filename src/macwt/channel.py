"""Fading channel model: state sampling, two-slot scaled blocks, partner states.

All channel coefficients are circularly symmetric complex Gaussians; the
squared magnitudes are therefore exponential with mean equal to the
coefficient variance.  Batched sampling returns plain complex ndarrays so
that downstream rate evaluations stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FadingParams:
    """Variances of the four complex channel gains."""

    var_h1: float
    var_h2: float
    var_g1: float
    var_g2: float

    def __post_init__(self):
        for name in ("var_h1", "var_h2", "var_g1", "var_g2"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a positive finite real, got {v}")

    @classmethod
    def symmetric(cls, var_h: float, var_g: float) -> "FadingParams":
        return cls(var_h, var_h, var_g, var_g)


@dataclass(frozen=True)
class ChannelState:
    """One fading realization: complex gains to the receiver (h) and eavesdropper (g)."""

    h1: complex
    h2: complex
    g1: complex
    g2: complex

    @property
    def h1_sq(self) -> float:
        return abs(self.h1) ** 2

    @property
    def h2_sq(self) -> float:
        return abs(self.h2) ** 2

    @property
    def g1_sq(self) -> float:
        return abs(self.g1) ** 2

    @property
    def g2_sq(self) -> float:
        return abs(self.g2) ** 2


@dataclass
class StateBatch:
    """Vectorized collection of channel states (complex gain arrays)."""

    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def __len__(self) -> int:
        return self.h1.shape[0]

    def sq(self):
        """Squared-magnitude arrays (|h1|^2, |h2|^2, |g1|^2, |g2|^2)."""
        return (
            np.abs(self.h1) ** 2,
            np.abs(self.h2) ** 2,
            np.abs(self.g1) ** 2,
            np.abs(self.g2) ** 2,
        )

    def state(self, i: int) -> ChannelState:
        return ChannelState(
            complex(self.h1[i]), complex(self.h2[i]),
            complex(self.g1[i]), complex(self.g2[i]),
        )

    @classmethod
    def of(cls, *states: ChannelState) -> "StateBatch":
        """Batch of the given states, in order (the inverse of :meth:`state`)."""
        return cls(*(np.array([getattr(s, k) for s in states], dtype=complex)
                     for k in ("h1", "h2", "g1", "g2")))


def _complex_gaussian(rng: np.random.Generator, var: float, n: int) -> np.ndarray:
    # real/imag each N(0, var/2) -> circularly symmetric, E|x|^2 = var
    scale = math.sqrt(var / 2.0)
    return rng.normal(0.0, scale, n) + 1j * rng.normal(0.0, scale, n)


def sample_batch(params: FadingParams, n: int, rng: np.random.Generator) -> StateBatch:
    """Draw ``n`` independent channel states."""
    return StateBatch(
        h1=_complex_gaussian(rng, params.var_h1, n),
        h2=_complex_gaussian(rng, params.var_h2, n),
        g1=_complex_gaussian(rng, params.var_g1, n),
        g2=_complex_gaussian(rng, params.var_g2, n),
    )


# ---------------------------------------------------------------------------
# Scaled two-slot (odd/even) block construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SbaBlock:
    """Two consecutive slots with cross-scaled gains.

    Each user scales its input by the other user's eavesdropper gain, so
    the effective receiver gains are products ``h_k * g_j`` while both
    eavesdropper rows collapse to ``g1 * g2`` -- the eavesdropper's 2x2
    channel matrix has identical columns and is exactly rank one.
    """

    odd: ChannelState
    even: ChannelState

    @property
    def a1(self) -> complex:
        return self.odd.h1 * self.odd.g2

    @property
    def a2(self) -> complex:
        return self.odd.h2 * self.odd.g1

    @property
    def b1(self) -> complex:
        return self.even.h1 * self.even.g2

    @property
    def b2(self) -> complex:
        return self.even.h2 * self.even.g1

    @property
    def c(self) -> complex:
        return self.odd.g1 * self.odd.g2

    @property
    def d(self) -> complex:
        return self.even.g1 * self.even.g2

    @property
    def det(self) -> complex:
        o, e = self.odd, self.even
        return e.h1 * o.h2 * o.g1 * e.g2 - o.h1 * e.h2 * e.g1 * o.g2

    def eavesdropper_matrix(self) -> np.ndarray:
        """The (rank-1) two-slot eavesdropper channel matrix [[c, c], [d, d]]."""
        return np.array([[self.c, self.c], [self.d, self.d]])


def sba_block_gains(odd: StateBatch, even: StateBatch):
    """Batched derived gains for two-slot blocks.

    Returns ``(A1, A2, C, Dsq)`` where ``A1 = |h1o*g2o|^2 + |h1e*g2e|^2``,
    ``A2`` is the user-2 analogue, ``C = |g1o*g2o|^2 + |g1e*g2e|^2`` and
    ``Dsq`` is the squared magnitude of the 2x2 receiver determinant.
    """
    a1 = odd.h1 * odd.g2
    a2 = odd.h2 * odd.g1
    b1 = even.h1 * even.g2
    b2 = even.h2 * even.g1
    c = odd.g1 * odd.g2
    d = even.g1 * even.g2
    det = even.h1 * odd.h2 * odd.g1 * even.g2 - odd.h1 * even.h2 * even.g1 * odd.g2
    A1 = np.abs(a1) ** 2 + np.abs(b1) ** 2
    A2 = np.abs(a2) ** 2 + np.abs(b2) ** 2
    C = np.abs(c) ** 2 + np.abs(d) ** 2
    Dsq = np.abs(det) ** 2
    return A1, A2, C, Dsq


# ---------------------------------------------------------------------------
# Partner-state algebra for repetition at a matched later instant
# ---------------------------------------------------------------------------

def esa_partner(state: ChannelState) -> ChannelState:
    """Partner state for code repetition: receiver vector sign-flipped on h2.

    Repeating at the partner state makes the two-slot receiver MAC
    orthogonal while the eavesdropper sees the same vector twice.  The
    map is an involution and leaves the eavesdropper gains untouched.
    """
    return ChannelState(state.h1, -state.h2, state.g1, state.g2)


def simulate_repetition(state: ChannelState, x1: complex, x2: complex,
                        noise: tuple) -> tuple:
    """Transmit (x1, x2) at ``state`` and again at its partner state.

    ``noise`` holds the four receiver/eavesdropper noise draws
    ``(n1, n2, n1p, n2p)`` for the two slots.  Returns the sum/difference
    combined observations ``(ybar1, ybar2, zbar1, zbar2)`` which satisfy

        ybar1 = 2*h1*x1 + n1 + n2
        ybar2 = 2*h2*x2 + n1 - n2
        zbar1 = 2*g1*x1 + 2*g2*x2 + n1p + n2p
        zbar2 = n1p - n2p

    i.e. an orthogonal receiver MAC and a single useful eavesdropper
    observation.
    """
    n1, n2, n1p, n2p = noise
    partner = esa_partner(state)
    y1 = state.h1 * x1 + state.h2 * x2 + n1
    y2 = partner.h1 * x1 + partner.h2 * x2 + n2
    z1 = state.g1 * x1 + state.g2 * x2 + n1p
    z2 = partner.g1 * x1 + partner.g2 * x2 + n2p
    return (y1 + y2, y1 - y2, z1 + z2, z1 - z2)


# ---------------------------------------------------------------------------
# Quantized alphabet and the greedy ergodic pairing demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizedState:
    """Per-gain (magnitude bin, phase bin) indices for the four gains."""

    h1: tuple
    h2: tuple
    g1: tuple
    g2: tuple

    def key(self) -> tuple:
        return (self.h1, self.h2, self.g1, self.g2)


def _quantize_gain(z: complex, mag_bins: int, phase_bins: int, mag_cap: float):
    mag = abs(z)
    mb = min(int(mag / mag_cap * mag_bins), mag_bins - 1)  # overflow -> top bin
    phase = math.atan2(z.imag, z.real) % (2.0 * math.pi)
    pb = int(phase / (2.0 * math.pi) * phase_bins)
    pb = min(pb, phase_bins - 1)  # guard phase == 2*pi after rounding
    return (mb, pb)


def quantize(state: ChannelState, mag_bins: int, phase_bins: int,
             mag_cap: float) -> QuantizedState:
    """Uniformly bin magnitude on [0, mag_cap] (clamped) and phase on [0, 2pi)."""
    if mag_bins < 1 or phase_bins < 1:
        raise ValueError("mag_bins and phase_bins must be >= 1")
    if not mag_cap > 0:
        raise ValueError("mag_cap must be positive")
    return QuantizedState(
        h1=_quantize_gain(state.h1, mag_bins, phase_bins, mag_cap),
        h2=_quantize_gain(state.h2, mag_bins, phase_bins, mag_cap),
        g1=_quantize_gain(state.g1, mag_bins, phase_bins, mag_cap),
        g2=_quantize_gain(state.g2, mag_bins, phase_bins, mag_cap),
    )


def _partner_key(q: QuantizedState, phase_bins: int) -> tuple:
    # h1, g1, g2 bins unchanged; h2 phase shifted by pi (phase_bins // 2 bins).
    shift = phase_bins // 2
    h2 = (q.h2[0], (q.h2[1] + shift) % phase_bins)
    return (q.h1, h2, q.g1, q.g2)


@dataclass(frozen=True)
class PairingReport:
    n: int
    matched: int
    fraction: float
    mean_wait: float
    max_wait: int
    unmatched: int


def ergodic_pairing_demo(n: int, params: FadingParams, mag_bins: int = 4,
                         phase_bins: int = 4, rng: np.random.Generator = None,
                         mag_cap: float | None = None) -> PairingReport:
    """Greedily pair instants with the earliest later quantized partner state.

    Instant ``t`` matches the first ``u > t`` whose quantized state equals
    the quantized partner of ``t``'s state (same h1/g1/g2 bins, h2
    magnitude bin equal with phase shifted by pi).  Unmatched tail
    instants are discarded and reported.  Deterministic given the rng.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        raise ValueError("an explicit rng is required (no wall-clock seeds)")
    if mag_cap is None:
        mag_cap = 3.0 * math.sqrt(max(params.var_h1, params.var_h2,
                                      params.var_g1, params.var_g2))
    batch = sample_batch(params, n, rng)
    waiters: dict[tuple, list[int]] = {}
    waits: list[int] = []
    matched = 0
    for t in range(n):
        q = quantize(batch.state(t), mag_bins, phase_bins, mag_cap)
        key = q.key()
        pending = waiters.get(key)
        if pending:
            start = pending.pop(0)
            waits.append(t - start)
            matched += 2
        else:
            waiters.setdefault(_partner_key(q, phase_bins), []).append(t)
    unmatched = n - matched
    mean_wait = float(np.mean(waits)) if waits else float("nan")
    max_wait = max(waits) if waits else 0
    return PairingReport(n=n, matched=matched, fraction=matched / n,
                         mean_wait=mean_wait, max_wait=max_wait,
                         unmatched=unmatched)
