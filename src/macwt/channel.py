"""Fading channel model: state sampling and two-slot scaled blocks.

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

    def sq(self):
        """Squared magnitudes (|h1|^2, |h2|^2, |g1|^2, |g2|^2)."""
        return tuple(abs(z) ** 2 for z in (self.h1, self.h2, self.g1, self.g2))


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
        return tuple(np.abs(z) ** 2 for z in (self.h1, self.h2, self.g1, self.g2))

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


def _complex_gaussian(rng: np.random.Generator, var: float, n: int,
                      x: np.ndarray):
    # real/imag each N(0, var/2) -> circularly symmetric, E|x|^2 = var;
    # the real part is drawn first, both straight into the complex array x
    scale = math.sqrt(var / 2.0)
    x.real = rng.normal(0.0, scale, n)
    x.imag = rng.normal(0.0, scale, n)


def sample_batch(params: FadingParams, n: int, rng: np.random.Generator,
                 out: StateBatch | None = None) -> StateBatch:
    """Draw ``n`` independent channel states, into ``out`` (a batch of
    ``n`` states, whose arrays may be views into larger ones) if given."""
    if out is None:
        out = StateBatch(*(np.empty(n, dtype=complex) for _ in range(4)))
    for x, var in ((out.h1, params.var_h1), (out.h2, params.var_h2),
                   (out.g1, params.var_g1), (out.g2, params.var_g2)):
        _complex_gaussian(rng, var, n, x)
    return out


# ---------------------------------------------------------------------------
# Scaled two-slot (odd/even) block construction
# ---------------------------------------------------------------------------

def sba_block_gains(odd: StateBatch, even: StateBatch):
    """Batched derived gains for two-slot blocks.

    Each user scales its input by the other user's eavesdropper gain, so
    the effective receiver gains are products ``h_k * g_j`` while both
    eavesdropper columns collapse to ``g1 * g2``: the eavesdropper's 2x2
    channel matrix ``[[c, c], [d, d]]`` (``c = g1o*g2o``, ``d = g1e*g2e``)
    is exactly rank one.

    Returns ``(A1, A2, C, Dsq)`` where ``A1 = |h1o*g2o|^2 + |h1e*g2e|^2``,
    ``A2`` is the user-2 analogue, ``C = |g1o*g2o|^2 + |g1e*g2e|^2`` and
    ``Dsq`` is the squared magnitude of the 2x2 receiver determinant.
    """
    def sq(z):
        return np.abs(z) ** 2

    # one complex product alive at a time: a worker's run can be large
    A1 = sq(odd.h1 * odd.g2) + sq(even.h1 * even.g2)
    A2 = sq(odd.h2 * odd.g1) + sq(even.h2 * even.g1)
    C = sq(odd.g1 * odd.g2) + sq(even.g1 * even.g2)
    Dsq = sq(even.h1 * odd.h2 * odd.g1 * even.g2
             - odd.h1 * even.h2 * even.g1 * odd.g2)
    return A1, A2, C, Dsq
