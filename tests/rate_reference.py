"""References the tests hold the rate kernels and the figures against:
the partner-state repetition model (acceptance criterion 4), rotated
repetition rates (criterion 3), the dominated-convergence majorants of
the two aligned schemes, and the closed form of the constant-power
repetition rows under Rayleigh fading."""

import math

import numpy as np

from macwt.channel import ChannelState, FadingParams
from macwt.rates import _log2p1 as _l2


# ---------------------------------------------------------------------------
# partner states and code repetition
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


def esa_general_triple(h1, h2, g1, g2, theta, omega, p1, p2):
    """General rotated repetition; reduces to
    :func:`~macwt.rates.esa_triple` at theta=pi, omega=0."""
    ct = 2.0 * (1.0 - np.cos(theta)) * h1 * h2 * p1 * p2
    cw = 2.0 * (1.0 - np.cos(omega)) * g1 * g2 * p1 * p2
    r1 = 0.5 * (_l2(2.0 * h1 * p1)
                - _l2((2.0 * g1 * p1 + cw) / (1.0 + 2.0 * g2 * p2)))
    r2 = 0.5 * (_l2(2.0 * h2 * p2)
                - _l2((2.0 * g2 * p2 + cw) / (1.0 + 2.0 * g1 * p1)))
    rsum = 0.5 * (_l2(2.0 * h1 * p1 + 2.0 * h2 * p2 + ct)
                  - _l2(2.0 * g1 * p1 + 2.0 * g2 * p2 + cw))
    return r1, r2, rsum


# ---------------------------------------------------------------------------
# dominated-convergence majorants (base-2; looser than natural-log forms)
# ---------------------------------------------------------------------------

def dominated_bound_sba(o: ChannelState, e: ChannelState,
                        params: FadingParams) -> float:
    """Majorant of f_P / log2 P for the scaled two-slot scheme on the odd
    and even slot states ``o`` and ``e``."""
    const = 4.0 + 2.0 * (_l2(1.0 / params.var_g1) + _l2(1.0 / params.var_g2)) \
        + _l2((params.var_g1 + params.var_g2) / (params.var_g1 * params.var_g2))
    hsum = sum(_l2(abs(z) ** 2) for z in (o.h1, o.h2, e.h1, e.h2))
    gsum = sum(_l2(abs(z) ** 2) for z in (o.g1, o.g2, e.g1, e.g2))
    return float(const + 3.0 * hsum + 4.0 * gsum)


def dominated_bound_esa(state: ChannelState, params: FadingParams) -> float:
    """Majorant of the repetition scheme's f_P / log2 P."""
    h1, h2, g1, g2 = state.sq()
    return float(6.0 + _l2(2.0 * h1) + _l2(2.0 * h2) + _l2(2.0 * (g1 + g2)))


# ---------------------------------------------------------------------------
# constant-power repetition under Rayleigh fading, in closed form
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329
_EPS = 1e-16


def _exp_e1_cf(s):
    """e^s E1(s) for s > 1: the continued fraction, by modified Lentz
    (Numerical Recipes, section 6.3)."""
    b = s + 1.0
    c = 1.0 / 1e-300
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -float(i * i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"E1 continued fraction did not converge at {s}")


def e1(s):
    """Exponential integral E1(s) for s > 0: the power series for s <= 1,
    the continued fraction above it."""
    if s > 1.0:
        return math.exp(-s) * _exp_e1_cf(s)
    total, term = -math.log(s) - _EULER_GAMMA, 1.0
    for k in range(1, 1000):
        term *= -s / k
        step = -term / k
        total += step
        if abs(step) < abs(total) * _EPS:
            return total
    raise ArithmeticError(f"E1 series did not converge at {s}")


def _exp_e1(s):
    return _exp_e1_cf(s) if s > 1.0 else math.exp(s) * e1(s)


def mean_ln1p_exp(a, theta):
    """I(a, theta) = E ln(1 + a X) for X exponential with mean theta:
    e^s E1(s) with s = 1/(a theta) (Alouini & Goldsmith, 1999)."""
    return _exp_e1(1.0 / (a * theta))


def mean_ln1p_erlang2(a, theta):
    """J(a, theta) = E ln(1 + a (X1 + X2)) for X1, X2 independent
    exponentials with mean theta: 1 + (1 - s) e^s E1(s), s = 1/(a theta)."""
    s = 1.0 / (a * theta)
    return 1.0 + (1.0 - s) * _exp_e1(s)


def esa_const_rsum(p, var_h, var_g):
    """Ergodic sum rate (bits) of repetition at constant powers p, p under
    symmetric Rayleigh fading: (2 I(2p, var_h) - J(2p, var_g)) / (2 ln 2)."""
    return ((2.0 * mean_ln1p_exp(2.0 * p, var_h)
             - mean_ln1p_erlang2(2.0 * p, var_g)) / (2.0 * math.log(2.0)))
