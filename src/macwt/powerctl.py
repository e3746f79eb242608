"""KKT power control for the aligned schemes.

Everything here operates on *effective* gains: the per-state quantities
``h_k = 2|h_k|^2`` and ``g_k = 2|g_k|^2`` that absorb the factor of two
produced by coherent repetition.  Stationarity, closed forms and the case
trees are expressed in natural-log units (the Lagrangian of the sum-rate
objective); reported rates stay in bits elsewhere.

The per-state allocation for the aligned scheme without jamming is a
seven-way partition of the gain/dual space: the boundary single-user
powers have closed forms, and interior allocations are the (at most one)
positive common root of a pair of coupled quadratics.  With jamming the
tree first splits on which user's receiver gain beats its eavesdropper
gain, then resolves transmit-vs-jam roles per branch; power splitting
(P_k > 0 and Q_k > 0 for the same user) never occurs.

The coupled quadratics are eliminated to a scalar cubic in P1 (a
resultant whose quartic term cancels) and solved batched in closed form
(Cardano plus deflation; rows with a vanishing leading coefficient go to
``np.roots``).  Every real root is polished with a damped two-dimensional
Newton iteration and kept only if its residual is small; rows without a
root get a few dual-scaled Newton starts.  The scalar ``solve_*`` entry
points run this on one row and fall back to a 5x5 multi-start Newton grid.

The dual policies of the three schemes with a multiplier search (``esa``,
``esa_cj`` and the ``gs_cj`` baseline) are dispatched in one place,
:func:`_dual_powers`, shared by :func:`dual_search` and :class:`DualPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, FadingParams, sample_batch
from .rates import PowerBudget, PowerDecision, esa_cj_triple

RESIDUAL_TOL = 1e-9   # relative residual for accepting a common root
CLAMP_TOL = 1e-9      # components in (-CLAMP_TOL, 0) are clamped to 0
LAM_MIN = 1e-8        # lower bracket for the dual bisection


class RootSolveError(RuntimeError):
    """Numerical failure distinct from certified absence of a positive root."""


class CaseSolverError(RuntimeError):
    """A case that guarantees a positive common root failed to produce one."""


@dataclass(frozen=True)
class EffectiveState:
    """Effective power gains (post doubling substitution), all >= 0."""

    h1: float
    h2: float
    g1: float
    g2: float

    def __post_init__(self):
        for name in ("h1", "h2", "g1", "g2"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class DualVars:
    """Lagrange multipliers for the two average-power constraints."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (self.lambda1 > 0 and self.lambda2 > 0):
            raise ValueError("dual variables must be strictly positive")


def effective_state(state: ChannelState) -> EffectiveState:
    """Effective gains 2|h_k|^2, 2|g_k|^2 of a fading realization."""
    return EffectiveState(2.0 * state.h1_sq, 2.0 * state.h2_sq,
                          2.0 * state.g1_sq, 2.0 * state.g2_sq)


# ---------------------------------------------------------------------------
# Closed-form single-user root
# ---------------------------------------------------------------------------

def _closed_form_root(h, g, lam):
    """Root of h/(1+hP) - g/(1+gP) = lam, for h > g (array-safe).

    Evaluated in the cancellation- and overflow-free form
    ``(2/lam) / (sqrt(1 + 4/(t*lam)) + 1) - 1/h`` with ``t = 1/g - 1/h``;
    the g -> 0 (t -> inf) limit is the water-filling root ``1/lam - 1/h``.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = 1.0 / g - 1.0 / h
        root = (2.0 / lam) / (np.sqrt(1.0 + 4.0 / (t * lam)) + 1.0) - 1.0 / h
        wf = 1.0 / lam - 1.0 / h
    return np.where(g == 0.0, wf, root)


def closed_form_p1(s: EffectiveState, lambda1: float) -> float:
    """Closed-form P1 when user 2 is silent; requires h1 > g1."""
    if not s.h1 > s.g1:
        raise ValueError("closed_form_p1 requires h1 > g1 (invalid case)")
    if not lambda1 > 0:
        raise ValueError("lambda1 must be positive")
    return float(_closed_form_root(s.h1, s.g1, lambda1))


def closed_form_p2(s: EffectiveState, lambda2: float) -> float:
    """Closed-form P2 when user 1 is silent; requires h2 > g2."""
    if not s.h2 > s.g2:
        raise ValueError("closed_form_p2 requires h2 > g2 (invalid case)")
    if not lambda2 > 0:
        raise ValueError("lambda2 must be positive")
    return float(_closed_form_root(s.h2, s.g2, lambda2))


# ---------------------------------------------------------------------------
# Stationarity residuals
# ---------------------------------------------------------------------------

def esa_kkt_residual(s: EffectiveState, p1: float, p2: float,
                     duals: DualVars) -> tuple:
    """Left sides of the two stationarity equations with zero slack."""
    if p1 < 0 or p2 < 0:
        raise ValueError("powers must be nonnegative")
    den = 1.0 + s.g1 * p1 + s.g2 * p2
    res1 = s.h1 / (1.0 + s.h1 * p1) - s.g1 / den - duals.lambda1
    res2 = s.h2 / (1.0 + s.h2 * p2) - s.g2 / den - duals.lambda2
    return res1, res2


def esa_cj_kkt_residual(s: EffectiveState, d: PowerDecision,
                        duals: DualVars) -> tuple:
    """Stationarity residuals (P1, P2, Q1, Q2 equations) with zero slack."""
    t1, t2 = d.p1 + d.q1, d.p2 + d.q2
    den = 1.0 + s.g1 * t1 + s.g2 * t2
    denq = 1.0 + s.g1 * d.q1 + s.g2 * d.q2
    res1 = s.h1 / (1.0 + s.h1 * t1) - s.g1 / den - duals.lambda1
    res2 = s.h2 / (1.0 + s.h2 * t2) - s.g2 / den - duals.lambda2
    res3 = res1 + s.g1 / denq - s.h1 / (1.0 + s.h1 * d.q1)
    res4 = res2 + s.g2 / denq - s.h2 / (1.0 + s.h2 * d.q2)
    return res1, res2, res3, res4


# ---------------------------------------------------------------------------
# Batched resultant cubic + Newton polish for the coupled quadratics
# ---------------------------------------------------------------------------

def _polymul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _cubic_one_root(b, c, d):
    """One (complex) root of x^3 + b x^2 + c x + d per row, via Cardano."""
    d0 = b * b - 3.0 * c
    d1 = 2.0 * b ** 3 - 9.0 * b * c + 27.0 * d
    inner = np.sqrt(d1 * d1 - 4.0 * d0 ** 3 + 0j)
    cc = ((d1 + inner) / 2.0) ** (1.0 / 3.0)
    alt = ((d1 - inner) / 2.0) ** (1.0 / 3.0)
    cc = np.where(np.abs(cc) < 1e-300, alt, cc)
    safe = np.abs(cc) > 1e-300
    ratio = np.where(safe, d0 / np.where(safe, cc, 1.0), 0.0)
    return -(b + cc + ratio) / 3.0


def _cubic_roots(coeffs):
    """All roots of c0 + c1 x + c2 x^2 + c3 x^3 = 0 per batch row.

    Closed-form (Cardano plus deflation), fully vectorized; results are
    polished by Newton downstream so modest accuracy is acceptable.
    Rows with a (near-)vanishing leading coefficient fall back to
    ``np.roots``.
    """
    c = np.stack([np.broadcast_to(np.asarray(ci, dtype=float), coeffs[-1].shape)
                  for ci in coeffs], axis=-1)
    m = c.shape[0]
    roots = np.full((m, 3), np.nan, dtype=complex)
    scale = np.max(np.abs(c), axis=-1)
    lead_ok = np.abs(c[:, 3]) > 1e-12 * np.maximum(scale, 1e-300)
    if np.any(lead_ok):
        cc = c[lead_ok]
        b = cc[:, 2] / cc[:, 3]
        c1 = cc[:, 1] / cc[:, 3]
        d = cc[:, 0] / cc[:, 3]
        z1 = _cubic_one_root(b + 0j, c1 + 0j, d + 0j)
        # deflate: x^3 + b x^2 + c1 x + d = (x - z1)(x^2 + B x + C)
        B = b + z1
        C = c1 + z1 * B
        disc = np.sqrt(B * B - 4.0 * C)
        roots[lead_ok] = np.stack(
            [z1, (-B + disc) / 2.0, (-B - disc) / 2.0], axis=-1)
    for idx in np.nonzero(~lead_ok)[0]:
        rev = c[idx, ::-1]
        nz = np.nonzero(np.abs(rev) > 1e-12 * max(scale[idx], 1e-300))[0]
        if nz.size == 0:
            continue
        r = np.roots(rev[nz[0]:])
        roots[idx, :r.size] = r
    return roots


def _system_esa(h1, h2, g1, g2, l1, l2, x, y):
    den = 1.0 + g1 * x + g2 * y
    f1 = h1 * (1.0 + g2 * y) - g1 - l1 * (1.0 + h1 * x) * den
    f2 = h2 * (1.0 + g1 * x) - g2 - l2 * (1.0 + h2 * y) * den
    j11 = -l1 * (h1 * den + (1.0 + h1 * x) * g1)
    j12 = h1 * g2 - l1 * (1.0 + h1 * x) * g2
    j21 = h2 * g1 - l2 * (1.0 + h2 * y) * g1
    j22 = -l2 * (h2 * den + (1.0 + h2 * y) * g2)
    s1 = np.maximum.reduce([np.abs(h1 * (1.0 + g2 * y)), np.abs(g1),
                            np.abs(l1 * (1.0 + h1 * x) * den),
                            np.ones_like(f1)])
    s2 = np.maximum.reduce([np.abs(h2 * (1.0 + g1 * x)), np.abs(g2),
                            np.abs(l2 * (1.0 + h2 * y) * den),
                            np.ones_like(f2)])
    return f1, f2, j11, j12, j21, j22, s1, s2


def _system_p1q2(h1, h2, g1, g2, l1, l2, x, y):
    # x = P1, y = Q2; user 2's equation trades its rate term for jamming.
    den = 1.0 + g1 * x + g2 * y
    f1 = h1 * (1.0 + g2 * y) - g1 - l1 * (1.0 + h1 * x) * den
    f2 = g1 * g2 * x - l2 * (1.0 + g2 * y) * den
    j11 = -l1 * (h1 * den + (1.0 + h1 * x) * g1)
    j12 = h1 * g2 - l1 * (1.0 + h1 * x) * g2
    j21 = g1 * g2 - l2 * (1.0 + g2 * y) * g1
    j22 = -l2 * (g2 * den + (1.0 + g2 * y) * g2)
    s1 = np.maximum.reduce([np.abs(h1 * (1.0 + g2 * y)), np.abs(g1),
                            np.abs(l1 * (1.0 + h1 * x) * den),
                            np.ones_like(f1)])
    s2 = np.maximum.reduce([np.abs(g1 * g2 * x),
                            np.abs(l2 * (1.0 + g2 * y) * den),
                            np.ones_like(f2)])
    return f1, f2, j11, j12, j21, j22, s1, s2


def _newton_polish(system, h1, h2, g1, g2, l1, l2, x, y, iters=25):
    """2-D Newton kept in the nonnegative quadrant, with early exit."""
    for _ in range(iters):
        f1, f2, j11, j12, j21, j22, _, _ = system(h1, h2, g1, g2, l1, l2, x, y)
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        xn = x - dx
        yn = y - dy
        xn = np.where(np.isfinite(xn), np.maximum(xn, 0.0), x)
        yn = np.where(np.isfinite(yn), np.maximum(yn, 0.0), y)
        moved = np.maximum(np.abs(xn - x) / (1.0 + np.abs(xn)),
                           np.abs(yn - y) / (1.0 + np.abs(yn)))
        x, y = xn, yn
        if not np.any(moved > 1e-14):
            break
    return x, y


def _rel_residual(system, h1, h2, g1, g2, l1, l2, x, y):
    f1, f2, *_rest = system(h1, h2, g1, g2, l1, l2, x, y)
    s1, s2 = _rest[-2], _rest[-1]
    return np.maximum(np.abs(f1) / s1, np.abs(f2) / s2)


def _eliminated_cubic(which, h1, h2, g1, g2, l1, l2):
    """Coefficients (ascending) of the scalar resultant in x = P1.

    The first quadratic is linear in the second unknown y; substituting
    y = N(x)/D(x) into the second quadratic and clearing D^2 leaves a
    degree-4 expression whose leading coefficient cancels identically
    (g1*D1 + g2*N2 = 0), i.e. a cubic in x.
    """
    n0 = l1 - h1 + g1
    n1 = l1 * (h1 + g1)
    n2 = l1 * h1 * g1
    d0 = g2 * (h1 - l1)
    d1 = -g2 * l1 * h1
    N = [n0, n1, n2]
    D = [d0, d1]
    D2 = _polymul(D, D)
    V = [d0 + g2 * n0, d1 + g1 * d0 + g2 * n1, g1 * d1 + g2 * n2]
    if which == "esa":
        E = [h2 - g2, h2 * g1]
        U = [d0 + h2 * n0, d1 + h2 * n1, h2 * n2]
        t1 = _polymul(E, D2)
    else:  # p1q2
        U = [d0 + g2 * n0, d1 + g2 * n1, g2 * n2]
        t1 = _polymul([0.0, g1 * g2], D2)
    t2 = _polymul(U, V)
    coeffs = []
    for i in range(4):
        a = t1[i] if i < len(t1) else 0.0
        b = t2[i] if i < len(t2) else 0.0
        coeffs.append(a - l2 * b)
    return coeffs, N, D


def _lagrangian_vals(which, h1, h2, g1, g2, l1, l2, x, y):
    """Per-state Lagrangian (nats) of the system's objective at (x, y)."""
    if which == "esa":
        return (np.log1p(h1 * x) + np.log1p(h2 * y)
                - np.log1p(g1 * x + g2 * y) - l1 * x - l2 * y)
    return (np.log1p(h1 * x) - np.log1p(g1 * x + g2 * y)
            + np.log1p(g2 * y) - l1 * x - l2 * y)


def _common_root_batch(which, h1, h2, g1, g2, l1, l2):
    """Best positive common root per row, or NaN where none exists.

    All real cubic-resultant roots are polished by Newton and checked
    (relative residual <= RESIDUAL_TOL); if several positive common roots
    survive, the one with the larger Lagrangian value wins.  Rows where
    the resultant coefficients cancel badly (extreme gain ratios) get a
    second chance from dual-scaled generic Newton starts.
    """
    system = _system_esa if which == "esa" else _system_p1q2
    coeffs, N, D = _eliminated_cubic(which, h1, h2, g1, g2, l1, l2)
    coeffs = [np.broadcast_to(np.asarray(c, dtype=float), h1.shape) for c in coeffs]
    roots = _cubic_roots(coeffs)
    m = h1.shape[0]
    l1b = np.broadcast_to(np.asarray(l1, dtype=float), h1.shape)
    l2b = np.broadcast_to(np.asarray(l2, dtype=float), h1.shape)
    best_x = np.full(m, np.nan)
    best_y = np.full(m, np.nan)
    best_L = np.full(m, -np.inf)

    def consider(u, xp, yp):
        res = _rel_residual(system, h1[u], h2[u], g1[u], g2[u],
                            l1b[u], l2b[u], xp, yp)
        # strictly positive common root only (zero components belong to
        # the single-user / silent cases of the tree)
        hit = (res <= RESIDUAL_TOL) & (xp > 0.0) & (yp > 0.0)
        L = _lagrangian_vals(which, h1[u], h2[u], g1[u], g2[u],
                             l1b[u], l2b[u], xp, yp)
        better = hit & (L > best_L[u])
        idx = u[better]
        best_x[idx] = xp[better]
        best_y[idx] = yp[better]
        best_L[idx] = L[better]

    allrows = np.arange(m)
    for k in range(roots.shape[1]):
        r = roots[:, k]
        real = np.abs(r.imag) <= 1e-6 * (1.0 + np.abs(r.real))
        x = np.where(real, r.real, np.nan)
        denD = D[0] + D[1] * x
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (N[0] + N[1] * x + N[2] * x * x) / denD
        ok = real & (x >= -CLAMP_TOL)
        u = allrows[ok]
        if u.size == 0:
            continue
        xs = np.maximum(x[u], 0.0)
        ys = np.where(np.isfinite(y[u]), np.maximum(y[u], 0.0), 0.0)
        xp, yp = _newton_polish(system, h1[u], h2[u], g1[u], g2[u],
                                l1b[u], l2b[u], xs, ys, iters=40)
        consider(u, xp, yp)
    for s1, s2 in ((1.0, 1.0), (0.1, 0.1), (10.0, 10.0), (1.0, 0.01),
                   (0.01, 1.0)):
        u = allrows[~np.isfinite(best_x)]
        if u.size == 0:
            break
        xp, yp = _newton_polish(system, h1[u], h2[u], g1[u], g2[u],
                                l1b[u], l2b[u], s1 / l1b[u], s2 / l2b[u],
                                iters=40)
        consider(u, xp, yp)
    found = np.isfinite(best_x)
    return best_x, best_y, found


def _scalar_common_root(which, s: EffectiveState, duals: DualVars):
    """Resultant enumeration (best root by Lagrangian value), with a
    multi-start damped-Newton grid as a robustness fallback."""
    system = _system_esa if which == "esa" else _system_p1q2
    h1 = np.array([s.h1]); h2 = np.array([s.h2])
    g1 = np.array([s.g1]); g2 = np.array([s.g2])
    l1 = np.array([duals.lambda1]); l2 = np.array([duals.lambda2])
    try:
        x, y, found = _common_root_batch(which, h1, h2, g1, g2, l1, l2)
    except FloatingPointError as exc:  # pragma: no cover - defensive
        raise RootSolveError(f"root enumeration failed: {exc}") from exc
    if bool(found[0]):
        return float(x[0]), float(y[0])
    lam_min = min(duals.lambda1, duals.lambda2)
    hi = 10.0 / lam_min
    grid = np.linspace(0.0, hi, 5)
    for x0 in grid:
        for y0 in grid:
            x, y = _newton_polish(system, h1, h2, g1, g2, l1, l2,
                                  np.array([x0]), np.array([y0]), iters=60)
            res = _rel_residual(system, h1, h2, g1, g2, l1, l2, x, y)
            if res[0] <= RESIDUAL_TOL and x[0] > 0.0 and y[0] > 0.0:
                return float(x[0]), float(y[0])
    return None


def solve_common_root(s: EffectiveState, duals: DualVars):
    """Positive common root (P1, P2) of the coupled quadratics, or None."""
    return _scalar_common_root("esa", s, duals)


def solve_p1q2(s: EffectiveState, duals: DualVars):
    """Positive common root (P1, Q2) when user 2 jams, or None."""
    return _scalar_common_root("p1q2", s, duals)


def _positive_roots_scalar(which, s: EffectiveState, duals: DualVars):
    """All distinct positive common roots of the selected system."""
    system = _system_esa if which == "esa" else _system_p1q2
    arr = lambda v: np.array([float(v)])  # noqa: E731
    h1, h2 = arr(s.h1), arr(s.h2)
    g1, g2 = arr(s.g1), arr(s.g2)
    l1, l2 = arr(duals.lambda1), arr(duals.lambda2)
    coeffs, N, D = _eliminated_cubic(which, h1, h2, g1, g2, l1, l2)
    coeffs = [np.broadcast_to(np.asarray(c, dtype=float), (1,)) for c in coeffs]
    roots = _cubic_roots(coeffs)[0]
    out = []
    for r in roots:
        if not np.isfinite(r) or abs(r.imag) > 1e-6 * (1.0 + abs(r.real)):
            continue
        x = max(r.real, 0.0)
        d0, d1 = float(D[0][0]), float(D[1][0])
        n0, n1, n2 = (float(c[0]) for c in N)
        den = d0 + d1 * x
        if den == 0.0:
            continue
        y = (n0 + n1 * x + n2 * x * x) / den
        y = max(y, 0.0) if y >= -CLAMP_TOL else 0.0
        xp, yp = _newton_polish(system, h1, h2, g1, g2, l1, l2,
                                arr(x), arr(y), iters=60)
        res = _rel_residual(system, h1, h2, g1, g2, l1, l2, xp, yp)
        if res[0] <= RESIDUAL_TOL and xp[0] > 0.0 and yp[0] > 0.0:
            pair = (float(xp[0]), float(yp[0]))
            if all(abs(pair[0] - p[0]) > 1e-6 * (1.0 + pair[0])
                   for p in out):
                out.append(pair)
    return out


def stationary_candidates(s: EffectiveState, duals: DualVars,
                          scheme: str) -> list:
    """All KKT-valid power decisions for one state.

    Returns a list of (PowerDecision, Lagrangian value in nats).  A state
    is "stationarity-unique" exactly when the list has one entry; only
    then does the case policy provably return the per-state optimum.
    """
    l1, l2 = duals.lambda1, duals.lambda2
    h1, h2, g1, g2 = s.h1, s.h2, s.g1, s.g2
    out = []

    def lag(which, x, y):
        return float(_lagrangian_vals(which, h1, h2, g1, g2, l1, l2, x, y))

    if scheme == "esa" or (scheme == "esa_cj" and h1 >= g1 and h2 >= g2):
        q = 0.0
        if h1 - g1 <= l1 and h2 - g2 <= l2:
            out.append((PowerDecision(0, 0, q, q), 0.0))
        if h1 - g1 > l1:
            p1 = closed_form_p1(s, l1)
            if h2 - g2 / (1.0 + g1 * p1) <= l2:
                out.append((PowerDecision(p1, 0, q, q), lag("esa", p1, 0.0)))
        if h2 - g2 > l2:
            p2 = closed_form_p2(s, l2)
            if h1 - g1 / (1.0 + g2 * p2) <= l1:
                out.append((PowerDecision(0, p2, q, q), lag("esa", 0.0, p2)))
        for x, y in _positive_roots_scalar("esa", s, duals):
            out.append((PowerDecision(x, y, q, q), lag("esa", x, y)))
        return out
    if scheme != "esa_cj":
        raise ValueError(f"unknown scheme {scheme!r}")
    if h1 >= g1:  # h2 < g2: user 1 may transmit, user 2 may jam
        if h1 - g1 <= l1:
            out.append((PowerDecision(0, 0, 0, 0), 0.0))
        if h1 - g1 > l1:
            p1 = closed_form_p1(s, l1)
            if g2 - g2 / (1.0 + g1 * p1) <= l2:
                out.append((PowerDecision(p1, 0, 0, 0), lag("p1q2", p1, 0.0)))
        for x, y in _positive_roots_scalar("p1q2", s, duals):
            out.append((PowerDecision(x, 0, 0, y), lag("p1q2", x, y)))
        return out
    if h2 >= g2:  # mirror: user 2 transmits, user 1 jams
        sw = _swap(s)
        dw = DualVars(l2, l1)
        for d, v in stationary_candidates(sw, dw, "esa_cj"):
            out.append((PowerDecision(d.p2, d.p1, d.q2, d.q1), v))
        return out
    # both receivers weak: silence is always stationary, each
    # transmit/jam pairing contributes its own roots
    out.append((PowerDecision(0, 0, 0, 0), 0.0))
    for x, y in _positive_roots_scalar("p1q2", s, duals):
        out.append((PowerDecision(x, 0, 0, y), lag("p1q2", x, y)))
    sw = _swap(s)
    dw = DualVars(l2, l1)
    for x, y in _positive_roots_scalar("p1q2", sw, dw):
        val = float(_lagrangian_vals("p1q2", sw.h1, sw.h2, sw.g1, sw.g2,
                                     l2, l1, x, y))
        out.append((PowerDecision(0, x, y, 0), val))
    return out


def _swap(s: EffectiveState) -> EffectiveState:
    return EffectiveState(s.h2, s.h1, s.g2, s.g1)


def solve_p2q1(s: EffectiveState, duals: DualVars):
    """Positive common root (P2, Q1) when user 1 jams, or None."""
    out = _scalar_common_root("p1q2", _swap(s),
                              DualVars(duals.lambda2, duals.lambda1))
    return out


# ---------------------------------------------------------------------------
# Case tree without jamming (seven cases)
# ---------------------------------------------------------------------------

def esa_policy_batch(h1, h2, g1, g2, l1, l2):
    """Vectorized seven-case allocation.  Returns (p1, p2, case)."""
    h1, h2, g1, g2 = (np.asarray(a, dtype=float) for a in (h1, h2, g1, g2))
    m = h1.shape[0]
    l1a = np.broadcast_to(np.asarray(l1, dtype=float), h1.shape)
    l2a = np.broadcast_to(np.asarray(l2, dtype=float), h1.shape)
    A1 = h1 <= l1a
    C1 = h1 - g1 > l1a
    B1 = ~A1 & ~C1
    A2 = h2 <= l2a
    C2 = h2 - g2 > l2a
    B2 = ~A2 & ~C2

    p1 = np.zeros(m)
    p2 = np.zeros(m)
    case = np.zeros(m, dtype=int)
    case[(A1 & A2) | (A1 & B2) | (B1 & A2)] = 1
    case[A1 & C2] = 2
    case[C1 & A2] = 3
    case[B1 & B2] = 4
    case[B1 & C2] = 5
    case[C1 & B2] = 6
    case[C1 & C2] = 7

    cf1 = np.where(C1, _closed_form_root(h1, np.where(C1, g1, 0.0), l1a), 0.0)
    cf2 = np.where(C2, _closed_form_root(h2, np.where(C2, g2, 0.0), l2a), 0.0)
    p1[case == 3] = cf1[case == 3]
    p2[case == 2] = cf2[case == 2]

    need = case >= 4
    if np.any(need):
        idx = np.nonzero(need)[0]
        x, y, found = _common_root_batch("esa", h1[idx], h2[idx], g1[idx],
                                         g2[idx], l1a[idx], l2a[idx])
        sub = case[idx]
        bad7 = (sub == 7) & ~found
        if np.any(bad7):
            j = idx[np.nonzero(bad7)[0][0]]
            raise CaseSolverError(
                "no positive common root found in the both-users-active case "
                f"(h1={h1[j]}, h2={h2[j]}, g1={g1[j]}, g2={g2[j]}, "
                f"l1={l1a[j]}, l2={l2a[j]})")
        px = np.where(found, x, 0.0)
        py = np.where(found, y, 0.0)
        # fallbacks when the interior root does not exist
        py = np.where(~found & (sub == 5), cf2[idx], py)
        px = np.where(~found & (sub == 6), cf1[idx], px)
        p1[idx] = px
        p2[idx] = py
    return p1, p2, case


def esa_case_id(s: EffectiveState, duals: DualVars) -> int:
    """Which of the seven cases the state falls in (1..7)."""
    _, _, case = esa_policy_batch(np.array([s.h1]), np.array([s.h2]),
                                  np.array([s.g1]), np.array([s.g2]),
                                  duals.lambda1, duals.lambda2)
    return int(case[0])


# ---------------------------------------------------------------------------
# Case tree with jamming
# ---------------------------------------------------------------------------

# case codes: 10+k -> no-jamming case k; 2x -> branch 2 sub-case x (1..4);
# 3x mirror; 40+x -> branch 4 sub-case x, with 45/46 marking the two-root
# sub-case resolved to solution A / solution B.

def _cj_rsum(h1, h2, g1, g2, p1, p2, q1, q2):
    # instantaneous sum-rate integrand (bits) on effective gains
    _, _, rsum = esa_cj_triple(h1 / 2.0, h2 / 2.0, g1 / 2.0, g2 / 2.0,
                               p1, p2, q1, q2)
    return rsum


def esa_cj_policy_batch(h1, h2, g1, g2, l1, l2):
    """Vectorized allocation with jamming.  Returns (p1, p2, q1, q2, case)."""
    h1, h2, g1, g2 = (np.asarray(a, dtype=float) for a in (h1, h2, g1, g2))
    m = h1.shape[0]
    l1a = np.broadcast_to(np.asarray(l1, dtype=float), h1.shape)
    l2a = np.broadcast_to(np.asarray(l2, dtype=float), h1.shape)
    p1 = np.zeros(m); p2 = np.zeros(m)
    q1 = np.zeros(m); q2 = np.zeros(m)
    case = np.zeros(m, dtype=int)

    # boundaries (h_k == g_k) resolve toward the no-jamming branch
    br1 = (h1 >= g1) & (h2 >= g2)
    br2 = (h1 >= g1) & (h2 < g2)
    br3 = (h1 < g1) & (h2 >= g2)
    br4 = (h1 < g1) & (h2 < g2)

    if np.any(br1):
        idx = np.nonzero(br1)[0]
        pp1, pp2, sub = esa_policy_batch(h1[idx], h2[idx], g1[idx], g2[idx],
                                         l1a[idx], l2a[idx])
        p1[idx] = pp1
        p2[idx] = pp2
        case[idx] = 10 + sub

    def transmit_jam_branch(idx, hT, gT, gJ, lT, lJ, hJ):
        """One user transmits, the other can only jam.

        Returns (pT, qJ, subcase) with sub-cases keyed by the transmit
        user's gain class and whether the jammer's eavesdropper gain
        clears its dual price.
        """
        k = idx.size
        pT = np.zeros(k); qJ = np.zeros(k)
        sub = np.zeros(k, dtype=int)
        A = hT <= lT
        C = hT - gT > lT
        B = ~A & ~C
        J = gJ > lJ
        sub[A | (B & ~J)] = 1
        sub[C & ~J] = 2
        sub[B & J] = 3
        sub[C & J] = 4
        cf = np.where(C, _closed_form_root(hT, np.where(C, gT, 0.0), lT), 0.0)
        pT[sub == 2] = cf[sub == 2]
        need = sub >= 3
        if np.any(need):
            j = np.nonzero(need)[0]
            x, y, found = _common_root_batch("p1q2", hT[j], hJ[j], gT[j],
                                             gJ[j], lT[j], lJ[j])
            px = np.where(found, x, 0.0)
            qy = np.where(found, y, 0.0)
            px = np.where(~found & (sub[j] == 4), cf[j], px)
            pT[j] = px
            qJ[j] = qy
        return pT, qJ, sub

    if np.any(br2):
        idx = np.nonzero(br2)[0]
        pT, qJ, sub = transmit_jam_branch(idx, h1[idx], g1[idx], g2[idx],
                                          l1a[idx], l2a[idx], h2[idx])
        p1[idx] = pT
        q2[idx] = qJ
        case[idx] = 20 + sub

    if np.any(br3):
        idx = np.nonzero(br3)[0]
        pT, qJ, sub = transmit_jam_branch(idx, h2[idx], g2[idx], g1[idx],
                                          l2a[idx], l1a[idx], h1[idx])
        p2[idx] = pT
        q1[idx] = qJ
        case[idx] = 30 + sub

    if np.any(br4):
        idx = np.nonzero(br4)[0]
        t1 = (h1[idx] > l1a[idx]) & (g2[idx] > l2a[idx])
        t2 = (h2[idx] > l2a[idx]) & (g1[idx] > l1a[idx])
        sub = np.ones(idx.size, dtype=int)
        sub[t1 & ~t2] = 2
        sub[~t1 & t2] = 3
        sub[t1 & t2] = 4
        xa = np.zeros(idx.size); ya = np.zeros(idx.size)
        fa = np.zeros(idx.size, dtype=bool)
        xb = np.zeros(idx.size); yb = np.zeros(idx.size)
        fb = np.zeros(idx.size, dtype=bool)
        mA = (sub == 2) | (sub == 4)
        if np.any(mA):
            j = np.nonzero(mA)[0]
            x, y, found = _common_root_batch("p1q2", h1[idx[j]], h2[idx[j]],
                                             g1[idx[j]], g2[idx[j]],
                                             l1a[idx[j]], l2a[idx[j]])
            xa[j] = np.where(found, x, 0.0)
            ya[j] = np.where(found, y, 0.0)
            fa[j] = found
        mB = (sub == 3) | (sub == 4)
        if np.any(mB):
            j = np.nonzero(mB)[0]
            x, y, found = _common_root_batch("p1q2", h2[idx[j]], h1[idx[j]],
                                             g2[idx[j]], g1[idx[j]],
                                             l2a[idx[j]], l1a[idx[j]])
            xb[j] = np.where(found, x, 0.0)
            yb[j] = np.where(found, y, 0.0)
            fb[j] = found
        use_a = fa & ~fb
        use_b = fb & ~fa
        both = fa & fb
        if np.any(both):
            j = np.nonzero(both)[0]
            ra = _cj_rsum(h1[idx[j]], h2[idx[j]], g1[idx[j]], g2[idx[j]],
                          xa[j], np.zeros(j.size), np.zeros(j.size), ya[j])
            rb = _cj_rsum(h1[idx[j]], h2[idx[j]], g1[idx[j]], g2[idx[j]],
                          np.zeros(j.size), xb[j], yb[j], np.zeros(j.size))
            pick_a = ra >= rb  # ties -> solution A
            use_a[j] = pick_a
            use_b[j] = ~pick_a
        p1[idx] = np.where(use_a, xa, 0.0)
        q2[idx] = np.where(use_a, ya, 0.0)
        p2[idx] = np.where(use_b, xb, 0.0)
        q1[idx] = np.where(use_b, yb, 0.0)
        code = 40 + sub
        code = np.where((sub == 4) & use_a, 45, code)
        code = np.where((sub == 4) & use_b, 46, code)
        case[idx] = code
    return p1, p2, q1, q2, case


def cj_case_label(code: int) -> str:
    """Human-readable branch label of a jamming-tree case code, e.g.
    'B.2c' or 'B.4d-A'."""
    if 11 <= code <= 17:
        return f"B.1/A.{code - 10}"
    if code == 45:
        return "B.4d-A"
    if code == 46:
        return "B.4d-B"
    branch, sub = divmod(code, 10)
    return f"B.{branch}{'abcd'[sub - 1]}"


def esa_cj_case_label(s: EffectiveState, duals: DualVars) -> str:
    """Branch label of one state under the jamming tree."""
    _, _, _, _, case = esa_cj_policy_batch(
        np.array([s.h1]), np.array([s.h2]), np.array([s.g1]),
        np.array([s.g2]), duals.lambda1, duals.lambda2)
    return cj_case_label(int(case[0]))


# ---------------------------------------------------------------------------
# Baseline single-slot policy (structural form only)
# ---------------------------------------------------------------------------

def gs_cj_baseline_batch(h1, h2, g1, g2, l1, l2):
    """Structural baseline on raw squared gains.

    Region classification: both-receivers-strong -> both transmit, mixed
    -> strong user transmits and the weak one jams, both-weak -> silent.
    In-region powers use the single-user closed-form roots; jamming powers
    use the mirrored root (eavesdropper gain in the transmit slot).  This
    is an explicit approximation: only the structural zero pattern is
    normative.
    """
    h1, h2, g1, g2 = (np.asarray(a, dtype=float) for a in (h1, h2, g1, g2))
    m = h1.shape[0]
    l1a = np.broadcast_to(np.asarray(l1, dtype=float), h1.shape)
    l2a = np.broadcast_to(np.asarray(l2, dtype=float), h1.shape)
    p1 = np.zeros(m); p2 = np.zeros(m)
    q1 = np.zeros(m); q2 = np.zeros(m)

    s1 = h1 > g1  # user-1 receiver beats its eavesdropper gain
    s2 = h2 > g2
    a1 = s1 & (h1 - g1 > l1a)
    a2 = s2 & (h2 - g2 > l2a)
    j1 = ~s1 & (g1 - h1 > l1a)
    j2 = ~s2 & (g2 - h2 > l2a)

    d1 = s1 & s2
    d2 = s1 & ~s2
    d3 = ~s1 & s2
    p1 = np.where((d1 | d2) & a1,
                  _closed_form_root(np.where(a1, h1, 1.0),
                                    np.where(a1, g1, 0.0), l1a), 0.0)
    p2 = np.where((d1 | d3) & a2,
                  _closed_form_root(np.where(a2, h2, 1.0),
                                    np.where(a2, g2, 0.0), l2a), 0.0)
    q2 = np.where(d2 & j2,
                  _closed_form_root(np.where(j2, g2, 1.0),
                                    np.where(j2, h2, 0.0), l2a), 0.0)
    q1 = np.where(d3 & j1,
                  _closed_form_root(np.where(j1, g1, 1.0),
                                    np.where(j1, h1, 0.0), l1a), 0.0)
    return p1, p2, q1, q2


# ---------------------------------------------------------------------------
# Per-state Lagrangian values and the grid-search oracle
# ---------------------------------------------------------------------------

def lagrangian_esa(s: EffectiveState, p1, p2, duals: DualVars):
    """Per-state Lagrangian (nats) of the no-jamming objective."""
    return (np.log1p(s.h1 * p1) + np.log1p(s.h2 * p2)
            - np.log1p(s.g1 * p1 + s.g2 * p2)
            - duals.lambda1 * p1 - duals.lambda2 * p2)


def lagrangian_esa_cj(s: EffectiveState, d: PowerDecision, duals: DualVars):
    """Per-state Lagrangian (nats) of the jamming objective."""
    t1, t2 = d.p1 + d.q1, d.p2 + d.q2
    return (np.log1p(s.h1 * t1) + np.log1p(s.h2 * t2)
            - np.log1p(s.g1 * t1 + s.g2 * t2)
            + np.log1p(s.g1 * d.q1 + s.g2 * d.q2)
            - np.log1p(s.h1 * d.q1) - np.log1p(s.h2 * d.q2)
            - duals.lambda1 * t1 - duals.lambda2 * t2)


def grid_oracle(s: EffectiveState, duals: DualVars, scheme: str,
                grid_max: float, grid_n: int):
    """Exhaustive per-state Lagrangian maximization on a power grid.

    For the jamming scheme the grid enumerates the four pure
    transmit/jam role assignments (no power splitting).  Returns
    (decision, value).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    axis = np.linspace(0.0, grid_max, grid_n)
    x = axis[:, None]
    y = axis[None, :]
    if scheme == "esa":
        val = lagrangian_esa(s, x, y, duals)
        i, j = np.unravel_index(np.argmax(val), val.shape)
        return PowerDecision(float(axis[i]), float(axis[j])), float(val[i, j])
    if scheme == "esa_cj":
        lam = duals.lambda1 * x + duals.lambda2 * y
        tt = (np.log1p(s.h1 * x) + np.log1p(s.h2 * y)
              - np.log1p(s.g1 * x + s.g2 * y) - lam)
        tj = (np.log1p(s.h1 * x) - np.log1p(s.g1 * x + s.g2 * y)
              + np.log1p(s.g2 * y) - np.log1p(s.h2 * y) - lam)
        jt = (np.log1p(s.h2 * y) - np.log1p(s.g1 * x + s.g2 * y)
              + np.log1p(s.g1 * x) - np.log1p(s.h1 * x) - lam)
        best = None
        for mode, val in (("tt", tt), ("tj", tj), ("jt", jt)):
            i, j = np.unravel_index(np.argmax(val), val.shape)
            v = float(val[i, j])
            if best is None or v > best[1]:
                if mode == "tt":
                    d = PowerDecision(float(axis[i]), float(axis[j]), 0.0, 0.0)
                elif mode == "tj":
                    d = PowerDecision(float(axis[i]), 0.0, 0.0, float(axis[j]))
                else:
                    d = PowerDecision(0.0, float(axis[j]), float(axis[i]), 0.0)
                best = (d, v)
        return best
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Dual search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualSearchResult:
    duals: DualVars
    realized: tuple        # (E[P1+Q1], E[P2+Q2]) on the frozen batch
    slack: tuple           # per-user: constraint inactive at the lower bracket
    converged: bool
    sweeps: int


def _dual_powers(scheme: str, sq, l1, l2):
    """Per-state powers (p1, p2, q1, q2) of ``scheme``'s dual policy.

    ``sq`` holds the squared gains ``batch.sq()``; the repetition schemes'
    case trees run on the effective gains ``2 * sq``.
    """
    h1, h2, g1, g2 = sq
    if scheme == "esa":
        p1, p2, _ = esa_policy_batch(2 * h1, 2 * h2, 2 * g1, 2 * g2, l1, l2)
        z = np.zeros_like(p1)
        return p1, p2, z, z
    if scheme == "esa_cj":
        return esa_cj_policy_batch(2 * h1, 2 * h2, 2 * g1, 2 * g2, l1, l2)[:4]
    if scheme == "gs_cj":
        return gs_cj_baseline_batch(h1, h2, g1, g2, l1, l2)
    raise ValueError(f"unknown scheme {scheme!r}")


def dual_search(params: FadingParams, budget: PowerBudget, scheme: str,
                n: int, seed: int, tol: float = 0.01,
                max_sweeps: int = 50) -> DualSearchResult:
    """Alternating per-coordinate bisection on a frozen state batch.

    For each coordinate the multiplier is bisected until the realized
    average power is within ``tol * pbar`` of the budget, or the
    constraint is slack at the smallest bracketed multiplier.
    Deterministic given the seed.
    """
    if not (budget.pbar1 > 0 and budget.pbar2 > 0):
        raise ValueError("budgets must be strictly positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sq = sample_batch(params, n, rng).sq()
    pbar = (budget.pbar1, budget.pbar2)
    lam = [1.0, 1.0]
    slack = [False, False]

    def realized(cur):
        p1, p2, q1, q2 = _dual_powers(scheme, sq, cur[0], cur[1])
        return float((p1 + q1).mean()), float((p2 + q2).mean())

    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        for k in (0, 1):
            slack[k] = False
            trial = list(lam)
            trial[k] = LAM_MIN
            e_lo = realized(trial)[k]
            if e_lo <= pbar[k] * (1.0 + tol):
                lam[k] = LAM_MIN
                slack[k] = True
                continue
            lo = LAM_MIN
            hi = max(lam[k], 1.0)
            trial[k] = hi
            for _ in range(80):
                if realized(trial)[k] <= pbar[k]:
                    break
                hi *= 2.0
                trial[k] = hi
            else:
                raise RootSolveError("could not bracket the dual variable")
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                trial[k] = mid
                e = realized(trial)[k]
                if abs(e - pbar[k]) <= tol * pbar[k]:
                    hi = mid
                    break
                if e > pbar[k]:
                    lo = mid
                else:
                    hi = mid
            lam[k] = hi
        real = realized(lam)
        if all(slack[k] or abs(real[k] - pbar[k]) <= tol * pbar[k]
               for k in (0, 1)):
            converged = True
            break
    real = realized(lam)
    return DualSearchResult(duals=DualVars(lam[0], lam[1]),
                            realized=real, slack=tuple(slack),
                            converged=converged, sweeps=sweeps)


class DualPolicy:
    """Batched dual policy of ``scheme`` at fixed multipliers, for the
    Monte Carlo engine: the KKT case tree (``esa``, ``esa_cj``) or the
    structural single-slot baseline (``gs_cj``)."""

    def __init__(self, scheme: str, duals: DualVars):
        self.scheme = scheme
        self.duals = duals

    def decide_batch(self, batch):
        return _dual_powers(self.scheme, batch.sq(), self.duals.lambda1,
                            self.duals.lambda2)
