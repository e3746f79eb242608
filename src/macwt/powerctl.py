"""KKT power control for the aligned schemes.

Everything here operates on *effective* gains: the per-state quantities
``h_k = 2|h_k|^2`` and ``g_k = 2|g_k|^2`` that absorb the factor of two
produced by coherent repetition.  Stationarity, closed forms and the case
trees are expressed in natural-log units (the Lagrangian of the sum-rate
objective); reported rates stay in bits elsewhere.

The per-state allocation without jamming is one pick among the state's
candidates: the positive common roots of a pair of coupled quadratics,
each user alone (a closed form) and silence; the seven-way partition of
the gain/dual space survives only as a case label.  The jamming tree
first splits on which user's receiver gain beats its eavesdropper gain;
power splitting (P_k > 0 and Q_k > 0 for the same user) never occurs.
While user 2 jams, its rate term ``log1p(h2 Q2)`` cancels against the
jamming penalty and ``log1p(g2 Q2)`` is left, so the jamming Lagrangian
is the no-jamming one with h2 replaced by g2: the whole jamming tree is
one :func:`esa_policy_batch` call on stacked rows.

Rows that cannot hold a positive common root (a user priced out by
``h <= lambda``, or :func:`_root_free`) get no Newton start.  On the
rows left, the coupled quadratics are eliminated to a scalar cubic in P1
(a resultant whose quartic term cancels), solved batched in closed form
(Cardano plus deflation; rows with a vanishing leading coefficient go to
``np.roots``).  Every Newton start (each real root of the cubic and, on
rows without a certified root, the dual-scaled fallback starts) goes
through :func:`_polish_starts`: one stacked Newton pass (kept in the
nonnegative quadrant) that stops each start on its own step; a root
counts only if it is strictly positive with a small residual.  A root is
only stationary, and the dual method needs each state's maximizer of the
Lagrangian: a state's candidates are ranked once, by
:func:`_best_by_lagrangian`, which the jamming tree also uses between
its two transmit/jam orientations.  A state's powers do not depend on
the batch it is solved in.

The dual policies of the three schemes with a multiplier search (``esa``,
``esa_cj`` and the ``gs_cj`` baseline) are dispatched in one place,
:func:`_dual_powers`, shared by :func:`dual_search`, :class:`DualPolicy`
and ``macwt query --duals``; it also returns the case trees' codes.
:func:`dual_search` prices both budgets at once: a quasi-Newton (Broyden)
solve of the two budget equations in ``log(lambda)`` on one frozen state
batch, stopped only when complementary slackness holds at the final
multipliers.  It needs a handful of case-tree evaluations per search,
each one policy call on the whole batch, on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, FadingParams, sample_gains
from .rates import ESA, ESA_CJ, GS_CJ, PowerBudget, PowerDecision

RESIDUAL_TOL = 1e-9   # relative residual for accepting a common root
CLAMP_TOL = 1e-9      # components in (-CLAMP_TOL, 0) are clamped to 0
LAM_MIN = 1e-8        # smallest multiplier the dual search takes
_NEWTON_ITERS = 40    # Newton step cap per start
_MAX_EVALS = 60       # dual-search policy evaluations
_MAX_LOG_STEP = 4.0   # dual-search step cap per coordinate, in log(lambda)
_HALVINGS = 3         # step halvings before the Jacobian is rebuilt
_FD_STEP = 0.1        # forward-difference step in log(lambda)


class RootSolveError(RuntimeError):
    """:func:`dual_search` met a realized power that is not finite."""


class CaseSolverError(RuntimeError):
    """A case that guarantees a positive common root failed to produce
    one, or a state's candidates could not be ranked."""


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
    return EffectiveState(*(2.0 * v for v in state.sq()))


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


# ---------------------------------------------------------------------------
# Stationarity residuals
# ---------------------------------------------------------------------------

def esa_cj_kkt_residual(s: EffectiveState, d: PowerDecision,
                        duals: DualVars) -> tuple:
    """Stationarity residuals (P1, P2, Q1, Q2 equations) with zero slack;
    without jamming, the first two are the whole system."""
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


def _cubic_roots(c):
    """All roots of c0 + c1 x + c2 x^2 + c3 x^3 = 0 per row of ``c``, (m, 4).

    Closed-form (Cardano plus deflation), fully vectorized; results are
    polished by Newton downstream so modest accuracy is acceptable.
    Rows with a (near-)vanishing leading coefficient fall back to
    ``np.roots``, each on its coefficients from the first one above
    1e-12 of the row's largest (the trim is found for all rows at once).
    """
    roots = np.full((c.shape[0], 3), np.nan, dtype=complex)
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
    low = np.flatnonzero(~lead_ok)
    rev = c[low, ::-1]
    big = np.abs(rev) > 1e-12 * np.maximum(scale[low], 1e-300)[:, None]
    keep = big.any(axis=1)
    for idx, row, lo in zip(low[keep], rev[keep], big[keep].argmax(axis=1)):
        r = np.roots(row[lo:])
        roots[idx, :r.size] = r
    return roots


def _equations(h1, h2, g1, g2, l1, l2, x, y):
    """The cleared stationarity quadratics ``f1 = a1 - g1 - c1`` and
    ``f2 = a2 + b2 - c2`` at (x, y): ``(f1, f2, den, (a1, c1), (a2, b2,
    c2))``.  ``a2 = h2 - g2`` is exact when h2 = g2 (user 2 jamming);
    ``h2 (1 + g1 x) - g2`` would cancel there when g1 x << 1."""
    den = 1.0 + g1 * x + g2 * y
    a1, c1 = h1 * (1.0 + g2 * y), l1 * (1.0 + h1 * x) * den
    a2, b2, c2 = h2 - g2, h2 * g1 * x, l2 * (1.0 + h2 * y) * den
    return a1 - g1 - c1, a2 + b2 - c2, den, (a1, c1), (a2, b2, c2)


def _system(h1, h2, g1, g2, l1, l2, x, y):
    """Residuals and Jacobian of the two :func:`_equations`."""
    f1, f2, den, *_ = _equations(h1, h2, g1, g2, l1, l2, x, y)
    j11 = -l1 * (h1 * den + (1.0 + h1 * x) * g1)
    j12 = h1 * g2 - l1 * (1.0 + h1 * x) * g2
    j21 = h2 * g1 - l2 * (1.0 + h2 * y) * g1
    j22 = -l2 * (h2 * den + (1.0 + h2 * y) * g2)
    return f1, f2, j11, j12, j21, j22


def _newton_polish(h1, h2, g1, g2, l1, l2, x, y):
    """2-D Newton kept in the nonnegative quadrant, stopped per row.

    A row stops once its own step moves neither coordinate by more than
    1e-14 relative, or after ``_NEWTON_ITERS`` steps; only the rows still
    moving are evaluated.  Each row's result is therefore the one it
    would get alone, whatever else shares the batch.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    args = (h1, h2, g1, g2, l1, l2)
    rows = np.arange(x.size)
    xa, ya = x, y
    for _ in range(_NEWTON_ITERS):
        f1, f2, j11, j12, j21, j22 = _system(*args, xa, ya)
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        xn = xa - dx
        yn = ya - dy
        xn = np.where(np.isfinite(xn), np.maximum(xn, 0.0), xa)
        yn = np.where(np.isfinite(yn), np.maximum(yn, 0.0), ya)
        moved = np.maximum(np.abs(xn - xa) / (1.0 + np.abs(xn)),
                           np.abs(yn - ya) / (1.0 + np.abs(yn)))
        go = moved > 1e-14
        if go.all():
            xa, ya = xn, yn
            continue
        done = ~go
        x[rows[done]] = xn[done]
        y[rows[done]] = yn[done]
        rows = rows[go]
        if rows.size == 0:
            return x, y
        args = tuple(a[go] for a in args)
        xa, ya = xn[go], yn[go]
    x[rows] = xa
    y[rows] = ya
    return x, y


def _rel_residual(h1, h2, g1, g2, l1, l2, x, y):
    """Largest residual of the two :func:`_equations`, each relative to
    its largest term (and at least 1)."""
    f1, f2, _, (a1, c1), (a2, b2, c2) = _equations(h1, h2, g1, g2, l1, l2,
                                                   x, y)
    one = np.ones_like(f1)
    s1 = np.maximum.reduce([np.abs(a1), np.abs(g1), np.abs(c1), one])
    s2 = np.maximum.reduce([np.abs(a2), np.abs(b2), np.abs(c2), one])
    return np.maximum(np.abs(f1) / s1, np.abs(f2) / s2)


def _eliminated_cubic(h1, h2, g1, g2, l1, l2):
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
    t1 = _polymul([h2 - g2, h2 * g1], _polymul(D, D))
    U = [d0 + h2 * n0, d1 + h2 * n1, h2 * n2]
    V = [d0 + g2 * n0, d1 + g1 * d0 + g2 * n1, g1 * d1 + g2 * n2]
    t2 = _polymul(U, V)  # its x^4 term is the one that cancels
    return [t1[i] - l2 * t2[i] for i in range(4)], N, D


def _lagrangian_vals(h1, h2, g1, g2, l1, l2, x, y):
    """Per-state Lagrangian (nats) of the no-jamming objective at (x, y)."""
    return (np.log1p(h1 * x) + np.log1p(h2 * y)
            - np.log1p(g1 * x + g2 * y) - l1 * x - l2 * y)


# dual-scaled Newton starts (x0, y0) = (a/l1, b/l2) for rows whose cubic
# candidates all fail, tried in this order
_FALLBACK_STARTS = ((1.0, 1.0), (0.1, 0.1), (10.0, 10.0), (1.0, 0.01),
                    (0.01, 1.0))


def _polish_starts(args, x0, y0):
    """Polish the ``(m, k)`` Newton starts ``(x0, y0)`` at the rows
    ``args`` (NaN in ``x0``: no start) in one stacked :func:`_newton_polish`
    call, column by column (measured about 5 % faster than row by row).

    Returns ``(x, y, ok)`` of shape ``(m, k)``, NaN where no start was
    taken; ``ok`` marks strictly positive roots with relative residual
    <= RESIDUAL_TOL (zero components belong to the single-user and
    silent cases).
    """
    x, y = np.full((2, *x0.shape), np.nan)
    ok = np.zeros(x0.shape, dtype=bool)
    k, r = np.nonzero(~np.isnan(x0).T)
    if r.size:
        rows = tuple(v[r] for v in args)
        xp, yp = _newton_polish(*rows, x0[r, k], y0[r, k])
        x[r, k], y[r, k] = xp, yp
        ok[r, k] = ((_rel_residual(*rows, xp, yp) <= RESIDUAL_TOL)
                    & (xp > 0.0) & (yp > 0.0))
    return x, y, ok


def _positive_roots_batch(h1, h2, g1, g2, l1, l2):
    """Every certified positive common root of the quadratics, per row.

    Returns ``(x, y, ok)``, each of shape ``(m, 3)`` in the order of the
    resultant cubic's roots.  Every real root with ``x >= -CLAMP_TOL``,
    back-substituted for y, is a Newton start for :func:`_polish_starts`,
    which certifies them (``ok``); ``x`` and ``y`` are NaN where no start
    was taken.
    """
    coeffs, N, D = _eliminated_cubic(h1, h2, g1, g2, l1, l2)
    roots = _cubic_roots(np.stack(coeffs, axis=-1))
    real = np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots.real))
    x = np.where(real, roots.real, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = (N[0][:, None] + N[1][:, None] * x + N[2][:, None] * x * x) \
            / (D[0][:, None] + D[1][:, None] * x)
    x0 = np.where(x >= -CLAMP_TOL, np.maximum(x, 0.0), np.nan)
    y0 = np.where(np.isfinite(y), np.maximum(y, 0.0), 0.0)
    return _polish_starts((h1, h2, g1, g2, l1, l2), x0, y0)


def _best_by_lagrangian(args, x, y, ok):
    """Per row, the ``ok`` column of the ``(m, k)`` candidates ``(x, y)``
    with the largest :func:`_lagrangian_vals` (0 if no column is ok);
    ``args`` are per row, ``(m,)``, or per candidate, ``(m, k)``.  Values
    within 1e-12 * max(1, |L|) of the largest tie, and ties go to the
    earliest column, so copies of one root a few ulps apart pick the same
    column in any summation order.  Only rows with a choice (two or more
    ``ok`` columns) are ranked, at their ``ok`` cells; a row with one
    ``ok`` column takes it, as the ranking would.  A ranked row whose
    largest value is not finite (a gain so large that the Lagrangian
    overflows) raises :class:`CaseSolverError`: no column can be told
    best there.
    """
    pick = np.argmax(ok, axis=1)
    rows = np.flatnonzero(np.count_nonzero(ok, axis=1) > 1)
    ok = ok[rows]
    r, c = np.nonzero(ok)
    rr = rows[r]  # the cells' rows in the full batch
    L = np.full(ok.shape, -np.inf)
    L[r, c] = _lagrangian_vals(*(v[rr, c] if v.ndim == 2 else v[rr]
                                 for v in args), x[rr, c], y[rr, c])
    top = L.max(axis=1, keepdims=True)
    bad = ~np.isfinite(top[:, 0])
    if bad.any():
        j = rows[np.flatnonzero(bad)[0]]
        raise CaseSolverError(
            "the candidates' Lagrangian is not finite "
            f"(row {j}: {[float(v[j].flat[0]) for v in args]})")
    near = L >= top - 1e-12 * np.maximum(1.0, np.abs(top))
    pick[rows] = np.argmax(ok & near, axis=1)
    return pick


def _root_free(h1, h2, g1, g2, l1, l2):
    """Rows whose quadratics provably have no positive common root: the
    cubic ``psi`` of :func:`_common_root_batch` stays below
    ``-RESIDUAL_TOL`` times its term scale on ``[0, u_max]``.

    ``psi(0) < 0``, so its largest value there is at ``u_max`` or at a
    real root of the quadratic ``psi'`` (closed form, clipped into the
    interval).  Anything not finite leaves its row open.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = (h2 - g2) / h2
        c, c_abs = w - g1 / h1, np.abs(w) + g1 / h1
        gg, lg, ll = g1 * g2, l1 * g2 + l2 * g1, l1 * l2
        # psi(u) = p3 u^3 + p2 u^2 + p1 u - ll
        p3, p2, p1 = c * gg, c * lg + gg, c * ll
        u_max = np.clip(np.fmin((h1 - l1) / g1, (h2 - l2) / g2), 0.0, 1.0)
        # roots of psi' = 3 p3 u^2 + 2 p2 u + p1, cancellation-free
        q = -(p2 + np.copysign(np.sqrt(p2 * p2 - 3.0 * p3 * p1), p2))
        u = np.stack([u_max, q / (3.0 * p3), p1 / q])
        u = np.fmax(np.fmin(u, u_max), 0.0)  # NaN (no real root) -> u_max
        psi = ((p3 * u + p2) * u + p1) * u - ll
        # the same sum with every product's magnitude: its rounding scale
        scale = ((c_abs * gg * u + c_abs * lg + gg) * u + c_abs * ll) * u + ll
        return np.all(psi < -RESIDUAL_TOL * scale, axis=0)


def _common_root_batch(h1, h2, g1, g2, l1, l2):
    """Every row's common-root candidates ``(x, y, ok)``, each ``(m, 8)``:
    3 cubic columns and one per ``_FALLBACK_STARTS`` start, ``ok`` on the
    certified roots; ranking them is the caller's.  Rows that cannot hold
    a root get no Newton start (NaN, no ``ok``): a user with ``h <= l``
    (``x > 0`` needs ``h1/(1 + h1 x) = l1 + g1 u > l1``) and the rows
    :func:`_root_free` rules out.

    In the eavesdropper factor ``u = 1/(1 + g1 x + g2 y)`` the two equations
    read ``h1/(1 + h1 x) = l1 + g1 u`` and ``h2/(1 + h2 y) = l2 + g2 u``,
    so ``x = 1/(l1 + g1 u) - 1/h1`` and ``y = 1/(l2 + g2 u) - 1/h2``.
    Putting these into ``1/u = 1 + g1 x + g2 y`` and clearing
    ``u (l1 + g1 u)(l2 + g2 u) > 0`` leaves

        psi(u) = C g1 g2 u^3 + (C (l1 g2 + l2 g1) + g1 g2) u^2
                 + C l1 l2 u - l1 l2 = 0,   C = (h2 - g2)/h2 - g1/h1,

    with ``C`` written so that it is exact when h2 = g2 (user 2 jams).
    ``x > 0`` and ``y > 0`` hold exactly for ``u`` below ``(h1 - l1)/g1``
    and ``(h2 - l2)/g2``, and ``u <= 1``; so a positive root needs a root
    of ``psi`` in ``(0, u_max)``, ``u_max`` the least of the three.

    On the open rows the cubic columns come from
    :func:`_positive_roots_batch`; rows left without a certified root (the
    resultant coefficients cancel badly at extreme gain ratios) get the
    dual-scaled fallback starts.  Newton stops per row, so a row's columns
    do not depend on the rest of the batch.
    """
    priced_out = (h1 <= l1) | (h2 <= l2)
    rows = np.flatnonzero(~(priced_out | _root_free(h1, h2, g1, g2, l1, l2)))
    args = tuple(v[rows] for v in (h1, h2, g1, g2, l1, l2))
    x, y, ok = _positive_roots_batch(*args)
    a, b = np.array(_FALLBACK_STARTS).T
    none = ~ok.any(axis=1, keepdims=True)
    lam1, lam2 = args[4][:, None], args[5][:, None]
    xf, yf, hit = _polish_starts(args, np.where(none, a / lam1, np.nan),
                                 b / lam2)
    shape = (h1.shape[0], 3 + a.size)
    xy = np.full((2, *shape), np.nan)
    found = np.zeros(shape, dtype=bool)
    xy[0, rows], xy[1, rows] = np.hstack((x, xf)), np.hstack((y, yf))
    found[rows] = np.hstack((ok, hit))
    return xy[0], xy[1], found


def _state_row(s: EffectiveState, duals: DualVars):
    """One state and its duals as length-1 arrays (h1, h2, g1, g2, l1, l2)."""
    return tuple(np.array([float(v)]) for v in
                 (s.h1, s.h2, s.g1, s.g2, duals.lambda1, duals.lambda2))


# ---------------------------------------------------------------------------
# Allocation without jamming: one pick, seven case labels
# ---------------------------------------------------------------------------

# case code by user 1's class (row) and user 2's (column): A if h <= l,
# C if h - g > l, else B
_CASE = np.array([[1, 1, 2], [1, 4, 5], [3, 6, 7]])


def esa_policy_batch(h1, h2, g1, g2, l1, l2):
    """Vectorized allocation without jamming.  Returns (p1, p2, case).

    One :func:`_best_by_lagrangian` pick over every row ranks all of a
    state's candidates: the :func:`_common_root_batch` columns, each user
    alone where its class is C, and silence (a row whose only candidate
    is silence takes it unranked).  ``case`` (:data:`_CASE`) is
    a label that chooses no power; a class-A user (``h <= l``) leaves no
    root, and a case-7 row without one raises :class:`CaseSolverError`.
    """
    h1, h2, g1, g2 = (np.asarray(a, dtype=float) for a in (h1, h2, g1, g2))
    l1a = np.broadcast_to(np.asarray(l1, dtype=float), h1.shape)
    l2a = np.broadcast_to(np.asarray(l2, dtype=float), h1.shape)
    C1 = h1 - g1 > l1a
    C2 = h2 - g2 > l2a
    case = _CASE[np.where(h1 <= l1a, 0, 1 + C1),
                 np.where(h2 <= l2a, 0, 1 + C2)]

    args = (h1, h2, g1, g2, l1a, l2a)
    x, y, ok = _common_root_batch(*args)
    bad7 = (case == 7) & ~ok.any(axis=1)
    if np.any(bad7):
        j = np.flatnonzero(bad7)[0]
        raise CaseSolverError(
            "no positive common root found in the both-users-active case "
            f"(h1={h1[j]}, h2={h2[j]}, g1={g1[j]}, g2={g2[j]}, "
            f"l1={l1a[j]}, l2={l2a[j]})")
    # the roots, user 1 alone, user 2 alone, silence
    z = np.zeros(h1.shape)
    p1 = np.where(C1, _closed_form_root(h1, g1, l1a), 0.0)
    p2 = np.where(C2, _closed_form_root(h2, g2, l2a), 0.0)
    cx = np.column_stack([x, p1, z, z])
    cy = np.column_stack([y, z, p2, z])
    ok = np.column_stack([ok, C1, C2, np.ones(h1.shape, dtype=bool)])
    pick = np.arange(h1.shape[0]), _best_by_lagrangian(args, cx, cy, ok)
    return cx[pick], cy[pick], case


def esa_case_id(s: EffectiveState, duals: DualVars) -> int:
    """Which of the seven cases the state falls in (1..7)."""
    _, _, case = esa_policy_batch(*_state_row(s, duals))
    return int(case[0])


# ---------------------------------------------------------------------------
# Case tree with jamming
# ---------------------------------------------------------------------------

# case codes: 10+k -> no-jamming case k; 2x -> branch 2 sub-case x (1..4);
# 3x mirror; 40+x -> branch 4 sub-case x, with 45/46 marking the two-root
# sub-case resolved to solution A / solution B.  A transmit/jam row is
# the no-jamming allocation on gains (hT, gJ, gT, gJ): the jammer's class
# is A (gJ <= lJ) or B, never C (that would need 0 > lJ), so only cases
# 1, 3, 4 and 6 occur, and they are sub-cases 1..4.
_TJ_SUB = np.array([0, 1, 0, 2, 3, 0, 4, 0])


def esa_cj_policy_batch(h1, h2, g1, g2, l1, l2):
    """Vectorized allocation with jamming.  Returns (p1, p2, q1, q2, case).

    One :func:`esa_policy_batch` call on stacked rows: branch 1 (both
    receivers strong) as given; user 1 transmitting while user 2 jams,
    the gains ``(h1, g2, g1, g2)``, on every row with ``h2 < g2``
    (branches 2 and 4); and the mirror ``(h2, g1, g2, g1)`` with swapped
    duals on every row with ``h1 < g1`` (branches 3 and 4).  Branch 4
    keeps the solution that transmits; if both do, the one with the larger
    jamming Lagrangian (:func:`_best_by_lagrangian`, ties to solution A).
    """
    h1, h2, g1, g2 = (np.asarray(a, dtype=float) for a in (h1, h2, g1, g2))
    m = h1.shape[0]
    l1a = np.broadcast_to(np.asarray(l1, dtype=float), h1.shape)
    l2a = np.broadcast_to(np.asarray(l2, dtype=float), h1.shape)

    # boundaries (h_k == g_k) resolve toward the no-jamming branch
    i1 = np.nonzero((h1 >= g1) & (h2 >= g2))[0]
    ia = np.nonzero(h2 < g2)[0]  # solution A: user 1 transmits, 2 jams
    ib = np.nonzero(h1 < g1)[0]  # solution B: user 2 transmits, 1 jams
    n1, na = i1.size, ia.size

    def stack(c1, ca, cb):
        return np.concatenate([c1[i1], ca[ia], cb[ib]])

    args = (stack(h1, h1, h2), stack(h2, g2, g1), stack(g1, g1, g2),
            stack(g2, g2, g1), stack(l1a, l1a, l2a), stack(l2a, l2a, l1a))
    x, y, code = esa_policy_batch(*args)
    sub = _TJ_SUB[code]
    p1 = np.zeros(m); p2 = np.zeros(m)
    q1 = np.zeros(m); q2 = np.zeros(m)
    case = np.zeros(m, dtype=int)
    p1[i1], p2[i1], case[i1] = x[:n1], y[:n1], 10 + code[:n1]
    a = slice(n1, n1 + na)
    p1[ia], q2[ia], case[ia] = x[a], y[a], 20 + sub[a]
    b = slice(n1 + na, None)
    p2[ib], q1[ib], case[ib] = x[b], y[b], 30 + sub[b]

    # branch 4 holds solutions A and B, at stacked rows ja and jb in i4's
    # order; each transmits (exists) where its power is > 0
    i4 = np.nonzero((h1 < g1) & (h2 < g2))[0]
    ja = n1 + np.nonzero(h1[ia] < g1[ia])[0]
    jb = n1 + na + np.nonzero(h2[ib] < g2[ib])[0]
    j = np.stack([ja, jb], axis=1)
    use = x[j] > 0.0
    pick = _best_by_lagrangian(tuple(v[j] for v in args), x[j], y[j], use)
    use_a = use[:, 0] & (pick == 0)  # ties -> solution A
    use_b = use[:, 1] & (pick == 1)
    p1[i4[~use_a]] = q2[i4[~use_a]] = 0.0
    p2[i4[~use_b]] = q1[i4[~use_b]] = 0.0
    sub4 = 1 + (sub[ja] == 3) + 2 * (sub[jb] == 3)
    code4 = 40 + sub4
    code4 = np.where((sub4 == 4) & use_a, 45, code4)
    code4 = np.where((sub4 == 4) & use_b, 46, code4)
    case[i4] = code4
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
    *_, case = esa_cj_policy_batch(*_state_row(s, duals))
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

    Each user's one closed form (:func:`_closed_form_root` on the pair
    ``(max(h, g), min(h, g))``), where the gap exceeds its dual, is its
    transmit power where ``h > g``, or its jamming power where ``h <= g``
    and the partner's ``h > g``.  ``l1`` and ``l2`` are scalars or
    per-row arrays.
    """
    h1, h2, g1, g2 = (np.asarray(a, dtype=float) for a in (h1, h2, g1, g2))
    s1 = h1 > g1  # user-1 receiver beats its eavesdropper gain
    s2 = h2 > g2
    on1 = np.abs(h1 - g1) > l1
    on2 = np.abs(h2 - g2) > l2
    p1 = _closed_form_root(np.maximum(h1, g1), np.minimum(h1, g1), l1)
    p2 = _closed_form_root(np.maximum(h2, g2), np.minimum(h2, g2), l2)
    q1 = np.where(s2 & ~s1 & on1, p1, 0.0)
    q2 = np.where(s1 & ~s2 & on2, p2, 0.0)
    np.copyto(p1, 0.0, where=~(s1 & on1))
    np.copyto(p2, 0.0, where=~(s2 & on2))
    return p1, p2, q1, q2


# ---------------------------------------------------------------------------
# Dual search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualSearchResult:
    duals: DualVars
    realized: tuple        # (E[P1+Q1], E[P2+Q2]) on the frozen batch
    realized_stderr: tuple  # standard errors of those means on the batch
    slack: tuple           # per user: at LAM_MIN and under budget at the final λ
    converged: bool
    sweeps: int            # policy evaluations (case-tree passes) spent


def _dual_powers(scheme: str, sq, l1, l2):
    """Per-state powers and case code ``(p1, p2, q1, q2, case)`` of
    ``scheme``'s dual policy; ``case`` is the case tree's code, None for
    the structural baseline.

    ``sq`` holds the squared gains ``batch.sq()``; the repetition schemes'
    case trees run on the effective gains ``2 * sq``.
    """
    h1, h2, g1, g2 = sq
    if scheme == ESA:
        p1, p2, case = esa_policy_batch(2 * h1, 2 * h2, 2 * g1, 2 * g2, l1, l2)
        z = np.zeros_like(p1)
        return p1, p2, z, z, case
    if scheme == ESA_CJ:
        return esa_cj_policy_batch(2 * h1, 2 * h2, 2 * g1, 2 * g2, l1, l2)
    if scheme == GS_CJ:
        return (*gs_cj_baseline_batch(h1, h2, g1, g2, l1, l2), None)
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class _DualPoint:
    """The search's view of one multiplier pair."""

    lam: np.ndarray        # (λ1, λ2)
    power: np.ndarray      # realized (E[P1+Q1], E[P2+Q2])
    stderr: np.ndarray     # standard errors of ``power``
    resid: np.ndarray      # log(power / pbar), zero power floored at tiny
    slack: np.ndarray      # at LAM_MIN and within (1 + tol) of the budget
    done: bool             # every user within tol of its budget, or slack
    merit: float           # largest |resid| over the users not slack

    @property
    def flat(self) -> bool:
        """A user not slack realizes exactly zero power: its residual
        carries no slope, so neither a merit test nor a secant applies."""
        return bool(np.any(~self.slack & (self.power == 0.0)))


def _newton_step(jac, resid, free):
    """``-J^-1 r`` over the ``free`` users, 0 for the others.

    Written out for the 2x2 and 1x1 cases: ``np.linalg.solve`` would
    load the LAPACK module, about 0.6 MB of resident memory, into runs
    that otherwise never touch it.
    """
    if free.all():
        (a, b), (c, d) = jac
        return np.array([b * resid[1] - d * resid[0],
                         c * resid[0] - a * resid[1]]) / (a * d - b * c)
    return np.where(free, -resid / np.diag(jac), 0.0)


def dual_search(params: FadingParams, budget: PowerBudget, scheme: str,
                n: int, seed: int, tol: float = 0.01) -> DualSearchResult:
    """Multipliers that price ``scheme``'s dual policy into the budgets.

    Solves ``r(u) = log E[P(e^u)] - log pbar = 0`` jointly in
    ``u = log(lambda)`` by Broyden's quasi-Newton method on one frozen
    batch of squared gains (:func:`~macwt.channel.sample_gains`), from
    ``lambda_k = max(1/pbar_k, LAM_MIN)`` (which depends only on the
    budget) and the water-filling slope ``J = -I``.  Steps are
    clipped to ``_MAX_LOG_STEP`` per coordinate and floor lambda at
    ``LAM_MIN``.  A step is taken when the largest residual falls, or
    without that test while some user realizes zero power; otherwise it
    is halved up to ``_HALVINGS`` times, and then the Jacobian is rebuilt
    by forward differences.  The state after a rebuild depends only on
    the multipliers, so a search asked to rebuild twice at the same point
    would only repeat itself: it stops there, not converged.  Users at
    ``LAM_MIN`` and under budget are held there.  The search converges
    when, at the current multipliers, each user is within ``tol * pbar``
    of its budget or sits at ``LAM_MIN`` within ``(1 + tol) * pbar``:
    complementary slackness checked at one point.  Deterministic given
    the seed.

    Each evaluation is one policy call on the whole batch, on the calling
    thread at any worker count: the per-row root loop holds the GIL, so
    chunks on the worker pool would run one after another, and on the
    ``gs_cj`` baseline's sub-millisecond calls the pool's round trip
    costs more than it saves.
    """
    if not (budget.pbar1 > 0 and budget.pbar2 > 0):
        raise ValueError("budgets must be strictly positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sq = sample_gains(params, n, rng).sq()
    pbar = np.array([budget.pbar1, budget.pbar2])
    evals = 0

    def evaluate(lam):
        nonlocal evals
        evals += 1
        p1, p2, q1, q2 = _dual_powers(scheme, sq, float(lam[0]),
                                      float(lam[1]))[:4]
        power, meansq = np.empty(2), np.empty(2)
        for k, tot in enumerate((p1 + q1, p2 + q2)):
            # no (tot - mean)**2, so no more state-length arrays; and einsum,
            # not BLAS (tot @ tot): on a 20,000-state batch OpenBLAS wakes
            # helper threads that spin on the other core, and its sum's bits
            # would depend on the BLAS thread count
            power[k] = tot.mean()
            meansq[k] = np.einsum("i,i->", tot, tot) / n
        stderr = np.sqrt(np.maximum(meansq - power * power, 0.0) / n)
        if not np.all(np.isfinite(power)):
            raise RootSolveError(
                f"realized power {power.tolist()} at multipliers "
                f"{lam.tolist()} is not finite")
        resid = np.log(np.maximum(power, np.finfo(float).tiny) / pbar)
        slack = (lam <= LAM_MIN) & (power <= pbar * (1.0 + tol))
        done = bool(np.all(slack | (np.abs(power - pbar) <= tol * pbar)))
        merit = float(np.max(np.abs(resid[~slack]), initial=0.0))
        return _DualPoint(lam, power, stderr, resid, slack, done, merit)

    def secant(jac, a, b):
        """Broyden's rank-1 update of ``jac`` from point ``a`` to ``b``."""
        du = np.log(b.lam / a.lam)
        if a.flat or b.flat or not du @ du > 0:
            return -np.eye(2)
        jac = jac + np.outer(b.resid - a.resid - jac @ du, du) / (du @ du)
        return jac if np.all(np.diag(jac) < 0) else -np.eye(2)

    cur = evaluate(np.maximum(1.0 / pbar, LAM_MIN))
    jac = -np.eye(2)
    step, halvings, rebuilt = None, 0, set()
    while not cur.done and evals < _MAX_EVALS:
        free = ~cur.slack
        if step is None:
            step = np.clip(_newton_step(jac, cur.resid, free),
                           -_MAX_LOG_STEP, _MAX_LOG_STEP)
        trial = evaluate(np.maximum(cur.lam * np.exp(step), LAM_MIN))
        jac = secant(jac, cur, trial)
        if cur.flat or trial.merit < cur.merit:
            cur, step, halvings = trial, None, 0
        elif halvings < _HALVINGS:
            step, halvings = step / 2.0, halvings + 1
        elif (evals + np.count_nonzero(free) <= _MAX_EVALS
              and tuple(cur.lam) not in rebuilt):
            # the model has failed along this step: rebuild it around cur
            # (a second rebuild at the same point would repeat the first)
            rebuilt.add(tuple(cur.lam))
            jac, step, halvings = -np.eye(2), None, 0
            probes = []
            for k in np.flatnonzero(free):
                lam = cur.lam.copy()
                lam[k] *= math.exp(_FD_STEP)
                probes.append(evaluate(lam))
                jac[:, k] = (probes[-1].resid - cur.resid) / _FD_STEP
            if any(p.flat for p in probes) or not np.all(np.diag(jac) < 0):
                jac = -np.eye(2)
        else:
            break
    return DualSearchResult(
        duals=DualVars(float(cur.lam[0]), float(cur.lam[1])),
        realized=(float(cur.power[0]), float(cur.power[1])),
        realized_stderr=(float(cur.stderr[0]), float(cur.stderr[1])),
        slack=(bool(cur.slack[0]), bool(cur.slack[1])),
        converged=cur.done, sweeps=evals)


class DualPolicy:
    """Batched dual policy of ``scheme`` at fixed multipliers, for the
    Monte Carlo engine: the KKT case tree (``esa``, ``esa_cj``) or the
    structural single-slot baseline (``gs_cj``).  It reads only the
    squared gains of a batch (a ``StateBatch`` or a ``GainBatch``)."""

    def __init__(self, scheme: str, duals: DualVars):
        self.scheme = scheme
        self.duals = duals

    def decide_batch(self, batch):
        return _dual_powers(self.scheme, batch.sq(), self.duals.lambda1,
                            self.duals.lambda2)[:4]
