"""Per-state references the tests hold the KKT case trees against
(acceptance criterion 5): scalar closed forms and common roots, every
KKT-valid decision of one state, per-state Lagrangians, a grid oracle."""

import numpy as np

from macwt.powerctl import (DualVars, EffectiveState, _best_by_lagrangian,
                            _closed_form_root, _common_root_batch,
                            _lagrangian_vals, _positive_roots_batch,
                            _state_row)
from macwt.rates import PowerDecision


def closed_form(h, g, lam) -> float:
    """Power of a user whose partner is silent: the root of
    h/(1+hP) - g/(1+gP) = lam; requires h > g and lam > 0."""
    if not (h > g and lam > 0):
        raise ValueError(f"closed form needs h > g and lam > 0 "
                         f"(h={h}, g={g}, lam={lam})")
    return float(_closed_form_root(h, g, lam))


def _system_gains(which, s: EffectiveState) -> EffectiveState:
    """Gains that pose the ``which`` system to the solver: ``esa`` is
    (P1, P2) as given; ``p1q2`` is (P1, Q2) with user 2 jamming, the same
    system with h2 replaced by g2 (user 2's rate term cancels against its
    jamming penalty, leaving ``log1p(g2 Q2)``)."""
    return s if which == "esa" else EffectiveState(s.h1, s.g2, s.g1, s.g2)


def full_pick(args, x, y, ok):
    """:func:`_best_by_lagrangian` ranking every row, also rows with one
    ``ok`` column or none: the reference its rows-with-a-choice shortcut
    must match."""
    r, c = np.nonzero(ok)
    L = np.full(ok.shape, -np.inf)
    L[r, c] = _lagrangian_vals(*(v[r, c] if v.ndim == 2 else v[r]
                                 for v in args), x[r, c], y[r, c])
    top = L.max(axis=1, keepdims=True)
    near = L >= top - 1e-12 * np.maximum(1.0, np.abs(top))
    return np.argmax(ok & near, axis=1)


def best_common_root(h1, h2, g1, g2, l1, l2):
    """Best positive common root per row, ``(x, y, found)``, NaN where
    none: one :func:`_best_by_lagrangian` pick over the candidate columns
    of :func:`_common_root_batch`."""
    args = (h1, h2, g1, g2, l1, l2)
    x, y, ok = _common_root_batch(*args)
    pick = np.arange(x.shape[0]), _best_by_lagrangian(args, x, y, ok)
    found = ok[pick]
    return (np.where(found, x[pick], np.nan),
            np.where(found, y[pick], np.nan), found)


def common_root(which, s: EffectiveState, duals: DualVars):
    """Best positive common root of one state under the ``which`` system
    (:func:`_system_gains`), or None: row 0 of a length-1
    :func:`best_common_root` call."""
    x, y, found = best_common_root(
        *_state_row(_system_gains(which, s), duals))
    return (float(x[0]), float(y[0])) if found[0] else None


def _positive_roots_scalar(which, s: EffectiveState, duals: DualVars):
    """All distinct positive common roots of the selected system, in root
    order (a root within 1e-6 relative of an earlier one is dropped)."""
    x, y, ok = _positive_roots_batch(
        *_state_row(_system_gains(which, s), duals))
    out = []
    for px, py in zip(x[0][ok[0]].tolist(), y[0][ok[0]].tolist()):
        if all(abs(px - p[0]) > 1e-6 * (1.0 + px) for p in out):
            out.append((px, py))
    return out


def _lag(which, s: EffectiveState, duals: DualVars, x, y) -> float:
    t = _system_gains(which, s)
    return float(_lagrangian_vals(t.h1, t.h2, t.g1, t.g2,
                                  duals.lambda1, duals.lambda2, x, y))


def _transmit_jam_candidates(s: EffectiveState, duals: DualVars) -> list:
    """KKT-valid decisions where user 1 transmits or is silent and user 2
    jams or is silent (the p1q2 system), as (PowerDecision, value)."""
    out = []
    if s.h1 - s.g1 <= duals.lambda1:
        out.append((PowerDecision(0, 0, 0, 0), 0.0))
    else:
        p1 = closed_form(s.h1, s.g1, duals.lambda1)
        if s.g2 - s.g2 / (1.0 + s.g1 * p1) <= duals.lambda2:
            out.append((PowerDecision(p1, 0, 0, 0),
                        _lag("p1q2", s, duals, p1, 0.0)))
    for x, y in _positive_roots_scalar("p1q2", s, duals):
        out.append((PowerDecision(x, 0, 0, y), _lag("p1q2", s, duals, x, y)))
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
    if scheme == "esa" or (scheme == "esa_cj" and h1 >= g1 and h2 >= g2):
        out = []
        if h1 - g1 <= l1 and h2 - g2 <= l2:
            out.append((PowerDecision(0, 0), 0.0))
        if h1 - g1 > l1:
            p1 = closed_form(h1, g1, l1)
            if h2 - g2 / (1.0 + g1 * p1) <= l2:
                out.append((PowerDecision(p1, 0),
                            _lag("esa", s, duals, p1, 0.0)))
        if h2 - g2 > l2:
            p2 = closed_form(h2, g2, l2)
            if h1 - g1 / (1.0 + g2 * p2) <= l1:
                out.append((PowerDecision(0, p2),
                            _lag("esa", s, duals, 0.0, p2)))
        for x, y in _positive_roots_scalar("esa", s, duals):
            out.append((PowerDecision(x, y), _lag("esa", s, duals, x, y)))
        return out
    if scheme != "esa_cj":
        raise ValueError(f"unknown scheme {scheme!r}")
    if h1 >= g1:  # h2 < g2: user 1 may transmit, user 2 may jam
        return _transmit_jam_candidates(s, duals)
    # user 2 may transmit, user 1 may jam: the same rule on swapped roles
    mirror = [(PowerDecision(d.p2, d.p1, d.q2, d.q1), v) for d, v in
              _transmit_jam_candidates(EffectiveState(h2, h1, g2, g1),
                                       DualVars(l2, l1))]
    if h2 >= g2:
        return mirror
    # both receivers weak: silence (listed by both orientations, kept
    # once) and each transmit/jam pairing's roots
    return _transmit_jam_candidates(s, duals) + mirror[1:]


def lagrangian_esa(s: EffectiveState, p1, p2, duals: DualVars):
    """Per-state Lagrangian (nats) of the no-jamming objective."""
    return (np.log1p(s.h1 * p1) + np.log1p(s.h2 * p2)
            - np.log1p(s.g1 * p1 + s.g2 * p2)
            - duals.lambda1 * p1 - duals.lambda2 * p2)


def lagrangian_esa_cj(s: EffectiveState, d: PowerDecision, duals: DualVars):
    """Per-state Lagrangian (nats) of the jamming objective."""
    return lagrangian_cj_batch(s.h1, s.h2, s.g1, s.g2, duals.lambda1,
                               duals.lambda2, d.p1, d.p2, d.q1, d.q2)


def lagrangian_cj_batch(h1, h2, g1, g2, l1, l2, p1, p2, q1, q2):
    """:func:`lagrangian_esa_cj` on arrays; with Q1 = Q2 = 0 it is the
    no-jamming Lagrangian."""
    t1, t2 = p1 + q1, p2 + q2
    return (np.log1p(h1 * t1) + np.log1p(h2 * t2)
            - np.log1p(g1 * t1 + g2 * t2)
            + np.log1p(g1 * q1 + g2 * q2)
            - np.log1p(h1 * q1) - np.log1p(h2 * q2)
            - l1 * t1 - l2 * t2)


def cj_modes(s: EffectiveState, duals: DualVars, x, y) -> dict:
    """Jamming Lagrangian (nats) of the pure role assignments at powers
    (x, y): both transmit (``tt``), user 1 transmits while user 2 jams with
    y (``tj``), user 2 transmits while user 1 jams with x (``jt``).  A
    jammer's own rate term cancels its ``log1p(h Q)`` penalty."""
    lam = duals.lambda1 * x + duals.lambda2 * y
    return {"tt": (np.log1p(s.h1 * x) + np.log1p(s.h2 * y)
                   - np.log1p(s.g1 * x + s.g2 * y) - lam),
            "tj": (np.log1p(s.h1 * x) - np.log1p(s.g1 * x + s.g2 * y)
                   + np.log1p(s.g2 * y) - lam),
            "jt": (np.log1p(s.h2 * y) - np.log1p(s.g1 * x + s.g2 * y)
                   + np.log1p(s.g1 * x) - lam)}


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
        best = None
        for mode, val in cj_modes(s, duals, x, y).items():
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
