"""Instantaneous secrecy-rate integrands for the four transmission schemes.

Every function here returns the *integrand* (no expectation); the half
prefactor from code repetition is included for the two-slot schemes but
not for single-slot Gaussian signaling with jamming.  All rates are in
bits per channel use (base-2 logs); integrands may be negative.

The ``*_triple`` functions, one per scheme, are the vectorized kernels
operating on squared magnitudes; :func:`macwt.montecarlo.scheme_rates`
picks the kernel of a scheme.  The policy classes map a batch of states
to per-state powers; the two-slot on/off rule takes its inner
expectation in separable form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, StateBatch, sample_batch

# the scheme names every module dispatches on
GS_CJ, SBA, ESA, ESA_CJ = SCHEMES = ("gs_cj", "sba", "esa", "esa_cj")

LOG2 = math.log(2.0)
# float64 elements per (rows, m_inner) block of the two-slot inner
# expectation: each of its two block buffers stays within a core's L2 cache
SBA_BLOCK_ELEMS = 1 << 15
# the on/off rule's screen: states per chunk (its temporaries take 32 KiB
# each; fewer chunks, fewer numpy calls under the GIL), float64 elements per
# block of its table build, and its tables' grid of at most SCREEN_GRID
# points z_k = e^(k SCREEN_STEP)
SCREEN_ROWS = 4096
SCREEN_TABLE_ELEMS = 4096
SCREEN_STEP = 0.05
SCREEN_GRID = 700
_SCREEN_Z = np.exp(SCREEN_STEP * np.arange(SCREEN_GRID))
_EPS = np.finfo(float).eps


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
    C the common eavesdropper gain, Dsq the squared receiver determinant.

    Past powers of about 1e154, ``A1 p1 + A2 p2 + Dsq p1 p2`` overflows;
    there alone its log is taken from the sum scaled by
    ``max(p1, 1) max(p2, 1)`` (see :func:`_ln_num_scaled`)."""
    r1 = 0.5 * (_log2p1(A1 * p1) - _log2p1(C * p1 / (1.0 + C * p2)))
    r2 = 0.5 * (_log2p1(A2 * p2) - _log2p1(C * p2 / (1.0 + C * p1)))
    with np.errstate(over="ignore"):
        ln_num = np.log1p(A1 * p1 + A2 * p2 + Dsq * p1 * p2)
    over = np.isinf(ln_num)
    if over.any():
        ln_num = np.array(ln_num)
        ln_num[over] = _ln_num_scaled(*(np.broadcast_to(a, over.shape)[over]
                                        for a in (A1, A2, Dsq, p1, p2)))
    rsum = 0.5 * (ln_num / LOG2 - _log2p1(C * (p1 + p2)))
    return r1, r2, rsum


def _ln_num_scaled(A1, A2, Dsq, p1, p2):
    """ln(1 + A1 p1 + A2 p2 + Dsq p1 p2) without overflow, for finite
    nonnegative inputs: ln M + ln(num / M) with M = max(p1, 1) max(p2, 1),
    where every term of num / M is at most its gain."""
    s1, s2 = np.maximum(p1, 1.0), np.maximum(p2, 1.0)
    f1, f2 = p1 / s1, p2 / s2
    return (np.log(s1) + np.log(s2)
            + np.log(1.0 / s1 / s2 + A1 * f1 / s2 + A2 * f2 / s1
                     + Dsq * f1 * f2))


def esa_triple(h1, h2, g1, g2, p1, p2):
    """Repetition at the matched partner state (orthogonal receiver MAC)."""
    x1, x2 = _log2p1(2.0 * h1 * p1), _log2p1(2.0 * h2 * p2)
    r1 = 0.5 * (x1 - _log2p1(2.0 * g1 * p1 / (1.0 + 2.0 * g2 * p2)))
    r2 = 0.5 * (x2 - _log2p1(2.0 * g2 * p2 / (1.0 + 2.0 * g1 * p1)))
    rsum = 0.5 * (x1 + x2 - _log2p1(2.0 * (g1 * p1 + g2 * p2)))
    return r1, r2, rsum


def esa_cj_triple(h1, h2, g1, g2, p1, p2, q1, q2):
    """Partner-state repetition with cooperative jamming."""
    x1 = _log2p1(2.0 * h1 * p1 / (1.0 + 2.0 * h1 * q1))
    x2 = _log2p1(2.0 * h2 * p2 / (1.0 + 2.0 * h2 * q2))
    r1 = 0.5 * (x1 - _log2p1(2.0 * g1 * p1
                             / (1.0 + 2.0 * g1 * q1 + 2.0 * g2 * (p2 + q2))))
    r2 = 0.5 * (x2 - _log2p1(2.0 * g2 * p2
                             / (1.0 + 2.0 * g1 * (p1 + q1) + 2.0 * g2 * q2)))
    rsum = 0.5 * (x1 + x2 - _log2p1(2.0 * (g1 * p1 + g2 * p2)
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


def _slot_products(batch: StateBatch):
    """Per-state |h1 g2|^2, |h2 g1|^2, (h2 g1) conj(h1 g2) and |g1 g2|^2."""
    x1, x2 = batch.h1 * batch.g2, batch.h2 * batch.g1
    return (np.abs(x1) ** 2, np.abs(x2) ** 2, x2 * np.conj(x1),
            np.abs(batch.g1 * batch.g2) ** 2)


def _odd_factor(a1, a2, u):
    """The (4, n) odd-slot factor [|a2|^2, |a1|^2, Re u, Im u] of the
    two-slot rule's p1 p2 Dsq, one row per term.

    Its rows lie n + 1 apart, so no block of it is contiguous along the
    terms: a 1 x 1 block (one state, m_inner = 1) would otherwise take
    einsum's contiguous reduction, which sums (t0 + t2) + (t1 + t3)."""
    odd = np.empty((4, a1.size + 1))[:, :a1.size]
    return np.stack((a2, a1, u.real, u.imag), out=odd)


def _pp_dsq(odd, even, out):
    """p1 p2 Dsq of a block, expanded, into ``out``: one rank-4 product
    of an odd factor block and the (4, m_inner) even factor.

    Plain einsum sums the four terms in order, ((a2 pb1 + a1 pb2) - ur vr)
    + ui vi, for every block shape; a BLAS product (@, np.dot,
    optimize=True) would not keep these bits."""
    return np.einsum("ki,kj->ij", odd, even, out=out)


def _mean_log_table(z, v, out):
    """mean_j ln(z_k + v_j) at each grid point z_k, into ``out``, in
    blocks of at most ``SCREEN_TABLE_ELEMS`` floats (or one grid point)."""
    rows = max(1, SCREEN_TABLE_ELEMS // v.size)
    buf = np.empty((min(rows, z.size), v.size))
    for lo in range(0, z.size, rows):
        x = buf[:z.size - lo]
        np.add(z[lo:lo + rows, None], v, out=x)
        out[lo:lo + rows] = np.log(x, out=x).mean(axis=1)


def sba_powers(budget: PowerBudget, params: FadingParams) -> tuple:
    """The two-slot scheme's scaled full-budget powers: its constant
    powers, and the on powers of its on/off rule."""
    return (budget.pbar1 / (2.0 * params.var_g2),
            budget.pbar2 / (2.0 * params.var_g1))


class RudimentarySbaPolicy:
    """On/off from the inner even-slot expectation, with candidate powers
    scaled by the eavesdropper variances.

    The inner even-slot sample is drawn once from ``seed`` and shared by
    every call (common random numbers), so sharded outer evaluation does
    not change the decisions.

    A state is on when the mean over the inner sample of
    :func:`sba_triple`'s sum rate is nonnegative.  With a1 = h1 g2,
    a2 = h2 g1, c = g1 g2 in the odd slot and b1, b2, d in the even one,
    cell (i, j) of that mean is ln((A_i + B_j + D_ij) / (C_i + E_j)) with
    A = 1 + p1|a1|^2 + p2|a2|^2, B = p1|b1|^2 + p2|b2|^2,
    C = 1 + (p1 + p2)|c|^2, E = (p1 + p2)|d|^2 and
    D = p1 p2 |a2_i b1_j - a1_i b2_j|^2 >= 0.

    Most states are decided from certified bounds on their mean
    (:meth:`_screen`); only the states the bounds leave open take the
    exact mean (:meth:`_inner_means`), whose bits decide them as before.
    """

    def __init__(self, budget: PowerBudget, params: FadingParams,
                 m_inner: int = 1000, seed: int = 0):
        if m_inner < 1:
            raise ValueError("m_inner must be >= 1")
        self.p1, self.p2 = sba_powers(budget, params)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        b1, b2, w, d = _slot_products(sample_batch(params, m_inner, rng))
        pp, eve = self.p1 * self.p2, (self.p1 + self.p2) * d
        beta = self.p1 * b1 + self.p2 * b2
        # read-only, shared by all shards: the even factor of p1 p2 Dsq
        # (w = conj v), beta - eve and eve
        self._even = (np.stack([pp * b1, pp * b2, -2.0 * pp * w.real,
                                -2.0 * pp * w.imag]), beta - eve, eve)
        # the screen's grid, up to e^2 past the largest A or C the inner
        # sample reaches (the whole grid if that is not finite), then NaN;
        # its tables F and G, each with +inf past the grid's end, in one
        # allocation; and its inner means (correctly rounded sums)
        reach = np.log1p(np.maximum(beta.max(), eve.max())) + 2.0
        top = SCREEN_GRID
        if reach < SCREEN_GRID * SCREEN_STEP:  # False for NaN
            top = math.ceil(reach / SCREEN_STEP)
        z = np.append(_SCREEN_Z[:top], np.nan)
        fg = np.empty((2, top + 1))
        fg[:, -1] = np.inf
        _mean_log_table(z[:-1], beta, out=fg[0, :-1])
        _mean_log_table(z[:-1], eve, out=fg[1, :-1])
        self._screen_tables = (z, fg, math.fsum(beta) / m_inner,
                               math.fsum(eve) / m_inner,
                               [math.fsum(t) / m_inner for t in self._even[0]])

    def decide_batch(self, batch: StateBatch):
        n = len(batch)
        prods = _slot_products(batch)
        on, open_ = self._screen(*prods)
        rows = np.flatnonzero(open_)
        if rows.size:
            prods = tuple(v[rows] for v in prods)  # frees the full vectors
            on[rows] = self._inner_means(*prods) >= 0.0
        return (np.where(on, self.p1, 0.0), np.where(on, self.p2, 0.0),
                np.zeros(n), np.zeros(n))

    def _screen(self, a1, a2, u, c):
        """Per state ``(on, open)``: on where a lower bound L of its inner
        mean exceeds ``tau``, off where an upper bound U is below
        ``-tau``, open otherwise.

        F(z) = mean_j ln(z + B_j) and G(z) = mean_j ln(z + E_j) increase
        in z and are tabulated once on the grid z_k = e^(k SCREEN_STEP),
        so a table entry at a grid point at or below (above) the argument
        bounds them from below (above).  The grid stops e^2 past the
        largest A or C of the inner sample (which has the states' law).
        Past its top, the top entries bound F and G from below and +inf
        bounds G from above (leaving Jensen's bound below): valid but
        looser bounds, so such a state more often takes the exact mean.
        One search on C gives both of its grid points: the first at or
        above C, k, and the last at or below it, k - 1, or k itself where
        z_k == C.  Dropping D >= 0 and Jensen's inequality on the
        denominator give
        L = F(z <= A) - min(G(z >= C), ln(C + mean E)); Jensen on the
        numerator, with mean_j D_ij the odd factor times the even
        factor's means (the product is separable), gives
        U = ln(A + mean B + mean_j D_ij) - max(G(z <= C), ln C), which
        also covers mean_j ln E_j as z >= 1.

        ``tau`` bounds the rounding of both the exact mean and the
        bounds, to first order with a factor of at least 2 to spare:
        64 eps (1 + (C + mean E)/A + min(A, mean B) + (m + 1) Lambda),
        Lambda = ln(A + mean B + mean D) + ln(C + mean E) + SCREEN_STEP.
        A cell of the exact mean errs by eps (1 + den/num) times a small
        constant, and mean den/num <= (C + mean E)/A; the expanded D
        cancels, with an error of eps times its terms' magnitudes, which
        (by AM-GM) are at most 2 min(A - 1, B_j) times num; and a mean
        of m logs, each at most ln num + ln den in size (their means are
        below Lambda, by Jensen), errs by at most (m + 1) eps Lambda, as
        do the tables' entries.  Anything not finite leaves its state
        open.
        """
        z_pad, (F, G), b_mean, e_mean, ebar = self._screen_tables
        z = z_pad[:-1]
        m = self._even[2].size
        n = a1.size
        on, off = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        for lo in range(0, n, SCREEN_ROWS):
            i = slice(lo, lo + SCREEN_ROWS)
            A = 1.0 + self.p1 * a1[i] + self.p2 * a2[i]
            C = 1.0 + (self.p1 + self.p2) * c[i]
            d_mean = (ebar[0] * a2[i] + ebar[1] * a1[i]
                      + ebar[2] * u[i].real + ebar[3] * u[i].imag)
            ln_num = np.log(A + b_mean + np.maximum(d_mean, 0.0))
            ln_den = np.log(C + e_mean)
            # the grid points at or above C (k) and at or below it (k - 1,
            # or k where z_k == C; z_pad's NaN past the top equals nothing)
            k = np.searchsorted(z, C)
            L = (F[np.searchsorted(z, A, "right") - 1]
                 - np.minimum(G[k], ln_den))
            k -= z_pad[k] != C
            U = ln_num - np.maximum(G[k], np.log(C))
            tau = 64.0 * _EPS * (1.0 + (C + e_mean) / A
                                 + np.minimum(A, b_mean)
                                 + (m + 1) * (ln_num + ln_den + SCREEN_STEP))
            on[i], off[i] = L > tau, U < -tau
        return on, ~(on | off)

    def _inner_means(self, a1, a2, u, c):
        """Each state's exact inner mean, mean_j ln(num_ij / den_ij).

        With u = a2 conj(a1) and v = b1 conj(b2), Dsq = |a2_i b1_j -
        a1_i b2_j|^2, so num = 1 + A1 p1 + A2 p2 + Dsq p1 p2 = alpha_i +
        beta_j + p1 p2 (|a2_i b1_j|^2 + |a1_i b2_j|^2 - 2 Re(u_i v_j)) with
        alpha = 1 + p1|a1|^2 + p2|a2|^2, beta = p1|b1|^2 + p2|b2|^2, and
        den = 1 + C (p1 + p2) = 1 + (p1 + p2)(|c_i|^2 + |d_j|^2).  Only
        per-state vectors and one real rank-4 product per block are
        formed: p1 p2 Dsq is the (4, n) odd factor [|a2|^2, |a1|^2, Re u,
        Im u] times the (4, m_inner) even factor [p1p2|b1|^2, p1p2|b2|^2,
        -2p1p2 Re v, 2p1p2 Im v], built once from the inner sample (see
        :func:`_pp_dsq`).

        Blocks hold ``max(1, SBA_BLOCK_ELEMS // m_inner)`` states.  Each
        call allocates two block buffers once, of at most
        ``SBA_BLOCK_ELEMS`` floats (or one row) each whatever the number
        of states and ``m_inner``, and every block reuses them: the
        working set stays in cache, and memory does not grow with the
        shard.  Each state's mean runs over its own row, so neither the
        block size nor the other states change its bits.
        """
        n = a1.size
        even, beta, eve = self._even
        odd = _odd_factor(a1, a2, u)
        c = c * (self.p1 + self.p2)
        alpha = self.p1 * a1 + self.p2 * a2 - c  # alpha - 1 - (p1 + p2)|c|^2
        means = np.empty(n)
        rows = max(1, SBA_BLOCK_ELEMS // beta.size)
        # two allocations, not one (2, rows, m_inner) array: at 2^15 that
        # single 512 KiB block read 0.9 MB more peak RSS in `macwt figure1`
        shape = (min(rows, n), beta.size)
        X, T = np.empty(shape), np.empty(shape)
        for lo in range(0, n, rows):
            i = slice(lo, lo + rows)
            x, t = X[:n - lo], T[:n - lo]
            _pp_dsq(odd[:, i], even, x)
            # p1 p2 Dsq >= 0 can round below 0 as the determinant vanishes;
            # x = (num - den) / den keeps log1p's accuracy near num = den = 1
            np.maximum(x, 0.0, out=x)
            x += np.add(alpha[i, None], beta, out=t)
            x /= np.add(1.0 + c[i, None], eve, out=t)
            means[i] = np.log1p(x, out=x).mean(axis=1)
        return means
