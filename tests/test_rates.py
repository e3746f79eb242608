import decimal
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwt import rates
from macwt.channel import (ChannelState, FadingParams, StateBatch,
                           sample_batch, sba_block_gains)
from macwt.montecarlo import (CONSTANT, DUAL, ESA, ESA_CJ, GS_CJ,
                              RUDIMENTARY, SBA, ergodic_region, grid_point,
                              scheme_rates, spawn_rngs, worker_count)
from macwt.powerctl import DualPolicy, DualVars
from macwt.rates import (ConstantPolicy, PowerBudget, PowerDecision,
                         RudimentaryEsaPolicy, RudimentarySbaPolicy,
                         sba_powers, sba_triple)
from rate_reference import esa_general_triple

UNIT = ChannelState(1, 1, 1, 1)
PARAMS = FadingParams.symmetric(1.0, 0.75)


def _rates(scheme, state, d):
    """Rate triple of one state (an (odd, even) state pair for the
    two-slot scheme)."""
    if scheme == SBA:
        gains = sba_block_gains(*(StateBatch.of(s) for s in state))
        return tuple(float(v[0]) for v in
                     scheme_rates(SBA, gains, d.p1, d.p2, 0.0, 0.0))
    return tuple(float(v) for v in
                 scheme_rates(scheme, state.sq(), d.p1, d.p2, d.q1, d.q2))


def _rsum(scheme, state, d):
    return _rates(scheme, state, d)[2]


def _state(params, rng):
    return sample_batch(params, 1, rng).state(0)


def _decide(policy, state):
    return tuple(float(v[0]) for v in policy.decide_batch(StateBatch.of(state)))


def test_power_decision_validation():
    with pytest.raises(ValueError):
        PowerDecision(-1.0, 0.0)
    with pytest.raises(ValueError):
        PowerDecision(0.0, 0.0, 0.0, -1e-9)
    with pytest.raises(ValueError):
        PowerBudget(-1.0, 1.0)


# ---------------------------------------------------------------------------
# frozen single-state values
# ---------------------------------------------------------------------------

def test_gs_cj_hand_values():
    assert _rates(GS_CJ, UNIT, PowerDecision(0, 0)) == pytest.approx(
        (0.0, 0.0, 0.0))
    # symmetric main/eve gains cancel in the sum rate
    assert _rsum(GS_CJ, UNIT, PowerDecision(1, 1)) == pytest.approx(
        0.0, abs=1e-15)
    s = ChannelState(2.0, 0, 1.0, 0)   # |h1|^2 = 4, |g1|^2 = 1
    r1, _, _ = _rates(GS_CJ, s, PowerDecision(1, 0))
    assert r1 == pytest.approx(math.log2(5) - 1.0, abs=1e-12)


def test_sba_hand_values():
    block = (ChannelState(1, 2, 1, 1), ChannelState(2, 1, 1, 1))
    assert _rates(SBA, block, PowerDecision(0, 0)) == pytest.approx(
        (0.0, 0.0, 0.0))
    # A1 = 5, A2 = 5, |D|^2 = 9, C = 2
    rsum = _rsum(SBA, block, PowerDecision(1, 1))
    assert rsum == pytest.approx(
        0.5 * (math.log2(20) - math.log2(5)), abs=1e-12)
    assert rsum == pytest.approx(1.0, abs=1e-12)
    same = (UNIT, UNIT)
    assert _rsum(SBA, same, PowerDecision(1, 1)) == pytest.approx(
        0.0, abs=1e-15)


@pytest.mark.parametrize("p1, p2", [
    (1.0, 1.0), (1e100, 1e100), (1e150, 1e160), (1e200, 1e200),
    (1e300, 1e300), (1e300, 1e-3), (1e300, 0.0), (1e10, 1e300)])
def test_sba_triple_sum_rate_past_overflow(p1, p2):
    # where 1 + A1 p1 + A2 p2 + Dsq p1 p2 is finite, the sum rate keeps
    # the bits of the plain expression; where it overflows, it is the
    # exact log (a 60-digit decimal reference), with no warning
    rng = np.random.default_rng(3)
    A1, A2, C, Dsq = (rng.exponential(1.0, 64) for _ in range(4))
    Dsq[-2:] = 0.0  # the determinant vanishes
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rsum = sba_triple(A1, A2, C, Dsq, p1, p2)[2]
    with np.errstate(over="ignore"):
        num = A1 * p1 + A2 * p2 + Dsq * p1 * p2
    fin = np.isfinite(num)
    plain = 0.5 * (np.log1p(num[fin]) / math.log(2.0)
                   - np.log1p(C[fin] * (p1 + p2)) / math.log(2.0))
    assert rsum[fin].tobytes() == plain.tobytes()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for i in np.flatnonzero(~fin):
            d1, d2 = decimal.Decimal(p1), decimal.Decimal(p2)
            exact = (1 + decimal.Decimal(A1[i]) * d1 + decimal.Decimal(A2[i]) * d2
                     + decimal.Decimal(Dsq[i]) * d1 * d2).ln() / decimal.Decimal(2).ln()
            ref = 0.5 * (float(exact) - math.log1p(C[i] * (p1 + p2)) / math.log(2.0))
            assert rsum[i] == pytest.approx(ref, rel=1e-13)
    assert np.isfinite(rsum).all()


def test_esa_hand_values():
    assert _rates(ESA, UNIT, PowerDecision(0, 0)) == pytest.approx(
        (0.0, 0.0, 0.0))
    rsum = _rsum(ESA, UNIT, PowerDecision(1, 1))
    assert rsum == pytest.approx(0.5 * math.log2(9 / 5), abs=1e-12)
    assert rsum == pytest.approx(0.42399845, abs=1e-6)
    no_eve = ChannelState(1, 1, 0, 0)
    assert _rsum(ESA, no_eve, PowerDecision(1, 1)) == pytest.approx(
        math.log2(3))


def test_esa_cj_hand_values():
    assert _rates(ESA_CJ, UNIT, PowerDecision(0, 0, 0, 0)) == pytest.approx(
        (0.0, 0.0, 0.0))
    rsum = _rsum(ESA_CJ, UNIT, PowerDecision(1, 0, 0, 1))
    assert rsum == pytest.approx(0.5 * math.log2(9 / 5), abs=1e-12)


def test_esa_general_hand_values():
    # theta = omega = 0 kills both product terms at symmetric unit gains
    _, _, rsum = esa_general_triple(*UNIT.sq(), 0.0, 0.0, 1, 1)
    assert rsum == pytest.approx(0.0, abs=1e-15)
    _, _, rsum = esa_general_triple(*ChannelState(0, 0, 1, 1).sq(),
                                    math.pi, 0.0, 1, 1)
    assert rsum <= 0.0


def test_scheme_rates_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        scheme_rates("nope", UNIT.sq(), 1.0, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def test_esa_general_reduces_to_esa(rng):
    for _ in range(1000):
        s = _state(PARAMS, rng)
        p1, p2 = rng.exponential(2.0, 2)
        a = _rates(ESA, s, PowerDecision(p1, p2))
        b = esa_general_triple(*s.sq(), math.pi, 0.0, p1, p2)
        assert a == pytest.approx(b, abs=1e-12)


def test_esa_cj_zero_jamming_reduces_to_esa(rng):
    for _ in range(1000):
        s = _state(PARAMS, rng)
        p1, p2 = rng.exponential(2.0, 2)
        a = _rates(ESA, s, PowerDecision(p1, p2))
        b = _rates(ESA_CJ, s, PowerDecision(p1, p2, 0.0, 0.0))
        assert a == pytest.approx(b, abs=1e-13)


def test_gs_cj_no_jamming_no_eve_is_plain_mac(rng):
    for _ in range(200):
        s = _state(PARAMS, rng)
        s = ChannelState(s.h1, s.h2, 0.0, 0.0)
        p1, p2 = rng.exponential(2.0, 2)
        h1, h2, _, _ = s.sq()
        r1, _, rsum = _rates(GS_CJ, s, PowerDecision(p1, p2))
        assert r1 == pytest.approx(math.log2(1 + h1 * p1), abs=1e-12)
        assert rsum == pytest.approx(
            math.log2(1 + h1 * p1 + h2 * p2), abs=1e-12)


# ---------------------------------------------------------------------------
# monotonicity of the repetition sum rate in the gains
# ---------------------------------------------------------------------------

pos = st.floats(1e-3, 1e3)


@given(pos, pos, pos, pos, pos, pos, st.floats(1.001, 4.0))
@settings(max_examples=200)
def test_esa_rsum_monotone_in_gains(h1, h2, g1, g2, p1, p2, scale):
    def rsum(h1_, h2_, g1_, g2_):
        s = ChannelState(math.sqrt(h1_), math.sqrt(h2_), math.sqrt(g1_),
                         math.sqrt(g2_))
        return _rsum(ESA, s, PowerDecision(p1, p2))

    base = rsum(h1, h2, g1, g2)
    assert rsum(h1 * scale, h2, g1, g2) >= base - 1e-12
    assert rsum(h1, h2 * scale, g1, g2) >= base - 1e-12
    assert rsum(h1, h2, g1 * scale, g2) <= base + 1e-12
    assert rsum(h1, h2, g1, g2 * scale) <= base + 1e-12


# ---------------------------------------------------------------------------
# rudimentary policies
# ---------------------------------------------------------------------------

def test_rudimentary_esa_policy_on_off(rng):
    policy = RudimentaryEsaPolicy(PowerBudget(1.0, 1.0))
    strong = ChannelState(10.0, 10.0, 0.1, 0.1)
    assert _decide(policy, strong) == (1.0, 1.0, 0.0, 0.0)
    silent = ChannelState(0.0, 0.0, 1.0, 1.0)
    assert _decide(policy, silent) == (0.0, 0.0, 0.0, 0.0)
    # symmetric unit gains: integrand = log2(9/5)/2 > 0 -> on
    assert _decide(policy, UNIT)[0] == 1.0


def test_rudimentary_sba_policy(rng):
    budget = PowerBudget(2.0, 3.0)
    params = FadingParams(1.0, 1.0, 0.5, 0.25)
    policy = RudimentarySbaPolicy(budget, params, m_inner=64, seed=1)
    dead = ChannelState(0.0, 0.0, 1.0, 1.0)
    assert _decide(policy, dead) == (0.0, 0.0, 0.0, 0.0)
    strong = ChannelState(50.0, 50.0, 0.01, 0.01)
    p1, p2, _, _ = _decide(policy, strong)
    # candidate powers pbar_k / (2 var_g_{3-k})
    assert p1 == pytest.approx(2.0 / (2 * 0.25))
    assert p2 == pytest.approx(3.0 / (2 * 0.5))
    with pytest.raises(ValueError):
        RudimentarySbaPolicy(budget, params, m_inner=0, seed=1)


def _direct_sba_on(budget, params, m_inner, seed, odd):
    """The two-slot on/off rule written out: on where sba_triple's sum
    rate on the block gains of the broadcast (odd, even) pairs, averaged
    over the policy's inner even-slot sample, is nonnegative."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    even = sample_batch(params, m_inner, rng)
    gains = sba_block_gains(
        StateBatch(odd.h1[:, None], odd.h2[:, None], odd.g1[:, None],
                   odd.g2[:, None]),
        StateBatch(even.h1[None, :], even.h2[None, :], even.g1[None, :],
                   even.g2[None, :]))
    _, _, rsum = sba_triple(*gains, budget.pbar1 / (2.0 * params.var_g2),
                            budget.pbar2 / (2.0 * params.var_g1))
    return rsum.mean(axis=1) >= 0.0


def _on(policy, batch):
    return policy.decide_batch(batch)[0] > 0.0


@pytest.mark.parametrize("m_inner", [200, 1])
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
@pytest.mark.parametrize("var_g", [0.75, 0.25])
def test_sba_policy_matches_direct_rule(var_g, scale, m_inner):
    # complex gains scaled by `scale`, budgets by 1/scale^2: the same
    # 0-60 dB receiver SNRs from products 1e-12 to 1e12 times as large
    params = FadingParams.symmetric(scale ** 2, var_g * scale ** 2)
    mixed = 0
    for snr_db in range(0, 61, 10):
        p = 10.0 ** (snr_db / 10) / scale ** 2
        budget = PowerBudget(p, p)
        policy = RudimentarySbaPolicy(budget, params, m_inner, seed=snr_db)
        odd = sample_batch(params, 400, np.random.default_rng(snr_db + 1))
        on = _on(policy, odd)
        assert np.array_equal(
            on, _direct_sba_on(budget, params, m_inner, snr_db, odd))
        mixed += 0 < on.sum() < on.size
    assert mixed > 0


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_sba_policy_identical_slots_finite(scale):
    # odd states equal to the inner states: a zero determinant on every
    # diagonal block, where the expanded |det|^2 can round below zero.
    # Gains scaled by `scale` at the unscaled candidate powers.
    params = FadingParams.symmetric(scale ** 2, 0.75 * scale ** 2)
    for snr_db in (0, 30, 60):
        p = 10.0 ** (snr_db / 10) * scale ** 2
        budget = PowerBudget(p, p)
        for m_inner in (1, 200):
            policy = RudimentarySbaPolicy(budget, params, m_inner, seed=5)
            odd = sample_batch(params, m_inner, np.random.default_rng(
                np.random.SeedSequence(5)))
            with np.errstate(invalid="raise", divide="raise"):
                on = _on(policy, odd)
            assert np.array_equal(
                on, _direct_sba_on(budget, params, m_inner, 5, odd))


def test_sba_policy_chunking_invariant(monkeypatch, rng):
    batch = sample_batch(PARAMS, 50, rng)
    for m_inner, elems in [
        (200, 7),        # budget below m_inner: 1-row blocks
        (200, 7 * 200),  # 7-row blocks, 50 states: a last block of 1
        (200, 2345),     # 11-row blocks, not a multiple of m_inner
        (1, 7),          # m_inner = 1: 7-row blocks of one column
        (1, 1),
    ]:
        # inner seed 0: on and off states at m_inner 1 (seed 3 has no off)
        policy = RudimentarySbaPolicy(PowerBudget(10.0, 10.0), PARAMS,
                                      m_inner=m_inner, seed=0)
        monkeypatch.setattr(rates, "SBA_BLOCK_ELEMS", 50 * m_inner)
        base = policy.decide_batch(batch)  # the whole batch in one block
        assert 0 < np.count_nonzero(base[0]) < 50
        monkeypatch.setattr(rates, "SBA_BLOCK_ELEMS", elems)
        for a, b in zip(policy.decide_batch(batch), base):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
@pytest.mark.parametrize("m_inner, n, rows", [
    (200, 50, 1),   # 1-row blocks
    (200, 50, 7),   # a short last block of 1
    (200, 50, 50),  # the whole batch in one block
    (1, 50, 7),     # m_inner = 1
    (1, 1, 1),      # one state at m_inner = 1: 1 x 1 blocks
])
def test_sba_rank4_einsum_is_the_sequential_expansion(scale, m_inner, n,
                                                      rows):
    # The two-slot rule builds p1 p2 |det|^2 as one plain einsum over the
    # four (odd, even) terms into a reused buffer.  Every block must keep
    # the bits of ((a2 pb1 + a1 pb2) - ur vr) + ui vi: a reordered einsum
    # sum or a BLAS product (@, np.dot, optimize=True) fails here.  Gains
    # scaled by `scale` at unscaled powers put the terms near 1e-12, 1 and
    # 1e12.  The 50 states go in calls of n, as decide_batch gets them.
    params = FadingParams.symmetric(scale ** 2, 0.75 * scale ** 2)
    policy = RudimentarySbaPolicy(PowerBudget(100.0, 100.0), params,
                                  m_inner, seed=4)
    even = policy._even[0]
    pb1, pb2, vr, vi = even[0], even[1], -even[2], even[3]
    a1, a2, u, _ = rates._slot_products(
        sample_batch(params, 50, np.random.default_rng(5)))
    ref = ((a2[:, None] * pb1 + a1[:, None] * pb2)
           - u.real[:, None] * vr) + u.imag[:, None] * vi
    buf = np.empty((rows, m_inner))
    for call in range(0, 50, n):
        c = slice(call, call + n)
        odd = rates._odd_factor(a1[c], a2[c], u[c])
        for lo in range(0, n, rows):
            x = buf[:n - lo]
            rates._pp_dsq(odd[:, lo:lo + rows], even, x)
            assert x.tobytes() == ref[c][lo:lo + rows].tobytes()


def test_sba_policy_memory_is_bounded_by_the_block_budget():
    # The two block buffers are allocated once per call and hold at most
    # SBA_BLOCK_ELEMS floats each (256 KiB at 2^15), so the peak stays at
    # those two plus the per-state vectors of the batch, whatever
    # n * m_inner is: 0.69 MiB at 2^15, where the screen leaves 17 % of
    # these states to the block loop (1.03 MiB if it left them all, 0.93
    # MiB before the screen).  Two fresh arrays per block, with the
    # previous block's still alive, peaked at 1.29 MiB; blocks of a fixed
    # 4096 rows at 62.9 MiB.
    policy = RudimentarySbaPolicy(PowerBudget(10.0, 10.0), PARAMS,
                                  m_inner=1000, seed=3)
    batch = sample_batch(PARAMS, 4096, np.random.default_rng(1))
    tracemalloc.start()
    try:
        policy.decide_batch(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.125 * 2 ** 20


def _stress_policies(seed):
    """60 (policy, odd-slot batch) pairs: FadingParams(v, v/2, vg1, vg2)
    with v, vg1 and vg2 from e^U(-3, 3), budgets 10^U(-3, 7), m_inner
    cycling through 1, 7, 200 and 1000, and 5,000 states each."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for trial in range(60):
        v, vg1, vg2 = np.exp(rng.uniform(-3.0, 3.0, 3))
        params = FadingParams(v, v / 2, vg1, vg2)
        budget = PowerBudget(*10.0 ** rng.uniform(-3.0, 7.0, 2))
        m_inner = (1, 7, 200, 1000)[trial % 4]
        yield (RudimentarySbaPolicy(budget, params, m_inner, seed=trial),
               sample_batch(params, 5000, rng))


def test_sba_screen_decides_as_the_exact_mean():
    # the screened decisions equal the exact inner mean's sign on every
    # row, and the screen decides most rows
    decided = total = 0
    for policy, batch in _stress_policies(20):
        prods = rates._slot_products(batch)
        exact = policy._inner_means(*prods) >= 0.0
        assert np.array_equal(_on(policy, batch), exact)
        on, open_ = policy._screen(*prods)
        assert np.array_equal(on[~open_], exact[~open_])
        decided += np.count_nonzero(~open_)
        total += open_.size
    assert decided > 0.5 * total


def _three_search_screen(policy, a1, a2, u, c):
    """The screen's ``(on, open)`` on the policy's own tables, with one
    grid search per bound: the form its single search on C must match."""
    z_pad, (F, G), b_mean, e_mean, ebar = policy._screen_tables
    z, m = z_pad[:-1], policy._even[2].size
    A = 1.0 + policy.p1 * a1 + policy.p2 * a2
    C = 1.0 + (policy.p1 + policy.p2) * c
    d_mean = ebar[0] * a2 + ebar[1] * a1 + ebar[2] * u.real + ebar[3] * u.imag
    ln_num = np.log(A + b_mean + np.maximum(d_mean, 0.0))
    ln_den = np.log(C + e_mean)
    L = (F[np.searchsorted(z, A, "right") - 1]
         - np.minimum(G[np.searchsorted(z, C)], ln_den))
    U = ln_num - np.maximum(G[np.searchsorted(z, C, "right") - 1], np.log(C))
    tau = 64.0 * rates._EPS * (1.0 + (C + e_mean) / A + np.minimum(A, b_mean)
                               + (m + 1) * (ln_num + ln_den
                                            + rates.SCREEN_STEP))
    on, off = L > tau, U < -tau
    return on, ~(on | off)


def _on_grid(z, p, k):
    """Per index in ``k``, a nonnegative x with ``1 + p * x == z[k]``
    exactly, searched among the floats next to ``(z[k] - 1) / p``; NaN
    where none is."""
    x = (z[k] - 1.0) / p
    out = np.full(k.size, np.nan)
    for step in range(-4, 5):
        t = x.copy()
        for _ in range(abs(step)):
            t = np.nextafter(t, np.sign(step) * np.inf)
        hit = np.isnan(out) & (t >= 0.0) & (1.0 + p * t == z[k])
        out[hit] = t[hit]
    return out


def test_sba_screen_one_search_matches_three():
    # states whose A or C lies exactly on a grid point, past the table's
    # top (inf included), or is a plain sample: the single search on C
    # decides each one as a search per bound does
    rng = np.random.default_rng(np.random.SeedSequence(31))
    for policy, batch in itertools.islice(_stress_policies(30), 24):
        a1, a2, u, c = rates._slot_products(batch)
        z = policy._screen_tables[0][:-1]
        k = rng.integers(0, z.size, 2000)
        x1 = _on_grid(z, policy.p1, k)
        xc = _on_grid(z, policy.p1 + policy.p2, k[::-1])
        x1, xc = x1[~np.isnan(x1)], xc[~np.isnan(xc)]
        over = np.append(np.exp(rng.uniform(0.0, 700.0, 297)), [np.inf] * 3)
        n = min(x1.size, xc.size, 1000)
        assert n > 200
        A1 = np.concatenate([x1[:n], a1[:n], over, a1[:300], x1[:300]])
        A2 = np.concatenate([np.zeros(n), a2[:n], a2[:300], over,
                             np.zeros(300)])
        U = np.concatenate([np.zeros(n), u[:n], np.zeros(600), u[:300]])
        C = np.concatenate([c[:n], xc[:n], over[::-1], over, over])
        with np.errstate(all="ignore"):
            want = _three_search_screen(policy, A1, A2, U, C)
            got = policy._screen(A1, A2, U, C)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("m_inner", [1, 200])
def test_sba_screen_leaves_near_zero_means_open(m_inner):
    # odd-slot states whose exact inner mean is within 1e-12 of 0: the
    # eavesdropper gain |c|^2 is bisected to the sign change of the mean
    policy = RudimentarySbaPolicy(PowerBudget(30.0, 30.0), PARAMS, m_inner,
                                  seed=2)
    a1, a2, u, c = rates._slot_products(
        sample_batch(PARAMS, 400, np.random.default_rng(6)))
    lo, hi = np.zeros_like(c), np.full_like(c, 1e6)
    live = policy._inner_means(a1, a2, u, lo) >= 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = policy._inner_means(a1, a2, u, mid) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    means = policy._inner_means(a1, a2, u, lo)
    near = live & (np.abs(means) <= 1e-12)
    assert np.count_nonzero(near) > 300
    _, open_ = policy._screen(a1[near], a2[near], u[near], lo[near])
    assert open_.all()


@pytest.mark.parametrize("var_g, floor", [(0.75, 0.70), (0.25, 0.95)])
def test_sba_screen_coverage_at_30_db(var_g, floor):
    # the screen must decide most of the figure's states, or the exact
    # path runs on all of them again
    params = FadingParams.symmetric(1.0, var_g)
    policy = RudimentarySbaPolicy(PowerBudget(1e3, 1e3), params, 200,
                                  seed=9)
    batch = sample_batch(params, 20000, np.random.default_rng(10))
    _, open_ = policy._screen(*rates._slot_products(batch))
    assert np.count_nonzero(~open_) >= floor * open_.size


def test_sba_policy_decision_stable_across_inner_seeds():
    budget = PowerBudget(1.0, 1.0)
    favorable = ChannelState(5.0, 5.0, 0.3, 0.3)
    decisions = set()
    for seed in range(5):
        policy = RudimentarySbaPolicy(budget, PARAMS, m_inner=10_000,
                                      seed=seed)
        decisions.add(_decide(policy, favorable)[0] > 0)
    assert decisions == {True}


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def test_ergodic_region_zero_policy():
    est = ergodic_region(ESA, ConstantPolicy(0.0, 0.0), PARAMS, 1000, seed=1)
    assert (est.mean.r1, est.mean.r2, est.mean.rsum) == pytest.approx((0.0, 0.0, 0.0))
    assert (est.stderr.r1, est.stderr.r2, est.stderr.rsum) == pytest.approx((0.0, 0.0, 0.0))
    assert est.avg_power == pytest.approx((0.0, 0.0))


def test_ergodic_region_clamps_region_view():
    # eavesdropper much stronger than receiver -> negative raw mean
    params = FadingParams(0.05, 0.05, 5.0, 5.0)
    est = ergodic_region(ESA, ConstantPolicy(5.0, 5.0), params, 20_000, seed=3)
    assert est.mean.rsum < 0
    assert est.region.rsum == 0.0


def test_ergodic_region_rejects_negative_powers():
    class Bad:
        def decide_batch(self, batch):
            n = len(batch)
            return (np.full(n, -1.0), np.zeros(n), np.zeros(n), np.zeros(n))

    with pytest.raises(ValueError):
        ergodic_region(ESA, Bad(), PARAMS, 100, seed=0)


def test_ergodic_region_rejects_nan_powers():
    class Bad:
        def decide_batch(self, batch):
            n = len(batch)
            return (np.zeros(n), np.full(n, np.nan), np.zeros(n), np.zeros(n))

    with pytest.raises(ValueError):
        ergodic_region(ESA, Bad(), PARAMS, 100, seed=0)


def test_ergodic_region_stderr_scaling():
    policy = ConstantPolicy(2.0, 2.0)
    a = ergodic_region(ESA, policy, PARAMS, 20_000, seed=11)
    b = ergodic_region(ESA, policy, PARAMS, 80_000, seed=11)
    ratio = a.stderr.rsum / b.stderr.rsum
    assert ratio == pytest.approx(2.0, rel=0.2)  # 4x samples -> half stderr


# uneven runs (5/5/6 and 3/3/3/3/4 shards), one shard per worker, and
# more workers than shards
WORKERS = (2, 3, 4, 5, 16, 20)


def test_ergodic_region_worker_invariance(monkeypatch):
    policy = RudimentaryEsaPolicy(PowerBudget(4.0, 4.0))
    monkeypatch.setenv("MACWT_WORKERS", "1")
    base = ergodic_region(ESA, policy, PARAMS, 10_000, seed=7)
    for workers in WORKERS:
        monkeypatch.setenv("MACWT_WORKERS", str(workers))
        est = ergodic_region(ESA, policy, PARAMS, 10_000, seed=7)
        assert est == base  # byte-identical reduction order


def test_ergodic_region_sba_worker_invariance(monkeypatch):
    policy = RudimentarySbaPolicy(PowerBudget(4.0, 4.0), PARAMS,
                                  m_inner=200, seed=9)
    monkeypatch.setenv("MACWT_WORKERS", "1")
    base = ergodic_region(SBA, policy, PARAMS, 4000, seed=7)
    for workers in WORKERS:
        monkeypatch.setenv("MACWT_WORKERS", str(workers))
        est = ergodic_region(SBA, policy, PARAMS, 4000, seed=7)
        assert est == base  # shards share the policy's even-slot vectors


@pytest.mark.parametrize("scheme, policy", [
    (ESA, DualPolicy(ESA, DualVars(0.05, 0.08))),
    (ESA_CJ, DualPolicy(ESA_CJ, DualVars(0.05, 0.08))),
    (GS_CJ, DualPolicy(GS_CJ, DualVars(0.2, 0.3))),
    (ESA, ConstantPolicy(2.0, 3.0)),
    (GS_CJ, ConstantPolicy(2.0, 3.0, 0.5, 0.25)),
], ids=["dual-esa", "dual-esa_cj", "dual-gs_cj", "constant-esa",
        "constant-gs_cj"])
def test_ergodic_region_policy_worker_invariance(scheme, policy,
                                                 monkeypatch):
    # a worker's run of shards goes through one policy call: the case
    # trees and the rate kernels must give every row the bits it gets in
    # a shard of its own
    monkeypatch.setenv("MACWT_WORKERS", "1")
    base = ergodic_region(scheme, policy, PARAMS, 5000, seed=21)
    assert math.isfinite(base.mean.rsum)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        for workers in WORKERS:
            monkeypatch.setenv("MACWT_WORKERS", str(workers))
            est = ergodic_region(scheme, policy, PARAMS, 5000, seed=21)
            assert est == base
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers, runs", [
    (1, [1] * 16), (2, [8, 8]), (3, [5, 5, 6]), (5, [3, 3, 3, 3, 4]),
    (16, [1] * 16), (20, [1] * 16)])
def test_ergodic_region_one_policy_call_per_run(workers, runs, monkeypatch):
    # one call per shard on the serial path, one per worker otherwise
    sizes = []

    class Counting(ConstantPolicy):
        def decide_batch(self, batch):
            sizes.append(len(batch))  # list.append is atomic under the GIL
            return super().decide_batch(batch)

    monkeypatch.setenv("MACWT_WORKERS", str(workers))
    ergodic_region(ESA, Counting(1.0, 1.0), PARAMS, 1600, seed=3)
    assert sorted(sizes) == sorted(100 * k for k in runs)


def test_ergodic_region_sba_uses_two_slots():
    policy = RudimentarySbaPolicy(PowerBudget(2.0, 2.0), PARAMS,
                                  m_inner=64, seed=9)
    est = ergodic_region(SBA, policy, PARAMS, 5000, seed=13)
    assert math.isfinite(est.mean.rsum)
    assert est.n == 5000


def test_realized_power_within_budget(rng):
    budget = PowerBudget(2.0, 5.0)
    policy = RudimentaryEsaPolicy(budget)
    est = ergodic_region(ESA, policy, PARAMS, 20_000, seed=17)
    assert est.avg_power[0] <= budget.pbar1 + 3 * est.avg_power_stderr[0] + 1e-12
    assert est.avg_power[1] <= budget.pbar2 + 3 * est.avg_power_stderr[1] + 1e-12


def test_spawn_rngs_distinct_streams():
    rngs = spawn_rngs(123, 4)
    draws = [g.random(3).tolist() for g in rngs]
    assert len({tuple(d) for d in draws}) == 4


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MACWT_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("MACWT_WORKERS", "garbage")
    assert worker_count() == 1
    monkeypatch.delenv("MACWT_WORKERS")
    assert worker_count() == 1


def _recorders():
    """A dual search and an estimator for :func:`grid_point` that record
    their calls and sample nothing."""
    calls = []

    def search(*args, **kwargs):
        calls.append("search")
        raise AssertionError("searched")

    def estimate(scheme, policy, *args):
        calls.append(policy)
        raise AssertionError("estimated")

    return calls, search, estimate


@pytest.mark.parametrize("scheme, kind", [
    (GS_CJ, RUDIMENTARY), (ESA_CJ, RUDIMENTARY), (SBA, DUAL), (ESA, "bogus")])
def test_grid_point_rejects_pairs_without_a_policy(scheme, kind):
    # (gs_cj, rudimentary) used to run ESA's on/off rule on gs_cj rates
    # and report the row ok; (sba, dual) sampled its search batch before
    # failing inside the search
    calls, search, estimate = _recorders()
    with pytest.raises(ValueError, match=f"{kind}.*{scheme}"):
        grid_point(scheme, kind, PARAMS, PowerBudget(100.0, 100.0), 200, 1,
                   200, 2, search=search, estimate=estimate)
    assert calls == []


def test_sba_constant_and_on_off_powers_are_one_scaling():
    params = FadingParams(1.0, 1.0, 0.5, 0.25)
    budget = PowerBudget(3.0, 5.0)
    assert sba_powers(budget, params) == (6.0, 5.0)
    on_off = RudimentarySbaPolicy(budget, params, m_inner=4, seed=1)
    assert (on_off.p1, on_off.p2) == (6.0, 5.0)
    calls, search, estimate = _recorders()
    with pytest.raises(AssertionError, match="estimated"):
        grid_point(SBA, CONSTANT, params, budget, 200, 1, 200, 2,
                   search=search, estimate=estimate)
    (policy,) = calls
    assert policy.decision == PowerDecision(6.0, 5.0, 0.0, 0.0)
