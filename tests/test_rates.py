import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwt.channel import (ChannelState, FadingParams, SbaBlock, StateBatch,
                           sample_batch, sba_block_gains)
from macwt.montecarlo import (ESA, ESA_CJ, GS_CJ, SBA, ergodic_region,
                              scheme_rates, spawn_rngs, worker_count)
from macwt.rates import (ConstantPolicy, PowerBudget, PowerDecision,
                         RudimentaryEsaPolicy, RudimentarySbaPolicy,
                         esa_general_triple)

UNIT = ChannelState(1, 1, 1, 1)
PARAMS = FadingParams.symmetric(1.0, 0.75)


def _sq(state):
    return (state.h1_sq, state.h2_sq, state.g1_sq, state.g2_sq)


def _rates(scheme, state, d):
    """Rate triple of one state (a SbaBlock for the two-slot scheme)."""
    if scheme == SBA:
        gains = sba_block_gains(StateBatch.of(state.odd),
                                StateBatch.of(state.even))
        return tuple(float(v[0]) for v in
                     scheme_rates(SBA, gains, d.p1, d.p2, 0.0, 0.0))
    return tuple(float(v) for v in
                 scheme_rates(scheme, _sq(state), d.p1, d.p2, d.q1, d.q2))


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
    block = SbaBlock(ChannelState(1, 2, 1, 1), ChannelState(2, 1, 1, 1))
    assert _rates(SBA, block, PowerDecision(0, 0)) == pytest.approx(
        (0.0, 0.0, 0.0))
    # A1 = 5, A2 = 5, |D|^2 = 9, C = 2
    rsum = _rsum(SBA, block, PowerDecision(1, 1))
    assert rsum == pytest.approx(
        0.5 * (math.log2(20) - math.log2(5)), abs=1e-12)
    assert rsum == pytest.approx(1.0, abs=1e-12)
    same = SbaBlock(UNIT, UNIT)
    assert _rsum(SBA, same, PowerDecision(1, 1)) == pytest.approx(
        0.0, abs=1e-15)


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
    _, _, rsum = esa_general_triple(*_sq(UNIT), 0.0, 0.0, 1, 1)
    assert rsum == pytest.approx(0.0, abs=1e-15)
    _, _, rsum = esa_general_triple(*_sq(ChannelState(0, 0, 1, 1)),
                                    math.pi, 0.0, 1, 1)
    assert rsum <= 0.0


def test_scheme_rates_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        scheme_rates("nope", _sq(UNIT), 1.0, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def test_esa_general_reduces_to_esa(rng):
    for _ in range(1000):
        s = _state(PARAMS, rng)
        p1, p2 = rng.exponential(2.0, 2)
        a = _rates(ESA, s, PowerDecision(p1, p2))
        b = esa_general_triple(*_sq(s), math.pi, 0.0, p1, p2)
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
        r1, _, rsum = _rates(GS_CJ, s, PowerDecision(p1, p2))
        assert r1 == pytest.approx(math.log2(1 + s.h1_sq * p1), abs=1e-12)
        assert rsum == pytest.approx(
            math.log2(1 + s.h1_sq * p1 + s.h2_sq * p2), abs=1e-12)


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


def test_ergodic_region_stderr_scaling():
    policy = ConstantPolicy(2.0, 2.0)
    a = ergodic_region(ESA, policy, PARAMS, 20_000, seed=11)
    b = ergodic_region(ESA, policy, PARAMS, 80_000, seed=11)
    ratio = a.stderr.rsum / b.stderr.rsum
    assert ratio == pytest.approx(2.0, rel=0.2)  # 4x samples -> half stderr


def test_ergodic_region_worker_invariance():
    policy = RudimentaryEsaPolicy(PowerBudget(4.0, 4.0))
    base = ergodic_region(ESA, policy, PARAMS, 10_000, seed=7, workers=1)
    for workers in (2, 4):
        est = ergodic_region(ESA, policy, PARAMS, 10_000, seed=7,
                             workers=workers)
        assert est == base  # byte-identical reduction order


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
    assert worker_count(default=2) == 2
    monkeypatch.delenv("MACWT_WORKERS")
    assert worker_count() == 1
