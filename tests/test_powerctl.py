import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwt.channel import ChannelState, FadingParams, StateBatch, sample_batch
from macwt.powerctl import (DualPolicy, DualSearchResult, DualVars,
                            EffectiveState, cj_case_label, closed_form_p1,
                            closed_form_p2, dual_search, effective_state,
                            esa_case_id, esa_cj_case_label,
                            esa_cj_kkt_residual, esa_cj_policy_batch,
                            esa_kkt_residual, esa_policy_batch,
                            gs_cj_baseline_batch, grid_oracle, lagrangian_esa,
                            lagrangian_esa_cj, solve_common_root, solve_p1q2,
                            solve_p2q1, stationary_candidates)
from macwt.rates import PowerBudget, PowerDecision

PARAMS = FadingParams.symmetric(1.0, 0.75)


def _random_states(rng, n, mean=2.0):
    # effective gains of unit-variance fading are exponential with mean 2
    return tuple(rng.exponential(mean, n) for _ in range(4))


def _one(s: EffectiveState):
    return [np.array([v]) for v in (s.h1, s.h2, s.g1, s.g2)]


def _esa(s: EffectiveState, duals: DualVars) -> tuple:
    """(P1, P2) of one state under the seven-case tree."""
    p1, p2, _ = esa_policy_batch(*_one(s), duals.lambda1, duals.lambda2)
    return float(p1[0]), float(p2[0])


def _cj(s: EffectiveState, duals: DualVars) -> PowerDecision:
    """(P1, P2, Q1, Q2) of one state under the jamming tree."""
    *p, _ = esa_cj_policy_batch(*_one(s), duals.lambda1, duals.lambda2)
    return PowerDecision(*(float(v[0]) for v in p))


def _gs(state: ChannelState, duals: DualVars) -> PowerDecision:
    p = DualPolicy("gs_cj", duals).decide_batch(StateBatch.of(state))
    return PowerDecision(*(float(v[0]) for v in p))


def test_effective_state_doubles_squared_magnitudes():
    s = effective_state(ChannelState(1 + 1j, 2.0, 0.5j, 0.0))
    assert (s.h1, s.h2, s.g1, s.g2) == pytest.approx((4.0, 8.0, 0.5, 0.0))
    with pytest.raises(ValueError):
        EffectiveState(-1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        DualVars(0.0, 1.0)


# ---------------------------------------------------------------------------
# closed-form single-user roots
# ---------------------------------------------------------------------------

def test_closed_form_p1_hand_value():
    s = EffectiveState(2.0, 0, 1.0, 0)
    p1 = closed_form_p1(s, 0.5)
    assert p1 == pytest.approx(0.5 * (math.sqrt(4.25) - 1.5), abs=1e-12)
    assert p1 == pytest.approx(0.2807764064044151, abs=1e-12)
    # stationarity: h/(1+hP) - g/(1+gP) = lambda
    assert 2.0 / (1 + 2 * p1) - 1.0 / (1 + p1) == pytest.approx(0.5, abs=1e-10)


def test_closed_form_positivity_threshold():
    s = EffectiveState(2.0, 3.0, 1.0, 1.0)
    assert closed_form_p1(s, 2.0 - 1.0) == pytest.approx(0.0, abs=1e-12)
    assert closed_form_p2(s, 3.0 - 1.0) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_monotone_in_lambda():
    s = EffectiveState(4.0, 0, 1.0, 0)
    lams = [1e-6, 1e-4, 1e-2, 1.0]
    roots = [closed_form_p1(s, l) for l in lams]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    # with g > 0 the root grows like sqrt(1/lambda), unbounded but slower
    # than water-filling
    assert roots[0] > 500.0


def test_closed_form_zero_eavesdropper_is_water_filling():
    s = EffectiveState(4.0, 0, 0.0, 0)
    assert closed_form_p1(s, 0.5) == pytest.approx(1 / 0.5 - 1 / 4.0, abs=1e-12)


def test_closed_form_invalid_cases():
    with pytest.raises(ValueError):
        closed_form_p1(EffectiveState(1.0, 0, 2.0, 0), 0.1)
    with pytest.raises(ValueError):
        closed_form_p2(EffectiveState(0, 1.0, 0, 1.0), 0.1)
    with pytest.raises(ValueError):
        closed_form_p1(EffectiveState(2.0, 0, 1.0, 0), 0.0)


@given(st.floats(0.01, 100.0), st.floats(0.0, 0.99), st.floats(1e-4, 10.0))
@settings(max_examples=300)
def test_closed_form_root_satisfies_stationarity(h, ratio, lam):
    g = h * ratio
    s = EffectiveState(h, 0, g, 0)
    p = closed_form_p1(s, lam)
    if p > 0:
        lhs = h / (1 + h * p) - (g / (1 + g * p) if g else 0.0)
        assert lhs == pytest.approx(lam, rel=1e-8)
    else:
        assert h - g <= lam + 1e-12


# ---------------------------------------------------------------------------
# coupled-quadratic common roots
# ---------------------------------------------------------------------------

def test_symmetric_common_root():
    s = EffectiveState(3.0, 3.0, 1.0, 1.0)
    root = solve_common_root(s, DualVars(0.1, 0.1))
    assert root is not None
    p1, p2 = root
    # symmetric reduction: 0.6 p^2 - 2.5 p - 1.9 = 0
    expect = (2.5 + math.sqrt(2.5 ** 2 + 4 * 0.6 * 1.9)) / (2 * 0.6)
    assert p1 == pytest.approx(expect, rel=1e-9)
    assert p2 == pytest.approx(p1, rel=1e-9)
    r1, r2 = esa_kkt_residual(s, p1, p2, DualVars(0.1, 0.1))
    assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_common_root_none_when_price_too_high():
    s = EffectiveState(1.0, 1.0, 0.5, 0.5)
    assert solve_common_root(s, DualVars(2.0, 2.0)) is None


def test_common_root_residuals_random(rng):
    duals = DualVars(0.05, 0.08)
    found = 0
    for _ in range(300):
        h1, h2, g1, g2 = rng.exponential(2.0, 4)
        s = EffectiveState(h1, h2, g1, g2)
        root = solve_common_root(s, duals)
        if root is None:
            continue
        found += 1
        r1, r2 = esa_kkt_residual(s, root[0], root[1], duals)
        scale = max(h1, h2, 1.0)
        assert abs(r1) <= 1e-8 * scale and abs(r2) <= 1e-8 * scale
        assert root[0] > 0 and root[1] > 0
    assert found > 10  # the sweep actually exercised the solver


def test_solve_p1q2_grid_verified():
    s = EffectiveState(5.0, 0.1, 1.0, 4.0)
    duals = DualVars(0.05, 0.05)
    root = solve_p1q2(s, duals)
    assert root is not None
    p1, q2 = root
    assert p1 > 0 and q2 > 0
    d = PowerDecision(p1, 0.0, 0.0, q2)
    res = esa_cj_kkt_residual(s, d, duals)
    assert abs(res[0]) < 1e-8 and abs(res[3]) < 1e-8
    # exhaustive check: the root beats every grid point of the Lagrangian
    axis = np.linspace(0.0, 3 * max(p1, q2), 400)
    x = axis[:, None]
    y = axis[None, :]
    grid = (np.log1p(s.h1 * x) - np.log1p(s.g1 * x + s.g2 * y)
            + np.log1p(s.g2 * y) - duals.lambda1 * x - duals.lambda2 * y)
    val = (math.log1p(s.h1 * p1) - math.log1p(s.g1 * p1 + s.g2 * q2)
           + math.log1p(s.g2 * q2) - duals.lambda1 * p1 - duals.lambda2 * q2)
    assert val >= grid.max() - 1e-6


def test_solve_p1q2_none_when_jamming_priced_out():
    s = EffectiveState(5.0, 0.1, 1.0, 4.0)
    assert solve_p1q2(s, DualVars(0.05, 5.0)) is None  # lambda2 >= g2


def test_solve_p2q1_mirror():
    s = EffectiveState(0.1, 5.0, 4.0, 1.0)
    duals = DualVars(0.05, 0.05)
    root = solve_p2q1(s, duals)
    swapped = solve_p1q2(EffectiveState(5.0, 0.1, 1.0, 4.0),
                         DualVars(0.05, 0.05))
    assert root is not None and swapped is not None
    assert root[0] == pytest.approx(swapped[0], rel=1e-9)
    assert root[1] == pytest.approx(swapped[1], rel=1e-9)


# ---------------------------------------------------------------------------
# seven-case allocation without jamming
# ---------------------------------------------------------------------------

def test_esa_case_examples():
    duals = DualVars(0.5, 0.5)
    # h1 <= lambda1 and h2 - g2 <= lambda2 -> silent
    s = EffectiveState(0.4, 0.6, 0.5, 0.5)
    assert esa_case_id(s, duals) == 1
    assert _esa(s, duals) == (0.0, 0.0)
    # single-user closed form (case 3)
    s3 = EffectiveState(2.0, 0.3, 1.0, 0.5)
    assert esa_case_id(s3, duals) == 3
    p1, p2 = _esa(s3, duals)
    assert p1 == pytest.approx(0.2807764064044151, abs=1e-10)
    assert p2 == 0.0
    # symmetric interior root (case 7)
    s7 = EffectiveState(3.0, 3.0, 1.0, 1.0)
    duals7 = DualVars(0.1, 0.1)
    assert esa_case_id(s7, duals7) == 7
    p1, p2 = _esa(s7, duals7)
    assert p1 == pytest.approx(4.8232137037956, rel=1e-8)
    assert p2 == pytest.approx(p1, rel=1e-8)


def test_esa_policy_batch_invariants(rng):
    n = 5000
    h1, h2, g1, g2 = _random_states(rng, n)
    l1, l2 = 0.15, 0.04
    p1, p2, case = esa_policy_batch(h1, h2, g1, g2, l1, l2)
    assert np.all(p1 >= 0) and np.all(p2 >= 0)
    assert set(np.unique(case)) <= set(range(1, 8))
    duals = DualVars(l1, l2)
    den = 1.0 + g1 * p1 + g2 * p2
    # positivity iff-conditions, both directions
    cond1 = h1 - g1 / (1.0 + g2 * p2) > l1
    cond2 = h2 - g2 / (1.0 + g1 * p1) > l2
    assert np.array_equal(p1 > 0, cond1)
    assert np.array_equal(p2 > 0, cond2)
    # active stationarity residuals
    res1 = h1 / (1.0 + h1 * p1) - g1 / den - l1
    res2 = h2 / (1.0 + h2 * p2) - g2 / den - l2
    scale = np.maximum.reduce([h1, g1, np.ones(n)])
    assert np.all(np.abs(np.where(p1 > 0, res1, 0.0)) <= 1e-8 * scale)
    scale = np.maximum.reduce([h2, g2, np.ones(n)])
    assert np.all(np.abs(np.where(p2 > 0, res2, 0.0)) <= 1e-8 * scale)
    # inactive equations must price out (res <= 0)
    assert np.all(np.where(p1 > 0, 0.0, res1) <= 1e-10)
    assert np.all(np.where(p2 > 0, 0.0, res2) <= 1e-10)


def test_esa_scalar_matches_batch(rng):
    # the one-state case id is the batch's code for that row
    h1, h2, g1, g2 = _random_states(rng, 64)
    duals = DualVars(0.1, 0.2)
    _, _, case = esa_policy_batch(h1, h2, g1, g2, 0.1, 0.2)
    for i in (0, 13, 63):
        s = EffectiveState(h1[i], h2[i], g1[i], g2[i])
        assert esa_case_id(s, duals) == case[i]


def test_esa_kkt_residual_boundary():
    s = EffectiveState(2.0, 1.0, 1.0, 1.0)
    r1, _ = esa_kkt_residual(s, 0.0, 0.0, DualVars(1.0, 0.5))
    assert r1 == pytest.approx(0.0, abs=1e-15)  # lambda1 = h1 - g1
    with pytest.raises(ValueError):
        esa_kkt_residual(s, -0.1, 0.0, DualVars(1.0, 1.0))


# ---------------------------------------------------------------------------
# allocation with jamming
# ---------------------------------------------------------------------------

def test_cj_branch1_delegates_to_no_jamming():
    s = EffectiveState(3.0, 3.0, 1.0, 1.0)
    duals = DualVars(0.1, 0.1)
    d = _cj(s, duals)
    assert d.q1 == 0.0 and d.q2 == 0.0
    assert d.p1 == pytest.approx(4.8232137037956, rel=1e-8)
    assert esa_cj_case_label(s, duals) == "B.1/A.7"


def test_cj_branch2_subcases():
    duals = DualVars(0.5, 0.5)
    # 2a: transmit user priced out -> everything off
    s = EffectiveState(0.4, 0.5, 0.3, 2.0)
    d = _cj(s, duals)
    assert (d.p1, d.p2, d.q1, d.q2) == (0.0, 0.0, 0.0, 0.0)
    assert esa_cj_case_label(s, duals) == "B.2a"
    # 2b: strong transmitter, jammer priced out (g2 <= lambda2)
    s = EffectiveState(2.0, 0.1, 1.0, 0.4)
    d = _cj(s, duals)
    assert d.p1 == pytest.approx(0.2807764064044151, abs=1e-10)
    assert d.q2 == 0.0 and d.p2 == 0.0
    assert esa_cj_case_label(s, duals) == "B.2b"
    # 2d: both transmit and jam (the grid-verified example)
    s = EffectiveState(5.0, 0.1, 1.0, 4.0)
    dd = DualVars(0.05, 0.05)
    d = _cj(s, dd)
    assert d.p1 > 0 and d.q2 > 0 and d.p2 == 0.0 and d.q1 == 0.0
    assert esa_cj_case_label(s, dd) == "B.2d"
    res = esa_cj_kkt_residual(s, d, dd)
    assert abs(res[0]) < 1e-8 and abs(res[3]) < 1e-8


def test_cj_branch3_mirrors_branch2():
    dd = DualVars(0.05, 0.05)
    d2 = _cj(EffectiveState(5.0, 0.1, 1.0, 4.0), dd)
    d3 = _cj(EffectiveState(0.1, 5.0, 4.0, 1.0), dd)
    assert d3.p2 == pytest.approx(d2.p1, rel=1e-9)
    assert d3.q1 == pytest.approx(d2.q2, rel=1e-9)


def test_cj_branch4_both_weak_silent_when_priced_out():
    s = EffectiveState(0.5, 0.5, 1.0, 1.0)
    duals = DualVars(2.0, 2.0)
    d = _cj(s, duals)
    assert (d.p1, d.p2, d.q1, d.q2) == (0.0, 0.0, 0.0, 0.0)
    assert esa_cj_case_label(s, duals) == "B.4a"


def test_cj_branch4_two_root_tiebreak_prefers_larger_rsum(rng):
    # scan weak-weak states until the two-root sub-case shows up, then
    # check the chosen side beats the rejected one
    duals = DualVars(0.05, 0.05)
    hits = 0
    for _ in range(4000):
        h1, h2 = rng.exponential(1.0, 2)
        g1 = h1 + rng.exponential(2.0)
        g2 = h2 + rng.exponential(2.0)
        s = EffectiveState(h1, h2, g1, g2)
        label = esa_cj_case_label(s, duals)
        if not label.startswith("B.4d"):
            continue
        hits += 1
        d = _cj(s, duals)
        assert (d.p1 > 0) != (d.p2 > 0) or (d.p1 == 0 and d.p2 == 0)
        if hits >= 5:
            break
    assert hits > 0


def test_cj_batch_invariants(rng):
    n = 5000
    h1, h2, g1, g2 = _random_states(rng, n)
    l1, l2 = 0.12, 0.05
    p1, p2, q1, q2, case = esa_cj_policy_batch(h1, h2, g1, g2, l1, l2)
    # no power splitting, exact
    assert not np.any((p1 > 0) & (q1 > 0))
    assert not np.any((p2 > 0) & (q2 > 0))
    # jamming suppression: h_k >= g_k -> Q_k = 0
    assert np.all(q1[h1 >= g1] == 0.0)
    assert np.all(q2[h2 >= g2] == 0.0)
    # active-equation residuals
    duals = DualVars(l1, l2)
    for i in rng.choice(n, 200, replace=False):
        s = EffectiveState(h1[i], h2[i], g1[i], g2[i])
        d = PowerDecision(p1[i], p2[i], q1[i], q2[i])
        res = esa_cj_kkt_residual(s, d, duals)
        scale = max(h1[i], h2[i], g1[i], g2[i], 1.0)
        for power, r in zip((d.p1, d.p2, d.q1, d.q2), res):
            if power > 0:
                assert abs(r) <= 1e-8 * scale


def test_cj_scalar_matches_batch(rng):
    # the one-state branch label is the label of the batch's code
    h1, h2, g1, g2 = _random_states(rng, 64)
    duals = DualVars(0.08, 0.3)
    *_, case = esa_cj_policy_batch(h1, h2, g1, g2, 0.08, 0.3)
    for i in (0, 31, 63):
        s = EffectiveState(h1[i], h2[i], g1[i], g2[i])
        assert esa_cj_case_label(s, duals) == cj_case_label(int(case[i]))


def test_cj_case_labels():
    assert cj_case_label(17) == "B.1/A.7"
    assert cj_case_label(23) == "B.2c"
    assert cj_case_label(31) == "B.3a"
    assert cj_case_label(44) == "B.4d"
    assert cj_case_label(45) == "B.4d-A"
    assert cj_case_label(46) == "B.4d-B"


# ---------------------------------------------------------------------------
# stationarity candidates and the grid oracle
# ---------------------------------------------------------------------------

def test_stationary_candidates_silent_state():
    s = EffectiveState(0.4, 0.4, 0.5, 0.5)
    duals = DualVars(0.5, 0.5)
    cands = stationary_candidates(s, duals, "esa")
    assert len(cands) == 1
    assert cands[0][0] == PowerDecision(0, 0, 0, 0)


def test_policy_beats_grid_oracle_at_unique_states(rng):
    checked = 0
    for _ in range(120):
        h1, h2, g1, g2 = rng.exponential(2.0, 4)
        s = EffectiveState(h1, h2, g1, g2)
        duals = DualVars(10.0 ** rng.uniform(-1.5, 0.3),
                         10.0 ** rng.uniform(-1.5, 0.3))
        for scheme in ("esa", "esa_cj"):
            cands = stationary_candidates(s, duals, scheme)
            if len(cands) != 1:
                continue
            checked += 1
            if scheme == "esa":
                p1, p2 = _esa(s, duals)
                val = float(lagrangian_esa(s, p1, p2, duals))
                gmax = 2.0 * max(p1 + p2, 1.0)
            else:
                d = _cj(s, duals)
                val = float(lagrangian_esa_cj(s, d, duals))
                gmax = 2.0 * max(d.p1 + d.q1 + d.p2 + d.q2, 1.0)
            _, oracle_val = grid_oracle(s, duals, scheme, gmax, 150)
            assert val >= oracle_val - 1e-6
    assert checked > 100


def test_grid_oracle_basics():
    s = EffectiveState(0.4, 0.4, 0.5, 0.5)
    duals = DualVars(0.5, 0.5)
    d, v = grid_oracle(s, duals, "esa", 5.0, 101)
    assert d == PowerDecision(0, 0, 0, 0)
    assert v == 0.0
    d, _ = grid_oracle(s, duals, "esa_cj", 5.0, 101)
    assert not ((d.p1 > 0 and d.q1 > 0) or (d.p2 > 0 and d.q2 > 0))
    with pytest.raises(ValueError):
        grid_oracle(s, duals, "esa", 5.0, 1)


def test_grid_oracle_finds_symmetric_root():
    s = EffectiveState(3.0, 3.0, 1.0, 1.0)
    duals = DualVars(0.1, 0.1)
    d, _ = grid_oracle(s, duals, "esa", 10.0, 201)
    step = 10.0 / 200
    assert abs(d.p1 - 4.8232137) <= step + 1e-9
    assert abs(d.p2 - 4.8232137) <= step + 1e-9


# ---------------------------------------------------------------------------
# baseline single-slot policy
# ---------------------------------------------------------------------------

def test_gs_cj_baseline_regions():
    duals = DualVars(0.1, 0.1)
    # both receivers weak -> off
    d = _gs(ChannelState(0.5, 0.5, 1.0, 1.0), duals)
    assert (d.p1, d.p2, d.q1, d.q2) == (0.0, 0.0, 0.0, 0.0)
    # both strong -> transmit only
    d = _gs(ChannelState(2.0, 2.0, 0.5, 0.5), duals)
    assert d.p1 > 0 and d.p2 > 0 and d.q1 == 0 and d.q2 == 0
    # mixed -> strong transmits, weak jams
    d = _gs(ChannelState(2.0, 0.5, 0.5, 2.0), duals)
    assert d.p1 > 0 and d.p2 == 0 and d.q1 == 0 and d.q2 > 0


def test_gs_cj_baseline_no_splitting(rng):
    duals = DualVars(0.05, 0.2)
    policy = DualPolicy("gs_cj", duals)
    batch = sample_batch(PARAMS, 5000, rng)
    p1, p2, q1, q2 = policy.decide_batch(batch)
    assert not np.any((p1 > 0) & (q1 > 0))
    assert not np.any((p2 > 0) & (q2 > 0))
    h1, h2, g1, g2 = batch.sq()
    weak = (h1 <= g1) & (h2 <= g2)
    assert np.all((p1 + p2 + q1 + q2)[weak] == 0.0)


# ---------------------------------------------------------------------------
# dual search
# ---------------------------------------------------------------------------

def test_dual_search_large_budget_slack():
    res = dual_search(PARAMS, PowerBudget(1e6, 1e6), "gs_cj", 4000, seed=21)
    assert res.converged
    assert all(res.slack)
    assert res.realized[0] <= 1e6 * 1.01


def test_dual_search_tiny_budget():
    res = dual_search(PARAMS, PowerBudget(1e-3, 1e-3), "esa", 4000, seed=22)
    assert res.converged
    for k in (0, 1):
        assert res.slack[k] or abs(res.realized[k] - 1e-3) <= 0.01 * 1e-3
    assert res.duals.lambda1 > 0.1  # tiny budget -> steep price


@pytest.mark.parametrize("scheme", ["esa", "esa_cj", "gs_cj"])
def test_dual_search_meets_budget(scheme):
    budget = PowerBudget(10.0, 10.0)
    res = dual_search(PARAMS, budget, scheme, 4000, seed=23)
    assert res.converged
    for k in (0, 1):
        assert res.slack[k] or abs(res.realized[k] - 10.0) <= 0.1


def test_dual_search_deterministic():
    a = dual_search(PARAMS, PowerBudget(5.0, 5.0), "esa", 2000, seed=31)
    b = dual_search(PARAMS, PowerBudget(5.0, 5.0), "esa", 2000, seed=31)
    assert a == b
    assert isinstance(a, DualSearchResult)


def test_dual_search_monotone_in_lambda(rng):
    # empirical monotonicity that justifies the per-coordinate bisection
    sq = sample_batch(PARAMS, 4000, rng).sq()
    h1, h2, g1, g2 = sq
    prev = None
    for lam in (0.01, 0.05, 0.2, 1.0):
        p1, p2, _ = esa_policy_batch(2 * h1, 2 * h2, 2 * g1, 2 * g2, lam, 0.1)
        mean = p1.mean()
        if prev is not None:
            assert mean <= prev + 1e-12
        prev = mean


def test_dual_search_rejects_zero_budget():
    with pytest.raises(ValueError):
        dual_search(PARAMS, PowerBudget(0.0, 1.0), "esa", 100, seed=1)


# ---------------------------------------------------------------------------
# policy adapters
# ---------------------------------------------------------------------------

def test_dual_policy_runs_the_scheme_tree(rng):
    batch = sample_batch(PARAMS, 128, rng)
    h1, h2, g1, g2 = batch.sq()
    eff = (2 * h1, 2 * h2, 2 * g1, 2 * g2)
    duals = DualVars(0.1, 0.15)
    p1, p2, _ = esa_policy_batch(*eff, 0.1, 0.15)
    zero = np.zeros_like(p1)
    expect = {"esa": (p1, p2, zero, zero),
              "esa_cj": esa_cj_policy_batch(*eff, 0.1, 0.15)[:4],
              "gs_cj": gs_cj_baseline_batch(h1, h2, g1, g2, 0.1, 0.15)}
    for scheme, want in expect.items():
        got = DualPolicy(scheme, duals).decide_batch(batch)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        DualPolicy("sba", duals).decide_batch(batch)
