import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkt_reference import (best_common_root, closed_form, cj_modes,
                           common_root, full_pick, grid_oracle,
                           gs_cj_baseline_masked, lagrangian_cj_batch,
                           lagrangian_esa, lagrangian_esa_cj,
                           stationary_candidates)
from macwt import powerctl
from macwt.channel import (ChannelState, FadingParams, GainBatch, StateBatch,
                           sample_batch)
from macwt.powerctl import (LAM_MIN, RESIDUAL_TOL, CaseSolverError,
                            DualPolicy,
                            DualSearchResult, DualVars, EffectiveState,
                            RootSolveError, _closed_form_root,
                            _common_root_batch,
                            _positive_roots_batch, _rel_residual, _state_row,
                            cj_case_label, dual_search, effective_state,
                            esa_case_id, esa_cj_case_label,
                            esa_cj_kkt_residual, esa_cj_policy_batch,
                            esa_policy_batch,
                            gs_cj_baseline_batch)
from macwt.rates import PowerBudget, PowerDecision

PARAMS = FadingParams.symmetric(1.0, 0.75)


def _random_states(rng, n, mean=2.0):
    # effective gains of unit-variance fading are exponential with mean 2
    return tuple(rng.exponential(mean, n) for _ in range(4))


def _esa(s: EffectiveState, duals: DualVars) -> tuple:
    """(P1, P2) of one state under the no-jamming tree."""
    p1, p2, _ = esa_policy_batch(*_state_row(s, duals))
    return float(p1[0]), float(p2[0])


def _cj(s: EffectiveState, duals: DualVars) -> PowerDecision:
    """(P1, P2, Q1, Q2) of one state under the jamming tree."""
    *p, _ = esa_cj_policy_batch(*_state_row(s, duals))
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
    p1 = closed_form(2.0, 1.0, 0.5)
    assert p1 == pytest.approx(0.5 * (math.sqrt(4.25) - 1.5), abs=1e-12)
    assert p1 == pytest.approx(0.2807764064044151, abs=1e-12)
    # stationarity: h/(1+hP) - g/(1+gP) = lambda
    assert 2.0 / (1 + 2 * p1) - 1.0 / (1 + p1) == pytest.approx(0.5, abs=1e-10)


def test_closed_form_positivity_threshold():
    assert closed_form(2.0, 1.0, 2.0 - 1.0) == pytest.approx(0.0, abs=1e-12)
    assert closed_form(3.0, 1.0, 3.0 - 1.0) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_monotone_in_lambda():
    lams = [1e-6, 1e-4, 1e-2, 1.0]
    roots = [closed_form(4.0, 1.0, l) for l in lams]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    # with g > 0 the root grows like sqrt(1/lambda), unbounded but slower
    # than water-filling
    assert roots[0] > 500.0


def test_closed_form_zero_eavesdropper_is_water_filling():
    assert closed_form(4.0, 0.0, 0.5) == pytest.approx(1 / 0.5 - 1 / 4.0,
                                                       abs=1e-12)


def test_closed_form_invalid_cases():
    with pytest.raises(ValueError):
        closed_form(1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        closed_form(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        closed_form(2.0, 1.0, 0.0)


@given(st.floats(0.01, 100.0), st.floats(0.0, 0.99), st.floats(1e-4, 10.0))
@settings(max_examples=300)
def test_closed_form_root_satisfies_stationarity(h, ratio, lam):
    g = h * ratio
    p = closed_form(h, g, lam)
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
    root = common_root("esa", s, DualVars(0.1, 0.1))
    assert root is not None
    p1, p2 = root
    # symmetric reduction: 0.6 p^2 - 2.5 p - 1.9 = 0
    expect = (2.5 + math.sqrt(2.5 ** 2 + 4 * 0.6 * 1.9)) / (2 * 0.6)
    assert p1 == pytest.approx(expect, rel=1e-9)
    assert p2 == pytest.approx(p1, rel=1e-9)
    r1, r2, *_ = esa_cj_kkt_residual(s, PowerDecision(p1, p2),
                                     DualVars(0.1, 0.1))
    assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_common_root_none_when_price_too_high():
    s = EffectiveState(1.0, 1.0, 0.5, 0.5)
    assert common_root("esa", s, DualVars(2.0, 2.0)) is None


@pytest.mark.parametrize("tree", [esa_policy_batch, esa_cj_policy_batch])
@pytest.mark.parametrize("h1", [1e300, 1e308])
def test_trees_never_return_nan_at_huge_gains(tree, h1):
    # at h1 = 1e308 the candidates' Lagrangian overflows: the trees raise
    # rather than pick an empty (NaN) column; at 1e300 they still solve
    args = (*(np.array([v]) for v in (h1, 1.0, 1.0, 1.0)), 0.1, 0.1)
    with np.errstate(all="ignore"):
        if h1 > 1e300:
            with pytest.raises(CaseSolverError):
                tree(*args)
            return
        *powers, _ = tree(*args)
    assert [float(p[0]) for p in powers[:2]] == pytest.approx([5.0, 4.0])
    assert all(np.isfinite(p).all() for p in powers)


def test_common_root_residuals_random(rng):
    duals = DualVars(0.05, 0.08)
    found = 0
    for _ in range(300):
        h1, h2, g1, g2 = rng.exponential(2.0, 4)
        s = EffectiveState(h1, h2, g1, g2)
        root = common_root("esa", s, duals)
        if root is None:
            continue
        found += 1
        r1, r2, *_ = esa_cj_kkt_residual(s, PowerDecision(*root), duals)
        scale = max(h1, h2, 1.0)
        assert abs(r1) <= 1e-8 * scale and abs(r2) <= 1e-8 * scale
        assert root[0] > 0 and root[1] > 0
    assert found > 10  # the sweep actually exercised the solver


_log_gain = st.floats(-3.0, 3.0)  # gain ratios up to 1e6


@given(st.sampled_from(["esa", "p1q2"]),
       st.sampled_from([best_common_root, _common_root_batch,
                        _positive_roots_batch]),
       st.floats(-8.0, 1.0), st.floats(-8.0, 1.0),
       st.lists(st.tuples(_log_gain, _log_gain, _log_gain, _log_gain),
                min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_common_root_batch_roots_are_certified(which, solver, ll1, ll2,
                                               states):
    # log-uniform duals in [1e-8, 10]: every reported root (the best per
    # row, or every certified candidate column) is a strictly
    # positive common root within the acceptance residual
    h1, h2, g1, g2 = (10.0 ** np.array(c) for c in zip(*states))
    if which == "p1q2":  # user 2 jams: the same system with h2 := g2
        h2 = g2
    l1 = np.full(h1.shape, 10.0 ** ll1)
    l2 = np.full(h1.shape, 10.0 ** ll2)
    x, y, f = solver(h1, h2, g1, g2, l1, l2)
    cols = (h1, h2, g1, g2, l1, l2)
    if solver is best_common_root:
        assert np.all(np.isfinite(x) == f)
    else:  # one column per Newton start of the enumerator
        cols = tuple(np.repeat(c[:, None], x.shape[1], axis=1) for c in cols)
    assert np.all(x[f] > 0) and np.all(y[f] > 0)
    res = _rel_residual(*(c[f] for c in cols), x[f], y[f])
    assert np.all(res <= RESIDUAL_TOL)


def test_fallback_starts_go_only_to_rows_without_a_cubic_root(monkeypatch):
    # one pick ranks the cubic's columns and the fallback columns
    # together, so a row with a certified cubic root must get no fallback
    # start: the second Newton pass holds exactly the open rows (those
    # not ruled out) without one, once per fallback start, column by
    # column; a ruled-out row gets no start in either pass
    sq = sample_batch(PARAMS, 4000, np.random.default_rng(5)).sq()
    # small duals, where the cubic misses roots, and large ones, where
    # many rows hold none
    lam = np.where(np.arange(4000) % 2 == 0, 1e-5, 0.3)
    args = (*(2.0 * v for v in sq), lam, lam)
    _, _, ok = _positive_roots_batch(*args)
    open_ = ~powerctl._root_free(*args)
    none = open_ & ~ok.any(axis=1)
    assert none.any() and (open_ & ~none).any() and (~open_).any()
    calls = []
    polish = powerctl._newton_polish

    def recorded(*a):
        calls.append(a)
        return polish(*a)

    monkeypatch.setattr(powerctl, "_newton_polish", recorded)
    _common_root_batch(*args)
    assert len(calls) == 2
    assert set(calls[0][0].tolist()) <= set(args[0][open_].tolist())
    starts = len(powerctl._FALLBACK_STARTS)
    for got, v in zip(calls[1][:6], args):
        assert got.tobytes() == np.tile(v[none], starts).tobytes()


def _any_start_certifies(args):
    """Per row: does a cubic start or a ``_FALLBACK_STARTS`` start
    certify a root?  Every start is tried on every row."""
    a, b = np.array(powerctl._FALLBACK_STARTS).T
    # on root-free rows some far-off Newton steps reach inf
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, ok = _positive_roots_batch(*args)
        _, _, hit = powerctl._polish_starts(args, a / args[4][:, None],
                                            b / args[5][:, None])
    return ok.any(axis=1) | hit.any(axis=1)


_gain = st.floats(-6.0, 6.0).map(math.exp)


@given(st.booleans(),
       st.lists(st.tuples(_gain, _gain, st.one_of(st.just(0.0), _gain),
                          st.one_of(st.just(0.0), _gain),
                          st.floats(math.log10(LAM_MIN), 1.0),
                          st.floats(math.log10(LAM_MIN), 1.0)),
                min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_ruled_out_rows_hold_no_root(jam, states):
    # soundness of the u-form test: no start certifies a root on a row it
    # rules out, and a case-7 row (a root is guaranteed) is never ruled out
    h1, h2, g1, g2, e1, e2 = (np.array(c) for c in zip(*states))
    if jam:  # user 2 jamming: the same system with h2 = g2
        g2 = h2
    args = (h1, h2, g1, g2, 10.0 ** e1, 10.0 ** e2)
    free = powerctl._root_free(*args)
    case7 = (h1 - g1 > args[4]) & (h2 - g2 > args[5])
    assert not np.any(free & case7)
    assert not np.any(_any_start_certifies(tuple(v[free] for v in args)))


def _solver_rows(rows):
    """Tree arguments of a row set: 50,000 ``stress`` rows (extreme gains
    and duals), the same with user 2 jamming (``stress-jam``), or 5,000
    ``figure`` states at each of four duals."""
    rng = np.random.default_rng(np.random.SeedSequence(15))
    if rows == "figure":
        sq = (2.0 * v for v in sample_batch(PARAMS, 5000, rng).sq())
        gains = tuple(np.tile(v, 4) for v in sq)
        lam = np.repeat([1.0, 1e-2, 1e-4, 1e-6], 5000)
        return (*gains, lam, lam)
    (h1, h2, g1, g2), duals = _extreme_states(rng, 50000)
    if rows == "stress-jam":  # user 2 jamming
        h2 = g2
    return (h1, h2, g1, g2, *duals)


@pytest.mark.parametrize("rows", ["stress", "stress-jam", "figure"])
def test_every_open_row_gets_a_root(rows):
    # completeness: the rows left open are exactly those where a root is
    # found, and on the rows ruled out no start would have found one
    args = _solver_rows(rows)
    free = powerctl._root_free(*args)
    x, _, ok = _common_root_batch(*args)
    found = ok.any(axis=1)
    assert np.all(np.isnan(x[free]))  # a ruled-out row gets no start
    assert free.any() and found.any()
    assert np.array_equal(found, ~free)
    assert not np.any(_any_start_certifies(tuple(v[free] for v in args)))


@pytest.mark.parametrize("rows", ["stress", "stress-jam", "figure"])
def test_pick_ranks_only_rows_with_a_choice(rows, monkeypatch):
    # a row with one ok column (silence, in most) takes it unranked: both
    # trees' outputs keep every bit of the pick that ranks every row
    args = _solver_rows(rows)
    got = (*esa_policy_batch(*args), *esa_cj_policy_batch(*args))
    _, _, ok = _common_root_batch(*args)
    assert not ok.any(axis=1).all()  # rows whose roots leave no choice
    monkeypatch.setattr(powerctl, "_best_by_lagrangian", full_pick)
    want = (*esa_policy_batch(*args), *esa_cj_policy_batch(*args))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_class_a_rows_get_no_root_start():
    # a user with h <= lambda leaves no positive common root (x > 0 needs
    # h1/(1 + h1 x) = l1 + g1 u > l1), also where a zero gain or h = l
    # leaves the cubic test open (it alone misses some of these rows); so
    # cases 1-3 rank no root
    rng = np.random.default_rng(np.random.SeedSequence(18))
    n = 4000
    h1, h2, g1, g2 = np.exp(rng.uniform(-6.0, 6.0, (4, n)))
    g1[::3], h2[1::5], g2[2::7] = 0.0, 0.0, 0.0
    l1, l2 = 10.0 ** rng.uniform(-8.0, 1.0, (2, n))
    l1[::4] = h1[::4]
    args = (h1, h2, g1, g2, l1, l2)
    a_class = (h1 <= l1) | (h2 <= l2)
    with np.errstate(all="ignore"):
        assert not powerctl._root_free(*args)[a_class].all()
        x, _, ok = _common_root_batch(*args)
    _, _, case = esa_policy_batch(*args)
    assert np.all(np.isnan(x[a_class])) and not ok[a_class].any()
    assert np.array_equal(a_class, case <= 3)


def test_case_code_is_the_seven_case_partition(rng):
    # the class table gives each state the case of the paper's seven-way
    # partition of the gain/dual space, boundaries included
    n = 20000
    h1, h2, g1, g2 = (np.round(v, 1) for v in _random_states(rng, n))
    l1, l2 = (np.round(rng.uniform(0.1, 2.0, n), 1) for _ in range(2))
    _, _, case = esa_policy_batch(h1, h2, g1, g2, l1, l2)
    A1, C1 = h1 <= l1, h1 - g1 > l1
    A2, C2 = h2 <= l2, h2 - g2 > l2
    B1, B2 = ~A1 & ~C1, ~A2 & ~C2
    masks = {1: (A1 & A2) | (A1 & B2) | (B1 & A2), 2: A1 & C2, 3: C1 & A2,
             4: B1 & B2, 5: B1 & C2, 6: C1 & B2, 7: C1 & C2}
    for code, mask in masks.items():
        assert mask.any() and np.array_equal(case == code, mask), code


def test_one_pick_per_tree_call(rng, monkeypatch):
    # every candidate of every state is ranked in one pick; the candidate
    # generator ranks nothing, and the jamming tree adds only its
    # branch-4 pick between the two orientations
    picks, gens = [], []
    rank, gen = powerctl._best_by_lagrangian, powerctl._common_root_batch

    def counted_rank(*a):
        picks.append(a[1].shape)
        return rank(*a)

    def counted_gen(*a):
        before = len(picks)
        out = gen(*a)
        gens.append(len(picks) - before)
        return out

    monkeypatch.setattr(powerctl, "_best_by_lagrangian", counted_rank)
    monkeypatch.setattr(powerctl, "_common_root_batch", counted_gen)
    gains = _random_states(rng, 3000)
    lam = 10.0 ** rng.uniform(-6.0, 0.0, 3000)
    esa_policy_batch(*gains, lam, lam)
    assert picks == [(3000, 11)] and gens == [0]
    picks.clear()
    esa_cj_policy_batch(*gains, lam, lam)
    assert len(picks) == 2 and picks[0][1] == 11 and picks[1][1] == 2
    assert gens == [0, 0]


def test_near_pole_case7_root_is_found():
    # the cubic's starts miss this root: its x sits near the pole of the
    # back-substitution y = N(x)/D(x) (g1 is tiny), so only a fallback
    # start reaches it, and the row must stay open for that
    row = tuple(np.array([v]) for v in (
        3.9391105088204714, 3.3306504175139438, 5.341654910663143e-06,
        1.7634221390450846, 0.27709511448705465, 0.26637916324344446))
    assert not powerctl._root_free(*row)
    want = pytest.approx((3.354970183504796, 0.5760675387746103),
                         rel=1e-9)
    p1, p2, case = esa_policy_batch(*row)
    assert case[0] == 7 and (p1[0], p2[0]) == want
    p1, p2, q1, q2, case = esa_cj_policy_batch(*row)
    assert case[0] == 17 and (p1[0], p2[0]) == want
    assert q1[0] == q2[0] == 0.0


def test_rel_residual_is_the_system_residual(rng):
    # _rel_residual writes the two equations out again; they must stay
    # _system's to the bit, each scaled by its largest term (at least 1)
    (h1, h2, g1, g2), (l1, l2) = _extreme_states(rng, 20000)
    h2 = np.where(rng.random(20000) < 0.25, g2, h2)  # user 2 jamming
    x, y = (10.0 ** rng.uniform(-6.0, 6.0, 20000) for _ in range(2))
    f1, f2, *_ = powerctl._system(h1, h2, g1, g2, l1, l2, x, y)
    den = 1.0 + g1 * x + g2 * y
    one = np.ones_like(x)
    s1 = np.maximum.reduce([np.abs(h1 * (1.0 + g2 * y)), np.abs(g1),
                            np.abs(l1 * (1.0 + h1 * x) * den), one])
    s2 = np.maximum.reduce([np.abs(h2 - g2), np.abs(h2 * g1 * x),
                            np.abs(l2 * (1.0 + h2 * y) * den), one])
    want = np.maximum(np.abs(f1) / s1, np.abs(f2) / s2)
    got = _rel_residual(h1, h2, g1, g2, l1, l2, x, y)
    assert got.tobytes() == want.tobytes()


def test_solve_p1q2_grid_verified():
    s = EffectiveState(5.0, 0.1, 1.0, 4.0)
    duals = DualVars(0.05, 0.05)
    root = common_root("p1q2", s, duals)
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
    assert common_root("p1q2", s, DualVars(0.05, 5.0)) is None  # lambda2 >= g2


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
    r1, *_ = esa_cj_kkt_residual(s, PowerDecision(0.0, 0.0),
                                 DualVars(1.0, 0.5))
    assert r1 == pytest.approx(0.0, abs=1e-15)  # lambda1 = h1 - g1
    with pytest.raises(ValueError):
        esa_cj_kkt_residual(s, PowerDecision(-0.1, 0.0), DualVars(1.0, 1.0))


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


def test_cj_branch4_two_root_tiebreak_prefers_larger_lagrangian(rng):
    # where both transmit/jam orientations of a both-receivers-weak state
    # transmit, the tree keeps the one with the larger jamming Lagrangian
    # (ties to solution A), the quantity the dual method maximizes
    n = 4000
    h1, h2 = rng.exponential(1.0, (2, n))
    g1 = h1 + rng.exponential(2.0, n)
    g2 = h2 + rng.exponential(2.0, n)
    l1 = l2 = np.full(n, 0.05)
    p1, p2, q1, q2, case = esa_cj_policy_batch(h1, h2, g1, g2, l1, l2)
    xa, ya, _ = esa_policy_batch(h1, g2, g1, g2, l1, l2)  # 1 sends, 2 jams
    xb, yb, _ = esa_policy_batch(h2, g1, g2, g1, l2, l1)  # 2 sends, 1 jams
    z = np.zeros(n)
    gains = (h1, h2, g1, g2, l1, l2)
    la = lagrangian_cj_batch(*gains, xa, z, z, ya)
    lb = lagrangian_cj_batch(*gains, z, xb, yb, z)
    got = lagrangian_cj_batch(*gains, p1, p2, q1, q2)
    both = (xa > 0) & (xb > 0)
    assert both.sum() > 1000
    assert np.all(np.isin(case[both], (45, 46)))
    a = both & (la >= lb - 1e-12 * np.maximum(1.0, np.abs(lb)))
    b = both & ~a
    assert np.array_equal(case[both], np.where(a, 45, 46)[both])
    assert np.array_equal(p1[a], xa[a]) and np.array_equal(q2[a], ya[a])
    assert np.array_equal(p2[b], xb[b]) and np.array_equal(q1[b], yb[b])
    assert not (np.any(p2[a] + q1[a]) or np.any(p1[b] + q2[b]))
    # a pick by instantaneous sum rate keeps the lower one on 45 of them
    assert np.all(got[b] == lb[b]) and np.all(got[a] == la[a])


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


def _extreme_states(rng, n):
    """Gains log-uniform in [1e-3, 1e3] (ratios up to 1e6) and per-row
    duals log-uniform in [1e-8, 10]."""
    gains = tuple(10.0 ** rng.uniform(-3.0, 3.0, n) for _ in range(4))
    return gains, tuple(10.0 ** rng.uniform(-8.0, 1.0, n) for _ in range(2))


# seven-case code of a transmit/jam row -> its transmit/jam sub-case
_TJ_SUB = {1: 1, 3: 2, 4: 3, 6: 4}


@pytest.mark.parametrize("extreme", [False, True])
def test_cj_tree_is_the_esa_tree_on_substituted_gains(rng, monkeypatch,
                                                      extreme):
    # while a user jams, its rate term cancels against its jamming penalty
    # and log1p(g Q) is left: the jamming Lagrangian is the no-jamming one
    # with the jammer's h replaced by its g.  Every transmit/jam solution
    # is, to the bit, the seven-case tree at the substituted gains, and
    # the whole tree takes one common-root solve.
    if extreme:
        (h1, h2, g1, g2), (l1, l2) = _extreme_states(rng, 4000)
    else:
        h1, h2, g1, g2 = _random_states(rng, 4000)
        l1, l2 = (10.0 ** rng.uniform(-3.0, 0.0, 4000) for _ in range(2))
    solves = []
    solve = powerctl._common_root_batch

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(powerctl, "_common_root_batch", counted)
    p1, p2, q1, q2, case = esa_cj_policy_batch(h1, h2, g1, g2, l1, l2)
    assert len(solves) == 1
    monkeypatch.undo()

    def same(a, b):
        return a.tobytes() == b.tobytes()

    xa, ya, ca = esa_policy_batch(h1, g2, g1, g2, l1, l2)  # 1 sends, 2 jams
    xb, yb, cb = esa_policy_batch(h2, g1, g2, g1, l2, l1)  # 2 sends, 1 jams
    assert set(ca) | set(cb) <= set(_TJ_SUB)
    sa = np.array([_TJ_SUB[c] for c in ca])
    sb = np.array([_TJ_SUB[c] for c in cb])
    br1 = (h1 >= g1) & (h2 >= g2)
    br2 = (h1 >= g1) & (h2 < g2)
    br3 = (h1 < g1) & (h2 >= g2)
    br4 = (h1 < g1) & (h2 < g2)
    assert br1.any() and br2.any() and br3.any() and br4.any()

    x, y, c = esa_policy_batch(h1, h2, g1, g2, l1, l2)
    assert same(p1[br1], x[br1]) and same(p2[br1], y[br1])
    assert np.array_equal(case[br1], 10 + c[br1])
    assert same(p1[br2], xa[br2]) and same(q2[br2], ya[br2])
    assert np.array_equal(case[br2], 20 + sa[br2])
    assert same(p2[br3], xb[br3]) and same(q1[br3], yb[br3])
    assert np.array_equal(case[br3], 30 + sb[br3])
    assert not (p2[br2].any() or q1[br2].any() or p1[br3].any()
                or q2[br3].any())

    # branch 4 keeps solution A or B, whichever exists (positive power),
    # one of them if both do, and its powers are that orientation's
    on_a = br4 & (p1 > 0)
    on_b = br4 & (p2 > 0)
    assert not np.any(on_a & on_b)
    assert np.array_equal(on_a | on_b, br4 & ((xa > 0) | (xb > 0)))
    assert same(p1[on_a], xa[on_a]) and same(q2[on_a], ya[on_a])
    assert same(p2[on_b], xb[on_b]) and same(q1[on_b], yb[on_b])
    assert not (p1[br4 & ~on_a].any() or q2[br4 & ~on_a].any()
                or p2[br4 & ~on_b].any() or q1[br4 & ~on_b].any())
    sub4 = 1 + (sa == 3) + 2 * (sb == 3)
    want = np.where(sub4 == 4, np.where(on_a, 45, np.where(on_b, 46, 44)),
                    40 + sub4)
    assert np.array_equal(case[br4], want[br4])
    assert np.any(case == 45) or np.any(case == 46)


def test_transmit_jam_roots_solve_the_jamming_equations(rng):
    # the solver meets user 2's jamming equation as (h2 - g2) + h2 g1 x
    # - ... at h2 = g2, which is exact; the form h2 (1 + g1 x) - g2 would
    # cancel where g1 x << 1.  Held here against the jamming stationarity
    # equations as they read on their own, each relative to its largest
    # term, at every transmit/jam root of extreme states.
    (h1, h2, g1, g2), (l1, l2) = _extreme_states(rng, 20000)
    p1, p2, q1, q2, _ = esa_cj_policy_batch(h1, h2, g1, g2, l1, l2)
    a = (p1 > 0) & (q2 > 0)  # user 1 transmits, user 2 jams
    b = (p2 > 0) & (q1 > 0)  # the mirror
    hT, gT, gJ = (np.concatenate([u[a], v[b]]) for u, v in
                  ((h1, h2), (g1, g2), (g2, g1)))
    lT, lJ, x, y = (np.concatenate([u[a], v[b]]) for u, v in
                    ((l1, l2), (l2, l1), (p1, p2), (q2, q1)))
    assert x.size > 1000
    den = 1.0 + gT * x + gJ * y
    f1 = hT * (1.0 + gJ * y) - gT - lT * (1.0 + hT * x) * den
    f2 = gT * gJ * x - lJ * (1.0 + gJ * y) * den
    one = np.ones_like(x)
    s1 = np.maximum.reduce([np.abs(hT * (1.0 + gJ * y)), gT,
                            np.abs(lT * (1.0 + hT * x) * den), one])
    s2 = np.maximum.reduce([gT * gJ * x, np.abs(lJ * (1.0 + gJ * y) * den),
                            one])
    res = np.maximum(np.abs(f1) / s1, np.abs(f2) / s2)
    assert res.max() <= 1e-14, res.max()


@pytest.mark.parametrize("tree", [esa_policy_batch, esa_cj_policy_batch])
@pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.1])
def test_policy_rows_do_not_depend_on_their_batch(rng, tree, lam):
    # a state's powers and case are the same, to the bit, alone, in a
    # batch and in a permuted batch
    n = 400
    gains = _random_states(rng, n)
    l1, l2 = lam, 2.0 * lam
    batch = tree(*gains, l1, l2)
    perm = rng.permutation(n)
    permuted = tree(*(a[perm] for a in gains), l1, l2)
    for out, out_perm in zip(batch, permuted):
        assert out[perm].tobytes() == out_perm.tobytes()
    for i in range(n):
        alone = tree(*(a[i:i + 1] for a in gains), l1, l2)
        for out, one in zip(batch, alone):
            assert out[i].tobytes() == one[0].tobytes(), (i, out[i], one[0])


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


@pytest.mark.parametrize("lam", [1e-3, 0.1])
def test_tree_root_is_a_stationary_candidate(rng, lam):
    # where the seven-case tree takes an interior root (cases 4-7, both
    # powers positive), and where the jamming tree resolves a transmit/jam
    # branch (sub-cases 2c/2d, their mirrors 3c/3d, and branch 4 past
    # silence), the stationarity enumeration criterion 5 filters on lists
    # that same point (up to the enumeration's de-duplication: two starts
    # may reach one root a few ulps apart)
    gains = _random_states(rng, 400)
    p1, p2, case = esa_policy_batch(*gains, lam, lam)
    z = np.zeros_like(p1)
    cj = esa_cj_policy_batch(*gains, lam, lam)
    trees = (("esa", (p1, p2, z, z), (case >= 4) & (p1 > 0) & (p2 > 0)),
             ("esa_cj", cj[:4],
              np.isin(cj[4], (23, 24, 33, 34, 42, 43, 44, 45, 46))))
    duals = DualVars(lam, lam)
    for scheme, powers, take in trees:
        rows = np.nonzero(take)[0]
        assert rows.size > 20
        for i in rows:
            s = EffectiveState(*(a[i] for a in gains))
            want = tuple(float(p[i]) for p in powers)
            cands = stationary_candidates(s, duals, scheme)
            assert any((d.p1, d.p2, d.q1, d.q2)
                       == pytest.approx(want, rel=1e-9)
                       for d, _ in cands), (scheme, i, want)


@pytest.mark.parametrize("states", ["figure", "extreme"])
def test_trees_return_the_best_candidate(rng, states):
    # the dual method needs each state's maximizer of the Lagrangian, not
    # just a stationary point: neither tree may return less than silence
    # or a single-user closed form, and the jamming tree not less than
    # either transmit/jam orientation's own allocation where it applies
    if states == "figure":
        n = 15000
        gains = tuple(2.0 * v for v in sample_batch(PARAMS, n, rng).sq())
        lam = np.resize([1e-3, 0.1, 1.0], n)
        lams = (lam, lam)
    else:
        n = 20000
        gains, lams = _extreme_states(rng, n)
    h1, h2, g1, g2 = gains
    l1, l2 = lams
    z = np.zeros(n)

    def lag(p1, p2, q1=z, q2=z):
        return lagrangian_cj_batch(*gains, *lams, p1, p2, q1, q2)

    c1 = h1 - g1 > l1
    c2 = h2 - g2 > l2
    cf1 = np.where(c1, _closed_form_root(h1, g1, l1), 0.0)
    cf2 = np.where(c2, _closed_form_root(h2, g2, l2), 0.0)
    others = {"silence": (lag(z, z), np.ones(n, dtype=bool)),
              "user 1 alone": (lag(cf1, z), c1),
              "user 2 alone": (lag(z, cf2), c2)}
    p1, p2, _ = esa_policy_batch(*gains, l1, l2)
    trees = {"esa": (lag(p1, p2), others)}
    xa, ya, _ = esa_policy_batch(h1, g2, g1, g2, l1, l2)  # 1 sends, 2 jams
    xb, yb, _ = esa_policy_batch(h2, g1, g2, g1, l2, l1)  # 2 sends, 1 jams
    trees["esa_cj"] = (lag(*esa_cj_policy_batch(*gains, l1, l2)[:4]), {
        **others, "solution A": (lag(xa, z, z, ya), h2 < g2),
        "solution B": (lag(z, xb, yb, z), h1 < g1)})
    below = {}
    for tree, (got, bounds) in trees.items():
        for name, (val, where) in bounds.items():
            tol = 1e-12 * np.maximum(1.0, np.abs(val))
            below[tree, name] = int(np.sum(where & (got < val - tol)))
    assert not any(below.values()), below


def test_case_tree_prefers_silence_to_a_losing_root():
    # case 4 has a stationary point here, P = (1.923, 3.204), whose
    # Lagrangian is -0.259 nats; the maximum, 0, is at silence
    s = EffectiveState(1.631, 0.563, 2.648, 0.907)
    duals = DualVars(0.1, 0.1)
    x, y = common_root("esa", s, duals)
    assert (x, y) == pytest.approx((1.923, 3.204), abs=1e-3)
    assert lagrangian_esa(s, x, y, duals) == pytest.approx(-0.259, abs=1e-3)
    assert esa_case_id(s, duals) == 4
    assert _esa(s, duals) == (0.0, 0.0)
    assert lagrangian_esa_cj(s, _cj(s, duals), duals) >= 0.0


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


_LOST_LARGE_ROOT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="at duals <= 1e-6 the resultant cubic in P1 loses the large "
    "common root of some states, so the pick misses their global "
    "maximizer (by up to 2.2 nats on these states)")


@pytest.mark.parametrize("scheme", ["esa", "esa_cj"])
@pytest.mark.parametrize("lam", [
    1e-2, 1e-4, pytest.param(1e-6, marks=_LOST_LARGE_ROOT),
    pytest.param(1e-8, marks=_LOST_LARGE_ROOT)])
def test_trees_beat_a_dense_grid_at_multi_candidate_states(scheme, lam):
    # the states the unique-state check above skips: those with two or
    # more stationary candidates.  Every grid point is feasible, so a
    # global maximizer never falls below the grid's best value
    n = 300
    gains = tuple(2.0 * v for v in sample_batch(
        PARAMS, n, np.random.default_rng(np.random.SeedSequence(18))).sq())
    z = np.zeros(n)
    powers = (esa_policy_batch(*gains, lam, lam)[:2] + (z, z)
              if scheme == "esa" else esa_cj_policy_batch(*gains, lam, lam)[:4])
    got = lagrangian_cj_batch(*gains, lam, lam, *powers)
    duals = DualVars(lam, lam)
    checked, lost = 0, []
    for i in range(n):
        s = EffectiveState(*(float(a[i]) for a in gains))
        cands = stationary_candidates(s, duals, scheme)
        if len(cands) < 2:
            continue
        checked += 1
        top = max(max(d.p1, d.p2, d.q1, d.q2) for d, _ in cands)
        _, best = grid_oracle(s, duals, scheme, 2.0 * top, 301)
        if got[i] < best - 1e-9 * max(1.0, abs(got[i])):
            lost.append((i, best - got[i]))
    assert checked > 40
    assert not lost, lost


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2 (one root solver): the x-resultant cubic is not "
    "scale-invariant and loses common roots of some scaled states, so the "
    "pick moves by up to 15.6 nats of Lagrangian; item 2 removes this mark")
def test_trees_are_scale_equivariant():
    # the Lagrangian at (c h, c g, c lambda) is the one at (h, g, lambda)
    # with every power scaled by 1/c: c times the scaled state's powers
    # are the state's own, on extreme gains and duals
    n = 5000
    rng = np.random.default_rng(2024)
    gains = tuple(np.exp(rng.uniform(-6.0, 6.0, (4, n))))
    args = (*gains, *(10.0 ** rng.uniform(-8.0, 1.0, (2, n))))
    z = np.zeros(n)
    trees = {"esa": lambda *a: esa_policy_batch(*a)[:2] + (z, z),
             "esa_cj": lambda *a: esa_cj_policy_batch(*a)[:4]}
    off = {}
    with np.errstate(all="ignore"):
        for name, tree in trees.items():
            ref = tree(*args)
            for c in (1e-3, 1e3, 1e6):
                got = tree(*(c * v for v in args))
                bad = np.zeros(n, dtype=bool)
                for p, q in zip(ref, got):
                    bad |= ~(np.abs(c * q - p) <= 1e-12 * np.abs(p))
                if bad.any():
                    moved = np.abs(lagrangian_cj_batch(*args, *ref)
                                   - lagrangian_cj_batch(
                                       *args, *(c * q for q in got)))
                    off[name, c] = (int(bad.sum()), float(moved[bad].max()))
    assert not off, off


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


def test_grid_oracle_jamming_modes_match_lagrangian():
    # the jammer's log1p(h Q) penalty cancels against its own rate term:
    # tj is 1.2971 here, not 1.2971 - log1p(0.1 * 1.3) = 1.1749
    s = EffectiveState(5.0, 0.1, 1.0, 4.0)
    duals = DualVars(0.05, 0.05)
    modes = cj_modes(s, duals, 0.7, 1.3)
    assert modes["tj"] == pytest.approx(1.2971, abs=1e-4)
    for mode, d in (("tt", PowerDecision(0.7, 1.3, 0, 0)),
                    ("tj", PowerDecision(0.7, 0, 0, 1.3)),
                    ("jt", PowerDecision(0, 1.3, 0.7, 0))):
        assert modes[mode] == pytest.approx(
            float(lagrangian_esa_cj(s, d, duals)), abs=1e-12)


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


def _gs_stress_states(rng, n):
    """Squared gains e^U(-30, 30) times exponentials, with h == g ties,
    zero eavesdropper gains and zero receiver gains mixed in."""
    h1, h2, g1, g2 = (rng.exponential(size=n) * np.exp(rng.uniform(-30, 30, n))
                      for _ in range(4))
    kind = rng.integers(0, 6, n)
    g1[kind == 0] = h1[kind == 0]
    g2[kind == 1] = h2[kind == 1]
    g1[kind == 2] = 0.0
    g2[kind == 3] = 0.0
    h1[kind == 4] = 0.0
    h2[kind == 5] = 0.0
    return h1, h2, g1, g2


@pytest.mark.parametrize("duals", ["scalar", "rows", "floor", "tiny"])
def test_gs_cj_baseline_matches_masked_reference(duals):
    # the whole-array pass gives the masked closed forms' bits, sign bits
    # and NaN included, on ties, zero gains and every dual form; at 1e-308,
    # 2/lam overflows, so a zero eavesdropper gain needs the water-filling
    # form
    rng = np.random.default_rng(np.random.SeedSequence(22))
    for _ in range(20):
        gains = _gs_stress_states(rng, 3000)
        if duals == "rows":
            lams = tuple(10.0 ** rng.uniform(-8.0, 1.0, 3000) for _ in "12")
        elif duals in ("floor", "tiny"):
            lams = (LAM_MIN, LAM_MIN) if duals == "floor" else (1e-308, 1e-308)
        else:
            lams = tuple(float(v) for v in 10.0 ** rng.uniform(-8.0, 1.0, 2))
        with np.errstate(all="ignore"):
            want = gs_cj_baseline_masked(*gains, *lams)
        got = gs_cj_baseline_batch(*gains, *lams)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))


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


@pytest.mark.parametrize("scheme", ["esa", "esa_cj", "gs_cj"])
def test_pooled_dual_search_is_byte_identical(scheme, monkeypatch):
    # at any worker count each evaluation is one policy call on the whole
    # frozen batch, on the calling thread; every result field keeps its bits
    budget = PowerBudget(30.0, 10.0)
    main = threading.current_thread().name
    calls, real = [], powerctl._dual_powers

    def counted(scheme, sq, l1, l2):
        calls.append((sq[0].size, threading.current_thread().name))
        return real(scheme, sq, l1, l2)

    monkeypatch.setattr(powerctl, "_dual_powers", counted)
    results = set()
    for workers in (1, 2, 5):
        calls.clear()
        monkeypatch.setenv("MACWT_WORKERS", str(workers))
        res = dual_search(PARAMS, budget, scheme, 3001, seed=32)
        results.add(repr(res))
        assert calls == [(3001, main)] * res.sweeps
    assert len(results) == 1


def test_pooled_dual_search_raises_the_serial_error(monkeypatch):
    # a failing policy's error surfaces unchanged at two workers, as it
    # does at one
    err = CaseSolverError("stubbed policy failure")

    def failing(scheme, sq, l1, l2):
        raise err

    monkeypatch.setattr(powerctl, "_dual_powers", failing)
    for workers in ("1", "2"):
        monkeypatch.setenv("MACWT_WORKERS", workers)
        with pytest.raises(CaseSolverError) as info:
            dual_search(PARAMS, PowerBudget(10.0, 10.0), "esa", 1200, seed=33)
        assert info.value is err


def test_dual_search_monotone_in_lambda(rng):
    # empirical monotonicity behind the search's start model: a user's
    # realized power falls as its own multiplier rises (J = -I in log units)
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
    # and a batch too small for a standard error, before it draws a state
    with pytest.raises(ValueError):
        dual_search(PARAMS, PowerBudget(0.0, 1.0), "esa", 100, seed=1)
    for n in (0, 1):
        with pytest.raises(ValueError, match="n must be >= 2"):
            dual_search(PARAMS, PowerBudget(1.0, 1.0), "esa", n, seed=1)


def _complementary(res, budget, tol):
    """Each user is within ``tol`` of its budget at the final multipliers,
    or sits at LAM_MIN there and spends at most ``(1 + tol)`` times it."""
    pbar = (budget.pbar1, budget.pbar2)
    lam = (res.duals.lambda1, res.duals.lambda2)
    return all(abs(res.realized[k] - pbar[k]) <= tol * pbar[k]
               or (lam[k] == LAM_MIN and res.realized[k] <= pbar[k] * (1 + tol))
               for k in (0, 1))


@pytest.mark.parametrize("scheme", ["esa", "esa_cj"])
@pytest.mark.parametrize("pbar", [1e5, 1e6])
def test_dual_search_no_stale_slack(scheme, pbar):
    # at 50-60 dB user 1 stays under budget at LAM_MIN only while user 2
    # is priced out; once user 2 transmits, user 1 at LAM_MIN overspends
    # many times over, so slackness must hold at the final multipliers
    budget = PowerBudget(pbar, pbar)
    res = dual_search(PARAMS, budget, scheme, 2000, seed=41)
    assert res.converged
    assert _complementary(res, budget, 0.01), res


@pytest.mark.parametrize("scheme", ["esa", "esa_cj", "gs_cj"])
def test_dual_search_converged_means_complementary(scheme):
    for var_h, var_g in ((1.0, 0.75), (0.01, 1.0)):
        params = FadingParams.symmetric(var_h, var_g)
        for db in (-20.0, 0.0, 30.0, 60.0):
            p = 10.0 ** (db / 10.0)
            for ratio in (1.0, 10.0):
                budget = PowerBudget(p, ratio * p)
                res = dual_search(params, budget, scheme, 500, seed=43)
                assert res.sweeps <= 60  # policy evaluations
                if res.converged:
                    assert _complementary(res, budget, 0.01), (db, ratio, res)


@pytest.mark.parametrize("ratio, seed", [(1.0, 1), (1.0, 6), (10.0, 4)])
def test_dual_search_stops_on_a_cycle(monkeypatch, ratio, seed):
    # at -20 dB with var_h = 0.01 only a handful of the 2000 states
    # transmit, so one state switching off moves a user's realized power
    # far more than the 2 % band: the search comes back to a point it has
    # already rebuilt its Jacobian at, and stops instead of repeating.
    # The seeds were found on the squared gains of sample_batch's complex
    # states, so the search's batch is drawn that way here: the same 2000
    # states it cycles on
    budget = PowerBudget(0.01, ratio * 0.01)
    monkeypatch.setattr(powerctl, "sample_gains", lambda params, n, rng:
                        GainBatch(np.array(sample_batch(params, n, rng).sq())))

    def search():
        return dual_search(FadingParams.symmetric(0.01, 1.0), budget,
                           "esa_cj", 2000, seed=seed, tol=0.02)

    res = search()
    assert res.converged is False
    assert res.sweeps < 60
    # the stop is the rebuild rule's, not the evaluation cap's
    monkeypatch.setattr(powerctl, "_MAX_EVALS", 1000)
    assert search() == res


def test_dual_search_evaluation_count(monkeypatch):
    # the figure2 grid of the benchmark: 0/30/60 dB on a 2000-state batch,
    # one policy call per evaluation at one worker and at two
    calls = []
    tree = powerctl._dual_powers

    def counted(*args):
        calls.append(args[0])
        return tree(*args)

    monkeypatch.setattr(powerctl, "_dual_powers", counted)
    for workers in ("1", "2"):
        monkeypatch.setenv("MACWT_WORKERS", workers)
        for var_g in (0.75, 0.25):
            params = FadingParams.symmetric(1.0, var_g)
            for scheme in ("esa", "esa_cj", "gs_cj"):
                for db in (0.0, 30.0, 60.0):
                    p = 10.0 ** (db / 10.0)
                    calls.clear()
                    res = dual_search(params, PowerBudget(p, p), scheme,
                                      2000, seed=47, tol=0.02)
                    assert res.converged
                    assert len(calls) == res.sweeps <= 8, (
                        workers, var_g, scheme, db)


def test_dual_search_non_finite_power_raises(monkeypatch):
    def nan_powers(scheme, sq, l1, l2):
        nan = np.full_like(sq[0], np.nan)
        return nan, nan, nan, nan, None

    monkeypatch.setattr(powerctl, "_dual_powers", nan_powers)
    with pytest.raises(RootSolveError):
        dual_search(PARAMS, PowerBudget(1.0, 1.0), "esa", 100, seed=1)


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
