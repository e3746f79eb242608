import math

import numpy as np
import pytest

from macwt import dof
from macwt.channel import (ChannelState, FadingParams, sample_batch,
                           sba_block_gains)
from macwt.dof import (SumRateCurve, estimate_dof, gs_cj_upper_bound,
                       sum_rate_curve)
from macwt.montecarlo import ESA, SBA, ergodic_region, scheme_rates
from macwt.rates import ConstantPolicy
from rate_reference import dominated_bound_esa, dominated_bound_sba

UNIT_PARAMS = FadingParams.symmetric(1.0, 1.0)


def _synthetic_curve(slope, intercept, powers=(1e2, 1e3, 1e4, 1e5)):
    rsum = tuple(slope * math.log2(p) + intercept for p in powers)
    return SumRateCurve(scheme=ESA, params=UNIT_PARAMS, powers=powers,
                        rsum=rsum, stderr=(0.0,) * len(powers))


def test_curve_validation():
    with pytest.raises(ValueError):
        SumRateCurve(ESA, UNIT_PARAMS, (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        SumRateCurve(ESA, UNIT_PARAMS, (1.0, 2.0), (0.0,), (0.0,))
    with pytest.raises(ValueError):
        SumRateCurve(ESA, UNIT_PARAMS, (1.0, 2.0, 3.0),
                     (0.0, float("nan"), 0.0), (0.0, 0.0, 0.0))


def test_estimate_dof_synthetic_line():
    assert estimate_dof(_synthetic_curve(0.5, 3.0)) == pytest.approx(
        0.5, abs=1e-12)
    assert estimate_dof(_synthetic_curve(0.0, 2.0)) == pytest.approx(
        0.0, abs=1e-12)


def test_estimate_dof_window():
    curve = _synthetic_curve(0.5, 1.0, powers=(1e1, 1e2, 1e3, 1e4, 1e5, 1e6))
    assert estimate_dof(curve, slice(0, 3)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_dof(curve, slice(0, 2))


def test_sum_rate_curve_esa_nondecreasing():
    curve = sum_rate_curve(ESA, UNIT_PARAMS, (1.0, 10.0, 100.0), n=20_000,
                           seed=5)
    assert curve.scheme == ESA
    diffs = np.diff(curve.rsum)
    slack = 3 * (np.asarray(curve.stderr[1:]) + np.asarray(curve.stderr[:-1]))
    assert np.all(diffs >= -slack)


def test_sum_rate_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        sum_rate_curve(ESA, UNIT_PARAMS, (0.0, 1.0), n=100, seed=1)
    with pytest.raises(ValueError):
        sum_rate_curve("nope", UNIT_PARAMS, (1.0, 2.0), n=100, seed=1)


@pytest.mark.parametrize("powers", [(1e3, 1e4, -1.0), (1e3, 1e5, 1e4),
                                    (1e3, 1e3, 1e4), (1e3, math.nan, 1e4)])
def test_sum_rate_curve_checks_grid_before_any_point(monkeypatch, powers):
    # the whole grid is checked before the first Monte Carlo point runs
    calls = []
    monkeypatch.setattr(dof, "grid_point", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="positive and strictly increasing"):
        sum_rate_curve(ESA, UNIT_PARAMS, powers, n=100, seed=1)
    assert calls == []


def test_esa_single_point_matches_quadrature():
    # E[rsum] at P=1 for exponential(1) squared gains, by 2-D Gauss-Legendre
    # over the (transformed) exponential densities
    nodes, weights = np.polynomial.legendre.leggauss(160)
    # map (-1,1) -> (0,1), then u -> a = -log(1-u) (exponential quantile)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    a = -np.log1p(-u)
    A, B = np.meshgrid(a, a)
    W = np.outer(w, w)
    # E[rsum] = E[log2(1+2a)] - (1/2) E[log2(1+2c+2d)] with a, c, d iid
    main = np.sum(W * 0.5 * (np.log2(1 + 2 * A) + np.log2(1 + 2 * B)))
    eve = np.sum(W * np.log2(1 + 2 * A + 2 * B))
    expected = main - 0.5 * eve
    est = ergodic_region(ESA, ConstantPolicy(1.0, 1.0), UNIT_PARAMS,
                         200_000, seed=77)
    assert est.rsum == pytest.approx(expected, abs=3 * est.rsum_stderr + 1e-3)


# ---------------------------------------------------------------------------
# dominated-convergence majorants
# ---------------------------------------------------------------------------

def test_dominated_bound_esa_hand_values():
    zero = ChannelState(0, 0, 0, 0)
    assert dominated_bound_esa(zero, UNIT_PARAMS) == pytest.approx(6.0)
    g2_only = ChannelState(0, 0, 0, 1.0)
    assert dominated_bound_esa(g2_only, UNIT_PARAMS) == pytest.approx(
        6.0 + math.log2(3), abs=1e-12)
    assert dominated_bound_esa(g2_only, UNIT_PARAMS) == pytest.approx(
        7.585, abs=1e-3)


def test_dominated_bound_esa_majorizes(rng):
    for power in (1e4, 1e5, 1e6):
        for _ in range(2000):
            s = sample_batch(UNIT_PARAMS, 1, rng).state(0)
            _, _, f = scheme_rates(ESA, s.sq(), power, power, 0.0, 0.0)
            bound = dominated_bound_esa(s, UNIT_PARAMS)
            assert f / math.log2(power) <= bound + 1e-12


def test_dominated_bound_sba_majorizes(rng):
    params = UNIT_PARAMS
    for power in (1e4, 1e5, 1e6):
        for _ in range(2000):
            odd = sample_batch(params, 1, rng)
            even = sample_batch(params, 1, rng)
            p1 = power / (2.0 * params.var_g2)
            p2 = power / (2.0 * params.var_g1)
            _, _, f = scheme_rates(SBA, sba_block_gains(odd, even),
                                   p1, p2, 0.0, 0.0)
            f = float(f[0])
            bound = dominated_bound_sba(odd.state(0), even.state(0), params)
            assert f / math.log2(power) <= bound + 1e-12


# ---------------------------------------------------------------------------
# single-slot ceiling
# ---------------------------------------------------------------------------

def test_gs_cj_upper_bound_stable_across_seeds():
    params = FadingParams.symmetric(1.0, 1.0)
    a, sa = gs_cj_upper_bound(params, 200_000, seed=3)
    b, sb = gs_cj_upper_bound(params, 200_000, seed=4)
    assert math.isfinite(a) and sa > 0
    assert abs(a - b) <= 3 * (sa + sb)


def test_gs_cj_upper_bound_strong_eavesdropper():
    # |g| >> |h| almost surely: both-weak region dominates, bound near 0
    params = FadingParams(1e-6, 1e-6, 1.0, 1.0)
    val, _ = gs_cj_upper_bound(params, 100_000, seed=9)
    assert val < 0.05
    with pytest.raises(ValueError):
        gs_cj_upper_bound(params, 1, seed=0)


def test_sba_dof_policy_uses_cross_variances():
    # curves at very small n just exercise the plumbing deterministically
    params = FadingParams(1.0, 1.0, 0.5, 0.25)
    curve = sum_rate_curve(SBA, params, (4.0, 8.0, 16.0), n=2000, seed=11)
    again = sum_rate_curve(SBA, params, (4.0, 8.0, 16.0), n=2000, seed=11)
    assert curve == again
