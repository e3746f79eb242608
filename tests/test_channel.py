import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwt.channel import (ChannelState, FadingParams, GainBatch,
                           StateBatch, sample_batch, sample_gains,
                           sba_block_gains)
from rate_reference import esa_partner, simulate_repetition

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=1e6)


def states(draw_complex=finite_complex):
    return st.builds(ChannelState, draw_complex, draw_complex, draw_complex,
                     draw_complex)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_fading_params_validation():
    with pytest.raises(ValueError):
        FadingParams(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FadingParams(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FadingParams(1.0, 1.0, 1.0, float("inf"))
    p = FadingParams.symmetric(1.0, 0.75)
    assert p.var_h1 == p.var_h2 == 1.0
    assert p.var_g1 == p.var_g2 == 0.75


def test_sample_mean_squared_magnitudes(rng):
    # exponential squared magnitudes: mean = variance of the complex gain
    params = FadingParams(1.0, 2.0, 0.75, 0.25)
    n = 1_000_000
    batch = sample_batch(params, n, rng)
    h1, h2, g1, g2 = batch.sq()
    for arr, target in ((h1, 1.0), (h2, 2.0), (g1, 0.75), (g2, 0.25)):
        se = arr.std() / math.sqrt(n)
        assert abs(arr.mean() - target) < 3 * se
        assert abs(arr.mean() - target) < 0.01 * max(target, 1.0)


@pytest.mark.parametrize("n", [0, 1, 1250, 20_000])
def test_sample_batch_matches_two_draw_reference(n):
    # each gain is a real draw plus 1j times the next draw, gains in the
    # order h1, h2, g1, g2: every figure CSV depends on these bytes
    params = FadingParams(1.0, 2.0, 0.75, 0.25)
    batch = sample_batch(params, n, np.random.default_rng(42))
    rng = np.random.default_rng(42)
    for name in ("h1", "h2", "g1", "g2"):
        scale = math.sqrt(getattr(params, "var_" + name) / 2.0)
        ref = rng.normal(0.0, scale, n) + 1j * rng.normal(0.0, scale, n)
        got = getattr(batch, name)
        assert got.dtype == complex and got.tobytes() == ref.tobytes()


def test_sample_batch_into_views_matches_a_fresh_draw():
    # the Monte Carlo engine draws each shard into its rows of a run's
    # arrays: the bytes are those of a batch of its own, and no other row
    # is written
    params = FadingParams(1.0, 2.0, 0.75, 0.25)
    run = StateBatch(*(np.full(10, np.nan + 0j) for _ in range(4)))
    view = StateBatch(run.h1[3:7], run.h2[3:7], run.g1[3:7], run.g2[3:7])
    assert sample_batch(params, 4, np.random.default_rng(5), out=view) is view
    ref = sample_batch(params, 4, np.random.default_rng(5))
    for name in ("h1", "h2", "g1", "g2"):
        got = getattr(run, name)
        assert got[3:7].tobytes() == getattr(ref, name).tobytes()
        assert np.isnan(np.delete(got, np.s_[3:7])).all()


def test_sample_gains_is_one_scaled_exponential_per_gain():
    # each gain is var * standard_exponential, in the order h1, h2, g1, g2:
    # every single-slot figure row depends on these bytes
    params = FadingParams(1.0, 2.0, 0.75, 0.25)
    batch = sample_gains(params, 1250, np.random.default_rng(42))
    assert batch.rows.shape == (4, 1250) and len(batch) == 1250
    rng = np.random.default_rng(42)
    for row, name in zip(batch.sq(), ("h1", "h2", "g1", "g2")):
        ref = getattr(params, "var_" + name) * rng.standard_exponential(1250)
        assert row.tobytes() == ref.tobytes()


def test_sample_gains_law():
    # squared Rayleigh gains: exponential with mean var, so each row's mean
    # is its variance, P(X > t var) = e^-t, and the four rows are independent
    params = FadingParams(1.0, 2.0, 0.75, 0.25)
    n = 200_000
    rows = sample_gains(params, n, np.random.default_rng(11)).sq()
    for x, var in zip(rows, (1.0, 2.0, 0.75, 0.25)):
        assert abs(x.mean() - var) < 4 * x.std() / math.sqrt(n)
        for t in (1.0, 3.0):
            q = math.exp(-t)
            tail = np.count_nonzero(x > t * var) / n
            assert abs(tail - q) < 4 * math.sqrt(q * (1 - q) / n)
    corr = np.corrcoef(np.stack(rows))
    off = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 4 / math.sqrt(n))


def test_sample_gains_into_views_matches_a_fresh_draw():
    # the Monte Carlo engine draws each shard into its columns of a run's
    # (4, m) array: the bytes are those of a batch of its own, and no other
    # column is written
    params = FadingParams(1.0, 2.0, 0.75, 0.25)
    run = GainBatch(np.full((4, 10), np.nan))
    view = GainBatch(run.rows[:, 3:7])
    assert sample_gains(params, 4, np.random.default_rng(5), out=view) is view
    ref = sample_gains(params, 4, np.random.default_rng(5))
    assert run.rows[:, 3:7].tobytes() == ref.rows.tobytes()
    assert np.isnan(np.delete(run.rows, np.s_[3:7], axis=1)).all()


def test_tiny_variance_degenerates_to_zero(rng):
    params = FadingParams(1e-30, 1.0, 1.0, 1.0)
    s = sample_batch(params, 1, rng).state(0)
    assert s.sq()[0] < 1e-20


def test_state_batch_of_inverts_state(rng):
    batch = sample_batch(FadingParams.symmetric(1.0, 0.75), 3, rng)
    states = [batch.state(i) for i in range(3)]
    again = StateBatch.of(*states)
    assert len(again) == 3
    assert [again.state(i) for i in range(3)] == states
    one = StateBatch.of(ChannelState(1, 2j, 3, 4))
    assert one.h1.dtype == complex and one.state(0) == ChannelState(1, 2j, 3, 4)


def test_sampled_gains_uncorrelated(rng):
    batch = sample_batch(FadingParams.symmetric(1.0, 1.0), 200_000, rng)
    cols = np.stack([batch.h1, batch.h2, batch.g1, batch.g2])
    corr = np.corrcoef(np.abs(cols) ** 2)
    off = corr - np.eye(4)
    assert np.max(np.abs(off)) < 0.02


# ---------------------------------------------------------------------------
# scaled two-slot blocks
# ---------------------------------------------------------------------------

def _block_gains(odd, even):
    """(A1, A2, C, Dsq) of one odd/even slot pair."""
    return tuple(float(v[0]) for v in
                 sba_block_gains(StateBatch.of(odd), StateBatch.of(even)))


def test_sba_block_derived_gains_by_hand():
    # a1 = h1o*g2o = 1, b1 = h1e*g2e = 2, a2 = 2, b2 = 1, c = d = 1, and
    # D = h1e*h2o*g1o*g2e - h1o*h2e*g1e*g2o = 2*2 - 1*1 = 3
    gains = _block_gains(ChannelState(1, 2, 1, 1), ChannelState(2, 1, 1, 1))
    assert gains == (5, 5, 2, 9)


def test_sba_identical_slots_zero_determinant():
    s = ChannelState(0.3 + 1j, -2.0, 1j, 0.5 - 0.5j)
    assert _block_gains(s, s)[3] == 0
    ones = ChannelState(1, 1, 1, 1)
    assert _block_gains(ones, ones) == (2, 2, 2, 0)


def test_sba_block_gains_matches_scalar_blocks(rng):
    params = FadingParams.symmetric(1.0, 0.5)
    odd = sample_batch(params, 64, rng)
    even = sample_batch(params, 64, rng)
    A1, A2, C, Dsq = sba_block_gains(odd, even)
    for i in (0, 17, 63):
        o, e = odd.state(i), even.state(i)
        det = e.h1 * o.h2 * o.g1 * e.g2 - o.h1 * e.h2 * e.g1 * o.g2
        assert A1[i] == pytest.approx(abs(o.h1 * o.g2) ** 2
                                      + abs(e.h1 * e.g2) ** 2)
        assert A2[i] == pytest.approx(abs(o.h2 * o.g1) ** 2
                                      + abs(e.h2 * e.g1) ** 2)
        assert C[i] == pytest.approx(abs(o.g1 * o.g2) ** 2
                                     + abs(e.g1 * e.g2) ** 2)
        assert Dsq[i] == pytest.approx(abs(det) ** 2)


# ---------------------------------------------------------------------------
# partner states and code repetition
# ---------------------------------------------------------------------------

@given(states())
@settings(max_examples=200)
def test_partner_is_involution_and_keeps_eavesdropper(s):
    p = esa_partner(s)
    assert p.h1 == s.h1 and p.h2 == -s.h2
    assert p.g1 == s.g1 and p.g2 == s.g2
    assert esa_partner(p) == s


def test_partner_simple_values():
    assert esa_partner(ChannelState(1, 1, 1, 1)) == ChannelState(1, -1, 1, 1)
    s = ChannelState(2j, 0, 1, 1)
    assert esa_partner(s) == ChannelState(2j, 0, 1, 1)


def test_repetition_zero_noise_hand_values():
    s = ChannelState(1, 1, 1, 1)
    y1, y2, z1, z2 = simulate_repetition(s, 1, 1, (0, 0, 0, 0))
    assert (y1, y2, z1, z2) == (2, 2, 4, 0)
    y1, y2, z1, z2 = simulate_repetition(s, 1, 0, (0, 0, 0, 0))
    assert y2 == 0 and z1 == 2 * s.g1


def test_repetition_identities_random(rng):
    params = FadingParams.symmetric(1.0, 0.75)
    for _ in range(2000):
        s = sample_batch(params, 1, rng).state(0)
        x1, x2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        noise = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        n1, n2, n1p, n2p = noise
        y1, y2, z1, z2 = simulate_repetition(s, x1, x2, noise)
        assert abs(y1 - (2 * s.h1 * x1 + n1 + n2)) <= 1e-12
        assert abs(y2 - (2 * s.h2 * x2 + n1 - n2)) <= 1e-12
        assert abs(z1 - (2 * s.g1 * x1 + 2 * s.g2 * x2 + n1p + n2p)) <= 1e-12
        assert abs(z2 - (n1p - n2p)) <= 1e-12
        # the symbol terms cancel exactly (identical eavesdropper gains in
        # both slots), visible with the noise removed
        _, _, _, z2c = simulate_repetition(s, x1, x2, (0, 0, 0, 0))
        assert z2c == 0
