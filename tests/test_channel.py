import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwt.channel import (ChannelState, FadingParams, SbaBlock, StateBatch,
                           ergodic_pairing_demo, esa_partner, quantize,
                           sample_batch, sba_block_gains, simulate_repetition)

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


def test_tiny_variance_degenerates_to_zero(rng):
    params = FadingParams(1e-30, 1.0, 1.0, 1.0)
    s = sample_batch(params, 1, rng).state(0)
    assert s.h1_sq < 1e-20


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

def test_sba_block_derived_gains_by_hand():
    odd = ChannelState(1, 2, 1, 1)
    even = ChannelState(2, 1, 1, 1)
    block = SbaBlock(odd, even)
    assert block.a1 == 1 and block.a2 == 2
    assert block.b1 == 2 and block.b2 == 1
    assert block.c == 1 and block.d == 1
    # D = h1e*h2o*g1o*g2e - h1o*h2e*g1e*g2o = 2*2 - 1*1
    assert block.det == 3


def test_sba_identical_slots_zero_determinant():
    s = ChannelState(0.3 + 1j, -2.0, 1j, 0.5 - 0.5j)
    assert SbaBlock(s, s).det == 0
    ones = ChannelState(1, 1, 1, 1)
    b = SbaBlock(ones, ones)
    assert (b.a1, b.a2, b.b1, b.b2, b.c, b.d, b.det) == (1, 1, 1, 1, 1, 1, 0)


def test_sba_eavesdropper_matrix_exact_rank_one(rng):
    params = FadingParams.symmetric(1.0, 0.75)
    for _ in range(50):
        odd = sample_batch(params, 1, rng).state(0)
        block = SbaBlock(odd, sample_batch(params, 1, rng).state(0))
        m = block.eavesdropper_matrix()
        # columns identical by construction, hence rank 1 exactly
        assert np.array_equal(m[:, 0], m[:, 1])
        assert np.linalg.matrix_rank(m) == 1


def test_sba_block_gains_matches_scalar_blocks(rng):
    params = FadingParams.symmetric(1.0, 0.5)
    odd = sample_batch(params, 64, rng)
    even = sample_batch(params, 64, rng)
    A1, A2, C, Dsq = sba_block_gains(odd, even)
    for i in (0, 17, 63):
        b = SbaBlock(odd.state(i), even.state(i))
        assert A1[i] == pytest.approx(abs(b.a1) ** 2 + abs(b.b1) ** 2)
        assert A2[i] == pytest.approx(abs(b.a2) ** 2 + abs(b.b2) ** 2)
        assert C[i] == pytest.approx(abs(b.c) ** 2 + abs(b.d) ** 2)
        assert Dsq[i] == pytest.approx(abs(b.det) ** 2)


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


# ---------------------------------------------------------------------------
# quantization and the pairing demonstration
# ---------------------------------------------------------------------------

def test_quantize_phase_bins():
    def q(z):
        return quantize(ChannelState(z, 1, 1, 1), 4, 4, 2.0).h1[1]

    assert q(1.0) == 0            # phase 0
    assert q(-1.0) == 2           # phase pi
    assert q(1j) == 1
    eps = 1e-9
    assert q(complex(math.cos(-eps), math.sin(-eps))) == 3  # 2*pi - eps


def test_quantize_magnitude_clamp():
    q = quantize(ChannelState(5.0, 1, 1, 1), 4, 4, 2.0)
    assert q.h1[0] == 3  # overflow -> top bin
    with pytest.raises(ValueError):
        quantize(ChannelState(1, 1, 1, 1), 0, 4, 2.0)
    with pytest.raises(ValueError):
        quantize(ChannelState(1, 1, 1, 1), 4, 4, -1.0)


@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_quantize_bins_in_range(mag_bins, phase_bins, seed):
    g = np.random.default_rng(seed)
    s = sample_batch(FadingParams.symmetric(1.0, 1.0), 1, g).state(0)
    q = quantize(s, mag_bins, phase_bins, 2.5)
    for mb, pb in (q.h1, q.h2, q.g1, q.g2):
        assert 0 <= mb < mag_bins
        assert 0 <= pb < phase_bins


def test_pairing_single_bin_matches_consecutively(rng):
    params = FadingParams.symmetric(1.0, 1.0)
    rep = ergodic_pairing_demo(1000, params, mag_bins=1, phase_bins=1, rng=rng)
    assert rep.fraction == 1.0
    assert rep.mean_wait == 1.0


def test_pairing_trivial_and_error_cases(rng):
    params = FadingParams.symmetric(1.0, 1.0)
    rep = ergodic_pairing_demo(1, params, mag_bins=1, phase_bins=1, rng=rng)
    assert rep.fraction == 0.0 and rep.unmatched == 1
    with pytest.raises(ValueError):
        ergodic_pairing_demo(0, params, rng=rng)
    with pytest.raises(ValueError):
        ergodic_pairing_demo(10, params)  # rng must be explicit


def test_pairing_small_alphabet_high_match_fraction(rng):
    params = FadingParams.symmetric(1.0, 1.0)
    rep = ergodic_pairing_demo(100_000, params, mag_bins=2, phase_bins=2,
                               rng=rng)
    assert rep.fraction >= 0.9
    assert rep.matched + rep.unmatched == rep.n


def test_pairing_deterministic_given_seed():
    params = FadingParams.symmetric(1.0, 0.75)
    r1 = ergodic_pairing_demo(5000, params,
                              rng=np.random.default_rng(42))
    r2 = ergodic_pairing_demo(5000, params,
                              rng=np.random.default_rng(42))
    assert r1 == r2
