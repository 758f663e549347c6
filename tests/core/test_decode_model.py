"""Tests for the calibrated PDCCH decode model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decode_model import (
    BLER_TABLE,
    DecodeModelError,
    RESIDUAL_MISS,
    SNR_GRID_DB,
    counter_fold,
    counter_uniform_at,
    decode_succeeds,
    pdcch_bler,
)


class TestTableShape:
    def test_all_levels_present(self):
        assert set(BLER_TABLE) == {1, 2, 4, 8}
        for curve in BLER_TABLE.values():
            assert len(curve) == SNR_GRID_DB.size

    def test_curves_monotone_nonincreasing(self):
        for level, curve in BLER_TABLE.items():
            for a, b in zip(curve, curve[1:]):
                assert b <= a + 1e-9, f"AL{level} BLER must fall with SNR"

    def test_higher_al_more_robust(self):
        # At every SNR, more aggregation means equal-or-lower BLER.
        for i in range(SNR_GRID_DB.size):
            assert BLER_TABLE[8][i] <= BLER_TABLE[1][i] + 1e-9


class TestInterpolation:
    def test_saturates_below_grid(self):
        assert pdcch_bler(-50.0, 2) == pytest.approx(1.0)

    def test_residual_floor_at_high_snr(self):
        assert pdcch_bler(40.0, 2) == pytest.approx(RESIDUAL_MISS)

    def test_interpolates_between_points(self):
        # AL1 at 2 dB = 0.65, at 3 dB = 0.35; halfway ~0.5.
        mid = pdcch_bler(2.5, 1)
        assert 0.35 < mid < 0.65

    def test_unknown_level(self):
        with pytest.raises(DecodeModelError):
            pdcch_bler(0.0, 3)


class TestDraws:
    def test_statistics_track_probability(self, rng):
        p = pdcch_bler(-1.0, 2)  # ~0.4
        fails = sum(not decode_succeeds(-1.0, 2, rng) for _ in range(5000))
        assert fails / 5000 == pytest.approx(p, abs=0.03)

    def test_always_succeeds_impossible(self, rng):
        # Even at very high SNR the residual miss keeps successes < 100%
        # over enough trials.
        fails = sum(not decode_succeeds(35.0, 2, rng)
                    for _ in range(20000))
        assert fails > 0


class TestCalibrationConsistency:
    def test_live_chain_matches_table_spot_check(self, rng):
        """Re-derive one (SNR, AL) point from the real PDCCH chain.

        Guards against the table drifting away from the code it claims
        to describe. AL4 at -4 dB is on the waterfall (table: 0.48), so a
        shift in either direction is detectable with few trials.
        """
        from repro.phy import polar
        from repro.phy.modulation import QPSK, demodulate_soft, modulate

        code = polar.construct(70, 108 * 4)
        noise_var = 10 ** (4 / 10)
        errors = 0
        trials = 120
        for _ in range(trials):
            info = rng.integers(0, 2, 70).astype(np.uint8)
            tx = modulate(polar.encode(info, code), QPSK)
            noisy = tx + rng.normal(0, np.sqrt(noise_var / 2), tx.size) \
                + 1j * rng.normal(0, np.sqrt(noise_var / 2), tx.size)
            decoded = polar.decode(demodulate_soft(noisy, QPSK, noise_var),
                                   code)
            errors += not np.array_equal(decoded, info)
        measured = errors / trials
        assert measured == pytest.approx(pdcch_bler(-4.0, 4), abs=0.17)


class TestCounterKeys:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=4),
           st.lists(st.integers(0, 2**64 - 1), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_a_folded_prefix_continues_the_key(self, head, tail):
        assert counter_fold(counter_fold(0, *head), *tail) == \
            counter_fold(0, *head, *tail)

    def test_uniform_in_unit_interval(self):
        draws = [counter_uniform_at(counter_fold(0, 7, slot))
                 for slot in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55
