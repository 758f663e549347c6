"""Tests for the fading channels, CQI mapping and BLER model."""

import numpy as np
import pytest

from repro.phy.mcs_tables import mcs_entry
from repro.ue.channel import (
    ChannelError,
    CQI_EFFICIENCY,
    FadingChannel,
    PROFILES,
    block_error_probability,
    cqi_to_efficiency,
    required_snr_db,
    snr_to_cqi,
    transport_block_survives,
)
from repro.ue.table import UeTable
from repro.ue.traffic import ConstantBitRate, TrafficBuffer
from repro.ue.ue import UserEquipment

SLOT_S = 0.5e-3


def table_snrs(profile: str, seed: int, n_slots: int) -> np.ndarray:
    """One channel's SNR series as the gNB's UE table steps it."""
    traffic = TrafficBuffer(ConstantBitRate(1e5, SLOT_S))
    ue = UserEquipment(ue_id=0, dl_buffer=traffic, ul_buffer=traffic,
                       channel=FadingChannel(profile, 20.0, SLOT_S,
                                             seed=seed))
    table = UeTable()
    table.add(ue)
    snrs = np.empty(n_slots)
    for slot in range(n_slots):
        table.advance(slot)
        snrs[slot] = table.snr_db(0)
    return snrs


class TestProfiles:
    def test_paper_channel_set(self):
        # Fig 15's five conditions.
        assert set(PROFILES) == {"normal", "awgn", "pedestrian", "vehicle",
                                 "urban"}

    def test_worse_channels_have_more_spread(self):
        assert PROFILES["awgn"].fading_sigma_db == 0
        assert PROFILES["pedestrian"].fading_sigma_db < \
            PROFILES["vehicle"].fading_sigma_db < \
            PROFILES["urban"].fading_sigma_db

    def test_correlation_decreases_with_doppler(self):
        ped = PROFILES["pedestrian"].correlation(SLOT_S)
        veh = PROFILES["vehicle"].correlation(SLOT_S)
        assert 0 < veh < ped < 1


class TestFadingChannel:
    def test_awgn_is_constant(self):
        channel = FadingChannel("awgn", 20.0, SLOT_S, seed=1)
        snrs = [channel.step() for _ in range(100)]
        assert all(s == snrs[0] for s in snrs)

    def test_mean_tracks_configured_snr(self):
        snrs = table_snrs("pedestrian", seed=2, n_slots=50000)
        offset = PROFILES["pedestrian"].mean_offset_db
        # Fading is negatively skewed (deep fades) so allow slack.
        assert snrs.mean() == pytest.approx(20.0 - offset, abs=4.0)

    def test_urban_has_deep_fades(self):
        snrs = table_snrs("urban", seed=3, n_slots=20000)
        assert snrs.min() < 0.0
        assert snrs.std() > FadingChannel("pedestrian", 20.0, SLOT_S,
                                          seed=3).profile.fading_sigma_db / 4

    def test_temporal_correlation_slow_vs_fast(self):
        def lag1(name):
            snrs = table_snrs(name, seed=4, n_slots=20000)
            x = snrs - snrs.mean()
            return float((x[:-1] * x[1:]).mean() / (x.var() + 1e-12))

        assert lag1("pedestrian") > lag1("vehicle")

    def test_unknown_profile(self):
        with pytest.raises(ChannelError):
            FadingChannel("desert", 20.0, SLOT_S)


class TestCqi:
    def test_monotone_in_snr(self):
        cqis = [snr_to_cqi(snr) for snr in range(-10, 30)]
        assert cqis == sorted(cqis)
        assert cqis[0] == 0
        assert cqis[-1] == 15

    def test_efficiency_table(self):
        assert len(CQI_EFFICIENCY) == 15
        assert cqi_to_efficiency(0) == 0.0
        assert cqi_to_efficiency(15) == pytest.approx(5.5547)
        effs = [cqi_to_efficiency(c) for c in range(1, 16)]
        assert effs == sorted(effs)

    def test_out_of_range(self):
        with pytest.raises(ChannelError):
            cqi_to_efficiency(16)


class TestBler:
    def test_half_at_required_snr(self):
        mcs = mcs_entry(10, "qam64")
        snr = required_snr_db(mcs)
        assert block_error_probability(snr, mcs) == pytest.approx(0.5)

    def test_waterfall(self):
        mcs = mcs_entry(10, "qam64")
        snr = required_snr_db(mcs)
        assert block_error_probability(snr + 3, mcs) < 0.01
        assert block_error_probability(snr - 3, mcs) > 0.99

    def test_higher_mcs_needs_more_snr(self):
        lows = required_snr_db(mcs_entry(2, "qam64"))
        highs = required_snr_db(mcs_entry(27, "qam64"))
        assert highs > lows + 10

    def test_survival_statistics(self, rng):
        mcs = mcs_entry(10, "qam64")
        snr = required_snr_db(mcs)
        survived = sum(transport_block_survives(snr, mcs, rng)
                       for _ in range(2000))
        assert 800 < survived < 1200  # ~50%
