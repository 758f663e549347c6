"""Tests for DMRS-based channel estimation and equalised decoding."""

import numpy as np
import pytest

from repro.phy.coreset import Coreset
from repro.phy.dci import Dci, DciFormat, DciSizeConfig, riv_encode
from repro.phy.pdcch import PdcchCandidate, encode_pdcch, \
    estimate_channel, try_decode_pdcch
from repro.phy.resource_grid import ResourceGrid

CFG = DciSizeConfig(n_prb_bwp=51)
CORESET = Coreset(coreset_id=1, first_prb=0, n_prb=48, n_symbols=1)
N_ID = 500


def encode_one(gain=1.0 + 0j, slot_index=3, level=2):
    dci = Dci(format=DciFormat.DL_1_1, rnti=0x4601,
              freq_alloc_riv=riv_encode(0, 6, 51), time_alloc=1, mcs=12,
              ndi=1, rv=0, harq_id=4)
    grid = ResourceGrid(51)
    candidate = PdcchCandidate(0, level)
    encode_pdcch([(dci, CORESET, candidate)], CFG, grid, N_ID, slot_index)
    grid.data *= gain
    return dci, grid, candidate


class TestEstimateChannel:
    def test_flat_channel_estimates_unity(self):
        _, grid, candidate = encode_one()
        gain = estimate_channel(grid, CORESET, candidate, N_ID, 3, 30)
        assert gain == pytest.approx(1.0 + 0j, abs=1e-9)

    @pytest.mark.parametrize("true_gain", [0.5 + 0j, 2.0j,
                                           0.7 - 1.1j, -1.0 + 0j])
    def test_recovers_complex_gain(self, true_gain):
        _, grid, candidate = encode_one(gain=true_gain)
        gain = estimate_channel(grid, CORESET, candidate, N_ID, 3, 30)
        assert gain == pytest.approx(true_gain, abs=1e-9)

    def test_estimate_under_noise(self, rng):
        _, grid, candidate = encode_one(gain=0.8 * np.exp(0.9j))
        noisy = grid.clone_with_noise(10.0, rng)
        gain = estimate_channel(noisy, CORESET, candidate, N_ID, 3,
                                30)
        assert abs(gain - 0.8 * np.exp(0.9j)) < 0.2

    def test_out_of_coreset_candidate(self):
        grid = ResourceGrid(51)
        gain = estimate_channel(grid, CORESET, PdcchCandidate(7, 4),
                                N_ID, 0, 30)
        assert gain == 1.0 + 0.0j

    def test_empty_candidate_returns_unity_fallback(self):
        grid = ResourceGrid(51)
        gain = estimate_channel(grid, CORESET, PdcchCandidate(0, 2),
                                N_ID, 0, 30)
        assert gain == 1.0 + 0.0j


class TestEqualizedDecode:
    def test_phase_rotation_breaks_unequalized_decode(self):
        dci, grid, candidate = encode_one(gain=np.exp(2.0j))
        plain = try_decode_pdcch(grid, CFG, CORESET, candidate,
                                 DciFormat.DL_1_1, 0x4601, N_ID, 1e-4,
                                 slot_index=3, equalize=False)
        assert plain is None, "a 2-radian rotation must break QPSK"

    def test_equalized_decode_survives_rotation(self):
        dci, grid, candidate = encode_one(gain=np.exp(2.0j))
        equalized = try_decode_pdcch(grid, CFG, CORESET, candidate,
                                     DciFormat.DL_1_1, 0x4601, N_ID,
                                     1e-4, slot_index=3, equalize=True,
                                     scs_khz=30)
        assert equalized == dci

    def test_equalized_decode_survives_gain_and_noise(self, rng):
        hits = 0
        for trial in range(10):
            dci, grid, candidate = encode_one(
                gain=1.4 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                slot_index=trial)
            noisy = grid.clone_with_noise(12.0, rng)
            decoded = try_decode_pdcch(noisy, CFG, CORESET, candidate,
                                       DciFormat.DL_1_1, 0x4601, N_ID,
                                       10 ** (-12 / 10),
                                       slot_index=trial, equalize=True,
                                       scs_khz=30)
            hits += decoded == dci
        assert hits >= 9

    def test_equalize_noop_on_clean_channel(self):
        dci, grid, candidate = encode_one()
        decoded = try_decode_pdcch(grid, CFG, CORESET, candidate,
                                   DciFormat.DL_1_1, 0x4601, N_ID, 1e-4,
                                   slot_index=3, equalize=True, scs_khz=30)
        assert decoded == dci


class TestDecoderIntegration:
    def test_grid_decoder_with_impaired_capture(self, rng):
        """End-to-end: a rotated+noisy capture decodes only with the
        equalising decoder."""
        from repro.core.dci_decoder import GridDciDecoder
        from repro.core.rach_sniffer import RachSniffer
        from repro.gnb.cell_config import SRSRAN_PROFILE
        from repro.rrc.messages import RrcSetup

        sniffer = RachSniffer(bwp_n_prb=51)
        setup = RrcSetup(tc_rnti=0x4601,
                         search_space=SRSRAN_PROFILE.search_space_config())
        ue = sniffer.discover(0x4601, 0.0, setup)
        slot_index = 6
        grid = ResourceGrid(51)
        start = ue.search_space.candidate_cces(2, slot_index,
                                               0x4601)[0]
        dci = Dci(format=DciFormat.DL_1_1, rnti=0x4601,
                  freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                  mcs=9, ndi=0, rv=0, harq_id=1)
        encode_pdcch([(dci, ue.search_space.coreset,
                       PdcchCandidate(start, 2))],
                     SRSRAN_PROFILE.dci_size_config(), grid,
                     n_id=SRSRAN_PROFILE.cell_id, slot_index=slot_index)
        grid.data *= np.exp(1.5j)
        captured = grid.clone_with_noise(15.0, rng)

        base = dict(dci_cfg=SRSRAN_PROFILE.dci_size_config(),
                    n_id=SRSRAN_PROFILE.cell_id,
                    noise_var=10 ** (-15 / 10))
        plain = GridDciDecoder(**base, equalize=False)
        assert plain.decode_slot_batch(captured, slot_index,
                                       sniffer.space_snapshot()) == []
        smart = GridDciDecoder(**base, equalize=True)
        decoded = smart.decode_slot_batch(captured, slot_index,
                                          sniffer.space_snapshot())
        assert [d.dci for d in decoded] == [dci]
