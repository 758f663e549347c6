"""Tests for reference-signal placement and generation."""

import numpy as np
import pytest

from repro.phy.dmrs import (
    PDCCH_DATA_RES_PER_REG,
    PDCCH_DMRS_POSITIONS,
    PDSCH_DMRS_RES_PER_PRB,
    pdcch_dmrs_init,
    pdcch_dmrs_symbols,
    reg_data_subcarriers,
)


class TestLayout:
    def test_pdcch_dmrs_positions(self):
        # 38.211 7.4.1.3.2: subcarriers 1, 5, 9 of each REG.
        assert PDCCH_DMRS_POSITIONS == (1, 5, 9)
        assert PDCCH_DATA_RES_PER_REG == 9
        assert PDSCH_DMRS_RES_PER_PRB == 12

    def test_data_subcarriers_complement_dmrs(self):
        data = reg_data_subcarriers()
        assert len(data) == 9
        assert set(data) | set(PDCCH_DMRS_POSITIONS) == set(range(12))
        assert not set(data) & set(PDCCH_DMRS_POSITIONS)


class TestPilots:
    def test_unit_power_qpsk(self):
        pilots = pdcch_dmrs_symbols(n_id=500, symbol=0, slot_index=3,
                                    n_regs=16)
        assert pilots.size == 16 * 3
        assert np.allclose(np.abs(pilots), 1.0)
        # QPSK points only.
        phases = np.angle(pilots) / (np.pi / 4)
        assert np.allclose(phases, np.round(phases))

    def test_deterministic(self):
        a = pdcch_dmrs_symbols(1, 0, 5, 8)
        b = pdcch_dmrs_symbols(1, 0, 5, 8)
        assert np.array_equal(a, b)

    def test_varies_with_identity_and_time(self):
        base = pdcch_dmrs_symbols(1, 0, 5, 8)
        assert not np.array_equal(base, pdcch_dmrs_symbols(2, 0, 5, 8))
        assert not np.array_equal(base, pdcch_dmrs_symbols(1, 1, 5, 8))
        assert not np.array_equal(base, pdcch_dmrs_symbols(1, 0, 6, 8))

    def test_init_in_31_bit_range(self):
        for n_id in (0, 500, 1007):
            for symbol in range(3):
                for slot in (0, 7, 19, 1000):
                    c_init = pdcch_dmrs_init(n_id, symbol, slot)
                    assert 0 <= c_init < (1 << 31)

    def test_slot_period_twenty(self):
        # The init depends on the slot index mod 20 (one frame at 30 kHz).
        assert pdcch_dmrs_init(5, 0, 3) == pdcch_dmrs_init(5, 0, 23)
        assert pdcch_dmrs_init(5, 0, 3) != pdcch_dmrs_init(5, 0, 4)


class TestGridIntegration:
    def test_pdcch_encode_places_pilots_on_dmrs_positions(self):
        from repro.phy.coreset import Coreset
        from repro.phy.dci import Dci, DciFormat, DciSizeConfig, riv_encode
        from repro.phy.pdcch import PdcchCandidate, \
            _candidate_flat_indices, encode_pdcch
        from repro.phy.resource_grid import ResourceGrid

        grid = ResourceGrid(51)
        coreset = Coreset(coreset_id=1, first_prb=0, n_prb=48,
                          n_symbols=1)
        dci = Dci(format=DciFormat.DL_1_1, rnti=0x4601,
                  freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                  mcs=5, ndi=0, rv=0, harq_id=0)
        encode_pdcch([(dci, coreset, PdcchCandidate(0, 1))],
                     DciSizeConfig(n_prb_bwp=51), grid, n_id=500,
                     slot_index=0)
        # Every written RE that is not a data RE is a pilot.
        written = np.flatnonzero(grid.data)
        pilots = np.setdiff1d(written, _candidate_flat_indices(coreset, 0, 1))
        assert written.size == 6 * 12  # 6 REGs x (9 data + 3 pilots)
        assert pilots.size == 6 * 3
        subcarriers, symbols = np.unravel_index(pilots, grid.data.shape)
        assert set(subcarriers % 12) == set(PDCCH_DMRS_POSITIONS)
        assert set(symbols) == {0}

    @staticmethod
    def _pilots_at(slot_index: int, scs_khz: int) -> np.ndarray:
        """The DMRS REs a one-DCI slot's grid carries."""
        from repro.phy.coreset import Coreset
        from repro.phy.dci import Dci, DciFormat, DciSizeConfig, riv_encode
        from repro.phy.pdcch import PdcchCandidate, \
            _candidate_flat_indices, encode_pdcch
        from repro.phy.resource_grid import ResourceGrid

        grid = ResourceGrid(51)
        coreset = Coreset(coreset_id=1, first_prb=0, n_prb=48,
                          n_symbols=1)
        dci = Dci(format=DciFormat.DL_1_1, rnti=0x4601,
                  freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                  mcs=5, ndi=0, rv=0, harq_id=0)
        encode_pdcch([(dci, coreset, PdcchCandidate(0, 1))],
                     DciSizeConfig(n_prb_bwp=51), grid, n_id=500,
                     slot_index=slot_index, scs_khz=scs_khz)
        flat = grid.data.reshape(-1)
        written = np.flatnonzero(flat)
        return flat[np.setdiff1d(written,
                                 _candidate_flat_indices(coreset, 0, 1))]

    def test_15khz_pilots_repeat_every_ten_slots(self):
        # 38.211 7.4.1.3.1 numbers the slot within its frame: at 15 kHz
        # absolute slot 10 is frame 1, slot 0.
        assert np.array_equal(self._pilots_at(10, 15),
                              self._pilots_at(0, 15))
        assert not np.array_equal(self._pilots_at(11, 15),
                                  self._pilots_at(0, 15))

    def test_30khz_pilots_repeat_every_twenty_slots(self):
        assert np.array_equal(self._pilots_at(20, 30),
                              self._pilots_at(0, 30))
        assert not np.array_equal(self._pilots_at(10, 30),
                                  self._pilots_at(0, 30))
