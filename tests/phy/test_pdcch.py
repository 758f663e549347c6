"""Tests for repro.phy.pdcch: the full DCI encode/decode chain."""

import numpy as np
import pytest

from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.phy.coreset import Coreset
from repro.phy.dci import Dci, DciFormat, DciSizeConfig, riv_encode
from repro.phy.pdcch import (
    BITS_PER_CCE,
    CandidateLayout,
    PdcchCandidate,
    _candidate_flat_indices,
    _dmrs_layout,
    dci_crc_attach,
    dci_crc_check,
    dci_recover_rnti,
    decode_candidate_bits,
    encode_pdcch,
    estimate_channel,
    try_decode_pdcch,
)
from repro.phy.dmrs import PDCCH_DMRS_POSITIONS, pdcch_dmrs_symbols
from repro.phy.resource_grid import ResourceGrid

CFG = DciSizeConfig(n_prb_bwp=51)
N_ID = 500


def make_dci(rnti=0x4296, **overrides):
    base = dict(format=DciFormat.DL_1_1, rnti=rnti,
                freq_alloc_riv=riv_encode(0, 3, 51), time_alloc=2, mcs=27,
                ndi=0, rv=0, harq_id=11, dai=2, tpc=1,
                harq_feedback_timing=2, antenna_ports=7)
    base.update(overrides)
    return Dci(**base)


def coreset():
    return Coreset(coreset_id=1, first_prb=0, n_prb=48, n_symbols=1)


def encode_one(grid, dci, cand, slot_index=0):
    [payload] = encode_pdcch([(dci, coreset(), cand)], CFG, grid, N_ID,
                             slot_index)
    return payload


class TestCrcChain:
    def test_attach_check_roundtrip(self, rng):
        payload = rng.integers(0, 2, 46).astype(np.uint8)
        block = dci_crc_attach(payload, 0x4296)
        assert dci_crc_check(block, 0x4296)
        assert not dci_crc_check(block, 0x4297)

    def test_recover_rnti(self, rng):
        payload = rng.integers(0, 2, 46).astype(np.uint8)
        block = dci_crc_attach(payload, 0xABCD)
        assert dci_recover_rnti(block) == 0xABCD

    def test_recover_rejects_corruption(self, rng):
        payload = rng.integers(0, 2, 46).astype(np.uint8)
        block = dci_crc_attach(payload, 0xABCD)
        block[3] ^= 1
        assert dci_recover_rnti(block) is None

    def test_ones_prefix_matters(self, rng):
        # The 24 prepended ones mean the CRC differs from a plain CRC24C.
        from repro.phy.crc import crc_attach
        payload = rng.integers(0, 2, 46).astype(np.uint8)
        with_prefix = dci_crc_attach(payload, 0)
        plain = crc_attach(payload, "crc24c")
        assert not np.array_equal(with_prefix, plain)

    def test_short_block(self):
        assert not dci_crc_check(np.zeros(10, dtype=np.uint8), 1)
        assert dci_recover_rnti(np.zeros(10, dtype=np.uint8)) is None


class TestEncode:
    def test_grid_occupancy(self):
        grid = ResourceGrid(n_prb=51)
        cand = PdcchCandidate(first_cce=2, aggregation_level=2)
        encode_one(grid, make_dci(), cand)
        # 2 CCEs = 12 REGs, each fully written (9 data + 3 DMRS REs),
        # at the REs the sniffer's gather reads and nowhere else.
        data = _candidate_flat_indices(coreset(), 2, 2)
        layout = CandidateLayout.build([(coreset(), 2, (2,))], 0)
        assert data.tobytes() == layout.flat.tobytes()
        pilots = _dmrs_layout(coreset(), 2, 2).flat
        assert data.size == 2 * 6 * 9
        assert pilots.size == 2 * 6 * 3
        assert np.flatnonzero(grid.data).tolist() == \
            sorted(data.tolist() + pilots.tolist())

    def test_candidate_must_fit(self):
        # A candidate past the CORESET's CCEs is skipped: no payload,
        # nothing written.
        grid = ResourceGrid(n_prb=51)
        cand = PdcchCandidate(first_cce=6, aggregation_level=4)
        assert encode_one(grid, make_dci(), cand) is None
        assert not grid.data.any()

    def test_bits_per_cce(self):
        assert BITS_PER_CCE == 108
        assert PdcchCandidate(0, 4).n_coded_bits == 432


class TestDecode:
    def test_clean_roundtrip_all_levels(self):
        for level in (1, 2, 4, 8):
            grid = ResourceGrid(n_prb=51)
            cand = PdcchCandidate(first_cce=0, aggregation_level=level)
            dci = make_dci()
            encode_one(grid, dci, cand)
            out = try_decode_pdcch(grid, CFG, coreset(), cand,
                                   DciFormat.DL_1_1, 0x4296, N_ID, 1e-4)
            assert out == dci, f"level {level}"

    def test_wrong_rnti_rejected(self):
        grid = ResourceGrid(n_prb=51)
        cand = PdcchCandidate(0, 2)
        encode_one(grid, make_dci(rnti=0x1000), cand)
        out = try_decode_pdcch(grid, CFG, coreset(), cand,
                               DciFormat.DL_1_1, 0x2000, N_ID, 1e-4)
        assert out is None

    def test_wrong_candidate_rejected(self):
        grid = ResourceGrid(n_prb=51)
        encode_one(grid, make_dci(), PdcchCandidate(0, 2))
        out = try_decode_pdcch(grid, CFG, coreset(), PdcchCandidate(4, 2),
                               DciFormat.DL_1_1, 0x4296, N_ID, 1e-4)
        assert out is None

    def test_empty_grid_never_false_positives(self, rng):
        # Pure noise must not produce CRC-valid DCIs (paper's key claim:
        # decodes are verifiable). 24-bit CRC makes chance ~6e-8.
        coreset_ = coreset()
        for trial in range(20):
            grid = ResourceGrid(n_prb=51).clone_with_noise(0.0, rng)
            out = try_decode_pdcch(grid, CFG, coreset_, PdcchCandidate(0, 2),
                                   DciFormat.DL_1_1, 0x4296, N_ID, 1.0)
            assert out is None

    def test_decode_under_mild_noise(self, rng):
        hits = 0
        for trial in range(10):
            grid = ResourceGrid(n_prb=51)
            cand = PdcchCandidate(0, 2)
            dci = make_dci()
            encode_one(grid, dci, cand, slot_index=trial)
            noisy = grid.clone_with_noise(10.0, rng)
            out = try_decode_pdcch(noisy, CFG, coreset(), cand,
                                   DciFormat.DL_1_1, 0x4296, N_ID, 0.1)
            hits += out == dci
        assert hits == 10

    def test_miss_rate_grows_as_snr_drops(self, rng):
        def misses(snr_db):
            count = 0
            noise_var = 10 ** (-snr_db / 10)
            for trial in range(15):
                grid = ResourceGrid(n_prb=51)
                cand = PdcchCandidate(0, 1)
                dci = make_dci()
                encode_one(grid, dci, cand, slot_index=trial)
                noisy = grid.clone_with_noise(snr_db, rng)
                out = try_decode_pdcch(noisy, CFG, coreset(), cand,
                                       DciFormat.DL_1_1, 0x4296, N_ID,
                                       noise_var)
                count += out != dci
            return count

        assert misses(-5.0) > misses(15.0)

    def test_aggregation_protects_at_low_snr(self, rng):
        """Higher aggregation level = lower code rate = more robust."""
        def hit_rate(level, snr_db=-2.0):
            hits = 0
            noise_var = 10 ** (-snr_db / 10)
            for trial in range(15):
                grid = ResourceGrid(n_prb=51)
                cand = PdcchCandidate(0, level)
                dci = make_dci()
                encode_one(grid, dci, cand, slot_index=trial)
                noisy = grid.clone_with_noise(snr_db, rng)
                out = try_decode_pdcch(noisy, CFG, coreset(), cand,
                                       DciFormat.DL_1_1, 0x4296, N_ID,
                                       noise_var)
                hits += out == dci
            return hits

        assert hit_rate(8) >= hit_rate(1)


class TestBlindDecode:
    def test_rnti_recovery_from_candidate(self):
        grid = ResourceGrid(n_prb=51)
        cand = PdcchCandidate(0, 4)
        dci = make_dci(rnti=0x7777)
        payload = encode_one(grid, dci, cand)
        bits = decode_candidate_bits(grid, coreset(), cand, payload.size,
                                     N_ID, 1e-4)
        assert dci_recover_rnti(bits) == 0x7777

    def test_oversized_payload_returns_none(self):
        grid = ResourceGrid(n_prb=51)
        bits = decode_candidate_bits(grid, coreset(), PdcchCandidate(0, 1),
                                     200, N_ID, 1e-4)
        assert bits is None


def write_dmrs_per_re(coreset, candidate, grid, n_id, slot_index):
    """The per-RE DMRS writer the layout replaced (reference)."""
    per_symbol = {}
    for cce in range(candidate.first_cce,
                     candidate.first_cce + candidate.aggregation_level):
        for reg in coreset.cce_to_regs(cce):
            prb, symbol = coreset.reg_to_position(reg)
            per_symbol.setdefault(symbol, []).append(prb)
    for symbol, prbs in per_symbol.items():
        pilots = pdcch_dmrs_symbols(n_id, symbol, slot_index, len(prbs))
        idx = 0
        for prb in sorted(prbs):
            for offset in PDCCH_DMRS_POSITIONS:
                grid.data[prb * 12 + offset, symbol] = pilots[idx]
                idx += 1


def estimate_per_re(grid, coreset, candidate, n_id, slot_index):
    """The pilot-map channel estimate the layout replaced (reference)."""
    per_symbol = {}
    positions = []
    for cce in range(candidate.first_cce,
                     candidate.first_cce + candidate.aggregation_level):
        for reg in coreset.cce_to_regs(cce):
            prb, symbol = coreset.reg_to_position(reg)
            positions.append((prb, symbol))
            per_symbol.setdefault(symbol, []).append(prb)
    expected_map = {}
    for symbol, prbs in per_symbol.items():
        pilots = pdcch_dmrs_symbols(n_id, symbol, slot_index, len(prbs))
        idx = 0
        for prb in sorted(prbs):
            for offset in PDCCH_DMRS_POSITIONS:
                expected_map[(prb, symbol, offset)] = pilots[idx]
                idx += 1
    received, expected = [], []
    for prb, symbol in positions:
        for sc in PDCCH_DMRS_POSITIONS:
            received.append(grid.data[prb * 12 + sc, symbol])
            expected.append(expected_map[(prb, symbol, sc)])
    received, expected = np.array(received), np.array(expected)
    power = float(np.mean(np.abs(expected) ** 2))
    return complex(np.mean(received * expected.conj()) / power)


class TestDmrsLayout:
    """The one-write DMRS layout equals the per-RE writer, byte for
    byte, on every candidate of both lab CORESETs."""

    @pytest.mark.parametrize("which", ["coreset0", "dedicated"])
    def test_grid_bytes_match_per_re_writes(self, which):
        cs = SRSRAN_PROFILE.coreset0() if which == "coreset0" \
            else SRSRAN_PROFILE.dedicated_coreset()
        rng = np.random.default_rng(3)
        checked = 0
        for slot_index in (0, 7, 19):
            for level in (1, 2, 4, 8, 16):
                for first in range(0, cs.n_cces - level + 1, level):
                    cand = PdcchCandidate(first, level)
                    got = ResourceGrid(SRSRAN_PROFILE.n_prb)
                    encode_pdcch([(make_dci(), cs, cand)], CFG, got, N_ID,
                                  slot_index)
                    # The same data REs, then the pilots RE by RE.
                    want = ResourceGrid(SRSRAN_PROFILE.n_prb)
                    data = _candidate_flat_indices(cs, first, level)
                    want.data.reshape(-1)[data] = \
                        got.data.reshape(-1)[data]
                    write_dmrs_per_re(cs, cand, want, N_ID, slot_index)
                    assert got.data.tobytes() == want.data.tobytes()
                    got.data += rng.normal(size=got.data.shape)
                    assert estimate_channel(got, cs, cand, N_ID,
                                            slot_index, 30) == \
                        estimate_per_re(got, cs, cand, N_ID, slot_index)
                    checked += 1
        assert checked > 3 * 5
