"""Tests for repro.phy.coreset: CORESETs, CCE mapping, search spaces."""

import pytest

from repro.phy.coreset import (
    Coreset,
    CoresetError,
    SearchSpace,
    coreset0_for_bandwidth,
)


def make_coreset(**overrides):
    base = dict(coreset_id=1, first_prb=0, n_prb=48, n_symbols=1)
    base.update(overrides)
    return Coreset(**base)


class TestCoreset:
    def test_counts(self):
        coreset = make_coreset()
        assert coreset.n_regs == 48
        assert coreset.n_cces == 8

    def test_two_symbol_counts(self):
        coreset = make_coreset(n_prb=24, n_symbols=2)
        assert coreset.n_regs == 48
        assert coreset.n_cces == 8

    def test_validation(self):
        with pytest.raises(CoresetError):
            make_coreset(n_prb=5)  # narrower than one CCE
        with pytest.raises(CoresetError):
            make_coreset(n_symbols=4)
        with pytest.raises(CoresetError):
            make_coreset(n_prb=49)  # REGs not multiple of 6

    def test_cce_regs_disjoint_and_complete(self):
        coreset = make_coreset()
        seen = set()
        for cce in range(coreset.n_cces):
            regs = coreset.cce_to_regs(cce)
            assert len(regs) == 6
            assert not seen & set(regs), "CCEs must not share REGs"
            seen.update(regs)
        assert seen == set(range(coreset.n_regs))

    def test_non_interleaved_is_contiguous(self):
        coreset = make_coreset(interleaved=False)
        assert coreset.cce_to_regs(0) == list(range(6))
        assert coreset.cce_to_regs(1) == list(range(6, 12))

    def test_interleaved_spreads(self):
        # Consecutive CCEs must land on non-adjacent REG bundles, unlike
        # the non-interleaved mapping (CCE 0 itself maps to bundle 0 in
        # both, so compare CCE 1).
        interleaved = make_coreset(interleaved=True)
        plain = make_coreset(interleaved=False)
        assert interleaved.cce_to_regs(1) != plain.cce_to_regs(1)

    def test_cce_out_of_range(self):
        with pytest.raises(CoresetError):
            make_coreset().cce_to_regs(8)

    def test_reg_positions(self):
        coreset = make_coreset(first_prb=10, n_prb=24, n_symbols=2)
        assert coreset.reg_to_position(0) == (10, 0)
        assert coreset.reg_to_position(1) == (10, 1)
        assert coreset.reg_to_position(2) == (11, 0)
        with pytest.raises(CoresetError):
            coreset.reg_to_position(48)


class TestSearchSpace:
    def _space(self, common=True, coreset=None):
        return SearchSpace(search_space_id=1,
                           coreset=coreset or make_coreset(),
                           is_common=common,
                           candidates_per_level={1: 4, 2: 4, 4: 2, 8: 1})

    def test_common_candidates_deterministic(self):
        space = self._space(common=True)
        a = space.candidate_cces(2, slot_index=0)
        b = space.candidate_cces(2, slot_index=0)
        assert a == b

    def test_candidates_aligned_to_level(self):
        space = self._space(common=True)
        for level in (1, 2, 4, 8):
            for start in space.candidate_cces(level, 3):
                assert start % level == 0
                assert start + level <= space.coreset.n_cces

    def test_ue_specific_requires_rnti(self):
        space = self._space(common=False)
        with pytest.raises(CoresetError):
            space.candidate_cces(2, 0, rnti=0)

    def test_ue_specific_varies_with_rnti(self):
        space = self._space(common=False)
        seen = {tuple(space.candidate_cces(2, 5, rnti=r))
                for r in range(0x100, 0x140)}
        assert len(seen) > 1

    def test_ue_specific_varies_with_slot(self):
        space = self._space(common=False)
        seen = {tuple(space.candidate_cces(2, s, rnti=0x4296))
                for s in range(16)}
        assert len(seen) > 1

    def test_level_larger_than_coreset_gives_nothing(self):
        space = self._space()
        assert space.candidate_cces(16, 0) == []

    def test_invalid_level_rejected(self):
        space = self._space()
        with pytest.raises(CoresetError):
            space.candidate_cces(3, 0)
        with pytest.raises(CoresetError):
            SearchSpace(1, make_coreset(), True, {5: 1})


class TestCoreset0:
    def test_wide_carrier(self):
        coreset = coreset0_for_bandwidth(51)
        assert coreset.n_prb == 48
        assert coreset.coreset_id == 0

    def test_narrow_carrier(self):
        coreset = coreset0_for_bandwidth(25)
        assert coreset.n_prb == 24
        assert coreset.n_symbols == 2

    def test_too_narrow(self):
        with pytest.raises(CoresetError):
            coreset0_for_bandwidth(20)


def direct_candidates(rnti, coreset_id, slot_in_frame, level, n_candidates,
                      n_cce):
    """TS 38.213 §10.1, written out: ``Y_{p,-1} = n_RNTI``,
    ``Y_{p,n} = (A_p * Y_{p,n-1}) mod 65537`` up to the slot number
    within the frame, then ``L * ((Y + floor(m * N_CCE / (L * M)))
    mod floor(N_CCE / L))`` per candidate ``m``."""
    a_p = (39827, 39829, 39839)[coreset_id % 3]
    y = rnti
    for _ in range(slot_in_frame + 1):
        y = a_p * y % 65537
    return [level * ((y + m * n_cce // (level * n_candidates))
                     % (n_cce // level)) for m in range(n_candidates)]


class TestSixtyKhzSlots:
    """A 60 kHz cell has 40 slots a frame: slots 20-39 hash on their own
    slot numbers at both ends, not as slots 0-19."""

    def test_hash_follows_the_slot_within_the_frame(self):
        from dataclasses import replace

        from repro.core.dci_decoder import GridDciDecoder
        from repro.core.rach_sniffer import SpaceSnapshot
        from repro.gnb.cell_config import SRSRAN_PROFILE
        from repro.phy.numerology import SlotClock, slots_per_frame
        from repro.phy.resource_grid import ResourceGrid

        profile = replace(SRSRAN_PROFILE, name="sixty", scs_khz=60)
        assert slots_per_frame(profile.scs_khz) == 40
        space = profile.ue_search_space()
        coreset = space.coreset
        rnti = 0x4601
        decoder = GridDciDecoder(profile.dci_size_config(),
                                 n_id=profile.cell_id, noise_var=0.01,
                                 scs_khz=profile.scs_khz)
        grid = ResourceGrid(profile.n_prb)
        tracked = SpaceSnapshot({rnti: space})
        for slot in range(20, 40):
            want = {level: direct_candidates(
                rnti, coreset.coreset_id, slot, level, count,
                coreset.n_cces)
                for level, count in space.candidates_per_level.items()
                if count}
            # The gNB's scheduler passes the slot within the frame.
            assert {level: space.candidate_cces(level, slot, rnti)
                    for level in want} == want
            # The sniffer reduces an absolute slot index with the
            # cell's SCS: a slot of the third frame, 2 * 40 + slot.
            index = SlotClock(sfn=2, slot=slot, scs_khz=60).index
            entries = decoder.gather(grid, index, tracked).layout.entries
            assert [(level, start) for _, level, start, _ in entries] \
                == [(level, start) for level, starts in want.items()
                    for start in starts]
        # Slots 20-39 no longer repeat slots 0-19.
        assert any(space.candidate_cces(2, slot, rnti)
                   != space.candidate_cces(2, slot - 20, rnti)
                   for slot in range(20, 40))

    def test_slot_outside_any_frame_is_refused(self):
        space = SearchSpace(1, make_coreset(), False, {2: 2})
        with pytest.raises(CoresetError):
            space.candidate_cces(2, 40, rnti=0x4601)
        with pytest.raises(CoresetError):
            space.candidate_cces(2, -1, rnti=0x4601)
