"""The per-slot PDCCH encoder writes the grid a per-DCI encoder writes.

``encode_pdcch`` encodes a whole slot in one pass (one CRC batch, one
polar encode per (K, E), one ``np.put`` each for data and pilots).  The
per-DCI chain it replaced lives here as the reference
(``encode_per_dci``, and ``render_per_dci`` for the gNB's grid), and
every test compares grid ``data`` bytes and checks that the written REs
are the candidates' data REs (the sniffer's gather indices) and their
pilots.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.gnb.cell_config import ALL_PROFILES, SRSRAN_PROFILE
from repro.gnb.scheduler import DEFAULT_TIME_ALLOC, SHORT_TIME_ALLOCS
from repro.phy import polar
from repro.phy.dci import Dci, DciFormat, pack, riv_encode
from repro.phy.dmrs import PDCCH_DMRS_POSITIONS, pdcch_dmrs_symbols, \
    reg_data_subcarriers
from repro.phy.grant import TDRA_TABLE
from repro.phy.modulation import QPSK, modulate
from repro.phy.pdcch import PdcchCandidate, PdcchError, \
    _candidate_flat_indices, _dmrs_layout, dci_crc_attach, encode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.phy.scrambling import pdcch_scrambling_init, scramble_bits
from repro.simulation import Simulation

CFG = SRSRAN_PROFILE.dci_size_config()
N_ID = SRSRAN_PROFILE.cell_id
CORESETS = {"coreset0": SRSRAN_PROFILE.coreset0(),
            "dedicated": SRSRAN_PROFILE.dedicated_coreset()}

#: The TDRA row of the broadcast (SIB 1) and MSG 4 PDSCHs.
BROADCAST_TIME_ALLOC = 3


def encode_per_dci(dci, cfg, coreset, candidate, grid, n_id, slot_index):
    """One DCI's PDCCH, RE by RE (reference).  Raises PdcchError for a
    candidate past the CORESET's CCEs."""
    if candidate.first_cce + candidate.aggregation_level > coreset.n_cces:
        raise PdcchError("candidate exceeds the CORESET")
    payload = pack(dci, cfg)
    with_crc = dci_crc_attach(payload, dci.rnti)
    code = polar.construct(with_crc.size, candidate.n_coded_bits)
    symbols = modulate(scramble_bits(polar.encode(with_crc, code),
                                     pdcch_scrambling_init(n_id)), QPSK)
    regs = [coreset.reg_to_position(reg)
            for cce in range(candidate.first_cce, candidate.first_cce
                             + candidate.aggregation_level)
            for reg in coreset.cce_to_regs(cce)]
    at = 0
    for prb, symbol in regs:
        for sc in reg_data_subcarriers():
            grid.data[prb * 12 + sc, symbol] = symbols[at]
            at += 1
    per_symbol = {}
    for prb, symbol in regs:
        per_symbol.setdefault(symbol, []).append(prb)
    for symbol, prbs in per_symbol.items():
        pilots = pdcch_dmrs_symbols(n_id, symbol, slot_index, len(prbs))
        at = 0
        for prb in sorted(prbs):
            for sc in PDCCH_DMRS_POSITIONS:
                grid.data[prb * 12 + sc, symbol] = pilots[at]
                at += 1
    return payload


def encode_loop(items, grid, slot_index):
    """The slot's DCIs one at a time, skipping unfit candidates."""
    payloads = []
    for dci, coreset, candidate in items:
        try:
            payloads.append(encode_per_dci(dci, CFG, coreset, candidate,
                                           grid, N_ID, slot_index))
        except PdcchError:
            payloads.append(None)
    return payloads


def make_dci(i):
    fmt = DciFormat.DL_1_1 if i % 3 else DciFormat.UL_0_1
    return Dci(format=fmt, rnti=0x4601 + 37 * i,
               freq_alloc_riv=riv_encode(i % 40, 1 + i % 8, 51),
               time_alloc=i % 16, mcs=i % 28, ndi=i % 2, rv=i % 4,
               harq_id=i % 16)


def written_res(items):
    """Flat indices of the data REs and pilots of every fitting
    candidate in ``items``: the only REs a slot's render may write."""
    at = [np.concatenate([
        _candidate_flat_indices(coreset, cand.first_cce,
                                cand.aggregation_level),
        _dmrs_layout(coreset, cand.first_cce,
                     cand.aggregation_level).flat])
        for _, coreset, cand in items
        if cand.first_cce + cand.aggregation_level <= coreset.n_cces]
    return np.unique(np.concatenate(at)) if at \
        else np.zeros(0, dtype=np.intp)


def assert_same_slot(items, slot_index):
    got = ResourceGrid(SRSRAN_PROFILE.n_prb)
    want = ResourceGrid(SRSRAN_PROFILE.n_prb)
    payloads = encode_pdcch(items, CFG, got, N_ID, slot_index)
    expected = encode_loop(items, want, slot_index)
    assert [None if p is None else p.tobytes() for p in payloads] == \
        [None if p is None else p.tobytes() for p in expected]
    assert got.data.tobytes() == want.data.tobytes()
    assert np.flatnonzero(got.data).tolist() == written_res(items).tolist()
    return got


class TestSlotEncoder:
    @pytest.mark.parametrize("which", sorted(CORESETS))
    @pytest.mark.parametrize("slot_index", [3, 23, 43])
    def test_every_candidate_at_every_level(self, which, slot_index):
        coreset = CORESETS[which]
        items = [(make_dci(i), coreset, PdcchCandidate(first, level))
                 for i, (level, first) in enumerate(
                     (level, first) for level in (1, 2, 4, 8, 16)
                     for first in range(0, coreset.n_cces - level + 1,
                                        level))]
        assert len(items) > 10
        # One slot per level, then every level in one slot: candidates
        # of different levels overlap, so later items overwrite.
        for level in (1, 2, 4, 8):
            assert_same_slot([item for item in items
                              if item[2].aggregation_level == level],
                             slot_index)
        assert_same_slot(items, slot_index)

    def test_pilot_cache_follows_the_slot_in_its_frame(self):
        coreset = CORESETS["dedicated"]
        items = [(make_dci(1), coreset, PdcchCandidate(0, 4))]
        grids = [assert_same_slot(items, slot) for slot in (3, 23, 43, 4)]
        # Slots 3, 23 and 43 share their place in the frame; slot 4
        # does not, so its pilots differ.
        assert grids[0].data.tobytes() == grids[1].data.tobytes() \
            == grids[2].data.tobytes()
        assert grids[0].data.tobytes() != grids[3].data.tobytes()

    def test_overlapping_candidates_keep_last_writer_order(self):
        # The MSG 4 fallback puts a DCI at first_cce=0 whatever else is
        # there, so one slot can carry overlapping candidates.
        coreset0, dedicated = CORESETS["coreset0"], CORESETS["dedicated"]
        items = [(make_dci(1), coreset0, PdcchCandidate(0, 4)),
                 (make_dci(2), coreset0, PdcchCandidate(0, 4)),
                 (make_dci(4), dedicated, PdcchCandidate(0, 8)),
                 (make_dci(5), coreset0, PdcchCandidate(0, 8)),
                 (make_dci(7), dedicated, PdcchCandidate(2, 2))]
        forward = assert_same_slot(items, 7)
        backward = assert_same_slot(items[::-1], 7)
        assert forward.data.tobytes() != backward.data.tobytes()

    def test_unfit_candidate_is_skipped(self):
        coreset0 = CORESETS["coreset0"]
        unfit = PdcchCandidate(coreset0.n_cces - 2, 4)
        items = [(make_dci(1), coreset0, PdcchCandidate(0, 4)),
                 (make_dci(2), coreset0, unfit),
                 (make_dci(4), coreset0, PdcchCandidate(4, 4))]
        grid = assert_same_slot(items, 9)
        payloads = encode_pdcch(items, CFG, ResourceGrid(51), N_ID, 9)
        assert [p is None for p in payloads] == [False, True, False]
        assert grid.data.any()
        none = ResourceGrid(51)
        assert encode_pdcch(items[1:2], CFG, none, N_ID, 9) == [None]
        assert not none.data.any()


def render_per_dci(records, slot_index):
    """The gNB's grid, DCI by DCI (reference): each fitting PDCCH."""
    profile = SRSRAN_PROFILE
    grid = ResourceGrid(profile.n_prb)
    for record in records:
        coreset = profile.coreset0() if record.search_space == "common" \
            else profile.dedicated_coreset()
        try:
            encode_per_dci(record.dci, CFG, coreset, record.candidate,
                           grid, N_ID, slot_index)
        except PdcchError:
            continue
    return grid


def busy_outputs(n_slots=160):
    """Downlink slot outputs of an iq cell with PDSCH traffic."""
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=4, seed=3,
                           fidelity="iq")
    outputs = []
    for _ in range(n_slots):
        output = sim.step()
        if output.dci_records:
            outputs.append(output)
    return sim.gnb, outputs


class TestRenderGrid:
    def test_grid_matches_per_dci_render(self):
        gnb, outputs = busy_outputs()
        assert sum(len(o.dci_records) for o in outputs) > 20
        common = next(o for o in outputs
                      if any(r.search_space == "common"
                             for r in o.dci_records))
        unfit = replace(common.dci_records[0], candidate=PdcchCandidate(
            SRSRAN_PROFILE.coreset0().n_cces - 2, 4))
        ue = next(o for o in outputs
                  if any(r.search_space == "ue" and r.grant.downlink
                         for r in o.dci_records))
        # An unfit candidate between rendered ones is skipped.
        cases = [o for o in outputs[:40]] + [
            replace(ue, dci_records=[unfit, *ue.dci_records, unfit]),
            replace(common, dci_records=[*common.dci_records,
                                         *ue.dci_records])]
        for output in cases:
            slot_index = output.slot.index
            gnb._render_grid(output, slot_index)
            want = render_per_dci(output.dci_records, slot_index)
            assert output.grid.data.tobytes() == want.data.tobytes()
            assert output.grid.n_ctrl == SRSRAN_PROFILE.control_symbols

    def test_pdsch_starts_after_the_coresets(self):
        """The grid holds no PDSCH and a capture covers the control
        region only; both are exact only because every CORESET of every
        profile ends within it and every PDSCH starts after it."""
        rows = {DEFAULT_TIME_ALLOC, BROADCAST_TIME_ALLOC,
                *(row for row, _ in SHORT_TIME_ALLOCS)}
        assert rows == {1, 3, 5, 7}
        assert min(TDRA_TABLE[row][0] for row in rows) == 2
        for profile in ALL_PROFILES.values():
            coresets = (profile.coreset0(), profile.dedicated_coreset(),
                        profile.common_search_space().coreset,
                        profile.ue_search_space().coreset)
            ends = [c.first_symbol + c.n_symbols for c in coresets]
            assert profile.control_symbols == max(ends) <= 2, profile.name
        _, outputs = busy_outputs()
        records = [r for o in outputs for r in o.dci_records]
        assert {r.dci.time_alloc for r in records} <= rows
        assert all(r.grant.first_symbol >= 2 for r in records)
