"""decode_slot_batch makes the per-candidate search's decisions, bit for bit.

The batched decoder reorders work (one shared decode per candidate
position, joint polar decodes, batch CRC) but must reproduce the
per-candidate search's *decisions* exactly: same decoded DCIs in the
same order, same attempt count, same claimed CCEs — under every
ablation toggle and under noise.  The per-candidate searches live here
as reference functions (``per_candidate_search`` for the UE space,
``per_candidate_common`` for the common space).  The window job over
gathered slots must likewise be invisible to the decode: each slot of a
window gets what its own ``decode_slot_batch`` gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DCI_CRC_LEN
from repro.core.dci_decoder import DecodedDci, GridDciDecoder, \
    WindowSearch, _ue_entry_plan, grid_decode_job
from repro.core.runtime import WindowRun, run_window
from repro.core.rach_sniffer import RachSniffer, SpaceSnapshot
from repro.gnb.cell_config import SRSRAN_PROFILE, TMOBILE_N25_PROFILE
from repro.phy import polar
from repro.phy.dci import Dci, DciError, DciFormat, dci_payload_size, \
    riv_encode, unpack
from repro.phy.modulation import QPSK, demodulate_qpsk, demodulate_soft, \
    demodulate_soft_batch
from repro.phy.numerology import slots_per_frame
from repro.phy.pdcch import PdcchCandidate, candidate_occupied, \
    dci_recover_rnti, decode_candidate_bits, encode_pdcch, \
    try_decode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.rrc.messages import RrcSetup


def build_tracked(n_ues=3, profile=SRSRAN_PROFILE):
    sniffer = RachSniffer(bwp_n_prb=profile.n_prb)
    setup = RrcSetup(tc_rnti=0x4601,
                     search_space=profile.search_space_config())
    sniffer.discover(0x4601, 0.0, setup)
    for i in range(1, n_ues):
        sniffer.discover(0x4601 + i, 0.0, None)
    return sniffer.space_snapshot()


def in_frame(slot_index, scs_khz=SRSRAN_PROFILE.scs_khz):
    """The slot number within its frame."""
    return slot_index % slots_per_frame(scs_khz)


def build_slot(tracked, slot_index, level=2, noise_var=0.0, seed=0,
               profile=SRSRAN_PROFILE):
    """One real DCI per UE plus optional AWGN over the whole grid."""
    grid = ResourceGrid(profile.n_prb)
    cfg = profile.dci_size_config()
    used = set()
    for rnti, space in tracked.items():
        for start in space.candidate_cces(
                level, in_frame(slot_index, profile.scs_khz), rnti):
            cces = set(range(start, start + level))
            if cces & used:
                continue
            dci = Dci(format=DciFormat.DL_1_1, rnti=rnti,
                      freq_alloc_riv=riv_encode(0, 4, profile.n_prb),
                      time_alloc=1, mcs=10, ndi=0, rv=0, harq_id=0)
            encode_pdcch([(dci, space.coreset,
                           PdcchCandidate(start, level))], cfg, grid,
                         n_id=profile.cell_id, slot_index=slot_index,
                         scs_khz=profile.scs_khz)
            used |= cces
            break
    if noise_var > 0.0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(noise_var / 2.0)
        grid.data += (rng.normal(0.0, scale, grid.data.shape)
                      + 1j * rng.normal(0.0, scale, grid.data.shape))
    return grid


def make_decoder(noise_var=1e-3, profile=SRSRAN_PROFILE, **kwargs):
    return GridDciDecoder(dci_cfg=profile.dci_size_config(),
                          n_id=profile.cell_id, noise_var=noise_var,
                          scs_khz=profile.scs_khz, **kwargs)


def per_candidate_search(decoder, grid, slot_index, tracked,
                         claimed=None):
    """The per-candidate UE-space search (reference).

    Returns the decoded DCIs and the number of decode attempts; CCEs
    claimed by a decode are added to ``claimed``.
    """
    decoded = []
    attempts = 0
    if claimed is None:
        claimed = set()
    for rnti in sorted(tracked):
        space = tracked[rnti]
        for level, count in space.candidates_per_level.items():
            if count == 0:
                continue
            for start in space.candidate_cces(
                    level, in_frame(slot_index, decoder.scs_khz), rnti):
                cces = frozenset(range(start, start + level))
                if decoder.use_cce_claiming and cces & claimed:
                    continue
                candidate = PdcchCandidate(first_cce=start,
                                           aggregation_level=level)
                if decoder.use_energy_gate and not candidate_occupied(
                        grid, space.coreset, candidate,
                        decoder.noise_var):
                    continue
                for fmt in (DciFormat.DL_1_1, DciFormat.UL_0_1):
                    attempts += 1
                    dci = try_decode_pdcch(
                        grid, decoder.dci_cfg, space.coreset, candidate,
                        fmt, rnti, decoder.n_id, decoder.noise_var,
                        slot_index=slot_index, equalize=decoder.equalize,
                        scs_khz=decoder.scs_khz)
                    if dci is not None:
                        decoded.append(DecodedDci(
                            dci=dci, aggregation_level=level))
                        if decoder.use_cce_claiming:
                            claimed.update(cces)
                        break
    return decoded, attempts


class TestBatchMatchesScalar:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_full_equivalence(self, data):
        # Up to 16 UEs on one CORESET, so many entries share a position.
        n_ues = data.draw(st.integers(min_value=1, max_value=16))
        slot_index = data.draw(st.integers(min_value=0, max_value=19))
        level = data.draw(st.sampled_from([1, 2, 4, 8]))
        noise_var = data.draw(st.sampled_from([0.0, 1e-3, 0.05]))
        gate = data.draw(st.booleans())
        claim = data.draw(st.booleans())
        seed = data.draw(st.integers(min_value=0, max_value=999))

        tracked = build_tracked(n_ues)
        n_cces = next(iter(tracked.values())).coreset.n_cces
        pre_claimed = data.draw(st.sets(
            st.integers(min_value=0, max_value=n_cces - 1), max_size=6))
        grid = build_slot(tracked, slot_index, level=level,
                          noise_var=noise_var, seed=seed)
        kwargs = dict(noise_var=max(noise_var, 1e-3),
                      use_energy_gate=gate, use_cce_claiming=claim)
        scalar = make_decoder(**kwargs)
        batched = make_decoder(**kwargs)
        claimed_s = set(pre_claimed)
        claimed_b = set(pre_claimed)
        out_s, attempts_s = per_candidate_search(
            scalar, grid, slot_index, tracked, claimed=claimed_s)
        out_b = batched.decode_slot_batch(grid, slot_index, tracked,
                                          claimed=claimed_b)
        assert out_b == out_s
        assert batched.attempts == attempts_s
        assert claimed_b == claimed_s

    def test_equalize_path_matches(self):
        tracked = build_tracked(3)
        grid = build_slot(tracked, slot_index=4, noise_var=1e-3, seed=1)
        grid.data *= 0.8 * np.exp(1j * 0.3)
        scalar = make_decoder(equalize=True)
        batched = make_decoder(equalize=True)
        out_s, _ = per_candidate_search(scalar, grid, 4, tracked)
        out_b = batched.decode_slot_batch(grid, 4, tracked)
        assert out_b == out_s
        assert len(out_s) == 3

    def test_entry_plan_is_cached_across_slots(self):
        tracked = build_tracked(2)
        grid = build_slot(tracked, slot_index=4)
        decoder = make_decoder()
        decoder.decode_slot_batch(grid, 4, tracked)
        # The same snapshot reuses its layout: phases 1-2 are not redone.
        assert decoder.gather(grid, 24, tracked).layout \
            is decoder.gather(grid, 4, tracked).layout
        before = _ue_entry_plan.cache_info().hits
        decoder.decode_slot_batch(grid, 4, SpaceSnapshot(tracked))
        # A new snapshot builds its layout from the plans: one hit per
        # (space, rnti) entry, so the whole phase-1 candidate
        # enumeration collapses to a memoized lookup on repeat slots.
        assert _ue_entry_plan.cache_info().hits >= before + len(tracked)

    def test_each_position_is_decoded_once(self, monkeypatch):
        tracked = build_tracked(16)
        slot_index = 5
        grid = build_slot(tracked, slot_index, level=2, noise_var=1e-3,
                          seed=4)
        decoder = make_decoder(use_cce_claiming=False)
        entries = set()
        n_entries = 0
        for rnti, space in tracked.items():
            for level, count in space.candidates_per_level.items():
                for start in space.candidate_cces(level, slot_index, rnti):
                    if candidate_occupied(grid, space.coreset,
                                          PdcchCandidate(start, level),
                                          decoder.noise_var):
                        entries.add((level, start))
                        n_entries += 1
        traversals = []
        init = polar.Traversal.__init__

        def counting(traversal, blocks):
            traversals.append([(llrs.shape[0], codes)
                               for llrs, codes in blocks])
            init(traversal, blocks)

        monkeypatch.setattr(polar.Traversal, "__init__", counting)
        decoded = decoder.decode_slot_batch(grid, slot_index, tracked)
        assert len(decoded) > 0
        assert n_entries > len(entries)  # positions really are shared
        # One SC traversal for the whole slot, carrying every
        # (CORESET, level) group, merged into one block per code tuple:
        # a per-group decode would build two.
        assert len(traversals) == 1
        [blocks] = traversals
        assert len(blocks) >= 2
        assert len({codes for _, codes in blocks}) == len(blocks)
        assert sum(rows for rows, _ in blocks) <= len(entries)


def assert_matches_reference(tracked, slot_index, grid, claimed=None,
                             **kwargs):
    """The batched search against the per-candidate reference: decoded
    DCIs, attempts and claimed CCEs."""
    scalar = make_decoder(**kwargs)
    batched = make_decoder(**kwargs)
    claimed_s = set(claimed or ())
    claimed_b = set(claimed or ())
    out_s, attempts_s = per_candidate_search(
        scalar, grid, slot_index, tracked, claimed=claimed_s)
    out_b = batched.decode_slot_batch(grid, slot_index, tracked,
                                      claimed=claimed_b)
    assert out_b == out_s
    assert batched.attempts == attempts_s
    assert claimed_b == claimed_s
    return out_b


#: Decoder settings the cached layout must decode under: the default,
#: each ablation flag off, and the equalizer.
LAYOUT_OPTIONS = [
    dict(),
    dict(use_energy_gate=False),
    dict(use_cce_claiming=False),
    dict(use_energy_gate=False, use_cce_claiming=False),
    dict(equalize=True),
]


class TestLayoutCache:
    """The layout :meth:`GridDciDecoder.gather` keeps on the snapshot
    decodes like the per-candidate search, whatever slot reuses it."""

    @pytest.mark.parametrize("options", LAYOUT_OPTIONS)
    def test_one_snapshot_across_two_frames(self, options):
        tracked = build_tracked(8)
        decoder = make_decoder(**options)
        layouts = set()
        for slot_index, seed in ((5, 1), (25, 2), (45, 3), (6, 4)):
            grid = build_slot(tracked, slot_index, level=2,
                              noise_var=0.02, seed=seed)
            if options.get("equalize"):
                grid.data *= 0.9 * np.exp(0.4j)
            decoded = assert_matches_reference(tracked, slot_index, grid,
                                               **options)
            assert decoded
            layouts.add(id(decoder.gather(grid, slot_index,
                                          tracked).layout))
        # Slots 5, 25 and 45 share one layout; slot 6 has its own.
        assert len(layouts) == 2

    @pytest.mark.parametrize("options", LAYOUT_OPTIONS)
    def test_ue_joining_mid_frame(self, options):
        sniffer = RachSniffer(bwp_n_prb=51)
        setup = RrcSetup(tc_rnti=0x4601,
                         search_space=SRSRAN_PROFILE.search_space_config())
        sniffer.discover(0x4601, 0.0, setup)
        sniffer.discover(0x4602, 0.0, None)
        before = sniffer.space_snapshot()
        grid = build_slot(before, 7, noise_var=1e-3, seed=5)
        assert_matches_reference(before, 7, grid, **options)
        sniffer.discover(0x4a11, 0.0035, None)
        after = sniffer.space_snapshot()
        assert after is not before and len(after) == 3
        grid = build_slot(after, 8, noise_var=1e-3, seed=6)
        assert len(assert_matches_reference(after, 8, grid,
                                            **options)) == 3
        # The old snapshot still searches its own two UEs.
        assert len(assert_matches_reference(before, 8, grid,
                                            **options)) == 2

    @pytest.mark.parametrize("options", LAYOUT_OPTIONS)
    def test_pre_claimed_cces(self, options):
        tracked = build_tracked(10)
        grid = build_slot(tracked, 11, level=1, noise_var=1e-3, seed=7)
        # Build the snapshot's layout with nothing claimed, so the
        # claimed searches below reuse it.
        make_decoder(**options).gather(grid, 11, tracked)
        for claimed in ({0}, {2, 3}, set(range(8))):
            assert_matches_reference(tracked, 11, grid, claimed=claimed,
                                     **options)


class TestQpskDemod:
    @given(st.lists(st.tuples(
        st.floats(-4, 4, allow_nan=False, width=32),
        st.floats(-4, 4, allow_nan=False, width=32)), max_size=300),
        st.sampled_from([1e-12, 1e-3, 0.05, 0.7, 1.0, 3.3]))
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_generic_demod(self, points, noise_var):
        symbols = np.array([complex(re, im) for re, im in points],
                           dtype=np.complex128)
        assert demodulate_qpsk(symbols, noise_var).tobytes() == \
            demodulate_soft(symbols, QPSK, noise_var).tobytes()

    def test_batch_demod_takes_the_qpsk_kernel(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(6, 54)) + 1j * rng.normal(size=(6, 54))
        got = demodulate_soft_batch(block, QPSK, 0.3)
        for row, llrs in zip(block, got):
            assert llrs.tobytes() == \
                demodulate_soft(row, QPSK, 0.3).tobytes()


def test_one_demod_and_traversal_per_window(monkeypatch):
    """The UE-space search of a session makes one gather per downlink
    slot, and one demod and one polar traversal per window; the common
    search keeps its own gather and demod per call."""
    from repro.core import dci_decoder
    from repro.core import runtime
    from repro.core.scope import NRScope
    from repro.phy.pdcch import CandidateLayout
    from repro.simulation import Simulation

    common = {"calls": 0, "gather": 0, "demod": 0}
    ue = {"gather": 0, "demod": 0, "traversal": 0, "windows": 0}
    inside = []
    gather = CandidateLayout.gather
    demod = dci_decoder.demodulate_soft_batch
    blind = GridDciDecoder.blind_decode_common
    traversal_init = polar.Traversal.__init__
    window_init = runtime.WindowRun.__init__

    def counter():
        return common if inside else ue

    def counting_blind(self, *args):
        common["calls"] += 1
        inside.append(None)
        try:
            return blind(self, *args)
        finally:
            inside.pop()

    def counting_gather(self, grid):
        counter()["gather"] += 1
        return gather(self, grid)

    def counting_demod(*args):
        counter()["demod"] += 1
        return demod(*args)

    def counting_traversal(self, blocks):
        if not inside:
            ue["traversal"] += 1
        traversal_init(self, blocks)

    def counting_window(self, *args):
        ue["windows"] += 1
        window_init(self, *args)

    monkeypatch.setattr(GridDciDecoder, "blind_decode_common",
                        counting_blind)
    monkeypatch.setattr(CandidateLayout, "gather", counting_gather)
    monkeypatch.setattr(dci_decoder, "demodulate_soft_batch",
                        counting_demod)
    monkeypatch.setattr(polar.Traversal, "__init__", counting_traversal)
    monkeypatch.setattr(runtime.WindowRun, "__init__", counting_window)
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=4, seed=2, fidelity="iq")
    scope = NRScope.attach(sim, snr_db=18.0)
    for _ in range(120):
        sim.step()
    scope.flush()
    assert scope.tracked_rntis
    decode_slots = scope.runtime_stats.stage("dci").calls
    assert ue["gather"] == decode_slots > ue["windows"] > 1
    assert ue["traversal"] == ue["windows"]
    assert 0 < ue["demod"] <= ue["windows"]
    assert common["calls"] > 0
    assert common["demod"] <= common["gather"] == common["calls"]


def build_common_slot(slot_index, tc_rntis, noise_var, seed):
    """MSG 4-style DCIs, CRC-masked with TC-RNTIs, in CORESET 0."""
    grid = ResourceGrid(SRSRAN_PROFILE.n_prb)
    cfg = SRSRAN_PROFILE.dci_size_config()
    space = SRSRAN_PROFILE.common_search_space()
    used = set()
    candidates = [(level, start)
                  for level in space.candidates_per_level
                  for start in space.candidate_cces(level, slot_index)]
    for tc_rnti, (level, start) in zip(tc_rntis, candidates):
        cces = set(range(start, start + level))
        if cces & used:
            continue
        dci = Dci(format=DciFormat.DL_1_1, rnti=tc_rnti,
                  freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                  mcs=4, ndi=0, rv=0, harq_id=0)
        encode_pdcch([(dci, space.coreset, PdcchCandidate(start, level))],
                     cfg, grid, n_id=SRSRAN_PROFILE.cell_id,
                     slot_index=slot_index)
        used |= cces
    if noise_var > 0.0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(noise_var / 2.0)
        grid.data += (rng.normal(0.0, scale, grid.data.shape)
                      + 1j * rng.normal(0.0, scale, grid.data.shape))
    return grid


def per_candidate_common(decoder, grid, slot_index, space):
    """The per-candidate scalar common-space search (reference)."""
    decoded = []
    payload_len = dci_payload_size(DciFormat.DL_1_1, decoder.dci_cfg)
    for level, count in space.candidates_per_level.items():
        if count == 0:
            continue
        for start in space.candidate_cces(level, slot_index):
            candidate = PdcchCandidate(start, level)
            if not candidate_occupied(grid, space.coreset, candidate,
                                      decoder.noise_var):
                continue
            bits = decode_candidate_bits(grid, space.coreset, candidate,
                                         payload_len, decoder.n_id,
                                         decoder.noise_var)
            if bits is None:
                continue
            rnti = dci_recover_rnti(bits)
            if rnti is None or rnti == 0:
                continue
            try:
                dci = unpack(bits[:-DCI_CRC_LEN], DciFormat.DL_1_1,
                             decoder.dci_cfg, rnti)
            except DciError:
                continue
            decoded.append(DecodedDci(dci=dci, aggregation_level=level,
                                      from_common_space=True))
    return decoded


class TestCommonSpace:
    @pytest.mark.parametrize("slot_index,noise_var,seed",
                             [(0, 0.0, 0), (3, 1e-3, 1), (11, 0.05, 2),
                              (17, 0.3, 3)])
    def test_batched_matches_per_candidate(self, slot_index, noise_var,
                                           seed):
        space = SRSRAN_PROFILE.common_search_space()
        grid = build_common_slot(slot_index, (0x4601, 0x4602),
                                 noise_var, seed)
        decoder = make_decoder(noise_var=max(noise_var, 1e-3))
        batched = decoder.blind_decode_common(grid, slot_index, space)
        assert batched == per_candidate_common(decoder, grid, slot_index,
                                               space)
        if noise_var < 0.1:
            assert {d.dci.rnti for d in batched} >= {0x4601}


class TestSlimWireForms:
    @pytest.mark.parametrize("gated", [False, True])
    def test_slim_job_matches_inline_decode(self, gated):
        tracked = build_tracked(4)
        grid = build_slot(tracked, slot_index=7, noise_var=1e-3, seed=3)
        decoder = make_decoder(use_energy_gate=gated,
                               use_cce_claiming=gated)
        inline = decoder.decode_slot_batch(grid, 7, tracked)
        gathered = make_decoder(use_energy_gate=gated,
                                use_cce_claiming=gated).gather(
            grid, 7, tracked)
        [result] = run_window(WindowRun([0], grid_decode_job, [gathered]))
        assert result.error is None
        decoded, attempts = result.result
        assert decoded == inline
        assert attempts == decoder.attempts > 0


def slot_results(slots, pre_claimed=(), **options):
    """Each slot's own ``decode_slot_batch``, checked against the
    per-candidate reference: ``(decoded, attempts, claimed CCEs)`` per
    ``(grid, slot_index, tracked)`` of ``slots``."""
    results = []
    for grid, slot_index, tracked in slots:
        claimed = set(pre_claimed)
        assert_matches_reference(tracked, slot_index, grid,
                                 claimed=pre_claimed, **options)
        decoder = make_decoder(**options)
        decoded = decoder.decode_slot_batch(grid, slot_index, tracked,
                                            claimed=claimed)
        results.append((decoded, decoder.attempts, claimed))
    return results


def window_results(slots, pre_claimed=(), **options):
    """The window job over ``slots``, as the runtime runs it: each
    slot's ``(decoded, attempts)``."""
    decoder = make_decoder(**options)
    window = [decoder.gather(grid, slot_index, tracked, set(pre_claimed))
              for grid, slot_index, tracked in slots]
    results = run_window(WindowRun(list(range(len(window))),
                                   grid_decode_job, window))
    assert [r.error for r in results] == [None] * len(window)
    return [r.result for r in results]


class TestWindowMatchesSlots:
    """A window of gathered slots, searched as one array program, gives
    every slot what its own ``decode_slot_batch`` gives, and so what
    the per-candidate search gives."""

    @pytest.mark.parametrize("gated", [True, False])
    @pytest.mark.parametrize("pre_claimed", [(), (0, 1), (6, 7)])
    def test_mixed_levels(self, gated, pre_claimed, monkeypatch):
        tracked = build_tracked(6)
        slots = [(10 + i, (2, 4, 8)[i % 3]) for i in range(8)]
        grids = [build_slot(tracked, slot_index, level=level,
                            noise_var=0.02, seed=slot_index)
                 for slot_index, level in slots]
        want = []
        for (slot_index, _), grid in zip(slots, grids):
            decoder = make_decoder(use_energy_gate=gated)
            claimed = set(pre_claimed)
            decoded = decoder.decode_slot_batch(grid, slot_index, tracked,
                                                claimed=claimed)
            want.append((decoded, decoder.attempts, claimed))
        levels = {d.aggregation_level for decoded, _, _ in want
                  for d in decoded}
        # A pre-claimed CCE blocks the one level-8 candidate.
        assert levels == ({2, 4} if pre_claimed else {2, 4, 8})
        decoder = make_decoder(use_energy_gate=gated)
        window = [decoder.gather(grid, slot_index, tracked,
                                 set(pre_claimed))
                  for (slot_index, _), grid in zip(slots, grids)]

        # The window job, as the runtime runs it.
        results = run_window(WindowRun(list(range(len(window))),
                                       grid_decode_job, window))
        assert [r.error for r in results] == [None] * len(window)
        assert [r.result for r in results] \
            == [(decoded, attempts) for decoded, attempts, _ in want]

        # Its parts, with the claims each slot's decodes make: one
        # polar block per code tuple in the whole window.
        blocks = []
        init = polar.Traversal.__init__

        def spy(traversal, window_blocks):
            blocks.extend(codes for _, codes in window_blocks)
            init(traversal, window_blocks)

        monkeypatch.setattr(polar.Traversal, "__init__", spy)
        search = WindowSearch(window)
        assert len(blocks) == len(set(blocks)) \
            == len(search.layout.candidates.levels)
        search.traversal.step(search.traversal.n_ops)
        search.check()
        for k, (decoded, attempts, claimed) in enumerate(want):
            got = set(pre_claimed)
            assert search.finish(k, got) == (decoded, attempts)
            assert got == claimed

    @pytest.mark.parametrize("pre_claimed", [(), (2, 3)])
    @pytest.mark.parametrize("options", LAYOUT_OPTIONS)
    def test_decoder_options(self, options, pre_claimed):
        """The gate off, claiming off, both, and the equalizer, each
        with and without CCEs claimed up front."""
        tracked = build_tracked(8)
        slots = []
        for i in range(7):
            grid = build_slot(tracked, 20 + i, level=(2, 4)[i % 2],
                              noise_var=0.02, seed=40 + i)
            if options.get("equalize"):
                grid.data *= 0.9 * np.exp(0.4j)
            slots.append((grid, 20 + i, tracked))
        want = slot_results(slots, pre_claimed, **options)
        assert any(decoded for decoded, _, _ in want)
        assert window_results(slots, pre_claimed, **options) \
            == [(decoded, attempts) for decoded, attempts, _ in want]

    @pytest.mark.parametrize("options", LAYOUT_OPTIONS)
    def test_ue_joining_mid_window(self, options):
        """A UE joins mid-window: the slots before and after it hold
        different snapshots, so the window builds its own layout."""
        sniffer = RachSniffer(bwp_n_prb=51)
        setup = RrcSetup(tc_rnti=0x4601,
                         search_space=SRSRAN_PROFILE.search_space_config())
        sniffer.discover(0x4601, 0.0, setup)
        sniffer.discover(0x4602, 0.0, None)
        before = sniffer.space_snapshot()
        sniffer.discover(0x4a11, 0.0035, None)
        after = sniffer.space_snapshot()
        slots = []
        for i in range(7):
            tracked = before if i < 3 else after
            grid = build_slot(tracked, 30 + i, noise_var=1e-3, seed=60 + i)
            if options.get("equalize"):
                grid.data *= 0.9 * np.exp(0.4j)
            slots.append((grid, 30 + i, tracked))
        want = slot_results(slots, **options)
        counts = [len(decoded) for decoded, _, _ in want]
        assert counts[:3] == [2] * 3 and max(counts[3:]) == 3
        assert window_results(slots, **options) \
            == [(decoded, attempts) for decoded, attempts, _ in want]
        for snapshot in (before, after):
            assert not [key for key in snapshot._layouts
                        if key[0] == "window" and len(key[1]) > 1]

    def test_fdd_window_of_eight(self):
        """The 15 kHz FDD cell's 8-slot windows, across a frame edge."""
        profile = TMOBILE_N25_PROFILE
        tracked = build_tracked(6, profile)
        slots = [(build_slot(tracked, slot_index, level=(2, 4, 8)[i % 3],
                             noise_var=0.02, seed=slot_index,
                             profile=profile), slot_index, tracked)
                 for i, slot_index in enumerate(range(16, 24))]
        want = slot_results(slots, profile=profile)
        assert sum(len(decoded) for decoded, _, _ in want) >= 8
        assert window_results(slots, profile=profile) \
            == [(decoded, attempts) for decoded, attempts, _ in want]

    def test_window_layout_is_kept_on_the_snapshot(self):
        """Windows at one place in the frame share one layout."""
        from repro.core.dci_decoder import _window_layout

        tracked = build_tracked(4)
        decoder = make_decoder()
        grid = build_slot(tracked, 0)
        windows = [[decoder.gather(grid, first + i, tracked)
                    for i in range(7)] for first in (0, 20, 10)]
        layouts = [_window_layout(window) for window in windows]
        assert layouts[0] is layouts[1] and layouts[2] is not layouts[0]


class TestSliceCost:
    def test_slices_of_a_real_window_cost_alike(self, monkeypatch):
        """The shared work of a real 7-slot srsRAN window, cut by
        estimated cost: the set-up is the first slice, and every slice
        after it is within 25% of their mean (one op is at most a few
        percent of a slice), whatever the op counts."""
        from repro.core import dci_decoder
        from repro.core.scope import NRScope
        from repro.simulation import Simulation

        searches = []
        init = dci_decoder.WindowSearch.__init__

        def spy(search, window):
            init(search, window)
            searches.append(search)

        monkeypatch.setattr(dci_decoder.WindowSearch, "__init__", spy)
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=8, seed=3,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=18.0)
        sim.run_slots(160)
        scope.close()
        search = [s for s in searches if len(s.window) == 7][-1]
        traversal = search.traversal
        ends = search.slice_ends()
        assert len(ends) == 7 and ends[-1] == traversal.n_ops
        costs = [traversal.cost_of(end) - traversal.cost_of(start)
                 for start, end in zip([0] + ends, ends)]
        costs[0] += search.setup_cost
        costs[-1] += search.check_cost
        total = search.setup_cost + traversal.cost + search.check_cost
        assert sum(costs) == pytest.approx(total)
        mean = total / 7
        # The set-up, more than a slice's share here, is all of the
        # first slice; the rest is shared equally.
        assert search.setup_cost > mean and ends[0] == 0
        rest = costs[1:]
        for cost in rest:
            assert 0.75 < cost / (sum(rest) / len(rest)) < 1.25
        # Equal op counts would put the 512-row top of the tree in one
        # slice: the cut is by cost, not by op count.
        counts = [end - start for start, end in zip([0] + ends, ends)]
        assert max(counts[1:]) > 1.5 * min(counts[1:-1])
