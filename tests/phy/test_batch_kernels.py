"""Batched PHY kernel contracts: bit-identity and memoization.

The batch kernels buy their speed purely from numpy dispatch economics;
nothing about the outputs may change.  These tests pin that contract
with randomized equivalence checks against the scalar reference paths
(including exact-zero LLRs and sign ties, where a sloppy vectorization
diverges first) and assert that the caches the hot loop depends on
actually hit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DCI_CRC_LEN, MAX_RNTI
from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.phy import polar
from repro.phy.coreset import Coreset, SearchSpace, _candidate_starts
from repro.phy.crc import crc_generator_matrix, crc_parity, \
    crc_remainder, crc_remainder_batch
from repro.phy.modulation import QAM16, QPSK, demodulate_qpsk, \
    demodulate_soft, demodulate_soft_batch
from repro.phy.pdcch import CandidateLayout, PdcchCandidate, \
    _gather_candidate, candidate_energy, dci_crc_attach, \
    dci_crc_attach_batch, dci_crc_check, dci_crc_check_batch, \
    dci_crc_syndromes
from repro.phy.resource_grid import ResourceGrid
from repro.phy.scrambling import descramble_llrs, descramble_signs, \
    gold_sequence, sign_cache_stats

#: (k, E) pairs the PDCCH path actually uses: E = 108 * level, k = DCI
#: payload + CRC for the two monitored formats.
CODE_SHAPES = [(44, 108), (65, 108), (44, 216), (65, 216),
               (44, 432), (65, 432), (65, 864), (12, 108), (100, 216)]

#: LLR values drawn from a small integer lattice so exact zeros and
#: magnitude ties occur constantly — the regime where min-sum sign
#: conventions diverge if the batched kernel is not truly identical.
llr_values = st.integers(min_value=-6, max_value=6).map(
    lambda v: v / 2.0)


class TestDecodeBatchEquivalence:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_decode_rowwise(self, data):
        k, e = data.draw(st.sampled_from(CODE_SHAPES))
        batch = data.draw(st.integers(min_value=1, max_value=6))
        code = polar.construct(k, e)
        rows = data.draw(st.lists(
            st.lists(llr_values, min_size=e, max_size=e),
            min_size=batch, max_size=batch))
        llrs = np.array(rows, dtype=np.float64)
        out = polar.decode_batch(llrs, code)
        assert out.shape == (batch, k)
        for row in range(batch):
            scalar = polar.decode(llrs[row], code)
            assert np.array_equal(out[row], scalar), \
                f"row {row} diverged for (k={k}, E={e})"

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_joint_matches_separate_decodes(self, data):
        e = data.draw(st.sampled_from([108, 216, 432]))
        k_pair = data.draw(st.sampled_from([(65, 44), (80, 30),
                                            (65, 65)]))
        codes = tuple(polar.construct(k, e) for k in k_pair)
        batch = data.draw(st.integers(min_value=1, max_value=4))
        rows = data.draw(st.lists(
            st.lists(llr_values, min_size=e, max_size=e),
            min_size=batch, max_size=batch))
        llrs = np.array(rows, dtype=np.float64)
        joint = polar.decode_batch_joint(llrs, codes)
        assert len(joint) == len(codes)
        for code, out in zip(codes, joint):
            assert np.array_equal(out, polar.decode_batch(llrs, code))

    def test_decoded_bits_roundtrip_encode(self):
        # Noise-free sanity: decode_batch inverts encode for every shape.
        rng = np.random.default_rng(7)
        for k, e in CODE_SHAPES:
            code = polar.construct(k, e)
            info = rng.integers(0, 2, size=(3, k)).astype(np.uint8)
            llrs = np.stack([1.0 - 2.0 * polar.encode(row, code)
                             for row in info])
            assert np.array_equal(polar.decode_batch(llrs, code), info)


#: Rate-matched lengths of the PDCCH levels and the code tuples one
#: block carries (two DCI sizes, or one).
MIXED_ES = [108, 216, 432, 864]
K_TUPLES = [(65, 44), (80, 30), (65, 65), (44,), (12, 100)]


def lattice_llrs(seed, rows, e):
    """``(rows, e)`` LLRs on the half-integer lattice (zeros and ties)."""
    rng = np.random.default_rng(seed)
    return rng.integers(-6, 7, size=(rows, e)) / 2.0


def assert_blocks_match_scalar(blocks, outs):
    assert len(outs) == len(blocks)
    for (llrs, codes), block_outs in zip(blocks, outs):
        assert len(block_outs) == len(codes)
        for code, out in zip(codes, block_outs):
            assert out.dtype == np.uint8
            assert out.shape == (llrs.shape[0], code.info_len)
            for row in range(llrs.shape[0]):
                assert np.array_equal(out[row], polar.decode(llrs[row],
                                                             code)), \
                    f"row {row} diverged for (K={code.info_len}," \
                    f" E={code.rate_matched_len})"


class TestDecodeBlocks:
    """One traversal over mixed codes equals the scalar decoder."""

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_mixed_blocks_match_scalar_decode(self, data):
        blocks = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            e = data.draw(st.sampled_from(MIXED_ES))
            ks = data.draw(st.sampled_from(K_TUPLES))
            rows = data.draw(st.integers(min_value=0, max_value=68))
            seed = data.draw(st.integers(min_value=0,
                                         max_value=2 ** 32 - 1))
            blocks.append((lattice_llrs(seed, rows, e), tuple(
                polar.construct(k, e) for k in ks)))
        assert_blocks_match_scalar(blocks, polar.decode_blocks(blocks))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_traversal_in_random_slices_matches_decode_blocks(self, data):
        """A traversal stepped in slices of any size, across pass
        boundaries and with other decodes in between, returns the bits
        of one uninterrupted :func:`polar.decode_blocks`."""
        blocks = []
        for index in range(data.draw(st.integers(min_value=1,
                                                 max_value=3))):
            e = data.draw(st.sampled_from(MIXED_ES))
            ks = data.draw(st.sampled_from(K_TUPLES))
            # The first block alone can fill more than one pass.
            widest = polar.PROGRAM_WIDTHS[-1]
            low = widest // 2 if index == 0 else 0
            rows = data.draw(st.integers(min_value=low,
                                         max_value=widest + 4))
            seed = data.draw(st.integers(min_value=0,
                                         max_value=2 ** 32 - 1))
            blocks.append((lattice_llrs(seed, rows, e), tuple(
                polar.construct(k, e) for k in ks)))
        traversal = polar.Traversal(blocks)
        assert traversal.remaining == traversal.n_ops > 0
        cuts = sorted(data.draw(st.lists(st.integers(
            min_value=0, max_value=traversal.n_ops), max_size=8)))
        for cut in cuts + [traversal.n_ops]:
            if traversal.remaining:
                with pytest.raises(polar.PolarError):
                    traversal.result()
            traversal.step(cut - (traversal.n_ops - traversal.remaining))
            assert traversal.remaining == traversal.n_ops - cut
            if cut < traversal.n_ops and data.draw(st.booleans()):
                # Another decode mid-traversal takes its own engine.
                other = (blocks[-1][0][:2], blocks[-1][1])
                assert_blocks_match_scalar([other],
                                           polar.decode_blocks([other]))
        got = traversal.result()
        want = polar.decode_blocks(blocks)
        assert len(got) == len(want)
        for got_block, want_block in zip(got, want):
            for got_bits, want_bits in zip(got_block, want_block):
                assert got_bits.dtype == np.uint8
                assert np.array_equal(got_bits, want_bits)

    def test_rows_beyond_program_width_run_in_chunks(self):
        # W + 1 replicas per code of the smaller mother code, next to a
        # block of the largest one: passes of W, W and 3 + 2 rows,
        # shifted info sets.
        rows = polar.PROGRAM_WIDTHS[-1] + 1
        blocks = [(lattice_llrs(5, rows, 108), (polar.construct(65, 108),
                                                polar.construct(44, 108))),
                  (lattice_llrs(6, 3, 864), (polar.construct(65, 864),))]
        assert_blocks_match_scalar(blocks, polar.decode_blocks(blocks))

    @pytest.mark.parametrize("rows", sorted(
        {n for width in polar.PROGRAM_WIDTHS for n in (width, width + 1)}
        | {2 * polar.PROGRAM_WIDTHS[-1] + 1}))
    def test_each_side_of_every_width(self, rows, monkeypatch):
        """A traversal of ``rows`` replicas runs one pass at the
        smallest width that holds them (passes of the widest beyond
        it), and its bits equal the scalar decode."""
        code = polar.construct(44, 108)
        blocks = [(lattice_llrs(rows, rows, 108), (code,))]
        widths = []
        program = polar._Engine.program

        def spy(engine, frozen_bytes, width):
            widths.append(width)
            return program(engine, frozen_bytes, width)

        monkeypatch.setattr(polar._Engine, "program", spy)
        traversal = polar.Traversal(blocks)
        widest = polar.PROGRAM_WIDTHS[-1]
        full, rest = divmod(rows, widest)
        assert widths == [widest] * full \
            + ([polar.fitted_width(rest)] if rest else [])
        assert traversal.n_ops % len(widths) == 0
        traversal.step(traversal.n_ops)
        assert_blocks_match_scalar(blocks, traversal.result())

    def test_fitted_width_is_the_smallest_that_holds_the_rows(self):
        widths = polar.PROGRAM_WIDTHS
        assert list(widths) == sorted(set(widths))
        for rows in range(1, widths[-1] + 1):
            width = polar.fitted_width(rows)
            assert width in widths and width >= rows
            assert all(w < rows for w in widths if w < width)
        assert polar.fitted_width(widths[-1] + 1) == widths[-1]

    def test_overlapping_call_gets_its_own_engine(self, monkeypatch):
        codes = (polar.construct(65, 216), polar.construct(44, 216))
        outer = lattice_llrs(7, 4, 216)
        inner = lattice_llrs(8, 6, 216)
        polar.decode_batch_joint(outer, codes)  # an idle engine exists
        engines, nested = [], []
        load = polar._Engine.load

        def reentrant(engine, llrs, offsets):
            engines.append(engine)
            if not nested:
                # A second decode while the outer one holds the idle
                # engine (and is about to run on it) must not share it.
                nested.append(None)
                nested[0] = polar.decode_batch_joint(inner, codes)
            load(engine, llrs, offsets)

        monkeypatch.setattr(polar._Engine, "load", reentrant)
        got = polar.decode_batch_joint(outer, codes)
        assert len(engines) == 2 and engines[0] is not engines[1]
        assert_blocks_match_scalar([(outer, codes)], [got])
        assert_blocks_match_scalar([(inner, codes)], nested)

    def test_empty_and_mismatched_blocks(self):
        code = polar.construct(44, 108)
        assert polar.decode_blocks([]) == []
        out = polar.decode_blocks([(np.zeros((0, 108), dtype=np.float64),
                                    (code,))])
        assert out[0][0].shape == (0, 44)
        with pytest.raises(polar.PolarError):
            polar.decode_blocks([(np.zeros((2, 216), dtype=np.float64),
                                  (code,))])
        with pytest.raises(polar.PolarError):
            polar.decode_blocks([(np.zeros(108, dtype=np.float64),
                                  (code,))])


class TestCrcBatchEquivalence:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_remainder_batch_matches_rowwise(self, data):
        name = data.draw(st.sampled_from(["crc24c", "crc24a", "crc16"]))
        width = data.draw(st.integers(min_value=1, max_value=96))
        batch = data.draw(st.integers(min_value=1, max_value=5))
        bits = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=width, max_size=width),
            min_size=batch, max_size=batch)), dtype=np.uint8)
        got = crc_remainder_batch(bits, name)
        for row in range(batch):
            assert np.array_equal(got[row], crc_remainder(bits[row],
                                                          name))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_dci_check_batch_matches_scalar(self, data):
        payload_len = data.draw(st.integers(min_value=12,
                                            max_value=80))
        rnti = data.draw(st.integers(min_value=1, max_value=0xFFF0))
        payload = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=payload_len,
            max_size=payload_len)), dtype=np.uint8)
        good = dci_crc_attach(payload, rnti)
        corrupted = good.copy()
        corrupted[data.draw(st.integers(0, good.size - 1))] ^= 1
        wrong_rnti = rnti ^ 0x0004
        blocks = np.stack([good, corrupted, good])
        rntis = np.array([rnti, rnti, wrong_rnti])
        got = dci_crc_check_batch(blocks, rntis)
        expected = [dci_crc_check(blocks[i], int(rntis[i]))
                    for i in range(3)]
        assert got.tolist() == expected
        assert expected[0] is True

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_syndrome_verdict_matches_scalar_check(self, data):
        """``syndrome == rnti & MAX_RNTI`` is the CRC check's verdict on
        any rows and RNTIs, and a CRC-attached row's syndrome is its
        masked RNTI.  Above ``MAX_RNTI`` the batch check masks the RNTI
        as the gNB does, and the scalar check, which refuses such an
        RNTI, is asked about its masked 16 bits."""
        k = data.draw(st.integers(min_value=DCI_CRC_LEN - 2,
                                  max_value=96))
        batch = data.draw(st.integers(min_value=1, max_value=6))
        rntis = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=batch, max_size=batch)), dtype=np.int64)
        blocks = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            min_size=batch, max_size=batch)), dtype=np.uint8)
        if k > DCI_CRC_LEN:
            # Half the rows carry a real CRC under their own RNTI.
            attached = dci_crc_attach_batch(blocks[:, :-DCI_CRC_LEN],
                                            rntis)
            blocks[::2] = attached[::2]
            assert (dci_crc_syndromes(attached)
                    == rntis & MAX_RNTI).all()
        syndromes = dci_crc_syndromes(blocks)
        assert syndromes.dtype == np.int64
        verdicts = (syndromes == rntis & MAX_RNTI).tolist()
        assert verdicts == [dci_crc_check(row, int(rnti) & MAX_RNTI)
                            for row, rnti in zip(blocks, rntis)]
        assert verdicts == dci_crc_check_batch(blocks, rntis).tolist()
        if k > DCI_CRC_LEN:
            assert all(verdicts[::2])

    def test_generator_matrix_is_cached_and_frozen(self):
        before = crc_generator_matrix.cache_info().hits
        m1 = crc_generator_matrix(89, "crc24c")
        m2 = crc_generator_matrix(89, "crc24c")
        assert m1 is m2
        assert crc_generator_matrix.cache_info().hits > before
        assert not m1.flags.writeable


class TestKernelCaches:
    def test_polar_construct_and_reliability_order_hit(self):
        polar.construct(65, 216)
        c_before = polar.construct.cache_info().hits
        r_before = polar.reliability_order.cache_info().hits
        code = polar.construct(65, 216)
        polar.reliability_order(code.n)
        assert polar.construct.cache_info().hits == c_before + 1
        assert polar.reliability_order.cache_info().hits > r_before

    def test_sc_plan_is_compiled_once_per_frozen_mask(self):
        code = polar.construct(44, 108)
        llrs = np.ones((2, 108), dtype=np.float64)
        polar.decode_batch(llrs, code)
        plans = polar._sc_plan.cache_info().misses
        programs = polar._Engine.compiled
        polar.decode_batch(llrs, code)
        assert polar._sc_plan.cache_info().misses == plans
        assert polar._Engine.compiled == programs

    def test_gold_descramble_signs_hit(self):
        llrs = np.ones((3, 216), dtype=np.float64)
        descramble_llrs(llrs, c_init=0x1234)
        before = sign_cache_stats()
        descramble_llrs(llrs, c_init=0x1234)
        after = sign_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_shared_cached_arrays_are_read_only(self):
        """Every cached array a later slot reuses refuses writes: a
        caller that mutated one would corrupt every slot after it."""
        from repro.core.dci_decoder import GridDciDecoder, \
            _common_layout, _window_layout
        from repro.core.rach_sniffer import SpaceSnapshot
        from repro.phy import pdcch

        coreset = SRSRAN_PROFILE.dedicated_coreset()
        dmrs = pdcch._dmrs_layout(coreset, 0, 2)
        common, _ = _common_layout(SRSRAN_PROFILE.common_search_space(),
                                   SRSRAN_PROFILE.dci_size_config(), 1)
        decoder = GridDciDecoder(SRSRAN_PROFILE.dci_size_config(), n_id=1,
                                 noise_var=0.01)
        gathered = decoder.gather(
            ResourceGrid(SRSRAN_PROFILE.n_prb), 3,
            SpaceSnapshot({0x4601: SearchSpace(
                search_space_id=1, coreset=coreset, is_common=False,
                candidates_per_level={2: 2, 4: 2})}))
        search = gathered.layout
        window = _window_layout([gathered, gathered])
        shared = {
            "candidate indices": pdcch._candidate_flat_indices(
                coreset, 0, 2),
            "level matrix": pdcch._level_index_matrix(coreset, 2),
            "dmrs flat": dmrs.flat,
            "dmrs reg order": dmrs.reg_order,
            "dmrs pilots": pdcch._dmrs_pilots(1, 3, 1, 12, 30),
            "scrambling index": pdcch._scrambled_qpsk_index(1, 216),
            "descramble signs": descramble_signs(0x1234, 216),
            "polar generator": polar._generator(44, 216),
            "common flat": common.flat,
            "common row widths": common.row_widths,
            "common signs": common.signs[0],
            "search flat": search.candidates.flat,
            "search signs": search.candidates.signs[0],
            "entry row": search.entry_row,
            "window flat": window.candidates.flat,
            "window rows": window.rows,
            "window row fits": window.row_fits,
            "window format rows": window.format_rows[0],
            "window entry row": window.entry_row,
            "window entry rnti": window.entry_masked,
            "window entry start": window.entry_start,
            "window entry end": window.entry_end,
            "window entry slot": window.entry_slot,
        }
        for name, array in shared.items():
            assert array.size, name
            first = (0,) * array.ndim
            with pytest.raises(ValueError, match="read-only"):
                array[first] = array[first]
            with pytest.raises(ValueError, match="read-only"):
                array += array

    def test_gold_sequence_served_from_cache(self):
        first = gold_sequence(0x4242, 512)
        second = gold_sequence(0x4242, 256)
        assert np.array_equal(second, first[:256])

    def test_candidate_hash_is_memoized(self):
        coreset = Coreset(coreset_id=1, first_prb=0, n_prb=48,
                          n_symbols=1)
        space = SearchSpace(search_space_id=1, coreset=coreset,
                            is_common=False,
                            candidates_per_level={2: 2, 4: 2})
        space.candidate_cces(2, slot_index=3, rnti=0x4601)
        before = _candidate_starts.cache_info().hits
        again = space.candidate_cces(2, slot_index=3, rnti=0x4601)
        assert _candidate_starts.cache_info().hits == before + 1
        assert again == space.candidate_cces(2, slot_index=3,
                                             rnti=0x4601)


class TestSearchSpaceHashing:
    def test_equal_spaces_share_a_hash(self):
        coreset = Coreset(coreset_id=0, first_prb=0, n_prb=48,
                          n_symbols=1)
        a = SearchSpace(1, coreset, False, {2: 2, 4: 1})
        b = SearchSpace(1, coreset, False, {2: 2, 4: 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_level_order_changes_the_hash(self):
        # Plan caches key on the hash; spaces that enumerate levels in a
        # different order must not collide (their scalar iteration order
        # differs even though dict equality ignores order).
        coreset = Coreset(coreset_id=0, first_prb=0, n_prb=48,
                          n_symbols=1)
        a = SearchSpace(1, coreset, False, {2: 2, 4: 1})
        b = SearchSpace(1, coreset, False, {4: 1, 2: 2})
        assert a == b
        assert hash(a) != hash(b)


class TestCandidateLayout:
    """One gather over many candidates reads, gates and demodulates
    each candidate exactly as the per-candidate kernels do."""

    def test_rows_match_per_candidate_kernels(self):
        rng = np.random.default_rng(11)
        grid = ResourceGrid(SRSRAN_PROFILE.n_prb)
        grid.data[:] = rng.normal(size=grid.data.shape) \
            + 1j * rng.normal(size=grid.data.shape)
        groups = [(coreset, level,
                   list(range(0, coreset.n_cces - level + 1, level)))
                  for coreset in (SRSRAN_PROFILE.coreset0(),
                                  SRSRAN_PROFILE.dedicated_coreset())
                  for level in (1, 2, 4, 8)]
        c_init = 0x1F5
        layout = CandidateLayout.build(groups, c_init)
        candidates = [(coreset, PdcchCandidate(start, level))
                      for coreset, level, starts in groups
                      for start in starts]
        assert layout.n_rows == len(candidates)
        values = layout.gather(grid)
        energies = layout.energies(values)
        for (coreset, candidate), energy in zip(candidates, energies):
            assert energy.tobytes() == np.float64(candidate_energy(
                grid, coreset, candidate)).tobytes()
        keep = rng.random(layout.n_rows) < 0.5
        blocks = layout.split(
            demodulate_qpsk(layout.select(values, keep), 0.2), keep)
        want = [descramble_llrs(demodulate_soft(
            _gather_candidate(grid, coreset, candidate), QPSK, 0.2), c_init)
            for (coreset, candidate), kept in zip(candidates, keep)
            if kept]
        got = [row for block in blocks for row in block]
        assert len(got) == len(want) == int(keep.sum())
        for row, expected in zip(got, want):
            assert row.tobytes() == expected.tobytes()



def _kernel_inputs():
    """Small inputs for every kernel of :data:`KERNEL_CASES`."""
    rng = np.random.default_rng(5)
    grid = ResourceGrid(SRSRAN_PROFILE.n_prb)
    grid.data[:] = rng.normal(size=grid.data.shape) \
        + 1j * rng.normal(size=grid.data.shape)
    coreset = SRSRAN_PROFILE.coreset0()
    layout = CandidateLayout.build([(coreset, 4, [0, 4])], 0x1F5)
    return SimpleNamespace(
        code=polar.construct(44, 108),
        info=rng.integers(0, 2, size=(3, 44)).astype(np.uint8),
        u=rng.integers(0, 2, size=(3, 64)).astype(np.uint8),
        llrs=lattice_llrs(5, 3, 108),
        bits=rng.integers(0, 2, size=(3, 40)).astype(np.uint8),
        rntis=np.array([0x4601, 0x4602, 0xFFFF], dtype=np.int64),
        symbols=rng.normal(size=(3, 54)) + 1j * rng.normal(size=(3, 54)),
        grid=grid, coreset=coreset, layout=layout,
        values=layout.gather(grid), keep=np.array([True, False]),
        first=PdcchCandidate(0, 4))


def _crc_blocks(k):
    return dci_crc_attach_batch(k.bits, k.rntis)


#: ``name -> (batch call, scalar twin call or None, dtype, rank)`` for
#: every kernel whose docstring carries a ``Layout: return`` line, plus
#: :func:`dci_crc_check_batch`, whose twin returns a bool.  Each call
#: takes the :func:`_kernel_inputs` namespace.
KERNEL_CASES = {
    "polar._transform": (
        lambda k: polar._transform(k.u), None, np.uint8, 2),
    "polar.encode_batch": (
        lambda k: polar.encode_batch(k.info, k.code),
        lambda k: polar.encode(k.info[0], k.code), np.uint8, 2),
    "polar.decode_batch": (
        lambda k: polar.decode_batch(k.llrs, k.code),
        lambda k: polar.decode(k.llrs[0], k.code), np.uint8, 2),
    "polar.decode_blocks": (
        lambda k: polar.decode_blocks([(k.llrs, (k.code,))])[0][0],
        None, np.uint8, 2),
    "crc.crc_remainder_batch": (
        lambda k: crc_remainder_batch(k.bits, "crc24c"),
        lambda k: crc_remainder(k.bits[0], "crc24c"), np.uint8, 2),
    "crc.crc_parity": (
        lambda k: crc_parity(k.bits[0], "crc24c"), None, np.uint8, 1),
    "pdcch.dci_crc_attach_batch": (
        _crc_blocks,
        lambda k: dci_crc_attach(k.bits[0], int(k.rntis[0])), np.uint8, 2),
    "pdcch.dci_crc_check_batch": (
        lambda k: dci_crc_check_batch(_crc_blocks(k), k.rntis),
        lambda k: dci_crc_check(_crc_blocks(k)[0], int(k.rntis[0])),
        np.bool_, 1),
    "pdcch.dci_crc_syndromes": (
        lambda k: dci_crc_syndromes(_crc_blocks(k)), None, np.int64, 1),
    "scrambling.descramble_llrs": (
        lambda k: descramble_llrs(k.llrs, 0x1F5),
        lambda k: descramble_llrs(k.llrs[0], 0x1F5), np.float64, 2),
    "modulation.demodulate_soft_batch[QPSK]": (
        lambda k: demodulate_soft_batch(k.symbols, QPSK, 0.2),
        lambda k: demodulate_soft(k.symbols[0], QPSK, 0.2), np.float64, 2),
    "modulation.demodulate_soft_batch[16QAM]": (
        lambda k: demodulate_soft_batch(k.symbols, QAM16, 0.2),
        lambda k: demodulate_soft(k.symbols[0], QAM16, 0.2),
        np.float64, 2),
    "modulation.demodulate_qpsk": (
        lambda k: demodulate_qpsk(k.symbols.reshape(-1), 0.2),
        lambda k: demodulate_soft(k.symbols.reshape(-1), QPSK, 0.2),
        np.float64, 1),
    "pdcch.CandidateLayout.energies": (
        lambda k: k.layout.energies(k.values),
        lambda k: candidate_energy(k.grid, k.coreset, k.first),
        np.float64, 1),
    "pdcch.CandidateLayout.select": (
        lambda k: k.layout.select(k.values, k.keep),
        lambda k: _gather_candidate(k.grid, k.coreset, k.first),
        np.complex128, 1),
}


class TestKernelDtypes:
    """Each batch kernel returns the dtype and rank its ``Layout:``
    docstring line states, and the dtype its scalar twin returns: a
    twin that drifts (a bool verdict turned uint8, float64 LLRs turned
    float32) breaks bit identity downstream even when values agree."""

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_output_dtype_rank_and_twin(self, name):
        batch, scalar, dtype, rank = KERNEL_CASES[name]
        inputs = _kernel_inputs()
        out = batch(inputs)
        assert out.dtype == dtype, f"{name} returned {out.dtype}"
        assert out.ndim == rank, f"{name} returned rank {out.ndim}"
        if scalar is not None:
            twin = np.asarray(scalar(inputs))
            assert twin.dtype == out.dtype, \
                f"{name} returns {out.dtype}, its scalar twin {twin.dtype}"
