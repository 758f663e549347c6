"""Tests for MCS tables (38.214 5.1.3.1) and TBS calculation (5.1.3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.mcs_tables import (
    McsError,
    TABLE_QAM64,
    TABLE_QAM256,
    max_mcs_index,
    mcs_entry,
    mcs_for_spectral_efficiency,
)
from repro.phy.tbs import (
    TBS_TABLE,
    TbsError,
    effective_res,
    transport_block_size,
)


class TestMcsTables:
    def test_table_sizes(self):
        assert len(TABLE_QAM64) == 29
        assert len(TABLE_QAM256) == 28

    def test_known_rows_qam64(self):
        row0 = mcs_entry(0, "qam64")
        assert (row0.qm, row0.code_rate_x1024) == (2, 120)
        row28 = mcs_entry(28, "qam64")
        assert (row28.qm, row28.code_rate_x1024) == (6, 948)

    def test_known_rows_qam256(self):
        # Appendix B sample: mcs=27 in the 256QAM table, R=0.926, 256QAM.
        row = mcs_entry(27, "qam256")
        assert row.qm == 8
        assert row.code_rate == pytest.approx(0.926, abs=0.001)

    def test_spectral_efficiency_nearly_monotone(self):
        # The real 38.214 tables have one tiny dip at the 16QAM/64QAM
        # boundary (qam64 index 16 -> 17: 2.5703 -> 2.5664), so require
        # non-decreasing only up to that tolerance.
        for table in (TABLE_QAM64, TABLE_QAM256):
            effs = [row.spectral_efficiency for row in table]
            for prev, cur in zip(effs, effs[1:]):
                assert cur > prev - 0.005

    def test_out_of_range(self):
        with pytest.raises(McsError):
            mcs_entry(29, "qam64")
        with pytest.raises(McsError):
            mcs_entry(-1, "qam64")
        with pytest.raises(McsError):
            mcs_entry(0, "qam1024")

    def test_max_index(self):
        assert max_mcs_index("qam64") == 28
        assert max_mcs_index("qam256") == 27

    def test_link_adaptation_selection(self):
        # A very clean channel should select the top MCS; a terrible one
        # the bottom.
        assert mcs_for_spectral_efficiency(10.0, "qam256").index == 27
        assert mcs_for_spectral_efficiency(0.01, "qam64").index == 0

    @given(st.floats(0.0, 8.0), st.sampled_from(["qam64", "qam256"]))
    @settings(max_examples=50, deadline=None)
    def test_property_selection_never_exceeds_target(self, eff, table):
        row = mcs_for_spectral_efficiency(eff, table)
        floor = mcs_entry(0, table).spectral_efficiency
        assert row.spectral_efficiency <= max(eff, floor)


class TestEffectiveRes:
    def test_cap_at_156(self):
        # Full 14-symbol allocation with no overhead: 168 REs capped to 156.
        assert effective_res(1, 14, 0, 0) == 156
        assert effective_res(10, 14, 0, 0) == 1560

    def test_typical_dmrs(self):
        # 12 symbols, 12 DMRS REs: 12*12 - 12 = 132 per PRB.
        assert effective_res(3, 12, 12, 0) == 396

    def test_overhead_subtracts(self):
        assert effective_res(1, 12, 12, 6) == 126

    def test_rejects_impossible(self):
        with pytest.raises(TbsError):
            effective_res(0, 12, 12, 0)
        with pytest.raises(TbsError):
            effective_res(1, 15, 12, 0)
        with pytest.raises(TbsError):
            effective_res(1, 1, 12, 0)  # all REs eaten by DMRS


class TestTransportBlockSize:
    def test_small_allocation_lands_in_table(self):
        result = transport_block_size(1, 12, mcs_entry(0, "qam64"))
        assert result.tbs_bits in TBS_TABLE

    def test_table_is_sorted_and_byte_aligned(self):
        assert list(TBS_TABLE) == sorted(TBS_TABLE)
        assert all(t % 8 == 0 for t in TBS_TABLE)
        assert TBS_TABLE[-1] == 3824

    def test_monotone_in_prbs(self):
        mcs = mcs_entry(10, "qam64")
        sizes = [transport_block_size(n, 12, mcs).tbs_bits
                 for n in range(1, 60)]
        assert sizes == sorted(sizes)

    def test_monotone_in_mcs(self):
        # Same caveat as spectral efficiency: the qam64 table dips once at
        # index 16 -> 17, so compare each entry to the running maximum
        # with one-table-step slack.
        sizes = [transport_block_size(10, 12, mcs_entry(i, "qam64")).tbs_bits
                 for i in range(29)]
        for prev, cur in zip(sizes, sizes[1:]):
            assert cur >= prev * 0.95

    def test_layers_scale(self):
        mcs = mcs_entry(15, "qam64")
        one = transport_block_size(20, 12, mcs, n_layers=1).tbs_bits
        two = transport_block_size(20, 12, mcs, n_layers=2).tbs_bits
        assert two > 1.8 * one

    def test_large_branch_byte_alignment(self):
        # N_info > 3824 path: TBS + 24 must be divisible by 8.
        result = transport_block_size(51, 12, mcs_entry(27, "qam256"),
                                      n_layers=2)
        assert result.n_info > 3824
        assert (result.tbs_bits + 24) % 8 == 0

    def test_appendix_b_sample_exact(self):
        """The paper's Appendix B grant: mcs=27/256QAM, nof_re=432, tbs=3240.

        N_info = 432 * (948/1024) * 8 = 3199.5 <= 3824, quantised with
        n = 5 to 3168... using the printed R=0.926: 432 * 0.926 * 8 = 3200,
        quantised to 3200, and the smallest table TBS >= 3200 is 3240 -
        exactly the value in the sample grant.
        """
        mcs = mcs_entry(27, "qam256")
        result = transport_block_size(3, 12, mcs, n_layers=1,
                                      n_dmrs_per_prb=0, n_oh_per_prb=0)
        assert result.n_re == 432
        assert result.tbs_bits == 3240

    def test_rejects_bad_layers(self):
        with pytest.raises(TbsError):
            transport_block_size(1, 12, mcs_entry(0, "qam64"), n_layers=5)

    @given(st.integers(1, 100), st.integers(2, 14), st.integers(0, 28),
           st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_property_tbs_below_capacity(self, n_prb, n_sym, mcs_idx, layers):
        """TBS never exceeds the raw physical bit capacity."""
        mcs = mcs_entry(mcs_idx, "qam64")
        result = transport_block_size(n_prb, n_sym, mcs, n_layers=layers,
                                      n_dmrs_per_prb=12)
        capacity = result.n_re * mcs.qm * layers
        assert 0 < result.tbs_bits <= capacity

    @given(st.integers(1, 60), st.integers(0, 27))
    @settings(max_examples=40, deadline=None)
    def test_property_large_branch_alignment(self, n_prb, mcs_idx):
        result = transport_block_size(n_prb, 12, mcs_entry(mcs_idx, "qam256"))
        if result.n_info > 3824:
            assert (result.tbs_bits + 24) % 8 == 0
        else:
            assert result.tbs_bits in TBS_TABLE


class TestTbsMemo:
    def test_cached_result_equals_fresh_computation(self):
        fresh = transport_block_size.__wrapped__
        for n_prb in (1, 7, 51, 273):
            for n_sym in (2, 9, 12, 14):
                for mcs_idx in (0, 13, 27):
                    mcs = mcs_entry(mcs_idx, "qam256")
                    for layers in (1, 2, 4):
                        expected = fresh(n_prb, n_sym, mcs,
                                         n_layers=layers)
                        for _ in range(2):
                            assert transport_block_size(
                                n_prb, n_sym, mcs,
                                n_layers=layers) == expected

    @pytest.mark.parametrize("kwargs", [
        dict(n_prb=0, n_symbols=12), dict(n_prb=4, n_symbols=15),
        dict(n_prb=4, n_symbols=12, n_layers=5),
        dict(n_prb=4, n_symbols=1, n_dmrs_per_prb=12),
    ])
    def test_invalid_arguments_raise_every_call(self, kwargs):
        mcs = mcs_entry(5, "qam64")
        for _ in range(3):
            with pytest.raises(TbsError):
                transport_block_size(mcs=mcs, **kwargs)
