"""Tests for the MAC scheduler policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.gnb.scheduler import (
    AllocationPlan,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    SchedulerError,
    UeSchedulingContext,
    build_dci,
)
from repro.phy.dci import DciFormat
from repro.phy.grant import dci_to_grant
from repro.phy.mcs_tables import TABLES


def make_scheduler(cls=RoundRobinScheduler, **kwargs):
    return cls(SRSRAN_PROFILE.grant_config(),
               SRSRAN_PROFILE.ue_search_space(), **kwargs)


def ue_ctx(ue_id, dl=10000, ul=0, cqi=12, **kwargs):
    return UeSchedulingContext(ue_id=ue_id, rnti=0x4600 + ue_id,
                               dl_backlog_bytes=dl, ul_backlog_bytes=ul,
                               cqi=cqi, **kwargs)


class TestScheduling:
    def test_no_ues_no_plans(self):
        assert make_scheduler().schedule(0, []) == []

    def test_idle_ue_not_scheduled(self):
        plans = make_scheduler().schedule(0, [ue_ctx(0, dl=0, ul=0)])
        assert plans == []

    def test_backlogged_ue_scheduled(self):
        plans = make_scheduler().schedule(0, [ue_ctx(0)])
        assert len(plans) == 1
        assert plans[0].downlink

    def test_ul_grant_when_ul_backlog(self):
        plans = make_scheduler().schedule(0, [ue_ctx(0, dl=0, ul=5000)])
        assert len(plans) == 1
        assert not plans[0].downlink

    def test_dl_allocations_disjoint(self):
        ues = [ue_ctx(i, dl=50000) for i in range(4)]
        plans = make_scheduler().schedule(0, ues)
        dl_plans = [p for p in plans if p.downlink]
        spans = sorted((p.first_prb, p.first_prb + p.n_prb)
                       for p in dl_plans)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_allocation_within_carrier(self):
        ues = [ue_ctx(i, dl=10**6) for i in range(8)]
        plans = make_scheduler().schedule(0, ues)
        for plan in plans:
            assert plan.first_prb + plan.n_prb <= 51

    def test_pdcch_capacity_limits_ues(self):
        # 48-PRB 1-symbol CORESET = 8 CCEs; at AL2 that is at most 4
        # simultaneous DCIs, so 8 backlogged UEs cannot all be served.
        ues = [ue_ctx(i, dl=10**6, ul=10**4, cqi=15) for i in range(8)]
        plans = make_scheduler(max_ues_per_slot=8).schedule(0, ues)
        assert 0 < len(plans) <= 8
        served_ues = {p.ue_id for p in plans}
        assert len(served_ues) < 8

    def test_max_ues_per_slot_respected(self):
        ues = [ue_ctx(i, dl=100) for i in range(8)]
        plans = make_scheduler(max_ues_per_slot=2).schedule(0, ues)
        assert len({p.ue_id for p in plans}) <= 2

    def test_low_cqi_gets_low_mcs_and_high_al(self):
        good = make_scheduler().schedule(0, [ue_ctx(0, cqi=15)])[0]
        bad = make_scheduler().schedule(0, [ue_ctx(0, cqi=2)])[0]
        assert bad.mcs.index < good.mcs.index
        assert bad.candidate.aggregation_level >= \
            good.candidate.aggregation_level

    def test_small_backlog_small_allocation(self):
        small = make_scheduler().schedule(0, [ue_ctx(0, dl=100)])[0]
        large = make_scheduler().schedule(0, [ue_ctx(0, dl=10**6)])[0]
        assert small.n_prb < large.n_prb

    def test_retransmission_priority_and_size(self):
        ue = ue_ctx(0, dl=10**6,
                    pending_retx=[(3, True)],
                    retx_prb_sizes={(3, True): (7, 5, 7)})
        plans = make_scheduler().schedule(0, [ue])
        retx = [p for p in plans if p.is_retransmission]
        assert len(retx) == 1
        assert retx[0].retx_harq_id == 3
        assert retx[0].n_prb == 7
        # The retransmission reuses the original transmission's TDRA.
        assert (retx[0].time_alloc, retx[0].n_symbols) == (5, 7)
        assert plans.index(retx[0]) == 0  # retx scheduled first

    def test_small_payload_gets_short_allocation(self):
        # 30 bytes fit a single PRB over a short TDRA row at CQI 12.
        small = make_scheduler().schedule(0, [ue_ctx(0, dl=30)])[0]
        large = make_scheduler().schedule(0, [ue_ctx(0, dl=10**6)])[0]
        assert small.n_symbols < large.n_symbols
        assert large.n_symbols == 12
        # Both rows resolve through the shared TDRA table.
        from repro.phy.grant import time_allocation
        assert time_allocation(small.time_alloc)[1] == small.n_symbols
        assert time_allocation(large.time_alloc)[1] == large.n_symbols

    def test_rejects_bad_config(self):
        with pytest.raises(SchedulerError):
            make_scheduler(max_ues_per_slot=0)


class TestRoundRobinFairness:
    def test_rotation_serves_everyone(self):
        scheduler = make_scheduler(max_ues_per_slot=1)
        served = set()
        ues = [ue_ctx(i, dl=10**6) for i in range(4)]
        for slot in range(8):
            for plan in scheduler.schedule(slot, ues):
                served.add(plan.ue_id)
        assert served == {0, 1, 2, 3}


class TestProportionalFair:
    def test_starved_ue_prioritised(self):
        scheduler = make_scheduler(ProportionalFairScheduler,
                                   max_ues_per_slot=1)
        hungry = ue_ctx(0, cqi=12, ewma_throughput_bps=1e3)
        fed = ue_ctx(1, cqi=12, ewma_throughput_bps=1e8)
        plans = scheduler.schedule(0, [fed, hungry])
        assert plans[0].ue_id == 0

    def test_better_channel_prioritised_at_equal_history(self):
        scheduler = make_scheduler(ProportionalFairScheduler,
                                   max_ues_per_slot=1)
        good = ue_ctx(0, cqi=15, ewma_throughput_bps=1e6)
        bad = ue_ctx(1, cqi=3, ewma_throughput_bps=1e6)
        plans = scheduler.schedule(0, [bad, good])
        assert plans[0].ue_id == 0


class TestBuildDci:
    def test_plan_to_dci_to_grant(self):
        plan = make_scheduler().schedule(0, [ue_ctx(0)])[0]
        dci = build_dci(plan, 51, ndi=1, rv=0, harq_id=5)
        assert dci.format is DciFormat.DL_1_1
        assert dci.harq_id == 5
        grant = dci_to_grant(dci, SRSRAN_PROFILE.grant_config())
        assert grant.n_prb == plan.n_prb
        assert grant.first_prb == plan.first_prb

    def test_ul_plan_builds_ul_dci(self):
        plans = make_scheduler().schedule(0, [ue_ctx(0, dl=0, ul=1000)])
        dci = build_dci(plans[0], 51, ndi=0, rv=0, harq_id=0)
        assert dci.format is DciFormat.UL_0_1


# ------------------------------------------------------- TBS rows
def _tdra_symbol_counts():
    from repro.phy.grant import TDRA_TABLE
    return sorted({n_symbols for _, n_symbols, _ in TDRA_TABLE})


def _profile_configs():
    from repro.gnb.cell_config import ALL_PROFILES
    return [profile.grant_config() for profile in ALL_PROFILES.values()]


def _tbs(config, n_prb, n_symbols, mcs):
    from repro.phy.tbs import transport_block_size
    return transport_block_size(
        n_prb, n_symbols, mcs, n_layers=config.n_layers,
        n_dmrs_per_prb=config.n_dmrs_per_prb,
        n_oh_per_prb=config.xoverhead_res).tbs_bits


class TestTbsRows:
    """The scheduler bisects cached TBS rows, which is exact only while
    TBS never falls as PRBs grow."""

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_tbs_non_decreasing_in_prbs(self, table):
        from dataclasses import replace

        from repro.gnb.scheduler import tbs_row
        for config in _profile_configs():
            config = replace(config, mcs_table=table)
            for mcs in TABLES[table]:
                for n_symbols in _tdra_symbol_counts():
                    row = tbs_row(config, mcs, n_symbols)
                    assert len(row) == config.bwp_n_prb
                    assert row[0] == _tbs(config, 1, n_symbols, mcs)
                    assert row[-1] == _tbs(config, config.bwp_n_prb,
                                           n_symbols, mcs)
                    assert all(a <= b for a, b in zip(row, row[1:])), \
                        (config, mcs, n_symbols)

    def test_profiles_use_the_tables_checked(self):
        from repro.gnb.cell_config import ALL_PROFILES
        assert {p.mcs_table for p in ALL_PROFILES.values()} <= set(TABLES)

    def test_cap_beyond_the_bwp_rejected(self):
        from repro.phy.mcs_tables import mcs_entry
        with pytest.raises(SchedulerError, match="exceeds"):
            make_scheduler()._prbs_for_bytes(100, mcs_entry(10), 52)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_sizing_matches_a_linear_scan(self, data):
        from repro.gnb.cell_config import ALL_PROFILES
        from repro.gnb.scheduler import (
            DEFAULT_DATA_SYMBOLS, DEFAULT_TIME_ALLOC, SHORT_TIME_ALLOCS)
        profile = data.draw(st.sampled_from(sorted(ALL_PROFILES)))
        profile = ALL_PROFILES[profile]
        config = profile.grant_config()
        scheduler = RoundRobinScheduler(config, profile.ue_search_space())
        mcs = data.draw(st.sampled_from(TABLES[config.mcs_table]))
        n_symbols = data.draw(st.sampled_from(_tdra_symbol_counts()))
        bwp = config.bwp_n_prb
        max_prb = data.draw(st.one_of(st.just(1), st.just(bwp),
                                      st.integers(1, bwp)))
        backlog = data.draw(st.one_of(st.integers(0, 64),
                                      st.integers(0, 400_000)))
        target = max(backlog, 1) * 8

        # Linear scan: the first PRB count whose TBS covers the target.
        expected = next((n for n in range(1, max_prb + 1)
                         if _tbs(config, n, n_symbols, mcs) >= target),
                        max_prb)
        assert scheduler._prbs_for_bytes(backlog, mcs, max_prb,
                                         n_symbols=n_symbols) == expected

        expected_alloc = next(
            ((row, symbols) for row, symbols in SHORT_TIME_ALLOCS
             if _tbs(config, 1, symbols, mcs) >= target),
            (DEFAULT_TIME_ALLOC, DEFAULT_DATA_SYMBOLS))
        assert scheduler._time_alloc_for(backlog, mcs) == expected_alloc
