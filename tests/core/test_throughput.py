"""Tests for the sliding-window per-UE rate, read from the telemetry
store by ``NRScope.per_ue_throughput``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rach_sniffer import RachSniffer
from repro.core.scope import NRScope, ScopeError
from repro.core.telemetry import TelemetryRecord
from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.radio.medium import Link
from repro.rrc.messages import RrcSetup

UE = 0x4601


def make_scope(window_s, rntis=(UE,), idle_timeout_s=10.0):
    """A synchronized scope tracking ``rntis`` since t = 0, no rows."""
    scope = NRScope(Link(20.0), window_s=window_s,
                    idle_timeout_s=idle_timeout_s)
    scope.rach = RachSniffer(bwp_n_prb=51)
    setup = RrcSetup(tc_rnti=rntis[0],
                     search_space=SRSRAN_PROFILE.search_space_config(),
                     mcs_table="qam256", max_mimo_layers=2)
    for rnti in rntis:
        scope.rach.discover(rnti, 0.0, setup)
    return scope


def add(scope, time_s, tbs_bits, rnti=UE, downlink=True, retx=False):
    """Commit one decoded DCI row, as the sink stage would."""
    scope.telemetry.add(TelemetryRecord(
        slot_index=int(round(time_s * 2000)), time_s=time_s, rnti=rnti,
        downlink=downlink, tbs_bits=tbs_bits, n_prb=10, n_symbols=12,
        mcs_index=10, harq_id=0, ndi=0, rv=0, is_retransmission=retx,
        aggregation_level=4))


def rate(scope, now_s, rnti=UE, downlink=True):
    return scope.per_ue_throughput(now_s, downlink)[rnti]


class TestSlidingWindow:
    def test_constant_stream(self):
        scope = make_scope(window_s=0.1)
        # 1000 bits every 1 ms = 1 Mbps.
        for i in range(500):
            add(scope, i * 1e-3, 1000)
        assert rate(scope, 0.499) == pytest.approx(1e6, rel=0.02)

    def test_rate_decays_after_traffic_stops(self):
        scope = make_scope(window_s=0.1)
        for i in range(100):
            add(scope, i * 1e-3, 1000)
        busy = rate(scope, 0.1)
        assert rate(scope, 0.5) == 0.0
        assert busy > 0

    def test_window_eviction_exact(self):
        scope = make_scope(window_s=1.0)
        add(scope, 0.0, 100)
        add(scope, 0.5, 200)
        assert rate(scope, 0.9) == 300.0
        # A row at exactly now - window has left the window.
        assert rate(scope, 1.0) == 200.0
        assert rate(scope, 1.05) == 200.0

    def test_retransmissions_not_counted(self):
        scope = make_scope(window_s=1.0)
        add(scope, 0.1, 1000)
        add(scope, 0.2, 1000, retx=True)
        assert rate(scope, 0.5) == 1000.0

    def test_validation(self):
        with pytest.raises(ScopeError):
            NRScope(Link(20.0), window_s=0.0)
        with pytest.raises(ScopeError):
            NRScope(Link(20.0), window_s=-0.2)

    @given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 10**6)),
                    min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_property_total_bits_conserved(self, samples):
        # A window reaching back past every row holds all their bits.
        scope = make_scope(window_s=200.5)
        for t, bits in sorted(samples):
            add(scope, t, bits)
        assert rate(scope, 100.0) == sum(b for _, b in samples) / 200.5

    @given(st.floats(0.01, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_property_rate_nonnegative(self, window):
        scope = make_scope(window_s=window)
        add(scope, 1.0, 500)
        assert rate(scope, 1.0) >= 0.0


class TestBank:
    """The per-UE, per-direction view over the tracked table."""

    def test_per_ue_per_direction(self):
        scope = make_scope(window_s=1.0, rntis=(0x4601, 0x4602))
        add(scope, 0.5, 1000, rnti=0x4601)
        add(scope, 0.5, 500, rnti=0x4601, downlink=False)
        add(scope, 0.5, 2000, rnti=0x4602)
        add(scope, 0.5, 4000, rnti=0x9999)
        assert scope.per_ue_throughput(1.0) == {0x4601: 1000.0,
                                                0x4602: 2000.0}
        assert scope.per_ue_throughput(1.0, downlink=False) == \
            {0x4601: 500.0, 0x4602: 0.0}

    def test_unknown_ue_rate_zero(self):
        scope = make_scope(window_s=1.0)
        assert scope.per_ue_throughput(1.0) == {UE: 0.0}
        assert NRScope(Link(20.0)).per_ue_throughput(1.0) == {}

    def test_forget(self):
        # The window outlives the idle timeout, so the pruned tracking's
        # rows are still inside it when the RNTI is found again.
        scope = make_scope(window_s=10.0, idle_timeout_s=0.3)
        add(scope, 0.1, 1000)
        add(scope, 0.2, 1000)
        assert scope.rach.prune_idle(1.0, scope.idle_timeout_s) == [UE]
        assert scope.per_ue_throughput(1.2) == {}
        scope.rach.discover(UE, 1.5, None)
        assert rate(scope, 1.5) == 0.0
        add(scope, 1.5, 500)
        assert rate(scope, 2.0) == 500 / 10.0
