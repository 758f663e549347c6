"""Tests for the fair-share spare capacity estimator (Fig 14)."""

import pickle
from typing import NamedTuple

import numpy as np
import pytest

from repro.constants import TTI_DURATION_S
from repro.core.spare_capacity import SpareCapacityError, \
    SpareCapacityEstimator
from repro.core.telemetry_store import TelemetryStore
from repro.phy.grant import GrantConfig
from repro.phy.mcs_tables import mcs_entry
from repro.phy.tbs import transport_block_size

#: Slot duration at 30 kHz SCS, the simulated cells' numerology.
SLOT_S = TTI_DURATION_S[30]


class Tti(NamedTuple):
    """One TTI's decoded downlink grants, as the oracle reads them."""

    slot_index: int
    time_s: float
    used_prbs: int
    per_ue_prbs: dict
    per_ue_mcs: dict


def make_estimator(n_prb=51, mcs_table="qam256"):
    return SpareCapacityEstimator(
        grant_config=GrantConfig(bwp_n_prb=n_prb, mcs_table=mcs_table),
        n_prb_carrier=n_prb, store=TelemetryStore())


def append_row(store, slot, rnti, downlink, n_prb, mcs_index):
    store.append(slot_index=slot, time_s=slot * SLOT_S, rnti=rnti,
                 downlink=downlink, tbs_bits=1000, n_prb=n_prb,
                 n_symbols=12, mcs_index=mcs_index, harq_id=0, ndi=0,
                 rv=0, is_retransmission=False, aggregation_level=4)


def feed(estimator, tti, known=()):
    """``tti`` as the scope's sink commits it: one downlink row per
    grant (and an uplink row beside it, which the estimator must not
    count) into the store, then the TTI with its tracked set, which
    holds every UE decoded in it."""
    for rnti, n_prb in tti.per_ue_prbs.items():
        append_row(estimator.store, tti.slot_index, rnti, True, n_prb,
                   tti.per_ue_mcs[rnti])
        append_row(estimator.store, tti.slot_index, rnti, False,
                   n_prb + 7, 27 - tti.per_ue_mcs[rnti])
    estimator.observe_tti(tti.slot_index, tti.time_s,
                          tuple(sorted(set(tti.per_ue_prbs) | set(known))))


def usage(slot=0, used=None, mcs=None):
    used = used or {}
    return Tti(slot_index=slot, time_s=slot * SLOT_S,
               used_prbs=sum(used.values()), per_ue_prbs=used,
               per_ue_mcs=mcs or {r: 10 for r in used})


def last_shares(estimator, rntis=(1, 2, 3)):
    """The last TTI's share row of each RNTI that took part in it."""
    last = estimator.tti_table()["slot_index"][-1]
    by_rnti = {}
    for rnti in rntis:
        rows = estimator.shares(rnti)
        if rows.size and rows["slot_index"][-1] == last:
            by_rnti[rnti] = rows[-1]
    return by_rnti


class TestSpareShares:
    def test_even_split(self):
        estimator = make_estimator()
        feed(estimator, usage(used={1: 10, 2: 11}))
        by_rnti = last_shares(estimator)
        assert len(by_rnti) == 2
        assert estimator.tti_table()["n_shares"].tolist() == [2]
        spare_total = 51 - 21
        assert all(s["spare_prbs"] == spare_total // 2
                   for s in by_rnti.values())

    def test_idle_known_ue_gets_share(self):
        estimator = make_estimator()
        feed(estimator, usage(used={1: 10}), [1, 2])
        by_rnti = last_shares(estimator)
        assert set(by_rnti) == {1, 2}
        idle = by_rnti[2]
        assert idle["used_prbs"] == 0
        assert idle["used_bits"] == 0
        assert idle["spare_prbs"] == (51 - 10) // 2

    def test_same_prbs_different_mcs_different_bits(self):
        """Fig 14a's key observation: equal spare PRBs price differently
        because the UEs run different modulation and coding rates."""
        estimator = make_estimator()
        feed(estimator, usage(used={1: 10, 2: 10}, mcs={1: 27, 2: 5}))
        by_rnti = last_shares(estimator)
        assert by_rnti[1]["spare_prbs"] == by_rnti[2]["spare_prbs"]
        assert by_rnti[1]["spare_bits"] > by_rnti[2]["spare_bits"]

    def test_idle_ue_uses_last_seen_mcs(self):
        estimator = make_estimator()
        feed(estimator, usage(slot=0, used={1: 5}, mcs={1: 20}))
        feed(estimator, usage(slot=1), [1])
        rich = last_shares(estimator)[1]["spare_bits"]
        estimator2 = make_estimator()
        feed(estimator2, usage(slot=0, used={1: 5}, mcs={1: 2}))
        feed(estimator2, usage(slot=1), [1])
        poor = last_shares(estimator2)[1]["spare_bits"]
        assert rich > poor

    def test_full_carrier_leaves_nothing(self):
        estimator = make_estimator()
        feed(estimator, usage(used={1: 51}))
        share = last_shares(estimator)[1]
        assert share["spare_prbs"] == 0
        assert share["spare_bits"] == 0

    def test_no_ues_no_shares(self):
        estimator = make_estimator()
        feed(estimator, usage())
        assert last_shares(estimator) == {}
        assert estimator.tti_table()["n_shares"].tolist() == [0]

    def test_overflow_counted_as_overbooked(self):
        estimator = make_estimator(n_prb=10)
        feed(estimator, usage(slot=0, used={1: 4}))
        feed(estimator, usage(slot=1, used={1: 8, 2: 3}))
        assert estimator.overbooked == 1
        table = estimator.tti_table()
        assert table["used_prbs"].tolist() == [4, 11]
        assert table["spare_prbs"].tolist() == [6, 0]
        assert {r: row["spare_prbs"] for r, row in
                last_shares(estimator).items()} == {1: 0, 2: 0}
        assert pickle.loads(pickle.dumps(estimator)).overbooked == 1

    def test_carrier_without_prbs_rejected(self):
        with pytest.raises(SpareCapacityError):
            SpareCapacityEstimator(grant_config=GrantConfig(bwp_n_prb=51),
                                   n_prb_carrier=0, store=TelemetryStore())

    def test_retracked_rnti_keeps_its_last_mcs(self):
        """An RNTI pruned and then found again (idle) is priced at the
        MCS of its last downlink row, as a session-wide history would."""
        estimator = make_estimator()
        feed(estimator, usage(slot=0, used={1: 5}, mcs={1: 20}), [2])
        feed(estimator, usage(slot=1), [2])
        feed(estimator, usage(slot=2), [1, 2])
        rows = estimator.shares(1)
        assert rows["slot_index"].tolist() == [0, 2]
        assert rows["mcs_index"].tolist() == [20, 20]
        assert rows["spare_prbs"].tolist() == [(51 - 5) // 2, 51 // 2]
        assert estimator.shares(2)["mcs_index"].tolist() == [0, 0, 0]

    def test_tracked_set_kept_once_per_change(self):
        estimator = make_estimator()
        steady = (1, 2)
        for slot, rntis in enumerate([steady, steady, (1, 2), (1,),
                                      (1,), steady]):
            estimator.observe_tti(slot, slot * SLOT_S, rntis)
        assert estimator._sets == [(1, 2), (1,), (1, 2)]
        assert estimator.tti_table()["n_shares"].tolist() == \
            [2, 2, 2, 1, 1, 2]


class TestSeries:
    def test_spare_rate_series(self):
        estimator = make_estimator()
        for slot in range(5):
            feed(estimator, usage(slot=slot, used={1: 10}))
        series = estimator.spare_rate_series(1, slot_duration_s=SLOT_S)
        assert len(series) == 5
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert all(rate > 0 for _, rate in series)

    def test_prb_series(self):
        estimator = make_estimator()
        feed(estimator, usage(slot=3, used={1: 10, 2: 5}))
        rows = estimator.prb_series(1)
        assert rows == [(3, 10, (51 - 15) // 2)]


def reference_rows(ttis, n_prb=51, mcs_table="qam256"):
    """A per-share object loop over the TTIs: rnti -> list of
    (time, slot, used PRBs, spare PRBs, spare bits)."""
    config = GrantConfig(bwp_n_prb=n_prb, mcs_table=mcs_table)

    def bits(prbs, mcs_index):
        if prbs < 1:
            return 0
        return transport_block_size(
            prbs, 12, mcs_entry(mcs_index, mcs_table),
            n_layers=config.n_layers,
            n_dmrs_per_prb=config.n_dmrs_per_prb,
            n_oh_per_prb=config.xoverhead_res).tbs_bits

    last_mcs, rows = {}, {}
    for tti, known in ttis:
        last_mcs.update(tti.per_ue_mcs)
        participants = sorted(set(tti.per_ue_prbs) | set(known))
        if not participants:
            continue
        spare = (n_prb - tti.used_prbs) // len(participants)
        for rnti in participants:
            mcs_index = tti.per_ue_mcs.get(rnti, last_mcs.get(rnti, 0))
            rows.setdefault(rnti, []).append(
                (tti.time_s, tti.slot_index, tti.per_ue_prbs.get(rnti, 0),
                 spare, bits(spare, mcs_index)))
    return rows


class TestColumns:
    def random_ttis(self, seed, n=300):
        rng = np.random.default_rng(seed)
        ttis = []
        for slot in range(n):
            active = sorted(set(rng.integers(1, 9, rng.integers(0, 4))
                                .tolist()))
            used = {int(r): int(rng.integers(1, 12)) for r in active}
            mcs = {r: int(rng.integers(0, 28)) for r in used}
            known = rng.integers(1, 9, rng.integers(0, 5)).tolist()
            ttis.append((Tti(slot_index=2 * slot,
                             time_s=2 * slot * SLOT_S,
                             used_prbs=sum(used.values()),
                             per_ue_prbs=used, per_ue_mcs=mcs),
                         known))
        return ttis

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_series_match_reference_loop(self, seed):
        ttis = self.random_ttis(seed)
        estimator = make_estimator()
        for tti, known in ttis:
            feed(estimator, tti, known)
        expected = reference_rows(ttis)
        assert estimator.n_ttis == len(ttis)
        for rnti in range(1, 10):
            rows = expected.get(rnti, [])
            assert estimator.prb_series(rnti) == \
                [(slot, used, spare) for _, slot, used, spare, _ in rows]
            assert estimator.spare_rate_series(rnti, SLOT_S) == \
                [(t, bits / SLOT_S) for t, _, _, _, bits in rows]

    def test_pickle_roundtrip_stays_appendable(self):
        ttis = self.random_ttis(3, n=50)
        estimator = make_estimator()
        for tti, known in ttis[:30]:
            feed(estimator, tti, known)
        estimator.prb_series(1)         # readers leave columns growable
        clone = pickle.loads(pickle.dumps(estimator))
        for target in (estimator, clone):
            for tti, known in ttis[30:]:
                feed(target, tti, known)
        assert clone.tti_table().tolist() == \
            estimator.tti_table().tolist()
        for rnti in range(1, 9):
            assert clone.shares(rnti).tolist() == \
                estimator.shares(rnti).tolist()


class TestScopeCheckpoint:
    def test_estimator_shares_the_store_after_unpickling(self):
        """A scope checkpoint pickles the estimator with the telemetry
        store it reads, once, and the restored scope's estimator reads
        the restored store."""
        from repro import NRScope, Simulation
        from repro.gnb.cell_config import SRSRAN_PROFILE

        sim = Simulation.build(SRSRAN_PROFILE, n_ues=3, seed=2)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(0.3)
        assert scope.spare.store is scope.telemetry.store
        state = pickle.loads(pickle.dumps(scope.checkpoint_state()))
        assert state["spare"].store is state["telemetry"].store
        resumed = NRScope.attach(Simulation.from_state(
            pickle.loads(pickle.dumps(sim.checkpoint_state()))),
            snr_db=20.0)
        resumed.restore_state(state)
        assert resumed.spare.store is resumed.telemetry.store
        assert resumed.spare.tti_table().tolist() == \
            scope.spare.tti_table().tolist()
        for rnti in scope.telemetry.rntis():
            assert resumed.spare.shares(rnti).tolist() == \
                scope.spare.shares(rnti).tolist()


class TestPhantomDci:
    def test_iq_session_survives_an_overbooked_tti(self):
        """A CRC-passing phantom DCI that pushes a slot's decoded PRBs
        past the carrier is counted, and the session runs to its end
        (this seed and SNR decode a phantom DL 1_1 worth 86 PRBs on a
        51-PRB carrier)."""
        from repro import NRScope, Simulation
        from repro.analysis.summary import build_session_report
        from repro.gnb.cell_config import SRSRAN_PROFILE

        sim = Simulation.build(SRSRAN_PROFILE, n_ues=16, seed=1,
                               fidelity="iq")
        scope = NRScope.attach(sim, snr_db=25.0)
        sim.run(1.0)
        assert scope.counters.slots_observed == 2000
        assert scope.spare.overbooked >= 1
        report = build_session_report(scope, 1.0)
        assert report.cell.overbooked_ttis == scope.spare.overbooked
        assert f"{scope.spare.overbooked} TTIs overbooked" \
            in report.render()
