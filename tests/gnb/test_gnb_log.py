"""The gNB log keeps packed rows and rebuilds the records it was given.

* Identity: the rebuilt ``dci_records`` and ``uci_records`` equal, by
  ``repr``, the records every ``SlotOutput`` of the same run carried,
  live and after a fleet checkpoint and restore.
* Round trip: every stored field survives over its whole width, and a
  value wider than its field raises instead of wrapping.
"""

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fleet import FleetConfig, FleetSupervisor
from repro.gnb import gnb as gnb_module
from repro.gnb.gnb import DciRecord, GnbError, GnbLog, UciRecord
from repro.phy.dci import Dci, DciFormat
from repro.phy.grant import Grant
from repro.phy.mcs_tables import TABLE_QAM64, TABLE_QAM256
from repro.phy.pdcch import PdcchCandidate
from repro.phy.uci import UciReport

#: The largest value of each struct code the log uses.
CODE_MAX = {"B": 0xFF, "H": 0xFFFF, "I": 0xFFFF_FFFF,
            "q": 2**63 - 1}


def field_values(code: str):
    """Every value a field of struct code ``code`` can hold."""
    if code == "?":
        return st.booleans()
    low = -2**63 if code == "q" else 0
    return st.integers(low, CODE_MAX[code])


def repr_of(records) -> list[str]:
    return [repr(r) for r in records]


# ------------------------------------------------------------ identity
def fleet(seed: int, fidelity: str) -> FleetSupervisor:
    return FleetSupervisor.build(FleetConfig(
        n_cells=1, seed=seed, arrivals_per_second=60.0, holding_p90_s=0.3,
        horizon_s=0.4, fidelity=fidelity, checkpoint_interval_s=0.2))


def collecting(supervisor: FleetSupervisor) -> tuple[list, list]:
    """Every DCI and UCI record the cell's slots carry from now on."""
    dcis, ucis = [], []
    stream = supervisor.controller.stream(supervisor.controller.cells[0])

    def collect(output) -> None:
        dcis.extend(output.dci_records)
        ucis.extend(output.uci_records)

    stream.sim.add_observer(collect)
    return dcis, ucis


def log_of(supervisor: FleetSupervisor) -> GnbLog:
    return supervisor.controller.stream(
        supervisor.controller.cells[0]).sim.gnb.log


@pytest.mark.parametrize("fidelity,air_s", [("message", 0.4), ("iq", 0.2)])
@pytest.mark.parametrize("seed", [1, 4242])
def test_log_equals_slot_outputs_live_and_restored(tmp_path, seed,
                                                   fidelity, air_s):
    path = tmp_path / "fleet.ckpt"
    live = fleet(seed, fidelity)
    dcis, ucis = collecting(live)
    live.run(air_s / 2, checkpoint_path=path)
    log = log_of(live)
    assert len(dcis) > 20 and len(ucis) > 5
    assert repr_of(log.dci_records) == repr_of(dcis)
    assert repr_of(log.uci_records) == repr_of(ucis)
    assert any(r.search_space == "common" for r in dcis)
    assert {r.dci.format for r in dcis} == set(DciFormat)

    restored = FleetSupervisor.restore(path)
    assert repr_of(log_of(restored).dci_records) == repr_of(dcis)
    assert repr_of(log_of(restored).uci_records) == repr_of(ucis)

    # Both go on appending to the same rows.
    more_dcis, more_ucis = collecting(restored)
    restored.run(air_s / 2)
    live.run(air_s / 2)
    assert len(more_dcis) > 20
    assert repr_of(log_of(restored).dci_records) == \
        repr_of(dcis) == repr_of(log_of(live).dci_records)
    assert repr_of(log_of(restored).dci_records)[-len(more_dcis):] == \
        repr_of(more_dcis)
    assert repr_of(log_of(restored).uci_records) == \
        repr_of(ucis) == repr_of(log_of(live).uci_records)
    for record in log_of(restored).dci_records:
        assert record.dci.format is DciFormat.DL_1_1 \
            or record.dci.format is DciFormat.UL_0_1


# ---------------------------------------------------------- round trip
DCI = DciRecord(
    slot_index=10, time_s=0.005, rnti=0x4601,
    dci=Dci(format=DciFormat.DL_1_1, rnti=0x4601, freq_alloc_riv=101,
            time_alloc=1, mcs=28, ndi=1, rv=0, harq_id=3),
    grant=Grant(rnti=0x4601, downlink=True, first_prb=0, n_prb=51,
                first_symbol=2, n_symbols=12, mapping_type="A",
                mcs=TABLE_QAM64[28], tbs_bits=36896, n_re=6732, ndi=1,
                rv=0, harq_id=3, n_layers=1),
    candidate=PdcchCandidate(first_cce=4, aggregation_level=2),
    search_space="ue", is_retransmission=False, delivered=True,
    payload_bytes=4612, n_packets=3)

UCI = UciRecord(slot_index=9, time_s=0.0045, rnti=0x4601,
                report=UciReport(rnti=0x4601, slot_index=9, harq_ack=(1,),
                                 scheduling_request=True, cqi=15))


def test_pickle_holds_rows_not_records():
    log = GnbLog()
    for record in (DCI, replace(DCI, slot_index=11, search_space="common")):
        log.add_dci(record)
    log.add_uci(UCI)
    data = pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)
    for name in (b"DciRecord", b"Grant", b"PdcchCandidate", b"UciRecord",
                 b"UciReport"):
        assert name not in data
    back = pickle.loads(data)
    assert repr_of(back.dci_records) == repr_of(log.dci_records)
    assert repr_of(back.uci_records) == repr_of(log.uci_records)
    back.add_dci(replace(DCI, slot_index=12))
    assert len(back.dci_records) == 3
    assert len(back._dci_kinds.values) == 2  # the third reuses a kind


def test_layout_covers_every_field():
    """A field the codes miss would come back as its default."""
    assert ["format", *gnb_module._DCI_CODES] == \
        [f.name for f in fields(Dci)]
    assert [*gnb_module._GRANT_HEAD_CODES, "mapping_type", "mcs",
            *gnb_module._GRANT_TAIL_CODES] == [f.name for f in fields(Grant)]
    assert [f.name for f in fields(DciRecord)] == [
        "slot_index", "time_s", "rnti", "dci", "grant", "candidate",
        "search_space", "is_retransmission", "delivered", "payload_bytes",
        "n_packets"]
    assert [f.name for f in fields(PdcchCandidate)] == [
        "first_cce", "aggregation_level"]
    assert [f.name for f in fields(UciReport)] == [
        "rnti", "slot_index", "harq_ack", "scheduling_request", "cqi"]


@st.composite
def dci_records(draw) -> DciRecord:
    dci = Dci(format=draw(st.sampled_from(DciFormat)), **{
        name: draw(field_values(code))
        for name, code in gnb_module._DCI_CODES.items()})
    grant = Grant(
        mapping_type=draw(st.sampled_from(["A", "B"])),
        mcs=draw(st.sampled_from(TABLE_QAM64 + TABLE_QAM256)),
        **{name: draw(field_values(code))
           for name, code in {**gnb_module._GRANT_HEAD_CODES,
                              **gnb_module._GRANT_TAIL_CODES}.items()})
    return DciRecord(
        slot_index=draw(field_values("q")),
        time_s=draw(st.floats(allow_nan=False)),
        rnti=draw(field_values("H")), dci=dci, grant=grant,
        candidate=PdcchCandidate(draw(field_values("B")),
                                 draw(field_values("B"))),
        search_space=draw(st.sampled_from(["common", "ue"])),
        is_retransmission=draw(st.booleans()),
        delivered=draw(st.booleans()),
        payload_bytes=draw(field_values("I")),
        n_packets=draw(field_values("I")))


uci_records = st.builds(
    UciRecord, slot_index=field_values("q"),
    time_s=st.floats(allow_nan=False), rnti=field_values("H"),
    report=st.builds(
        UciReport, rnti=field_values("H"), slot_index=field_values("q"),
        harq_ack=st.lists(st.integers(0, 1), max_size=3).map(tuple),
        scheduling_request=st.booleans(),
        cqi=st.none() | st.integers(0, 15)))


@settings(max_examples=200, deadline=None)
@given(st.lists(dci_records(), min_size=1, max_size=8),
       st.lists(uci_records, min_size=1, max_size=8))
def test_round_trip_over_every_field_width(dcis, ucis):
    log = GnbLog()
    for record in dcis:
        log.add_dci(record)
    for record in ucis:
        log.add_uci(record)
    for got in (log, pickle.loads(pickle.dumps(log))):
        assert repr_of(got.dci_records) == repr_of(dcis)
        assert repr_of(got.uci_records) == repr_of(ucis)


def out_of_range() -> list[tuple[str, object]]:
    """One record per stored integer field, that field one past its
    width (or negative)."""
    cases = []
    for name, code in gnb_module._DCI_CODES.items():
        for bad in (CODE_MAX[code] + 1, -1):
            cases.append((f"dci.{name}={bad}", replace(
                DCI, dci=replace(DCI.dci, **{name: bad}))))
    for name, code in {**gnb_module._GRANT_HEAD_CODES,
                       **gnb_module._GRANT_TAIL_CODES}.items():
        if code != "?":
            cases.append((f"grant.{name}", replace(DCI, grant=replace(
                DCI.grant, **{name: CODE_MAX[code] + 1}))))
    cases += [
        ("rnti", replace(DCI, rnti=0x10000)),
        ("slot_index", replace(DCI, slot_index=2**63)),
        ("payload_bytes", replace(DCI, payload_bytes=-1)),
        ("n_packets", replace(DCI, n_packets=2**32)),
        ("first_cce", replace(DCI, candidate=PdcchCandidate(256, 2))),
        ("aggregation_level", replace(DCI, candidate=PdcchCandidate(0, -1))),
        ("uci rnti", replace(UCI, rnti=0x10000)),
        ("uci report slot", replace(UCI, report=replace(
            UCI.report, slot_index=-2**63 - 1))),
    ]
    return cases


OUT_OF_RANGE = out_of_range()


@pytest.mark.parametrize("name,record", OUT_OF_RANGE,
                         ids=[name for name, _ in OUT_OF_RANGE])
def test_out_of_range_value_raises(name, record):
    log = GnbLog()
    log.add_dci(DCI)
    log.add_uci(UCI)
    add = log.add_uci if isinstance(record, UciRecord) else log.add_dci
    with pytest.raises(GnbError, match="outside the log's field widths"):
        add(record)
    # Nothing of the refused record was kept.
    assert repr_of(log.dci_records) == [repr(DCI)]
    assert repr_of(log.uci_records) == [repr(UCI)]
