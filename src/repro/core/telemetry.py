"""Telemetry records and the stream NR-Scope emits (paper Fig 4's log).

Every decoded DCI becomes one row of the columnar
:class:`~repro.core.telemetry_store.TelemetryStore`;
:class:`TelemetryRecord` is the row's dataclass view for consumers that
want objects (JSONL serialisation, record-level tests, experiments).
:class:`TelemetryLog` is a thin facade over the store keeping the seed's
query API — per-UE throughput series, retransmission ratios, MCS
distributions, and the raw stream an application server would subscribe
to — while every query runs as a vectorized pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

from repro.core.telemetry_store import TelemetryStore
from repro.phy.dci import Dci, DciFormat
from repro.phy.grant import Allocation, Grant

#: On-disk JSONL schema version.  v1 streams carried the record fields
#: bare; v2 adds the ``v`` marker itself.  :meth:`TelemetryRecord.from_dict`
#: reads both.
TELEMETRY_SCHEMA_VERSION = 2


class TelemetryError(ValueError):
    """Raised for malformed telemetry operations."""


@dataclass(frozen=True)
class TelemetryRecord:
    """One decoded DCI with its derived quantities."""

    slot_index: int
    time_s: float
    rnti: int
    downlink: bool
    tbs_bits: int
    n_prb: int
    n_symbols: int
    mcs_index: int
    harq_id: int
    ndi: int
    rv: int
    is_retransmission: bool
    aggregation_level: int

    @property
    def n_regs(self) -> int:
        """REGs this record's grant occupies."""
        return self.n_prb * self.n_symbols

    def to_json(self) -> str:
        """One JSON line, the on-disk log format (schema v2)."""
        payload = {"v": TELEMETRY_SCHEMA_VERSION, **asdict(self)}
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TelemetryRecord":
        """Tolerant reader for any on-disk schema version.

        A missing ``v`` marks a v1 line.  Unknown keys — fields a later
        schema may add — are ignored so old readers of new logs and new
        readers of old logs both work; missing record fields raise
        :class:`TelemetryError` naming them.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in payload.items()
                  if key in known}
        missing = known - kwargs.keys()
        if missing:
            version = payload.get("v", 1)
            raise TelemetryError(
                f"telemetry line (schema v{version}) is missing "
                f"fields: {', '.join(sorted(missing))}")
        return cls(**kwargs)


def _materialize(rows: list[tuple]) -> list[TelemetryRecord]:
    """Packed row tuples (RECORD_FIELDS order) back into dataclasses."""
    return [TelemetryRecord(
        slot_index=t[0], time_s=t[1], rnti=t[2], downlink=bool(t[3]),
        tbs_bits=t[4], n_prb=t[5], n_symbols=t[6], mcs_index=t[7],
        harq_id=t[8], ndi=t[9], rv=t[10],
        is_retransmission=bool(t[11]), aggregation_level=t[12])
        for t in rows]


class TelemetryLog:
    """Indexed store of everything NR-Scope decoded in a session.

    Since the columnar refactor this class is a facade: rows live in a
    :class:`~repro.core.telemetry_store.TelemetryStore` and every query
    delegates to its vectorized kernels.  ``records`` / ``for_rnti``
    materialise :class:`TelemetryRecord` dataclasses on demand, so the
    object-level API (and the JSONL byte format) is unchanged.
    """

    def __init__(self, store: TelemetryStore | None = None) -> None:
        self._store = store if store is not None else TelemetryStore()

    @property
    def store(self) -> TelemetryStore:
        """The columnar store behind this log."""
        return self._store

    def add(self, record: TelemetryRecord) -> None:
        """Append one decode."""
        self._store.append(
            slot_index=record.slot_index, time_s=record.time_s,
            rnti=record.rnti, downlink=record.downlink,
            tbs_bits=record.tbs_bits, n_prb=record.n_prb,
            n_symbols=record.n_symbols, mcs_index=record.mcs_index,
            harq_id=record.harq_id, ndi=record.ndi, rv=record.rv,
            is_retransmission=record.is_retransmission,
            aggregation_level=record.aggregation_level)

    def append_decode(self, slot_index: int, time_s: float, dci: Dci,
                      grant: Grant | Allocation, aggregation_level: int,
                      is_retransmission: bool) -> None:
        """Append one decode straight from the DCI and its grant (or the
        grant's :class:`~repro.phy.grant.Allocation`, all a row reads).

        The sink stage's hot path: no dataclass is constructed, the
        fields go directly into the packed row.
        """
        self._store.append(
            slot_index=slot_index, time_s=time_s, rnti=dci.rnti,
            downlink=dci.format is DciFormat.DL_1_1,
            tbs_bits=grant.tbs_bits, n_prb=grant.n_prb,
            n_symbols=grant.n_symbols, mcs_index=dci.mcs,
            harq_id=dci.harq_id, ndi=dci.ndi, rv=dci.rv,
            is_retransmission=is_retransmission,
            aggregation_level=aggregation_level)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def records(self) -> list[TelemetryRecord]:
        """All records in decode order."""
        return _materialize(self._store.table().tolist())

    def for_rnti(self, rnti: int, downlink: bool | None = None) \
            -> list[TelemetryRecord]:
        """Records for one UE, optionally filtered by direction."""
        sub = self._store.table()[self._store.rows_for_rnti(rnti)]
        if downlink is not None:
            sub = sub[sub["downlink"] == (1 if downlink else 0)]
        return _materialize(sub.tolist())

    def rntis(self) -> list[int]:
        """Every RNTI seen in the session."""
        return self._store.rntis()

    def bits_between(self, rnti: int, start_s: float, end_s: float,
                     downlink: bool = True,
                     count_retransmissions: bool = False) -> int:
        """New-data bits scheduled for a UE in a window.

        Retransmissions are excluded by default: their bits were already
        counted when the HARQ process first carried them, which is what
        makes the estimate comparable to tcpdump's delivered bytes.
        """
        return self._store.bits_between(
            rnti, start_s, end_s, downlink=downlink,
            count_retransmissions=count_retransmissions)

    def bitrate_series(self, rnti: int, window_s: float, end_time_s: float,
                       downlink: bool = True) -> list[tuple[float, float]]:
        """(window end, bits/s) estimates — the paper Fig 14 time series.

        Window edges come from integer window indices (``k * window_s``,
        one multiply each); the seed accumulated ``t += window_s``,
        which drifts over long series.
        """
        if window_s <= 0:
            raise TelemetryError(f"window must be positive: {window_s}")
        return self._store.bitrate_series(rnti, window_s, end_time_s,
                                          downlink=downlink)

    def mcs_distribution(self, rnti: int | None = None,
                         downlink: bool = True) -> list[int]:
        """MCS indices of decoded (new-data) DCIs (paper Fig 15 left)."""
        return self._store.mcs_distribution(rnti, downlink=downlink)

    def retransmission_ratio(self, rnti: int | None = None,
                             downlink: bool = True) -> float:
        """Fraction of decoded DCIs that were retransmissions (Fig 15)."""
        return self._store.retransmission_ratio(rnti, downlink=downlink)

    def write_jsonl(self, path: str | Path) -> int:
        """Dump the session to a JSON-lines file; returns the line count.

        Byte-identical to the seed format: rows materialise through
        :meth:`TelemetryRecord.to_json` line by line.
        """
        target = Path(path)
        count = 0
        with target.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(record.to_json() + "\n")
                count += 1
        return count

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "TelemetryLog":
        """Reload a session written by :meth:`write_jsonl`."""
        log = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                log.add(TelemetryRecord.from_dict(json.loads(line)))
        return log
