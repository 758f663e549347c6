"""Columnar telemetry store: the spine under :class:`TelemetryLog`.

The seed kept one Python dataclass per decoded DCI and answered every
query (`bits_between`, `bitrate_series`, `mcs_distribution`, ...) by
looping over those objects — fine for a lab session, hopeless for the
paper's "millions of users" post-processing story.  This module holds
the same records as append-only numpy structured-array *chunks*:

* one packed row per decode (:data:`RECORD_DTYPE`, ~46 bytes vs several
  hundred for a boxed dataclass), appended into a fixed-size head chunk
  that is sealed and replaced when full;
* a lazily built per-RNTI row index (``rows_for_rnti``), cached until
  the next append, so per-UE queries gather once and then reduce with
  numpy kernels;
* vectorized query kernels — windowed new-data bits, whole bitrate
  series in one binned pass, MCS histograms, retransmission ratios and
  the cross-cell activity matrix ``multicell.correlate_streams`` needs;
* chunked on-disk segments (one ``.npy`` per chunk plus a JSON
  manifest) alongside the existing JSONL format, and pickle support so
  a fleet checkpoint carries the columnar payload as-is.

Windowing fixes the seed's float drift: window ``k`` spans
``[k * window_s, (k + 1) * window_s)`` with edges computed from the
integer window index (one multiply each), never by accumulating
``t += window_s``.

The store knows nothing about :class:`~repro.core.telemetry.TelemetryRecord`
— materialisation back into dataclasses lives in the facade, keeping
this module dependency-free below numpy.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Sequence

import numpy as np


class TelemetryStoreError(ValueError):
    """Raised for malformed store operations."""


#: Field order mirrors ``TelemetryRecord`` exactly; the facade relies on
#: it when materialising rows back into dataclasses.
RECORD_FIELDS: tuple[str, ...] = (
    "slot_index", "time_s", "rnti", "downlink", "tbs_bits", "n_prb",
    "n_symbols", "mcs_index", "harq_id", "ndi", "rv",
    "is_retransmission", "aggregation_level")

#: Packed row layout.  Widths are sized to the 3GPP value ranges the
#: decode path can produce (RNTI <= 0xFFFF, MCS < 32, AL <= 16, ...);
#: numpy >= 1.24 raises ``OverflowError`` on an out-of-range Python int
#: rather than wrapping, so a bad producer fails loudly.
RECORD_DTYPE = np.dtype([
    ("slot_index", np.int64),
    ("time_s", np.float64),
    ("rnti", np.int32),
    ("downlink", np.uint8),
    ("tbs_bits", np.int64),
    ("n_prb", np.int32),
    ("n_symbols", np.int16),
    ("mcs_index", np.int16),
    ("harq_id", np.int16),
    ("ndi", np.int16),
    ("rv", np.int16),
    ("is_retransmission", np.uint8),
    ("aggregation_level", np.int16),
])

#: Rows per chunk.  4096 rows is ~190 KB — large enough that chunk
#: bookkeeping vanishes, small enough that a short session wastes
#: little head-room.
DEFAULT_CHUNK_ROWS = 4096

#: On-disk segment manifest schema marker.
SEGMENT_SCHEMA = "telemetry-columnar/v1"

#: Matches the seed's window-count tolerance (``t <= end + 1e-9``).
_WINDOW_EDGE_TOLERANCE_S = 1e-9


def window_count(end_time_s: float, window_s: float) -> int:
    """Windows fully contained in ``[0, end_time_s]``.

    The count the seed's ``t += window_s`` loop produced, computed
    without accumulation: ``floor((end + tol) / window)``.
    """
    if window_s <= 0:
        raise TelemetryStoreError(
            f"window must be positive: {window_s}")
    return max(0, int(np.floor(
        (end_time_s + _WINDOW_EDGE_TOLERANCE_S) / window_s)))


def window_edges(n_windows: int, window_s: float) -> np.ndarray:
    """``n + 1`` window edges ``k * window_s`` from integer indices.

    One multiply per edge — bitwise identical to ``k * window_s`` in
    Python, with none of the drift of repeated addition.
    """
    return np.arange(n_windows + 1, dtype=np.int64) * float(window_s)


class TelemetryStore:
    """Append-only columnar store of decoded-DCI rows."""

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        if chunk_rows < 1:
            raise TelemetryStoreError(
                f"chunk_rows must be >= 1: {chunk_rows}")
        self.chunk_rows = chunk_rows
        self._chunks: list[np.ndarray] = []     # sealed, immutable
        self._head = np.zeros(chunk_rows, dtype=RECORD_DTYPE)
        self._head_used = 0
        self._count = 0
        # Caches, all invalidated by append: the consolidated table,
        # the per-RNTI row index and the sorted RNTI list.
        self._table: np.ndarray | None = None
        self._rnti_rows: dict[int, np.ndarray] = {}
        self._rnti_table: dict[int, np.ndarray] = {}
        self._rnti_list: list[int] | None = None
        self._cache_rows = 0

    # ------------------------------------------------------------ append
    def append(self, slot_index: int, time_s: float, rnti: int,
               downlink: bool, tbs_bits: int, n_prb: int,
               n_symbols: int, mcs_index: int, harq_id: int, ndi: int,
               rv: int, is_retransmission: bool,
               aggregation_level: int) -> None:
        """Append one decode as a packed row."""
        if self._head_used == self.chunk_rows:
            self._chunks.append(self._head)
            self._head = np.zeros(self.chunk_rows, dtype=RECORD_DTYPE)
            self._head_used = 0
        self._head[self._head_used] = (
            slot_index, time_s, rnti, 1 if downlink else 0, tbs_bits,
            n_prb, n_symbols, mcs_index, harq_id, ndi, rv,
            1 if is_retransmission else 0, aggregation_level)
        self._head_used += 1
        self._count += 1
        self._table = None

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------- views
    def table(self) -> np.ndarray:
        """The consolidated structured array, rows in append order.

        Built on demand and cached until the next append.  Treat it as
        read-only: it is shared by every query until invalidated.
        """
        if self._table is None:
            parts = list(self._chunks)
            if self._head_used:
                parts.append(self._head[:self._head_used])
            if not parts:
                self._table = np.empty(0, dtype=RECORD_DTYPE)
            elif len(parts) == 1 and self._head_used == 0:
                # A lone sealed chunk is immutable: share it.  A head
                # slice is still being written, so it must be copied
                # (np.concatenate below always copies).
                self._table = parts[0]
            else:
                self._table = np.concatenate(parts)
        return self._table

    def column(self, name: str) -> np.ndarray:
        """One consolidated column, rows in append order."""
        if name not in RECORD_FIELDS:
            raise TelemetryStoreError(f"unknown column: {name!r}")
        return self.table()[name]

    def _refresh_index(self) -> None:
        if self._cache_rows != self._count:
            self._rnti_rows.clear()
            self._rnti_table.clear()
            self._rnti_list = None
            self._cache_rows = self._count

    def rows_for_rnti(self, rnti: int) -> np.ndarray:
        """Row indices of one RNTI, ascending (append order)."""
        self._refresh_index()
        rows = self._rnti_rows.get(rnti)
        if rows is None:
            rows = np.flatnonzero(self.column("rnti") == rnti)
            self._rnti_rows[rnti] = rows
        return rows

    def rntis(self) -> list[int]:
        """Every RNTI seen, sorted ascending."""
        self._refresh_index()
        if self._rnti_list is None:
            self._rnti_list = [int(r) for r in
                               np.unique(self.column("rnti"))]
        return list(self._rnti_list)

    def _subtable(self, rnti: int | None) -> np.ndarray:
        if rnti is None:
            return self.table()
        sub = self._rnti_table.get(rnti)
        if sub is None:
            # The gather is the expensive part of a per-UE query, so
            # the packed subtable is cached alongside the row index
            # (same invalidation: any append).
            sub = self.table()[self.rows_for_rnti(rnti)]
            self._rnti_table[rnti] = sub
        return sub

    # ----------------------------------------------------- query kernels
    def bits_between(self, rnti: int, start_s: float, end_s: float,
                     downlink: bool = True,
                     count_retransmissions: bool = False) -> int:
        """New-data bits scheduled for a UE in ``[start_s, end_s)``."""
        sub = self._subtable(rnti)
        if sub.size == 0:
            return 0
        times = sub["time_s"]
        mask = (sub["downlink"] == (1 if downlink else 0)) \
            & (times >= start_s) & (times < end_s)
        if not count_retransmissions:
            mask &= sub["is_retransmission"] == 0
        return int(sub["tbs_bits"][mask].sum())

    def bitrate_series(self, rnti: int, window_s: float,
                       end_time_s: float, downlink: bool = True) \
            -> list[tuple[float, float]]:
        """(window end, bits/s) series in one binned pass.

        Window ``k`` spans ``[k * window_s, (k + 1) * window_s)`` with
        edges computed from the integer window index — the whole series
        costs one gather plus one ``searchsorted`` bin, instead of the
        seed's one full scan per window.
        """
        n_windows = window_count(end_time_s, window_s)
        edges = window_edges(n_windows, window_s)
        if n_windows == 0:
            return []
        sub = self._subtable(rnti)
        mask = (sub["downlink"] == (1 if downlink else 0)) \
            & (sub["is_retransmission"] == 0)
        times = sub["time_s"][mask]
        bits = sub["tbs_bits"][mask]
        # searchsorted against the edge array reproduces the interval
        # test ``k*w <= t < (k+1)*w`` exactly (same float products).
        idx = np.searchsorted(edges, times, side="right") - 1
        keep = (idx >= 0) & (idx < n_windows)
        sums = np.bincount(idx[keep], weights=bits[keep],
                           minlength=n_windows)
        return [(float(edges[k + 1]), float(sums[k]) / window_s)
                for k in range(n_windows)]

    def mcs_distribution(self, rnti: int | None = None,
                         downlink: bool = True) -> list[int]:
        """MCS indices of decoded new-data DCIs, in append order."""
        sub = self._subtable(rnti)
        mask = (sub["downlink"] == (1 if downlink else 0)) \
            & (sub["is_retransmission"] == 0)
        mcs: list[int] = sub["mcs_index"][mask].tolist()
        return mcs

    def retransmission_ratio(self, rnti: int | None = None,
                             downlink: bool = True) -> float:
        """Fraction of decoded DCIs that were retransmissions."""
        sub = self._subtable(rnti)
        relevant = sub["downlink"] == (1 if downlink else 0)
        n = int(relevant.sum())
        if n == 0:
            return 0.0
        retx = int((sub["is_retransmission"][relevant] != 0).sum())
        return retx / n

    def activity_matrix(self, rntis: Sequence[int], bin_s: float,
                        end_s: float) -> np.ndarray:
        """Binned new-data DL bits per RNTI: shape ``(len(rntis), bins)``.

        The correlation feature of ``multicell.correlate_streams``,
        built for *every* requested RNTI in one scatter-add pass over
        the table (the seed rebuilt one vector per RNTI pair).
        """
        if bin_s <= 0:
            raise TelemetryStoreError(f"bin width must be positive: {bin_s}")
        n_bins = max(1, int(round(end_s / bin_s)))
        out = np.zeros((len(rntis), n_bins))
        if not rntis or self._count == 0:
            return out
        table = self.table()
        mask = (table["downlink"] == 1) \
            & (table["is_retransmission"] == 0)
        rnti_col = table["rnti"][mask]
        times = table["time_s"][mask]
        bits = table["tbs_bits"][mask]
        wanted = np.asarray(rntis, dtype=rnti_col.dtype)
        order = np.argsort(wanted, kind="stable")
        sorted_wanted = wanted[order]
        pos = np.searchsorted(sorted_wanted, rnti_col)
        pos = np.clip(pos, 0, len(rntis) - 1)
        hit = sorted_wanted[pos] == rnti_col
        row_idx = order[pos[hit]]
        bin_idx = np.minimum((times[hit] / bin_s).astype(np.int64),
                             n_bins - 1)
        np.add.at(out, (row_idx, bin_idx), bits[hit])
        return out

    def time_extents(self, rnti: int) -> tuple[float, float] | None:
        """(first, last) record time of one RNTI, or None if unseen."""
        rows = self.rows_for_rnti(rnti)
        if rows.size == 0:
            return None
        times = self.column("time_s")
        return float(times[rows[0]]), float(times[rows[-1]])

    # -------------------------------------------------- on-disk segments
    def write_segments(self, directory: str | Path) -> int:
        """Write the store as chunked ``.npy`` segments plus a manifest.

        Returns the number of rows written.  The directory is created;
        existing segment files are overwritten.  Every file is first
        written in full under a ``.tmp`` name, then moved into place
        with ``os.replace``, the manifest last: a writer that fails
        before the moves leaves the previous segments readable.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        parts = list(self._chunks)
        if self._head_used:
            parts.append(self._head[:self._head_used])
        names = [f"segment-{index:05d}.npy" for index in range(len(parts))]
        manifest = {
            "schema": SEGMENT_SCHEMA,
            "dtype": [[n, str(RECORD_DTYPE.fields[n][0])]
                      for n in RECORD_DTYPE.names or ()],
            "chunk_rows": self.chunk_rows,
            "rows": self._count,
            "segments": names,
        }
        staged = [(target / f"{name}.tmp", target / name)
                  for name in [*names, "manifest.json"]]
        try:
            for (temp, _), part in zip(staged, parts):
                # np.save appends ".npy" to a bare path; a handle keeps
                # the temp name exact.
                with open(temp, "wb") as fh:
                    np.save(fh, part)
            staged[-1][0].write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        except BaseException:
            for temp, _ in staged:
                temp.unlink(missing_ok=True)
            raise
        for temp, final in staged:
            os.replace(temp, final)
        return self._count

    @classmethod
    def read_segments(cls, directory: str | Path) -> "TelemetryStore":
        """Reload a store written by :meth:`write_segments`.

        A damaged directory (unreadable manifest or segment, a segment
        list that is not one, a segment named outside the directory)
        raises :class:`TelemetryStoreError` naming the file at fault.
        """
        target = Path(directory)
        manifest_path = target / "manifest.json"
        if not manifest_path.exists():
            raise TelemetryStoreError(
                f"no segment manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            declared = [tuple(item) for item in manifest.get("dtype", [])]
            chunk_rows = int(manifest.get("chunk_rows", DEFAULT_CHUNK_ROWS))
            rows = int(manifest["rows"]) if "rows" in manifest else None
        except (OSError, ValueError, TypeError, AttributeError) as exc:
            raise TelemetryStoreError(
                f"unreadable segment manifest {manifest_path}: {exc}") \
                from exc
        if manifest.get("schema") != SEGMENT_SCHEMA:
            raise TelemetryStoreError(
                f"unknown segment schema: {manifest.get('schema')!r}")
        current = [(n, str(RECORD_DTYPE.fields[n][0]))
                   for n in RECORD_DTYPE.names or ()]
        if declared != current:
            raise TelemetryStoreError(
                "segment dtype does not match RECORD_DTYPE "
                f"(found {declared!r})")
        names = manifest.get("segments", [])
        if not isinstance(names, list):
            raise TelemetryStoreError(
                f"{manifest_path}: segments is not a list: {names!r}")
        store = cls(chunk_rows=chunk_rows)
        for name in names:
            if not isinstance(name, str) or name != Path(name).name \
                    or name in ("", ".."):
                raise TelemetryStoreError(
                    f"{manifest_path}: segment {name!r} is not a file "
                    f"in {target}")
            path = target / name
            try:
                part = np.load(path)
            except (OSError, ValueError, EOFError) as exc:
                raise TelemetryStoreError(
                    f"unreadable segment {path}: {exc}") from exc
            if part.dtype != RECORD_DTYPE:
                raise TelemetryStoreError(
                    f"segment {name} has dtype {part.dtype}")
            store.extend_rows(part)
        if rows is not None and len(store) != rows:
            raise TelemetryStoreError(
                f"manifest declares {rows} rows, "
                f"segments carry {len(store)}")
        return store

    def extend_rows(self, rows: np.ndarray) -> None:
        """Bulk-append already-packed rows (segment reload path)."""
        if rows.dtype != RECORD_DTYPE:
            raise TelemetryStoreError(
                f"rows must have RECORD_DTYPE, got {rows.dtype}")
        for start in range(0, len(rows), self.chunk_rows):
            batch = rows[start:start + self.chunk_rows]
            free = self.chunk_rows - self._head_used
            if len(batch) > free:
                self._head[self._head_used:] = batch[:free]
                self._chunks.append(self._head)
                self._head = np.zeros(self.chunk_rows,
                                      dtype=RECORD_DTYPE)
                self._head_used = 0
                batch = batch[free:]
            self._head[self._head_used:
                       self._head_used + len(batch)] = batch
            self._head_used += len(batch)
        self._count += len(rows)
        self._table = None

    # ------------------------------------------------------------ pickle
    def __getstate__(self) -> dict[str, Any]:
        """Checkpoint payload: sealed chunks + trimmed head, no caches."""
        return {
            "chunk_rows": self.chunk_rows,
            "chunks": self._chunks,
            "head": self._head[:self._head_used].copy(),
            "count": self._count,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.chunk_rows = state["chunk_rows"]
        self._chunks = state["chunks"]
        self._head = np.zeros(self.chunk_rows, dtype=RECORD_DTYPE)
        head = state["head"]
        self._head[:len(head)] = head
        self._head_used = len(head)
        self._count = state["count"]
        self._table = None
        self._rnti_rows = {}
        self._rnti_table = {}
        self._rnti_list = None
        self._cache_rows = 0
