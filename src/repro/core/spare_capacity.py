"""Fair-share spare RAN capacity estimation (paper section 5.4.1).

"In each TTI, we can split unused REs evenly across UEs and recalculate
these REs to yield a fair-share spare capacity attributable to each UE."
The estimator knows the carrier width from SIB 1, sums the PRBs of the
DCIs it decoded in the TTI, splits the remainder evenly, and prices each
UE's share at that UE's *own* current MCS — which is why two UEs with
identical spare PRBs report different spare bit rates (Fig 14a).

What each DCI carried is a downlink row of the telemetry store, which
the estimator holds by reference.  Per TTI it keeps only the slot, the
time and the index of the TTI's tracked set (a list of ascending RNTI
tuples that grows when the set changes).  Every read joins the two: a
row's slot finds its TTI, and a UE's MCS is that of its last downlink
row at or before the TTI (0 before its first).
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.telemetry_store import TelemetryStore
from repro.phy.grant import GrantConfig
from repro.phy.mcs_tables import mcs_entry
from repro.phy.tbs import transport_block_size

#: Columns of :meth:`SpareCapacityEstimator.tti_table`, one row per TTI.
TTI_DTYPE = np.dtype([
    ("slot_index", np.int64), ("time_s", np.float64),
    ("used_prbs", np.int64), ("spare_prbs", np.int64),
    ("n_shares", np.int64)])

#: Columns of :meth:`SpareCapacityEstimator.shares`, one row per TTI in
#: which the UE held a share.
SHARE_DTYPE = np.dtype([
    ("slot_index", np.int64), ("time_s", np.float64),
    ("used_prbs", np.int64), ("spare_prbs", np.int64),
    ("mcs_index", np.int64), ("used_bits", np.int64),
    ("spare_bits", np.int64)])


def _view(column: array) -> np.ndarray:
    """Zero-copy numpy view of a column (array typecodes are numpy
    dtype characters).  Views must not outlive the call that made them:
    an array with a live view cannot grow."""
    return np.frombuffer(column, dtype=column.typecode)


class SpareCapacityError(ValueError):
    """Raised for inconsistent TTI accounting."""


class SpareCapacityEstimator:
    """Fair-share spare capacity per TTI, read over a telemetry store."""

    def __init__(self, grant_config: GrantConfig, n_prb_carrier: int,
                 store: TelemetryStore, n_symbols: int = 12) -> None:
        if n_prb_carrier < 1:
            raise SpareCapacityError(
                f"carrier must have PRBs: {n_prb_carrier}")
        self.grant_config = grant_config
        self.n_prb_carrier = n_prb_carrier
        self.n_symbols = n_symbols
        self.store = store
        self._tti_slot = array("q")
        self._tti_time = array("d")
        self._tti_set = array("I")        # index into _sets
        #: Each tracked set in TTI order, as ascending RNTIs; a set is
        #: appended only when it differs from the last one.
        self._sets: list[tuple[int, ...]] = []

    @property
    def n_ttis(self) -> int:
        """TTIs observed so far."""
        return len(self._tti_slot)

    def observe_tti(self, slot_index: int, time_s: float,
                    rntis: tuple[int, ...]) -> None:
        """Record one TTI whose decodes are already in the store.

        ``rntis`` are the UEs tracked in this TTI, ascending: all of
        them, idle ones included, own an equal part of its spare room.
        """
        sets = self._sets
        if not sets or rntis != sets[-1]:
            sets.append(rntis)
        self._tti_slot.append(slot_index)
        self._tti_time.append(time_s)
        self._tti_set.append(len(sets) - 1)

    def _downlink(self, rnti: int | None = None) -> np.ndarray:
        """The store's downlink rows (of one RNTI), in slot order."""
        store = self.store
        rows = store.table() if rnti is None \
            else store.table()[store.rows_for_rnti(rnti)]
        return rows[rows["downlink"] == 1]

    def _per_tti_prbs(self, rows: np.ndarray) -> np.ndarray:
        """PRBs of ``rows`` summed per TTI (each row's slot is a TTI's)."""
        tti = np.searchsorted(_view(self._tti_slot), rows["slot_index"])
        return np.bincount(tti, weights=rows["n_prb"],
                           minlength=self.n_ttis).astype(np.int64)

    def _bits_for(self, n_prb: int, mcs_index: int) -> int:
        if n_prb < 1:
            return 0
        mcs = mcs_entry(mcs_index, self.grant_config.mcs_table)
        return transport_block_size(
            n_prb, self.n_symbols, mcs,
            n_layers=self.grant_config.n_layers,
            n_dmrs_per_prb=self.grant_config.n_dmrs_per_prb,
            n_oh_per_prb=self.grant_config.xoverhead_res).tbs_bits

    def _price(self, n_prb: np.ndarray, mcs: np.ndarray) -> np.ndarray:
        """Bits of each (PRBs, MCS) row, one TBS per distinct pair."""
        pairs, inverse = np.unique(n_prb << 8 | mcs, return_inverse=True)
        bits = np.array([self._bits_for(pair >> 8, pair & 0xFF)
                         for pair in pairs.tolist()], dtype=np.int64)
        return bits[inverse]

    def tti_table(self) -> np.ndarray:
        """Every observed TTI as a :data:`TTI_DTYPE` array.  A TTI
        overbooked by a CRC-passing phantom DCI has no spare PRBs."""
        table = np.empty(self.n_ttis, dtype=TTI_DTYPE)
        table["slot_index"] = _view(self._tti_slot)
        table["time_s"] = _view(self._tti_time)
        used = self._per_tti_prbs(self._downlink())
        n_shares = np.array([len(rntis) for rntis in self._sets],
                            dtype=np.int64)[_view(self._tti_set)]
        spare = np.maximum(self.n_prb_carrier - used, 0)
        table["used_prbs"] = used
        table["spare_prbs"] = np.where(
            n_shares > 0, spare // np.maximum(n_shares, 1), 0)
        table["n_shares"] = n_shares
        return table

    @property
    def overbooked(self) -> int:
        """TTIs whose decoded PRBs exceeded the carrier."""
        used = self._per_tti_prbs(self._downlink())
        return int(np.count_nonzero(used > self.n_prb_carrier))

    def shares(self, rnti: int) -> np.ndarray:
        """One UE's share in every TTI it was tracked in, priced into
        bits at its MCS of that TTI, as a :data:`SHARE_DTYPE` array."""
        member = np.array([rnti in rntis for rntis in self._sets],
                          dtype=bool)
        tti = np.flatnonzero(member[_view(self._tti_set)])
        table = self.tti_table()[tti]
        rows = self._downlink(rnti)
        # The MCS of the UE's last row at or before each TTI; place 0
        # stands for "no row yet".
        mcs = np.concatenate(([0], rows["mcs_index"]))
        out = np.empty(tti.size, dtype=SHARE_DTYPE)
        out["slot_index"] = table["slot_index"]
        out["time_s"] = table["time_s"]
        out["used_prbs"] = self._per_tti_prbs(rows)[tti]
        out["spare_prbs"] = table["spare_prbs"]
        out["mcs_index"] = mcs[np.searchsorted(
            rows["slot_index"], table["slot_index"], side="right")]
        out["used_bits"] = self._price(out["used_prbs"], out["mcs_index"])
        out["spare_bits"] = self._price(out["spare_prbs"],
                                        out["mcs_index"])
        return out

    def spare_rate_series(self, rnti: int, slot_duration_s: float) \
            -> list[tuple[float, float]]:
        """(time, spare bits/s) per TTI for one UE (Fig 14a's 'Spare')."""
        rows = self.shares(rnti)
        return list(zip(rows["time_s"].tolist(),
                        (rows["spare_bits"] / slot_duration_s).tolist()))

    def prb_series(self, rnti: int) -> list[tuple[int, int, int]]:
        """(slot, used PRBs, spare share PRBs) per TTI (Fig 14b)."""
        rows = self.shares(rnti)
        return list(zip(rows["slot_index"].tolist(),
                        rows["used_prbs"].tolist(),
                        rows["spare_prbs"].tolist()))
