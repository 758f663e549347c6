"""Fair-share spare RAN capacity estimation (paper section 5.4.1).

"In each TTI, we can split unused REs evenly across UEs and recalculate
these REs to yield a fair-share spare capacity attributable to each UE."
The estimator knows the carrier width from SIB 1, sums the PRBs of the
DCIs it decoded in the TTI, splits the remainder evenly, and prices each
UE's share at that UE's *own* current MCS — which is why two UEs with
identical spare PRBs report different spare bit rates (Fig 14a).

The history is columnar: append-only typed arrays, one row per TTI
(slot, time, used PRBs, fair-share PRBs, share count) and one row per
share holding only what varies per UE (RNTI, MCS, used PRBs).  The slot
path extends each column once per TTI and builds no per-share object;
shares are priced into bits when a reader asks.  The columns pickle as
raw buffers, so a checkpoint copies bytes instead of walking objects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class TtiUsage:
    """One TTI's decoded allocation picture."""

    slot_index: int
    time_s: float
    used_prbs: int
    per_ue_prbs: dict[int, int]       # rnti -> PRBs this TTI
    per_ue_mcs: dict[int, int]        # rnti -> MCS index this TTI


class SpareCapacityEstimator:
    """Turns per-TTI decoded grants into spare-capacity shares."""

    def __init__(self, grant_config: GrantConfig, n_prb_carrier: int,
                 n_symbols: int = 12) -> None:
        if n_prb_carrier < 1:
            raise SpareCapacityError(
                f"carrier must have PRBs: {n_prb_carrier}")
        self.grant_config = grant_config
        self.n_prb_carrier = n_prb_carrier
        self.n_symbols = n_symbols
        self._last_mcs: dict[int, int] = {}
        # Per TTI.  PRB counts fit 16 bits (a carrier has <= 275 PRBs).
        self._tti_slot = array("q")
        self._tti_time = array("d")
        self._tti_used = array("H")
        self._tti_spare = array("H")      # fair-share PRBs per UE
        self._tti_shares = array("I")     # shares this TTI
        # Per share, in TTI order.
        self._rnti = array("H")
        self._mcs = array("B")
        self._used = array("H")
        #: TTIs whose decoded PRBs exceeded the carrier.
        self.overbooked = 0

    @property
    def n_ttis(self) -> int:
        """TTIs observed so far."""
        return len(self._tti_slot)

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

    def observe_tti(self, usage: TtiUsage,
                    known_rntis: list[int] | None = None) -> None:
        """Record the fair-share split for one TTI.

        ``known_rntis`` widens the split to UEs that were idle this TTI
        (they still own a fair share of the spare room); their MCS falls
        back to the last one observed.

        A TTI whose decoded PRBs exceed the carrier, which one
        CRC-passing phantom DCI can cause, is recorded with no spare
        PRBs and counted in :attr:`overbooked`: the sniffer keeps going.
        """
        spare = self.n_prb_carrier - usage.used_prbs
        if spare < 0:
            self.overbooked += 1
            spare = 0
        self._last_mcs.update(usage.per_ue_mcs)
        per_ue_prbs = usage.per_ue_prbs
        participants = sorted(per_ue_prbs.keys() | set(known_rntis or ()))
        self._tti_slot.append(usage.slot_index)
        self._tti_time.append(usage.time_s)
        self._tti_used.append(usage.used_prbs)
        self._tti_shares.append(len(participants))
        if not participants:
            self._tti_spare.append(0)
            return
        self._tti_spare.append(spare // len(participants))
        last_mcs = self._last_mcs
        self._rnti.extend(participants)
        self._mcs.extend([last_mcs.get(rnti, 0) for rnti in participants])
        self._used.extend([per_ue_prbs.get(rnti, 0)
                           for rnti in participants])

    def tti_table(self) -> np.ndarray:
        """Every observed TTI as a :data:`TTI_DTYPE` array."""
        table = np.empty(self.n_ttis, dtype=TTI_DTYPE)
        table["slot_index"] = _view(self._tti_slot)
        table["time_s"] = _view(self._tti_time)
        table["used_prbs"] = _view(self._tti_used)
        table["spare_prbs"] = _view(self._tti_spare)
        table["n_shares"] = _view(self._tti_shares)
        return table

    def shares(self, rnti: int) -> np.ndarray:
        """One UE's share in every TTI it took part in, priced into
        bits at its MCS of that TTI, as a :data:`SHARE_DTYPE` array."""
        rows = np.flatnonzero(_view(self._rnti) == rnti)
        ends = np.cumsum(_view(self._tti_shares), dtype=np.int64)
        tti = np.searchsorted(ends, rows, side="right")
        out = np.empty(rows.size, dtype=SHARE_DTYPE)
        out["slot_index"] = _view(self._tti_slot)[tti]
        out["time_s"] = _view(self._tti_time)[tti]
        out["used_prbs"] = _view(self._used)[rows]
        out["spare_prbs"] = _view(self._tti_spare)[tti]
        out["mcs_index"] = _view(self._mcs)[rows]
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
