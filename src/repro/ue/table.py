"""Channel state of every admitted UE as columns, advanced once per slot.

The gNB owns one :class:`UeTable`.  A UE's row joins at ``add_ue`` and
leaves at ``remove_ue``, so the rows follow the gNB's admitted UEs in
order.  Each slot, :meth:`UeTable.advance` steps every row's fading
gain, SNR and CQI with array operations; the gNB then reads a UE's SNR
and CQI from the table.  The result equals stepping each UE's
:class:`~repro.ue.channel.FadingChannel` and mobility model on its own,
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ue.channel import ChannelColumns, snr_to_cqi
from repro.ue.mobility import MobilityModel, StaticUe
from repro.ue.ue import UeError, UserEquipment


class UeTable:
    """Per-slot SNR and CQI of the gNB's admitted UEs, one row each."""

    def __init__(self) -> None:
        self._fading = ChannelColumns()
        self._ues: list[UserEquipment] = []
        self._row: dict[int, int] = {}
        # Rows whose mobility moves the SNR; static rows add 0.0.
        self._moving: list[tuple[int, MobilityModel]] = []
        self._snr_db: list[float] = []
        self._cqi: list[int] = []

    def __len__(self) -> int:
        return len(self._ues)

    def add(self, ue: UserEquipment) -> None:
        """Take over ``ue``'s channel state as the last row."""
        if ue.ue_id in self._row:
            raise UeError(f"UE {ue.ue_id} already has a row")
        self._fading.extend(ue.channel.take_state())
        self._ues.append(ue)
        self._snr_db.append(ue.channel.mean_snr_db)
        self._cqi.append(int(snr_to_cqi(ue.channel.mean_snr_db)))
        self._reindex()

    def remove(self, ue_id: int) -> None:
        """Hand ``ue_id``'s channel state back to its channel."""
        row = self._row.get(ue_id)
        if row is None:
            raise UeError(f"UE {ue_id} has no row")
        ue = self._ues.pop(row)
        ue.channel.state = self._fading.pop(row)
        del self._snr_db[row]
        del self._cqi[row]
        self._reindex()

    def _reindex(self) -> None:
        self._row = {ue.ue_id: row for row, ue in enumerate(self._ues)}
        self._moving = [(row, ue.mobility) for row, ue in enumerate(self._ues)
                        if type(ue.mobility) is not StaticUe]

    def advance(self, slot_index: int) -> None:
        """Step every row's fading, mobility, SNR and CQI one slot."""
        if not self._ues:
            return
        offsets = np.zeros(len(self._ues))
        snr = self._fading.advance()
        for row, mobility in self._moving:
            offsets[row] = mobility.step(slot_index)
        snr = snr + offsets
        self._snr_db = snr.tolist()
        self._cqi = snr_to_cqi(snr).tolist()

    def snr_db(self, ue_id: int) -> float:
        """``ue_id``'s instantaneous SNR this slot."""
        return self._snr_db[self._row[ue_id]]

    def cqi(self, ue_id: int) -> int:
        """``ue_id``'s CQI this slot."""
        return self._cqi[self._row[ue_id]]
