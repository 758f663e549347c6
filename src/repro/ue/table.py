"""Channel state of every admitted UE as columns, advanced once per slot.

The gNB owns one :class:`UeTable`.  A UE's row joins at ``add_ue`` and
leaves at ``remove_ue``, so the rows follow the gNB's admitted UEs in
order.  Each slot, :meth:`UeTable.advance` steps every row's fading
gain with array operations and every moving row's mobility; the gNB
then reads the SNR and CQI of the UEs it needs from the table, which
computes them on the first read of the slot.  The result equals
stepping each UE's :class:`~repro.ue.channel.FadingChannel` and
mobility model on its own, bit for bit.
"""

from __future__ import annotations

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
        self._offsets: list[float] = []
        # (SNR, CQI) by UE id, read this slot; a row added since the
        # last advance reads its channel's mean SNR.
        self._read: dict[int, tuple[float, int]] = {}

    def __len__(self) -> int:
        return len(self._ues)

    def add(self, ue: UserEquipment) -> None:
        """Take over ``ue``'s channel state as the last row."""
        if ue.ue_id in self._row:
            raise UeError(f"UE {ue.ue_id} already has a row")
        self._fading.extend(ue.channel.take_state())
        self._ues.append(ue)
        self._offsets.append(0.0)
        mean = ue.channel.mean_snr_db
        self._read[ue.ue_id] = (mean, int(snr_to_cqi(mean)))
        self._reindex()

    def remove(self, ue_id: int) -> None:
        """Hand ``ue_id``'s channel state back to its channel."""
        row = self._row.get(ue_id)
        if row is None:
            raise UeError(f"UE {ue_id} has no row")
        ue = self._ues.pop(row)
        ue.channel.state = self._fading.pop(row)
        del self._offsets[row]
        self._read.pop(ue_id, None)
        self._reindex()

    def _reindex(self) -> None:
        self._row = {ue.ue_id: row for row, ue in enumerate(self._ues)}
        self._moving = [(row, ue.mobility) for row, ue in enumerate(self._ues)
                        if type(ue.mobility) is not StaticUe]

    def advance(self, slot_index: int) -> None:
        """Step every row's fading gain and every moving row's mobility
        one slot."""
        self._read = {}
        if not self._ues:
            return
        self._fading.advance()
        offsets = self._offsets
        for row, mobility in self._moving:
            offsets[row] = mobility.step(slot_index)

    def _snr_cqi(self, ue_id: int) -> tuple[float, int]:
        got = self._read.get(ue_id)
        if got is None:
            row = self._row[ue_id]
            snr = self._fading.snr_db(row) + self._offsets[row]
            got = self._read[ue_id] = (snr, int(snr_to_cqi(snr)))
        return got

    def snr_db(self, ue_id: int) -> float:
        """``ue_id``'s instantaneous SNR this slot."""
        return self._snr_cqi(ue_id)[0]

    def cqi(self, ue_id: int) -> int:
        """``ue_id``'s CQI this slot."""
        return self._snr_cqi(ue_id)[1]
