"""Per-UE wireless channel models: fading, CQI reporting and BLER.

The paper's Fig 15 experiment drives 64 emulated UEs through AWGN,
Pedestrian, Vehicle and Urban channels and observes how the gNB's MCS
choice and the retransmission ratio respond.  This module provides those
channels: each produces a per-slot instantaneous SNR around a configured
average, the UE converts it to a CQI report, and a logistic BLER curve
decides whether each transport block would have decoded.

Fading uses a first-order Gauss-Markov complex gain whose correlation
follows the model's Doppler frequency — slow ripple for pedestrians,
fast variation for vehicles, deep frequent fades for dense urban.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.phy.mcs_tables import McsEntry


class ChannelError(ValueError):
    """Raised for unknown channel profiles or bad parameters."""


@dataclass(frozen=True)
class ChannelProfile:
    """Statistical parameters of one named channel model."""

    name: str
    doppler_hz: float          # fading rate
    fading_sigma_db: float     # spread of the fading distribution
    mean_offset_db: float      # average SNR penalty vs the link budget

    def correlation(self, slot_duration_s: float) -> float:
        """Slot-to-slot correlation of the fading process.

        A Jakes-spectrum process decorrelates on the scale of the
        coherence time 1/doppler; the Gauss-Markov equivalent is
        ``rho = exp(-2 pi fd Ts)`` clipped to [0, 1).
        """
        if self.doppler_hz <= 0:
            return 1.0
        rho = math.exp(-2.0 * math.pi * self.doppler_hz * slot_duration_s)
        return min(max(rho, 0.0), 0.999999)


#: The five channel conditions of the paper's Fig 15.
PROFILES = {
    "normal": ChannelProfile("normal", doppler_hz=0.5, fading_sigma_db=0.8,
                             mean_offset_db=0.0),
    "awgn": ChannelProfile("awgn", doppler_hz=0.0, fading_sigma_db=0.0,
                           mean_offset_db=0.0),
    "pedestrian": ChannelProfile("pedestrian", doppler_hz=5.0,
                                 fading_sigma_db=4.0, mean_offset_db=3.0),
    "vehicle": ChannelProfile("vehicle", doppler_hz=70.0,
                              fading_sigma_db=6.0, mean_offset_db=6.0),
    "urban": ChannelProfile("urban", doppler_hz=30.0, fading_sigma_db=8.0,
                            mean_offset_db=9.0),
}


#: Slots of fading innovations drawn per ``Generator`` call.
#: ``normal(size=n)`` returns the same values as ``n`` scalar draws and
#: leaves the generator in the same state, so the size moves speed only.
BLOCK_SLOTS = 64

_BLOCK = 2 * BLOCK_SLOTS       # two innovations (re, im) per slot
_SQRT2 = math.sqrt(2.0)


class ChannelColumns:
    """Fading state of many channels, one row each, advanced together.

    Each row keeps a first-order Gauss-Markov complex gain as separate
    ``re``/``im`` columns, its own ``Generator``, and a block of unread
    innovations with a cursor into it.  :meth:`advance` steps every
    row's gain with array operations; :meth:`snr_db` turns one row's
    gain into its SNR when it is read.  Together they reproduce the
    scalar recurrence bit for bit: the gain update is
    ``rho*g + sqrt(1-rho^2)*(n/sqrt(2))`` per component, ``np.hypot``
    equals ``abs(complex)``, and ``h ** 2``, ``max(., 1e-6)`` and
    ``math.log10`` run in Python because numpy's ``square`` and
    ``log10`` round differently.  A pickle keeps only each row's unread
    innovations.
    """

    _ARRAYS = ("re", "im", "rho", "sq", "base", "scale", "draws", "cursor",
               "blocks")

    def __init__(self) -> None:
        self.re = np.zeros(0)
        self.im = np.zeros(0)
        self.rho = np.zeros(0)
        self.sq = np.zeros(0)           # sqrt(1 - rho^2)
        self.base = np.zeros(0)         # mean SNR minus the profile offset
        self.scale = np.zeros(0)        # fading sigma / 5.57
        self.draws = np.zeros(0, dtype=np.int64)    # 2 fading, 0 flat
        self.cursor = np.zeros(0, dtype=np.int64)
        self.blocks = np.zeros((0, _BLOCK))
        self.rngs: list[np.random.Generator] = []

    @classmethod
    def single(cls, profile: ChannelProfile, mean_snr_db: float,
               slot_duration_s: float,
               rng: np.random.Generator) -> "ChannelColumns":
        """One fresh row; draws the initial gain from ``rng``."""
        row = cls.__new__(cls)      # every column is set below
        fading = profile.fading_sigma_db != 0.0
        rho = profile.correlation(slot_duration_s) if fading else 1.0
        # Complex Gauss-Markov state with unit variance.
        re = rng.normal() / _SQRT2
        im = rng.normal() / _SQRT2
        values = np.array([re, im, rho, math.sqrt(1.0 - rho * rho),
                           mean_snr_db - profile.mean_offset_db,
                           profile.fading_sigma_db / 5.57])
        row.re, row.im, row.rho = values[0:1], values[1:2], values[2:3]
        row.sq, row.base, row.scale = values[3:4], values[4:5], values[5:6]
        # A flat row never draws: its cursor stays inside a zero block.
        counters = np.array([2, _BLOCK] if fading else [0, 0],
                            dtype=np.int64)
        row.draws, row.cursor = counters[0:1], counters[1:2]
        row.blocks = np.zeros((1, _BLOCK))
        row.rngs = [rng]
        return row

    def extend(self, other: "ChannelColumns") -> None:
        """Append ``other``'s rows after this table's."""
        for name in self._ARRAYS:
            setattr(self, name, np.concatenate(
                (getattr(self, name), getattr(other, name))))
        self.rngs = self.rngs + other.rngs

    def pop(self, row: int) -> "ChannelColumns":
        """Remove row ``row`` and return it as a one-row table: its gain,
        unread innovations and cursor go with it."""
        out = ChannelColumns.__new__(ChannelColumns)
        for name in self._ARRAYS:
            column = getattr(self, name)
            setattr(out, name, column[row:row + 1].copy())
            setattr(self, name, np.delete(column, row, axis=0))
        out.rngs = [self.rngs[row]]
        self.rngs = self.rngs[:row] + self.rngs[row + 1:]
        return out

    def advance(self) -> None:
        """Advance every row's gain one slot."""
        for row in np.flatnonzero(self.cursor >= _BLOCK).tolist():
            self.blocks[row] = self.rngs[row].normal(size=_BLOCK)
            self.cursor[row] = 0
        rows = np.arange(len(self.rngs))
        n_re = self.blocks[rows, self.cursor]
        n_im = self.blocks[rows, self.cursor + 1]
        self.cursor += self.draws
        self.re = self.rho * self.re + self.sq * (n_re / _SQRT2)
        self.im = self.rho * self.im + self.sq * (n_im / _SQRT2)

    def snr_db(self, row: int) -> float:
        """Row ``row``'s instantaneous SNR in dB at its current gain."""
        h = float(np.hypot(self.re[row], self.im[row]))
        # |gain|^2 is exponential(1); its dB value has the Rayleigh-fading
        # distribution scaled into the profile's sigma.
        fade_db = 10.0 * math.log10(max(h ** 2, 1e-6))
        return float(self.base[row] + fade_db * self.scale[row])

    def __getstate__(self) -> dict:
        # Innovations behind a row's cursor are never read again; a flat
        # row reads only zeros.  Keep the rest, row after row.
        tails = [block[cursor:] for block, cursor, draws
                 in zip(self.blocks, self.cursor.tolist(),
                        self.draws.tolist()) if draws]
        state = {name: getattr(self, name) for name in self._ARRAYS
                 if name != "blocks"}
        state["tails"] = np.concatenate(tails) if tails else np.zeros(0)
        state["rngs"] = self.rngs
        return state

    def __setstate__(self, state: dict) -> None:
        tails = state.pop("tails")
        self.__dict__.update(state)
        self.blocks = np.zeros((len(self.rngs), _BLOCK))
        at = 0
        for row in np.flatnonzero(self.draws).tolist():
            cursor = int(self.cursor[row])
            width = _BLOCK - cursor
            self.blocks[row, cursor:] = tails[at:at + width]
            at += width


class FadingChannel:
    """A per-UE channel producing instantaneous SNR per slot.

    Its state is a one-row :class:`ChannelColumns`, built at the first
    step: the generator's first two draws are the initial gain, and no
    one else draws from it, so building late changes nothing.  While the
    UE is admitted to a gNB, the gNB's :class:`~repro.ue.table.UeTable`
    holds that row (``state`` is ``None``) and hands it back at removal.
    """

    def __init__(self, profile: str | ChannelProfile, mean_snr_db: float,
                 slot_duration_s: float, seed: int = 0) -> None:
        if isinstance(profile, str):
            if profile not in PROFILES:
                raise ChannelError(f"unknown channel profile: {profile!r}")
            profile = PROFILES[profile]
        self.profile = profile
        self.mean_snr_db = mean_snr_db
        self._slot_duration_s = slot_duration_s
        # Moves into ``state`` when the state is built.
        self._rng: np.random.Generator | None = np.random.default_rng(seed)
        self.state: ChannelColumns | None = None

    def take_state(self) -> ChannelColumns:
        """Give the state to a UE table until it hands it back."""
        state = self._own_state()
        self.state = None
        return state

    def _own_state(self) -> ChannelColumns:
        if self._rng is not None:
            self.state = ChannelColumns.single(
                self.profile, self.mean_snr_db, self._slot_duration_s,
                self._rng)
            self._rng = None
        if self.state is None:
            raise ChannelError("channel is advanced by its gNB's UE table")
        return self.state

    def step(self) -> float:
        """Advance one slot; return the instantaneous SNR in dB."""
        state = self._own_state()
        state.advance()
        return state.snr_db(0)


#: CQI table: index i usable when SNR >= threshold[i] (dB).  Thresholds
#: follow the standard's ~1.9 dB per CQI step spanning -6.7..22 dB.
CQI_THRESHOLDS_DB = tuple(-6.7 + 1.95 * i for i in range(15))
_CQI_THRESHOLDS = np.array(CQI_THRESHOLDS_DB)

#: Spectral efficiency per CQI (38.214 Table 5.2.2.1-2, abridged shape).
CQI_EFFICIENCY = (0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
                  1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152,
                  5.5547)


def snr_to_cqi(snr_db: float | np.ndarray) -> np.intp | np.ndarray:
    """CQI report (1-15) per instantaneous SNR; 0 means out of range.

    Takes a scalar or an array: the count of thresholds at or below
    each SNR.
    """
    return np.searchsorted(_CQI_THRESHOLDS, snr_db, side="right")


def cqi_to_efficiency(cqi: int) -> float:
    """Spectral efficiency target for a CQI report."""
    if not 0 <= cqi <= 15:
        raise ChannelError(f"CQI out of range: {cqi}")
    if cqi == 0:
        return 0.0
    return CQI_EFFICIENCY[cqi - 1]


def required_snr_db(mcs: McsEntry, margin_db: float = 1.0) -> float:
    """SNR needed to decode an MCS at the ~10% BLER operating point.

    Shannon-gap approximation: ``10 log10(2**SE - 1)`` plus an
    implementation margin.
    """
    efficiency = mcs.spectral_efficiency
    return 10.0 * math.log10(2.0 ** efficiency - 1.0) + margin_db


def block_error_probability(snr_db: float, mcs: McsEntry,
                            slope_db: float = 1.0) -> float:
    """Logistic BLER curve around the MCS's required SNR.

    At ``required_snr`` the BLER is 50%; 2-3 dB above it collapses toward
    zero, matching the waterfall behaviour of LDPC-coded PDSCH.
    """
    delta = snr_db - required_snr_db(mcs)
    return 1.0 / (1.0 + math.exp(delta / max(slope_db, 1e-6) * 2.2))


def transport_block_survives(snr_db: float, mcs: McsEntry,
                             rng: np.random.Generator,
                             slope_db: float = 1.0) -> bool:
    """Bernoulli draw: did the UE decode this transport block?"""
    return bool(rng.random() >= block_error_probability(snr_db, mcs,
                                                        slope_db))
