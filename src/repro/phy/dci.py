"""Downlink Control Information formats 1_1 and 0_1 (TS 38.212 7.3.1).

A DCI is the atom of NR-Scope telemetry: one decoded DCI per UE per TTI
yields that UE's scheduled PRBs, MCS, HARQ process and new-data indicator.
This module packs the field values into the 30-80 bit payload the PDCCH
carries (paper section 3.2.1) and unpacks received payloads.

Field widths depend on the bandwidth part's PRB count and a handful of RRC
parameters, so both ends share a :class:`DciSizeConfig` — the gNB sets it
from its own configuration, NR-Scope learns the same values from SIB 1 and
MSG 4 (paper section 3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache

import numpy as np


class DciError(ValueError):
    """Raised for malformed DCI payloads or field overflows."""


class DciFormat(Enum):
    """The two scheduling DCI formats the paper decodes."""

    DL_1_1 = "1_1"
    UL_0_1 = "0_1"


@dataclass(frozen=True)
class DciSizeConfig:
    """RRC-derived parameters that fix the DCI payload layout."""

    n_prb_bwp: int
    bwp_indicator_bits: int = 0
    antenna_ports_bits: int = 4
    dai_bits: int = 2
    pucch_resource_bits: int = 3
    harq_feedback_bits: int = 3
    srs_request_bits: int = 2

    def __post_init__(self) -> None:
        if self.n_prb_bwp < 1:
            raise DciError(f"BWP must have >= 1 PRB, got {self.n_prb_bwp}")
        if not 0 <= self.bwp_indicator_bits <= 2:
            raise DciError("BWP indicator is 0..2 bits")

    @property
    def freq_alloc_bits(self) -> int:
        """Type-1 resource allocation (RIV) field width."""
        n = self.n_prb_bwp
        return max(1, math.ceil(math.log2(n * (n + 1) / 2)))


def riv_encode(start_prb: int, n_prb: int, bwp_size: int) -> int:
    """Resource indication value for a contiguous allocation (38.214 5.1.2.2.2)."""
    if n_prb < 1 or start_prb < 0 or start_prb + n_prb > bwp_size:
        raise DciError(
            f"allocation [{start_prb}, +{n_prb}) outside BWP of {bwp_size}")
    if (n_prb - 1) <= bwp_size // 2:
        return bwp_size * (n_prb - 1) + start_prb
    return bwp_size * (bwp_size - n_prb + 1) + (bwp_size - 1 - start_prb)


def riv_decode(riv: int, bwp_size: int) -> tuple[int, int]:
    """Invert :func:`riv_encode`; returns ``(start_prb, n_prb)``."""
    if riv < 0:
        raise DciError(f"negative RIV: {riv}")
    length_minus_1, start = divmod(riv, bwp_size)
    if length_minus_1 + 1 + start <= bwp_size and length_minus_1 < bwp_size:
        candidate = (start, length_minus_1 + 1)
        if (candidate[1] - 1) <= bwp_size // 2:
            return candidate
    n_prb = bwp_size - length_minus_1 + 1
    start_prb = bwp_size - 1 - start
    if not (1 <= n_prb <= bwp_size and 0 <= start_prb
            and start_prb + n_prb <= bwp_size):
        raise DciError(f"RIV {riv} invalid for BWP size {bwp_size}")
    return start_prb, n_prb


@dataclass(frozen=True)
class Dci:
    """Decoded DCI field values (Appendix B of the paper shows a sample).

    ``rnti`` is not part of the payload: it scrambles the CRC and is
    recovered by the PDCCH decoder, but it travels with the struct because
    every consumer needs the pair.
    """

    format: DciFormat
    rnti: int
    freq_alloc_riv: int
    time_alloc: int
    mcs: int
    ndi: int
    rv: int
    harq_id: int
    dai: int = 0
    tpc: int = 1
    pucch_resource: int = 0
    harq_feedback_timing: int = 0
    antenna_ports: int = 0
    srs_request: int = 0
    dmrs_seq_init: int = 0
    vrb_to_prb: int = 0
    bwp_indicator: int = 0
    freq_hopping: int = 0

    def describe(self) -> str:
        """One-line rendering in the style of the paper's Appendix B."""
        return (f"c-rnti=0x{self.rnti:04x}, dci={self.format.value}, "
                f"f_alloc=0x{self.freq_alloc_riv:x}, "
                f"t_alloc=0x{self.time_alloc:x}, mcs={self.mcs}, "
                f"ndi={self.ndi}, rv={self.rv}, harq_id={self.harq_id}, "
                f"dai={self.dai}, tpc={self.tpc}")


@lru_cache(maxsize=64)
def field_layout(fmt: DciFormat,
                 cfg: DciSizeConfig) -> tuple[tuple[str, int], ...]:
    """Ordered (field, width) pairs for a format under a size config
    (cached: every pack and unpack asks for it)."""
    if fmt is DciFormat.DL_1_1:
        layout = [
            ("bwp_indicator", cfg.bwp_indicator_bits),
            ("freq_alloc_riv", cfg.freq_alloc_bits),
            ("time_alloc", 4),
            ("vrb_to_prb", 1),
            ("mcs", 5),
            ("ndi", 1),
            ("rv", 2),
            ("harq_id", 4),
            ("dai", cfg.dai_bits),
            ("tpc", 2),
            ("pucch_resource", cfg.pucch_resource_bits),
            ("harq_feedback_timing", cfg.harq_feedback_bits),
            ("antenna_ports", cfg.antenna_ports_bits),
            ("srs_request", cfg.srs_request_bits),
            ("dmrs_seq_init", 1),
        ]
    elif fmt is DciFormat.UL_0_1:
        layout = [
            ("bwp_indicator", cfg.bwp_indicator_bits),
            ("freq_alloc_riv", cfg.freq_alloc_bits),
            ("time_alloc", 4),
            ("freq_hopping", 1),
            ("mcs", 5),
            ("ndi", 1),
            ("rv", 2),
            ("harq_id", 4),
            ("dai", min(cfg.dai_bits, 1)),
            ("tpc", 2),
            ("srs_request", cfg.srs_request_bits),
            ("dmrs_seq_init", 1),
        ]
    else:  # pragma: no cover - exhaustive over the enum
        raise DciError(f"unknown format: {fmt}")
    # The leading format-identifier bit (38.212 7.3.1: 1 for DL, 0 for UL).
    return (("_identifier", 1),) + tuple((n, w) for n, w in layout if w > 0)


def dci_payload_size(fmt: DciFormat, cfg: DciSizeConfig) -> int:
    """Payload bits before CRC attachment (the paper's '30-80 bits')."""
    return sum(width for _, width in field_layout(fmt, cfg))


_VALID_FIELDS = {f.name for f in fields(Dci)}


def pack(dci: Dci, cfg: DciSizeConfig) -> np.ndarray:
    """Serialise a DCI into its payload bits (MSB-first per field)."""
    value = size = 0
    for name, width in field_layout(dci.format, cfg):
        if name == "_identifier":
            field_value = 1 if dci.format is DciFormat.DL_1_1 else 0
        else:
            field_value = getattr(dci, name)
        if not 0 <= field_value < (1 << width):
            raise DciError(
                f"field {name}={field_value} does not fit in {width} bits")
        value = (value << width) | int(field_value)
        size += width
    packed = np.frombuffer(value.to_bytes((size + 7) // 8, "big"),
                           dtype=np.uint8)
    return np.unpackbits(packed)[-size:]


def unpack(bits: np.ndarray, fmt: DciFormat, cfg: DciSizeConfig,
           rnti: int) -> Dci:
    """Parse payload bits back into a :class:`Dci`.

    Raises :class:`DciError` when the size or the format-identifier bit is
    inconsistent — the identifier check is one of the sanity filters the
    real tool applies on top of the CRC.
    """
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    layout = field_layout(fmt, cfg)
    expected = sum(w for _, w in layout)
    if arr.size != expected:
        raise DciError(
            f"payload is {arr.size} bits, format {fmt.value} needs {expected}")
    # The payload as one integer, MSB first (packbits pads the last
    # byte with zeros on the right).
    value = int.from_bytes(np.packbits(arr).tobytes(), "big") \
        >> (-expected % 8)
    values: dict[str, int] = {}
    remaining = expected
    for name, width in layout:
        remaining -= width
        values[name] = (value >> remaining) & ((1 << width) - 1)
    identifier = values.pop("_identifier")
    expected_id = 1 if fmt is DciFormat.DL_1_1 else 0
    if identifier != expected_id:
        raise DciError(
            f"format identifier bit {identifier} inconsistent with"
            f" {fmt.value}")
    values = {k: v for k, v in values.items() if k in _VALID_FIELDS}
    return Dci(format=fmt, rnti=rnti, **values)


@lru_cache(maxsize=64)
def _field_weights(fmt: DciFormat, cfg: DciSizeConfig) \
        -> tuple[tuple[str, ...], np.ndarray]:
    """The names of ``fmt``'s fields (its :func:`field_layout`, the
    identifier first) and the read-only ``(payload bits, fields)``
    matrix whose product with a payload row is each field's value, MSB
    first."""
    layout = field_layout(fmt, cfg)
    weights = np.zeros((sum(w for _, w in layout), len(layout)),
                       dtype=np.int64)
    bit = 0
    for column, (_, width) in enumerate(layout):
        weights[bit:bit + width, column] = \
            1 << np.arange(width - 1, -1, -1, dtype=np.int64)
        bit += width
    weights.flags.writeable = False
    return tuple(name for name, _ in layout), weights


def unpack_rows(bits: np.ndarray, fmt: DciFormat,
                cfg: DciSizeConfig) -> list[dict[str, int] | None]:
    """:func:`unpack` of each row of stacked payloads, as field values:
    per row the keyword arguments of its :class:`Dci` (all but format
    and RNTI), or None where :func:`unpack` raises because the format
    identifier bit is inconsistent.  One matrix product for all rows.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    names, weights = _field_weights(fmt, cfg)
    if arr.ndim != 2 or arr.shape[1] != weights.shape[0]:
        raise DciError(
            f"payloads are {arr.shape}, format {fmt.value} needs rows of"
            f" {weights.shape[0]} bits")
    expected_id = 1 if fmt is DciFormat.DL_1_1 else 0
    keep = [i for i, name in enumerate(names) if name in _VALID_FIELDS]
    return [{names[i]: row[i] for i in keep} if row[0] == expected_id
            else None for row in (arr @ weights).tolist()]
