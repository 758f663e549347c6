"""The full PDCCH encode/decode chain (TS 38.212 section 7.3, 38.211 7.3.2).

Transmit direction (gNB):

    DCI payload -> CRC24C over (24 ones ++ payload) -> RNTI-scramble the
    last 16 CRC bits -> polar encode -> rate match to 108 * L bits ->
    Gold-sequence scramble -> QPSK -> map onto the CCEs of one candidate,
    with DMRS pilots in their standard positions.

Receive direction (NR-Scope): the exact inverse, driven by soft LLRs, with
the CRC check as the accept/reject gate.  This CRC gate is the property
the paper highlights over 4G-era tools ("NR-Scope can verify the
correctness of the decoded information on its own", section 2): a decode
is only reported when the CRC, descrambled with the hypothesised RNTI,
passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.constants import DCI_CRC_LEN, MAX_RNTI, N_REG_PER_CCE, \
    N_SYMBOLS_PER_SLOT
from repro.phy import polar
from repro.phy.coreset import Coreset
from repro.phy.crc import crc_parity, crc_terms, rnti_to_bits
from repro.phy.dci import Dci, DciError, DciFormat, DciSizeConfig, \
    dci_payload_size, pack, unpack
from repro.phy.dmrs import PDCCH_DATA_RES_PER_REG, PDCCH_DMRS_POSITIONS, \
    pdcch_dmrs_symbols, reg_data_subcarriers
from repro.phy.modulation import QPSK, constellation, demodulate_soft
from repro.phy.numerology import slots_per_frame
from repro.phy.resource_grid import ResourceGrid
from repro.phy.scrambling import descramble_llrs, descramble_signs, \
    gold_sequence, pdcch_scrambling_init


class PdcchError(ValueError):
    """Raised for impossible encode/decode geometries."""


#: Coded bits carried by one CCE: 6 REGs x 9 data REs x 2 (QPSK).
BITS_PER_CCE = N_REG_PER_CCE * PDCCH_DATA_RES_PER_REG * QPSK.bits_per_symbol

#: Ones prepended to the payload before CRC computation (38.212 7.3.2).
_CRC_PREFIX = np.ones(DCI_CRC_LEN, dtype=np.uint8)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, frozen: cached arrays are shared by every later slot,
    so a caller that writes into one must fail, not corrupt them."""
    array.setflags(write=False)
    return array


def dci_crc_attach(payload: np.ndarray, rnti: int) -> np.ndarray:
    """Attach the RNTI-scrambled CRC24C to a DCI payload.

    The CRC is computed over 24 prepended ones followed by the payload
    (the ones are not transmitted), then the last 16 parity bits are
    XOR-masked with the RNTI.
    """
    bits = np.asarray(payload, dtype=np.uint8).ravel()
    return dci_crc_attach_batch(
        bits[None, :], np.array([rnti], dtype=np.int64)).reshape(-1)


def dci_crc_check(block: np.ndarray, rnti: int) -> bool:
    """Verify a received payload+CRC block against a hypothesised RNTI."""
    bits = np.asarray(block, dtype=np.uint8).ravel()
    if bits.size <= DCI_CRC_LEN:
        return False
    payload, received = bits[:-DCI_CRC_LEN], bits[-DCI_CRC_LEN:]
    expected = crc_parity(
        np.concatenate([_CRC_PREFIX, payload]), "crc24c")
    expected[-16:] ^= rnti_to_bits(rnti)
    return bool(np.array_equal(expected, received))


@lru_cache(maxsize=16)
def _dci_crc_terms(block_len: int) -> tuple[int, np.ndarray, np.ndarray]:
    """For ``block_len``-bit payload+CRC blocks: the CRC24C parity of
    the 24-ones prefix, the payload bits' :func:`~repro.phy.crc.crc_terms`
    and the MSB-first weights of the 24-bit CRC field (read-only)."""
    terms = crc_terms(block_len, "crc24c")
    weights = 1 << np.arange(DCI_CRC_LEN - 1, -1, -1, dtype=np.int64)
    weights.setflags(write=False)
    return (int(np.bitwise_xor.reduce(terms[:DCI_CRC_LEN])),
            terms[DCI_CRC_LEN:], weights)


def _dci_parity(payloads: np.ndarray) -> np.ndarray:
    """Each payload row's CRC24C parity as a 24-bit integer: one XOR
    reduction of the generator-matrix rows at its set bits, held as
    integers (:func:`~repro.phy.crc.crc_terms`; the 24 prefix ones
    share one precomputed term)."""
    prefix, terms, _ = _dci_crc_terms(payloads.shape[1] + DCI_CRC_LEN)
    parity: np.ndarray = np.bitwise_xor.reduce(payloads * terms,
                                               axis=1) ^ prefix
    return parity


def dci_crc_syndromes(blocks: np.ndarray) -> np.ndarray:
    """Per row of stacked payload+CRC blocks, the CRC24C parity of its
    payload XOR its received CRC field, as a 24-bit integer (-1 for a
    row too short to carry a CRC).

    A row passes :func:`dci_crc_check` under ``rnti`` exactly when its
    syndrome equals ``rnti & MAX_RNTI``: the gNB masks only the low 16
    parity bits, with the RNTI.  So a syndrome with its top 8 bits
    clear *is* the RNTI that scrambled the row, the XOR of the paper's
    RNTI recovery (section 3.1.2), and one syndrome per decoded row
    answers every RNTI hypothesis for it.

    Layout: blocks (B, K) uint8
    Layout: return (B) int64
    """
    arr = np.asarray(blocks, dtype=np.uint8)
    if arr.ndim != 2:
        raise PdcchError(
            f"expected stacked blocks, got shape {arr.shape}")
    if arr.shape[1] <= DCI_CRC_LEN:
        return np.full(arr.shape[0], -1, dtype=np.int64)
    payload_len = arr.shape[1] - DCI_CRC_LEN
    _, _, weights = _dci_crc_terms(arr.shape[1])
    syndromes: np.ndarray = _dci_parity(arr[:, :payload_len]) \
        ^ (arr[:, payload_len:] @ weights)
    return syndromes


def dci_crc_check_batch(blocks: np.ndarray,
                        rntis: np.ndarray) -> np.ndarray:
    """Row-wise :func:`dci_crc_check` over stacked payload+CRC blocks.

    ``blocks`` is ``(batch, k)`` and ``rntis`` gives each row's
    hypothesised RNTI: a row passes when its
    :func:`dci_crc_syndromes` entry equals its RNTI on the 16 masked
    bits, so the boolean verdicts are bit-identical to the scalar
    check at a fraction of the dispatch cost.
    """
    verdicts: np.ndarray = dci_crc_syndromes(blocks) \
        == (np.asarray(rntis, dtype=np.int64).reshape(-1) & MAX_RNTI)
    return verdicts


def dci_crc_attach_batch(payloads: np.ndarray,
                         rntis: np.ndarray) -> np.ndarray:
    """Row-wise :func:`dci_crc_attach` over stacked payloads.

    Each row's parity (:func:`_dci_parity`) is masked with the row's
    RNTI on its low 16 bits, then unpacked MSB first.

    Layout: payloads (N, A) uint8
    Layout: rntis (N) int64
    Layout: return (N, K) uint8
    """
    arr = np.asarray(payloads, dtype=np.uint8)
    parity = _dci_parity(arr) \
        ^ (np.asarray(rntis, dtype=np.int64) & MAX_RNTI)
    shifts = np.arange(DCI_CRC_LEN - 1, -1, -1, dtype=np.int64)
    bits = ((parity[:, None] >> shifts) & 1).astype(np.uint8)
    return np.concatenate([arr, bits], axis=1)


def dci_recover_rnti(block: np.ndarray) -> int | None:
    """Recover the RNTI that scrambled a received DCI block's CRC.

    This is the C-RNTI acquisition trick of paper section 3.1.2: XOR the
    locally computed CRC with the received one (the block's
    :func:`dci_crc_syndromes` entry).  The 8 unmasked parity bits
    double as a confidence check; None means they disagreed, i.e. the
    block is corrupt rather than merely scrambled.
    """
    bits = np.asarray(block, dtype=np.uint8).reshape(1, -1)
    syndrome = int(dci_crc_syndromes(bits)[0])
    return syndrome if 0 <= syndrome <= MAX_RNTI else None


@dataclass(frozen=True)
class PdcchCandidate:
    """Where one DCI sits in the CORESET: first CCE + aggregation level."""

    first_cce: int
    aggregation_level: int

    @property
    def n_coded_bits(self) -> int:
        """Rate-matched size E for this candidate."""
        return self.aggregation_level * BITS_PER_CCE


def _candidate_re_positions(coreset: Coreset,
                            candidate: PdcchCandidate) -> list[tuple[int, int, int]]:
    """(prb, symbol, subcarrier) for every data RE of a candidate."""
    positions: list[tuple[int, int, int]] = []
    data_scs = reg_data_subcarriers()
    for cce in range(candidate.first_cce,
                     candidate.first_cce + candidate.aggregation_level):
        for reg in coreset.cce_to_regs(cce):
            prb, symbol = coreset.reg_to_position(reg)
            positions.extend((prb, symbol, sc) for sc in data_scs)
    return positions


@lru_cache(maxsize=4096)
def _candidate_flat_indices(coreset: Coreset, first_cce: int,
                            aggregation_level: int) -> np.ndarray:
    """Flat indices into a C-ordered ``grid.data`` for a candidate's
    data REs.  Cached: the decoder touches the same (CORESET, candidate)
    pairs every slot, and vectorised gathers are what keep exhaustive
    per-UE search within the TTI budget."""
    candidate = PdcchCandidate(first_cce=first_cce,
                               aggregation_level=aggregation_level)
    positions = _candidate_re_positions(coreset, candidate)
    return read_only(np.array([(prb * 12 + sc) * N_SYMBOLS_PER_SLOT + sym
                                for prb, sym, sc in positions],
                               dtype=np.intp))


def _gather_candidate(grid: ResourceGrid, coreset: Coreset,
                      candidate: PdcchCandidate) -> np.ndarray:
    """Vectorised read of a candidate's data REs from the grid."""
    indices = _candidate_flat_indices(coreset, candidate.first_cce,
                                      candidate.aggregation_level)
    return grid.data.reshape(-1)[indices]


@lru_cache(maxsize=64)
def _scrambled_qpsk_index(c_init: int, n_coded: int) -> np.ndarray:
    """The Gold sequence of ``c_init`` as QPSK symbol-index offsets:
    ``(2 * c[2i] + c[2i+1])`` per symbol, read-only.  XOR-ing it into a
    codeword's symbol indices scrambles the bits pairwise."""
    bits = gold_sequence(c_init, n_coded)
    return read_only((bits[0::2] << 1) | bits[1::2])


def encode_pdcch(items: Sequence[tuple[Dci, Coreset, PdcchCandidate]],
                 cfg: DciSizeConfig, grid: ResourceGrid, n_id: int,
                 slot_index: int,
                 scs_khz: int = 30) -> list[np.ndarray | None]:
    """Encode one slot's DCIs and write them, with DMRS, into the grid.

    ``items`` are ``(dci, coreset, candidate)`` in transmission order;
    the DMRS numbers ``slot_index`` within the frame of a cell of
    subcarrier spacing ``scs_khz``.  Returns each item's payload bits
    for ground-truth logging, or None for a candidate that does not fit
    its CORESET (nothing of it is written).  The result equals encoding
    the items one at a time: a later item's REs overwrite an earlier
    one's where candidates overlap, and data and DMRS REs never coincide
    (DMRS sits on subcarriers 1, 5, 9 of every REG, whatever the
    CORESET).

    The slot is one pass: ``pack`` per DCI, one CRC batch and one polar
    encode per (K, E), a cached scrambling sequence folded into the
    QPSK symbol indices, cached DMRS pilots, and one ``np.put`` each
    for the data and the pilots.
    """
    payloads: dict[int, np.ndarray] = {}
    by_code: dict[tuple[int, int], list[int]] = {}
    for i, (dci, coreset, candidate) in enumerate(items):
        if candidate.first_cce + candidate.aggregation_level \
                > coreset.n_cces:
            continue
        payloads[i] = pack(dci, cfg)
        by_code.setdefault((payloads[i].size, candidate.n_coded_bits),
                           []).append(i)
    written = list(payloads)
    if not written:
        return [None] * len(items)

    c_init = pdcch_scrambling_init(n_id)
    points = constellation(QPSK)
    symbols: dict[int, np.ndarray] = {}
    for (payload_len, n_coded), members in by_code.items():
        with_crc = dci_crc_attach_batch(
            np.stack([payloads[i] for i in members]),
            np.array([items[i][0].rnti for i in members], dtype=np.int64))
        coded = polar.encode_batch(
            with_crc, polar.construct(payload_len + DCI_CRC_LEN, n_coded))
        index = ((coded[:, 0::2] << 1) | coded[:, 1::2]) \
            ^ _scrambled_qpsk_index(c_init, n_coded)
        symbols.update(zip(members, points[index]))

    data_idx, dmrs_idx, pilots = [], [], []
    for i in written:
        _, coreset, candidate = items[i]
        data_idx.append(_candidate_flat_indices(
            coreset, candidate.first_cce, candidate.aggregation_level))
        layout = _dmrs_layout(coreset, candidate.first_cce,
                              candidate.aggregation_level)
        dmrs_idx.append(layout.flat)
        pilots.append(layout.pilots(n_id, slot_index, scs_khz))
    data_at = np.concatenate(data_idx)
    dmrs_at = np.concatenate(dmrs_idx)
    np.put(grid.data, data_at, np.concatenate([symbols[i]
                                               for i in written]))
    np.put(grid.data, dmrs_at, np.concatenate(pilots))
    return [payloads.get(i) for i in range(len(items))]


@lru_cache(maxsize=4096)
def _dmrs_pilots(n_id: int, reduced_slot: int, symbol: int,
                 n_regs: int, scs_khz: int) -> np.ndarray:
    """:func:`~repro.phy.dmrs.pdcch_dmrs_symbols` for a slot reduced
    modulo the frame (the pilots repeat every frame), read-only."""
    return read_only(pdcch_dmrs_symbols(n_id, symbol, reduced_slot, n_regs,
                                        scs_khz))


@dataclass(frozen=True)
class _DmrsLayout:
    """Where a candidate's DMRS pilots go, in pilot-generation order.

    Pilots are generated per symbol (symbols in the order the
    candidate's REGs first reach them) across that symbol's PRBs in
    ascending order, three per REG.  ``flat`` holds their flat
    ``grid.data`` indices in that order and ``per_symbol`` the
    ``(symbol, n_regs)`` runs the generator is called with;
    ``reg_order`` permutes generation order into REG order (CCE by
    CCE), the order the channel estimate averages in.  Both arrays
    are shared and read-only.
    """

    flat: np.ndarray
    per_symbol: tuple[tuple[int, int], ...]
    reg_order: np.ndarray

    def pilots(self, n_id: int, slot_index: int,
               scs_khz: int) -> np.ndarray:
        """The candidate's pilot symbols, aligned with ``flat``, in a
        cell of subcarrier spacing ``scs_khz``."""
        reduced_slot = slot_index % slots_per_frame(scs_khz)
        return np.concatenate([
            _dmrs_pilots(n_id, reduced_slot, symbol, n_regs, scs_khz)
            for symbol, n_regs in self.per_symbol])


@lru_cache(maxsize=4096)
def _dmrs_layout(coreset: Coreset, first_cce: int,
                 aggregation_level: int) -> _DmrsLayout:
    """Cached :class:`_DmrsLayout` of one candidate."""
    positions = [coreset.reg_to_position(reg)
                 for cce in range(first_cce, first_cce + aggregation_level)
                 for reg in coreset.cce_to_regs(cce)]
    per_symbol: dict[int, list[int]] = {}
    for prb, symbol in positions:
        per_symbol.setdefault(symbol, []).append(prb)
    flat = [(prb * 12 + sc) * N_SYMBOLS_PER_SLOT + symbol
            for symbol, prbs in per_symbol.items()
            for prb in sorted(prbs) for sc in PDCCH_DMRS_POSITIONS]
    generated_at = {idx: pos for pos, idx in enumerate(flat)}
    reg_order = [generated_at[(prb * 12 + sc) * N_SYMBOLS_PER_SLOT + symbol]
                 for prb, symbol in positions
                 for sc in PDCCH_DMRS_POSITIONS]
    return _DmrsLayout(
        flat=read_only(np.array(flat, dtype=np.intp)),
        per_symbol=tuple((symbol, len(prbs))
                         for symbol, prbs in per_symbol.items()),
        reg_order=read_only(np.array(reg_order, dtype=np.intp)))


def estimate_channel(grid: ResourceGrid, coreset: Coreset,
                     candidate: PdcchCandidate, n_id: int,
                     slot_index: int, scs_khz: int) -> complex:
    """Least-squares channel estimate from the candidate's DMRS pilots.

    Averaging ``received / expected`` over the pilots gives the complex
    gain a real receiver would equalise with; on a clean simulated link
    this is ~1+0j, under phase/gain impairments it recovers them.  The
    pilots number ``slot_index`` within the frame of a cell of
    subcarrier spacing ``scs_khz``.
    """
    if candidate.first_cce + candidate.aggregation_level > coreset.n_cces:
        return 1.0 + 0.0j
    layout = _dmrs_layout(coreset, candidate.first_cce,
                          candidate.aggregation_level)
    received = grid.data.reshape(-1)[layout.flat]
    expected = layout.pilots(n_id, slot_index, scs_khz)
    power = float(np.mean(np.abs(expected) ** 2))
    products = (received * expected.conj())[layout.reg_order]
    estimate = np.mean(products) / max(power, 1e-12)
    if abs(estimate) < 1e-9:
        return 1.0 + 0.0j
    return complex(estimate)


@lru_cache(maxsize=2048)
def _level_index_matrix(coreset: Coreset,
                        aggregation_level: int) -> np.ndarray:
    """Stacked flat-index matrix for every aligned candidate position.

    Row ``p`` holds the data-RE indices of the candidate starting at CCE
    ``p * aggregation_level``: one cached ``(n_positions, E/2)`` matrix
    per (CORESET, level), whose rows :class:`CandidateLayout` picks.
    """
    n_positions = coreset.n_cces // aggregation_level
    if n_positions == 0:
        cols = aggregation_level * BITS_PER_CCE // QPSK.bits_per_symbol
        return read_only(np.zeros((0, cols), dtype=np.intp))
    return read_only(np.stack([
        _candidate_flat_indices(coreset, pos * aggregation_level,
                                aggregation_level)
        for pos in range(n_positions)]))


@dataclass(frozen=True, eq=False)
class CandidateLayout:
    """Candidates in groups of one aggregation level each, laid out so
    that one gather reads all of them.

    Group ``g`` holds rows ``row_bounds[g]:row_bounds[g + 1]`` of level
    ``levels[g]``, whose data REs are ``flat[re_bounds[g]:re_bounds[g +
    1]]`` row after row, ``widths[g]`` REs a row.  ``flat`` indexes a
    grid's flattened data (:meth:`build`) or the gathers of several
    layouts back to back (:meth:`stack`).  ``row_widths`` is each row's
    width and ``signs[g]`` the LLR descramble signs of one row of group
    ``g`` (every row restarts the cell's scrambling sequence).  The
    arrays are shared by every slot that uses the layout, so they are
    read-only.
    """

    levels: tuple[int, ...]
    flat: np.ndarray
    row_bounds: tuple[int, ...]
    re_bounds: tuple[int, ...]
    widths: tuple[int, ...]
    row_widths: np.ndarray
    signs: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, groups: Sequence[tuple[Coreset, int, Sequence[int]]],
              c_init: int) -> "CandidateLayout":
        """The layout of ``(coreset, level, starts)`` groups over a
        grid, descrambled with ``c_init``: one group per entry, one row
        per start (the rows of :func:`_level_index_matrix`).

        Starts must be aligned to their level and in range, as
        :meth:`SearchSpace.candidate_cces` produces them.
        """
        flats: list[np.ndarray] = []
        signs: list[np.ndarray] = []
        widths: list[int] = []
        row_bounds, re_bounds = [0], [0]
        for coreset, level, starts in groups:
            matrix = _level_index_matrix(coreset, level)
            rows = matrix[np.asarray(starts, dtype=np.intp) // level]
            width = matrix.shape[1]
            flats.append(rows.ravel())
            signs.append(descramble_signs(c_init,
                                          width * QPSK.bits_per_symbol))
            widths.append(width)
            row_bounds.append(row_bounds[-1] + len(starts))
            re_bounds.append(re_bounds[-1] + rows.size)
        return cls._of(tuple(level for _, level, _ in groups), flats,
                       row_bounds, re_bounds, widths, signs)

    @classmethod
    def _of(cls, levels: tuple[int, ...], flats: list[np.ndarray],
            row_bounds: list[int], re_bounds: list[int],
            widths: list[int], signs: list[np.ndarray]) \
            -> "CandidateLayout":
        return cls(
            levels=levels,
            flat=read_only(np.concatenate(
                flats or [np.zeros(0, dtype=np.intp)])),
            row_bounds=tuple(row_bounds), re_bounds=tuple(re_bounds),
            widths=tuple(widths),
            row_widths=read_only(np.repeat(
                np.array(widths, dtype=np.intp),
                np.diff(np.array(row_bounds, dtype=np.intp)))),
            signs=tuple(signs))

    @classmethod
    def stack(cls, layouts: Sequence["CandidateLayout"]) \
            -> tuple["CandidateLayout", np.ndarray]:
        """The rows of ``layouts``, regrouped one group per level
        (ascending), in layout order within a group.

        The stacked ``flat`` indexes the layouts' gathers concatenated
        in order (:meth:`take` of that concatenation reads every row),
        and the returned array gives each stacked row's index among the
        layouts' rows concatenated in order.  Groups of one level have
        one width and one set of signs, whichever CORESET they sit in.
        """
        pieces: dict[int, list[tuple[int, int, int, int]]] = {}
        signs: dict[int, np.ndarray] = {}
        row_offset = re_offset = 0
        for layout in layouts:
            for g, level in enumerate(layout.levels):
                pieces.setdefault(level, []).append((
                    row_offset + layout.row_bounds[g],
                    row_offset + layout.row_bounds[g + 1],
                    re_offset + layout.re_bounds[g],
                    re_offset + layout.re_bounds[g + 1]))
                signs.setdefault(level, layout.signs[g])
            row_offset += layout.n_rows
            re_offset += layout.flat.size
        levels = tuple(sorted(pieces))
        flats: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        row_bounds, re_bounds, widths = [0], [0], []
        for level in levels:
            for first_row, stop_row, first_re, stop_re in pieces[level]:
                rows.append(np.arange(first_row, stop_row, dtype=np.intp))
                flats.append(np.arange(first_re, stop_re, dtype=np.intp))
            row_bounds.append(row_bounds[-1] + sum(
                stop - first for first, stop, _, _ in pieces[level]))
            re_bounds.append(re_bounds[-1] + sum(
                stop - first for _, _, first, stop in pieces[level]))
            widths.append(signs[level].size // QPSK.bits_per_symbol)
        return (cls._of(levels, flats, row_bounds, re_bounds, widths,
                        [signs[level] for level in levels]),
                read_only(np.concatenate(
                    rows or [np.zeros(0, dtype=np.intp)])))

    @property
    def n_rows(self) -> int:
        """Candidates in the layout, over all groups."""
        return self.row_bounds[-1]

    def gather(self, grid: ResourceGrid) -> np.ndarray:
        """Every row's REs from ``grid``, back to back."""
        return self.take(grid.data.reshape(-1))

    def take(self, values: np.ndarray) -> np.ndarray:
        """Every row's REs from the flat ``values`` that :attr:`flat`
        indexes, back to back."""
        return values[self.flat]

    def energies(self, values: np.ndarray) -> np.ndarray:
        """Mean per-RE power of each row of the gathered ``values``.

        Each group's rows reduce as a ``(rows, width)`` matrix, numpy's
        pairwise row reduction, so every energy is bit-identical to
        :func:`candidate_energy` on that candidate.

        Layout: values (R) complex128
        Layout: return (N) float64
        """
        power = np.abs(values) ** 2
        out = np.zeros(self.n_rows, dtype=np.float64)
        for g, width in enumerate(self.widths):
            first, stop = self.row_bounds[g], self.row_bounds[g + 1]
            if stop > first:
                # np.mean's own reduction, without its dispatch.
                out[first:stop] = np.add.reduce(power[
                    self.re_bounds[g]:self.re_bounds[g + 1]].reshape(
                        stop - first, width), axis=1) / width
        return out

    def select(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """The REs of the rows ``keep`` marks, back to back.

        Layout: values (R) complex128
        Layout: keep (N) bool
        Layout: return (S) complex128
        """
        return values[np.repeat(keep, self.row_widths)]

    def split(self, llrs: np.ndarray, keep: np.ndarray) \
            -> list[np.ndarray]:
        """Per group, the descrambled ``(kept rows, 2 * width)`` LLR
        matrix of its rows ``keep`` marks, from the kept rows' ``llrs``
        (the demod of :meth:`select`'s REs)."""
        out = []
        offset = 0
        for g, signs in enumerate(self.signs):
            n_kept = int(np.count_nonzero(
                keep[self.row_bounds[g]:self.row_bounds[g + 1]]))
            block = llrs[offset:offset + n_kept * signs.size]
            out.append(block.reshape(n_kept, signs.size) * signs)
            offset += block.size
        return out


def occupancy_threshold(noise_var: float) -> float:
    """Energy-detection threshold shared by scalar and batched gates."""
    return noise_var + 0.4


def candidate_energy(grid: ResourceGrid, coreset: Coreset,
                     candidate: PdcchCandidate) -> float:
    """Mean per-RE power over a candidate's data REs.

    Cheap pre-detection: an empty candidate carries only noise power,
    an occupied one roughly ``1 + noise_var``.  Real receivers gate on
    the DMRS correlation for the same reason — skipping the polar decode
    of empty candidates is what makes exhaustive search affordable.
    """
    if candidate.first_cce + candidate.aggregation_level > coreset.n_cces:
        return 0.0
    values = _gather_candidate(grid, coreset, candidate)
    return float(np.mean(np.abs(values) ** 2))


def candidate_occupied(grid: ResourceGrid, coreset: Coreset,
                       candidate: PdcchCandidate,
                       noise_var: float) -> bool:
    """Energy-detection verdict for one candidate."""
    threshold = occupancy_threshold(noise_var)
    return candidate_energy(grid, coreset, candidate) > threshold


def try_decode_pdcch(grid: ResourceGrid, cfg: DciSizeConfig,
                     coreset: Coreset, candidate: PdcchCandidate,
                     fmt: DciFormat, rnti: int, n_id: int,
                     noise_var: float, slot_index: int = 0,
                     equalize: bool = False,
                     scs_khz: int | None = None) -> Dci | None:
    """Attempt to decode one candidate for one (RNTI, format) hypothesis.

    Returns the DCI when the polar decode succeeds *and* the
    RNTI-descrambled CRC passes; None otherwise.  This mirrors the search
    NR-Scope runs per tracked UE per slot (paper section 3.2.1).

    With ``equalize`` the candidate's DMRS pilots provide a
    least-squares channel estimate that is divided out before
    demodulation (needed when the capture path applies gain/phase
    impairments).  The pilots number ``slot_index`` within the frame of
    a cell of subcarrier spacing ``scs_khz``, which ``equalize`` needs.
    """
    if candidate.first_cce + candidate.aggregation_level > coreset.n_cces:
        return None
    received = _gather_candidate(grid, coreset, candidate)
    if equalize:
        if scs_khz is None:
            raise PdcchError("equalizing needs the cell's scs_khz")
        gain = estimate_channel(grid, coreset, candidate, n_id,
                                slot_index, scs_khz)
        received = received / gain
        noise_var = noise_var / max(abs(gain) ** 2, 1e-9)
    llrs = demodulate_soft(received, QPSK, max(noise_var, 1e-12))
    # Descramble in the LLR domain: a flipped bit negates the LLR.
    llrs = descramble_llrs(llrs, pdcch_scrambling_init(n_id))

    payload_len = dci_payload_size(fmt, cfg)
    k = payload_len + DCI_CRC_LEN
    if k > candidate.n_coded_bits:
        return None
    code = polar.construct(k, candidate.n_coded_bits)
    block = polar.decode(llrs, code)
    if not dci_crc_check(block, rnti):
        return None
    try:
        return unpack(block[:-DCI_CRC_LEN], fmt, cfg, rnti)
    except DciError:
        # CRC passed but the field layout is inconsistent (e.g. format
        # identifier mismatch) - treat as a failed hypothesis.
        return None


def decode_candidate_bits(grid: ResourceGrid, coreset: Coreset,
                          candidate: PdcchCandidate, payload_len: int,
                          n_id: int, noise_var: float) -> np.ndarray | None:
    """Decode a candidate to raw payload+CRC bits without an RNTI check.

    Used by the RACH sniffer, which does not yet know the RNTI and instead
    recovers it from the CRC mask via :func:`dci_recover_rnti`.
    """
    if candidate.first_cce + candidate.aggregation_level > coreset.n_cces:
        return None
    received = _gather_candidate(grid, coreset, candidate)
    llrs = demodulate_soft(received, QPSK, max(noise_var, 1e-12))
    llrs = descramble_llrs(llrs, pdcch_scrambling_init(n_id))
    k = payload_len + DCI_CRC_LEN
    if k > candidate.n_coded_bits:
        return None
    code = polar.construct(k, candidate.n_coded_bits)
    return polar.decode(llrs, code)
