"""Polar coding for the PDCCH (TS 38.212 sections 5.3.1 and 5.4.1).

The gNB protects every DCI with a CRC-attached polar code; NR-Scope runs
the inverse chain, so PDCCH decode failures in this reproduction come from
genuine successive-cancellation decoding errors under channel noise.

Substitution note (documented in DESIGN.md): the channel reliability order
is generated with the polarization-weight beta-expansion (beta = 2**0.25)
instead of embedding the 1024-entry table 5.3.1.2-1 verbatim.  The ordering
is near-identical in practice and plays the same role; encoder and decoder
share it, so the system is exactly self-consistent.  Rate matching uses
suffix shortening (E < N) or repetition (E > N), the two mechanisms the
standard applies in the regimes PDCCH operates in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Maximum code size for the PDCCH (n_max = 9 in 38.212 section 7.3.3).
N_MAX_DL = 512
N_MIN = 32

#: Saturation magnitude for known-zero (shortened) bit LLRs.
_INF_LLR = 1e9


class PolarError(ValueError):
    """Raised for unsatisfiable code dimensions."""


@lru_cache(maxsize=None)
def reliability_order(n: int) -> tuple[int, ...]:
    """Channel indices of a length-``2**n`` polar code, least reliable first.

    Polarization-weight construction: index ``i`` with binary digits
    ``b_{n-1}..b_0`` gets weight ``sum_j b_j * 2**(j/4)``; sorting by weight
    ascending approximates 38.212 Table 5.3.1.2-1 (the universal sequence
    was itself derived from this family of constructions).
    """
    if not 0 <= n <= 10:
        raise PolarError(f"polar exponent out of range: {n}")
    size = 1 << n
    indices = np.arange(size)
    weights = np.zeros(size, dtype=np.float64)
    for j in range(n):
        weights += ((indices >> j) & 1) * (2.0 ** (j / 4.0))
    order = np.argsort(weights, kind="stable")
    return tuple(int(i) for i in order)


@dataclass(frozen=True)
class PolarCode:
    """A concrete (N, K, E) polar code with its frozen/info index sets."""

    n: int                      # N = 2**n
    block_len: int              # N
    info_len: int               # K (payload + CRC bits)
    rate_matched_len: int       # E (bits on the channel)
    info_indices: tuple[int, ...]
    shortened_outputs: tuple[int, ...]

    @property
    def code_rate(self) -> float:
        """K / E, the effective channel code rate."""
        return self.info_len / self.rate_matched_len


@lru_cache(maxsize=None)
def construct(info_len: int, rate_matched_len: int) -> PolarCode:
    """Choose N and the information set for a (K, E) PDCCH polar code."""
    if info_len <= 0:
        raise PolarError(f"K must be positive, got {info_len}")
    if rate_matched_len < info_len:
        raise PolarError(
            f"E={rate_matched_len} cannot carry K={info_len} info bits")
    n = N_MIN.bit_length() - 1
    while (1 << n) < min(rate_matched_len, N_MAX_DL) and (1 << n) < N_MAX_DL:
        n += 1
    # Ensure the mother code can hold K info bits even after shortening.
    while ((1 << n) - max(0, (1 << n) - rate_matched_len)) < info_len:
        n += 1
        if (1 << n) > N_MAX_DL:
            raise PolarError(
                f"K={info_len}, E={rate_matched_len} exceeds PDCCH polar"
                f" limits (N<=512)")
    block_len = 1 << n

    if rate_matched_len < block_len:
        shortened = tuple(range(rate_matched_len, block_len))
    else:
        shortened = ()
    forced_frozen = set(shortened)
    order = reliability_order(n)
    # Most reliable usable channels carry information.
    usable = [i for i in reversed(order) if i not in forced_frozen]
    if len(usable) < info_len:
        raise PolarError("not enough usable channels after shortening")
    info = tuple(sorted(usable[:info_len]))
    return PolarCode(n=n, block_len=block_len, info_len=info_len,
                     rate_matched_len=rate_matched_len,
                     info_indices=info, shortened_outputs=shortened)


def _transform(u: np.ndarray) -> np.ndarray:
    """Arikan transform ``x = u @ F^{(x)n}`` over GF(2) of each row, on
    a copy.

    One XOR per stage: viewing a row as ``(N / 2s, 2, s)`` puts every
    butterfly's upper half in ``[:, 0]`` and its lower half in ``[:, 1]``.

    Layout: u (B, N) uint8
    Layout: return (B, N) uint8
    """
    x = u.astype(np.uint8)
    size = x.shape[-1]
    stride = 1
    while stride < size:
        pairs = x.reshape(*x.shape[:-1], -1, 2, stride)
        pairs[..., 0, :] ^= pairs[..., 1, :]
        stride *= 2
    return x


def encode(info_bits: np.ndarray, code: PolarCode) -> np.ndarray:
    """Encode ``K`` info bits into ``E`` rate-matched coded bits."""
    bits = np.asarray(info_bits, dtype=np.uint8).ravel()
    if bits.size != code.info_len:
        raise PolarError(
            f"expected {code.info_len} info bits, got {bits.size}")
    return encode_batch(bits[None, :], code)[0]


@lru_cache(maxsize=64)
def _generator(info_len: int, rate_matched_len: int) -> np.ndarray:
    """The ``(K, E)`` code's generator over GF(2), as float32 for one
    BLAS product: row ``i`` is the rate-matched codeword of info bit
    ``i`` alone.  Read-only."""
    code = construct(info_len, rate_matched_len)
    unit = np.zeros((code.info_len, code.block_len), dtype=np.uint8)
    unit[np.arange(code.info_len), list(code.info_indices)] = 1
    # Shortening keeps the prefix; repetition is cyclic,
    # e_k = y_(k mod N) (38.212 section 5.4.1.2).
    columns = np.arange(code.rate_matched_len) % code.block_len
    generator = _transform(unit)[:, columns].astype(np.float32)
    generator.setflags(write=False)
    return generator


def encode_batch(info_bits: np.ndarray, code: PolarCode) -> np.ndarray:
    """Row-wise :func:`encode` of a ``(B, K)`` info-bit matrix.

    The code is linear over GF(2), so each codeword is the parity of
    the generator rows at its set bits: one matrix product whose
    integer sums (at most K) float32 holds exactly.

    Layout: info_bits (B, K) uint8
    Layout: return (B, E) uint8
    """
    bits = np.asarray(info_bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != code.info_len:
        raise PolarError(
            f"expected (B, {code.info_len}) info bits, got {bits.shape}")
    counts = bits.astype(np.float32) \
        @ _generator(code.info_len, code.rate_matched_len)
    return (counts.astype(np.int32) & 1).astype(np.uint8)


def _llrs_to_mother(llrs: np.ndarray, code: PolarCode) -> np.ndarray:
    """Undo rate matching: fold repetitions, pin shortened bits to zero."""
    out = np.zeros(code.block_len, dtype=np.float64)
    base = min(code.rate_matched_len, code.block_len)
    out[:base] = llrs[:base]
    for start in range(code.block_len, code.rate_matched_len,
                       code.block_len):
        wrap = llrs[start:start + code.block_len]
        out[:wrap.size] += wrap
    # ``construct`` shortens the suffix ``range(E, N)``.
    out[base:] = _INF_LLR
    return out


def _sc_decode(llrs: np.ndarray, frozen_mask: np.ndarray) -> np.ndarray:
    """Successive-cancellation decode; returns the estimated u vector.

    Positive LLR means bit 0.  Implemented iteratively over a binary tree
    flattened into per-stage arrays, which keeps it allocation-light for
    the N <= 512 blocks the PDCCH uses.
    """
    size = llrs.size
    n = size.bit_length() - 1
    # llr_store[s] holds the LLRs entering stage s (length N each);
    # bit_store[s] holds partial-sum bits leaving stage s.
    llr_store = [np.zeros(size, dtype=np.float64) for _ in range(n + 1)]
    bit_store = [np.zeros(size, dtype=np.uint8) for _ in range(n + 1)]
    llr_store[n][:] = llrs
    u_hat = np.zeros(size, dtype=np.uint8)
    # u bits are produced in natural order as leaves are visited
    # left-to-right; the buffer offset is position within the stage, not
    # the u index, so track the leaf count separately.
    next_u = [0]

    def recurse(stage: int, offset: int) -> None:
        if stage == 0:
            idx = next_u[0]
            next_u[0] += 1
            if frozen_mask[idx]:
                u_hat[idx] = 0
            else:
                u_hat[idx] = 0 if llr_store[0][offset] >= 0 else 1
            bit_store[0][offset] = u_hat[idx]
            return
        half = 1 << (stage - 1)
        top = llr_store[stage][offset:offset + half]
        bot = llr_store[stage][offset + half:offset + 2 * half]
        # f-node: min-sum combination.
        llr_store[stage - 1][offset:offset + half] = (
            np.sign(top) * np.sign(bot) * np.minimum(np.abs(top), np.abs(bot)))
        recurse(stage - 1, offset)
        left_bits = bit_store[stage - 1][offset:offset + half].copy()
        # g-node: conditioned on the left partial sums.
        llr_store[stage - 1][offset:offset + half] = (
            bot + (1.0 - 2.0 * left_bits) * top)
        recurse(stage - 1, offset)
        right_bits = bit_store[stage - 1][offset:offset + half]
        bit_store[stage][offset:offset + half] = left_bits ^ right_bits
        bit_store[stage][offset + half:offset + 2 * half] = right_bits

    recurse(n, 0)
    return u_hat


def decode(llrs: np.ndarray, code: PolarCode) -> np.ndarray:
    """Decode ``E`` channel LLRs back into ``K`` info bits (hard output).

    Layout: llrs (E) float64
    Layout: return (K) uint8
    """
    arr = np.asarray(llrs, dtype=float).ravel()
    if arr.size != code.rate_matched_len:
        raise PolarError(
            f"expected {code.rate_matched_len} LLRs, got {arr.size}")
    mother = _llrs_to_mother(arr, code)
    frozen = np.ones(code.block_len, dtype=bool)
    frozen[list(code.info_indices)] = False
    u_hat = _sc_decode(mother, frozen)
    return u_hat[list(code.info_indices)].astype(np.uint8)


# ------------------------------------------------------- batched decode
def _write_mother(llrs: np.ndarray, code: PolarCode,
                  out: np.ndarray) -> None:
    """Row-wise :func:`_llrs_to_mother` of a stacked ``(B, E)`` matrix,
    written into the last ``N`` columns of ``out`` with ``0.0`` in the
    columns before them (see :class:`Traversal`).

    Layout: llrs (B, E) float64
    Layout: out (B, S) float64
    """
    lead = out.shape[1] - code.block_len
    base = min(code.rate_matched_len, code.block_len)
    out[:, :lead] = 0.0
    mother = out[:, lead:]
    mother[:, :base] = llrs[:, :base]
    for start in range(code.block_len, code.rate_matched_len,
                       code.block_len):
        wrap = llrs[:, start:start + code.block_len]
        mother[:, :wrap.shape[1]] += wrap
    mother[:, base:] = _INF_LLR


# Plan op tags (see _sc_plan).  F/G/C are the ordinary SC butterfly
# nodes; GSKIP/CSKIP are the frozen-left-child degenerate forms; RATE0
# and REP are whole-subtree shortcuts; LEAF emits one info bit.
_OP_F, _OP_G, _OP_C, _OP_GSKIP, _OP_CSKIP, _OP_RATE0, _OP_REP, \
    _OP_LEAF = range(8)

#: Replica columns a compiled program can run in one pass.  A pass's
#: cost is mostly ufunc dispatch, so a traversal runs each pass at the
#: smallest of these widths that holds its rows, and a traversal with
#: more rows than the largest runs in passes of that width.  A pass of
#: the iq window's 1,327-op program costs about 1.00, 1.12, 1.35, 1.58
#: and 1.87 at 16, 32, 64, 96 and 128 columns (best of 60, shared
#: 2-CPU host), so an 82-row window costs 1.58 instead of two 64-column
#: passes (2.70).  A window of the iq search brings 40-82 replicas
#: (about 8 per downlink slot).
PROGRAM_WIDTHS = (16, 32, 64, 96, 128)


def fitted_width(rows: int) -> int:
    """The smallest of :data:`PROGRAM_WIDTHS` that holds ``rows``
    replica rows (the largest when none does)."""
    for width in PROGRAM_WIDTHS:
        if rows <= width:
            return width
    return PROGRAM_WIDTHS[-1]


#: Compiled (frozen mask, width) programs an engine keeps for reuse.
_PROGRAMS_PER_ENGINE = 32

#: Estimated cost of one compiled op in ns: one ufunc dispatch plus a
#: cost per element it writes.  Fitted to the traversals of 30
#: captured srsRAN ``iq-session`` windows run whole, cut to 1, 2, 4 and
#: 7 slots (10-74 replica rows, widths 16-96; best of 40 runs each,
#: shared 2-CPU host): about 0.5 µs per op plus 0.6 ns per element.
#: A pass's 512-row top-of-tree ops cost tens of dispatches each.
OP_DISPATCH_NS = 500.0
OP_ELEMENT_NS = 0.6
#: Estimated cost of a pass's load (:meth:`_Engine.load`) per LLR it
#: writes, in the same units: about 250 µs for the 37,888 LLRs of a
#: 74-row pass of 512 leaves, timed inside ``iq-session`` runs, where
#: the transposed writes miss the cache.
LOAD_NS_PER_LLR = 6.5


def _op_cost(fn, args: tuple) -> float:
    """:data:`OP_DISPATCH_NS` plus :data:`OP_ELEMENT_NS` per element of
    the array a compiled op writes (its last argument, or the array
    whose ``fill`` it is)."""
    written = args[-1] if isinstance(args[-1], np.ndarray) \
        else fn.__self__
    return OP_DISPATCH_NS + OP_ELEMENT_NS * written.size


@lru_cache(maxsize=256)
def _sc_plan(size: int, frozen_bytes: bytes) \
        -> tuple[tuple[int, int, int, bool], ...]:
    """Schedule the SC traversal for one frozen mask as a flat op list.

    The successive-cancellation schedule depends only on (N, frozen
    mask), so it is walked once here and the surviving node operations
    are emitted as ``(tag, stage, base, keep)`` tuples: ``stage`` is
    the node's depth (it spans ``2**stage`` leaves), ``base`` its first
    leaf (u index) and ``keep`` whether its partial sums are consumed.
    A stage-``s`` node always reads its LLRs from the whole stage-``s``
    buffer (both children of a node reuse their parent's buffer from
    offset 0), so no offset is needed.  Three structural shortcuts
    prune the tree.  Each is *exact* — it reproduces the scalar
    decoder's outputs bit for bit, never an approximation:

    * rate-0 subtrees (every covered leaf frozen): the scalar decoder
      forces each frozen leaf to 0 regardless of its LLR, so the
      subtree contributes u = 0 and partial sums beta = 0 no matter
      what is computed inside it;
    * frozen left child: the left partial sums are all zero, so the
      f-node LLRs are never consumed and the g-node degenerates to
      ``bot + 1.0*top == bot + top``, exactly — the f computation and
      left recursion are skipped outright (GSKIP/CSKIP);
    * REP subtrees (single info bit, in the last leaf): every internal
      left child is all-frozen, so the lone info leaf's LLR is the
      halves-fold ``bot + top`` applied log2(span) times — with the
      identical operand order and association as the scalar g-chain,
      so the floating-point value (and hence the tie behaviour) is
      identical; the subtree's partial sums are the decision bit
      broadcast (transform of ``[0..0,d]`` is ``d`` at every output).

    The root node's partial-sum outputs are consumed by nobody, so its
    combine step is not emitted.

    DCI polar codes are low-rate (K/N ~ 0.1-0.25), so pruning removes
    the bulk of the O(N) butterfly (roughly 4-9x fewer array ops).
    """
    frozen_mask = np.frombuffer(frozen_bytes, dtype=np.uint8) \
        .astype(bool)
    n = size.bit_length() - 1
    # frozen_count[b+s] - frozen_count[b] == s  <=>  leaves [b, b+s)
    # are all frozen  <=>  the subtree covering them is rate-0.
    frozen_count = np.concatenate(
        ([0], np.cumsum(frozen_mask.astype(np.int64))))
    ops: list[tuple[int, int, int, bool]] = []

    def emit(stage: int, base: int, keep: bool) -> None:
        span = 1 << stage
        n_frozen = int(frozen_count[base + span] - frozen_count[base])
        if n_frozen == span:
            # Rate-0: u bits stay 0; the partial sums are refilled
            # because the buffer is reused across calls and siblings.
            if keep:
                ops.append((_OP_RATE0, stage, base, keep))
            return
        if span >= 2 and n_frozen == span - 1 \
                and not frozen_mask[base + span - 1]:
            ops.append((_OP_REP, stage, base, keep))
            return
        if stage == 0:
            # Frozen leaves were pruned above (a single-leaf rate-0
            # subtree), so this leaf carries information.
            ops.append((_OP_LEAF, 0, base, keep))
            return
        half = 1 << (stage - 1)
        if frozen_count[base + half] - frozen_count[base] == half:
            ops.append((_OP_GSKIP, stage, base, keep))
            emit(stage - 1, base + half, True)
            if keep:
                ops.append((_OP_CSKIP, stage, base, keep))
            return
        ops.append((_OP_F, stage, base, keep))
        emit(stage - 1, base, True)
        ops.append((_OP_G, stage, base, keep))
        emit(stage - 1, base + half, True)
        if keep:
            ops.append((_OP_C, stage, base, keep))

    emit(n, 0, False)
    return tuple(ops)


class _Buffers:
    """One width's ``(rows, width)`` views of an engine's scratch.

    Every width lays its rows out over the first ``rows * width``
    elements of the same flat buffers, so each operand of a program is
    a contiguous row block at any width and the widths share memory.
    """

    def __init__(self, engine: "_Engine", width: int) -> None:
        def view(buf: np.ndarray, rows: int) -> np.ndarray:
            return buf[:rows * width].reshape(rows, width)

        self.llr = [view(buf, 1 << s)
                    for s, buf in enumerate(engine.flat_llr)]
        self.mag = view(engine.flat_mag, engine.size)
        self.signs = view(engine.flat_signs, engine.size)
        self.offsets = view(engine.flat_offsets, engine.size)
        self.ones = engine.flat_ones[:width]


class _Engine:
    """Scratch for one tree size and the programs compiled onto it.

    A program is one ``_sc_plan`` compiled, for one of
    :data:`PROGRAM_WIDTHS`, into a flat tuple of ``(ufunc, args)``
    calls whose operands are views into this engine's buffers, bound
    at compile time, so a pass is a loop of ``fn(*args)`` with no
    per-op indexing, slicing or branching.  Buffers are laid out
    leaf-major, one column per replica, so every operand is a
    contiguous row block; each width views the same flat memory (see
    :class:`_Buffers`), sized for the largest width.

    * ``llr[s]`` (``2**s`` rows) holds the LLRs entering stage ``s``;
      ``llr[n]`` is the input.  Scratch ``mag`` serves the f-node.
    * ``signs`` holds partial sums in the sign domain, ``1 - 2*beta``,
      in place: a node writes its outputs over its own leaf range, so
      its left child's signs sit in the first half when the g-node
      reads them.  The g-node is then ``bot + signs*top`` (the product
      the scalar ``(1.0 - 2.0*bits) * top`` forms) and the combine is
      one product (XOR of bits).
    * ``offsets`` narrows each replica's information set: a leaf
      overwrites its offset with its decision value ``llr + offset``,
      the offset being ``+0.0`` on the replica's info leaves and
      ``+inf`` elsewhere (forcing bit 0, the scalar frozen-leaf rule).
      ``+0.0`` also turns a ``-0.0`` LLR into ``+0.0``, so ``value < 0``
      is the scalar rule ``llr < 0`` and ``copysign(1, value)`` is the
      leaf's partial-sum sign.  Only the leaves some replica decides
      are loaded and read: after a pass their ``offsets < 0`` are the
      decoded bits.

    A pass writes every scratch value before it reads it, except its
    loaded inputs, so what an earlier pass of any width left behind
    never reaches a decision.  Every program of an engine shares its
    buffers, so an engine serves one decode at a time (see
    :func:`_take_engine`).
    """

    #: Programs compiled so far, over all engines.
    compiled = 0

    def __init__(self, size: int) -> None:
        self.size = size
        n = size.bit_length() - 1
        cap = PROGRAM_WIDTHS[-1]
        # Zeroed, so pages a narrow width never reaches stay unmapped.
        self.flat_llr = [np.zeros((1 << s) * cap, dtype=np.float64)
                         for s in range(n + 1)]
        self.flat_mag = np.zeros(size * cap, dtype=np.float64)
        self.flat_signs = np.zeros(size * cap, dtype=np.float64)
        self.flat_offsets = np.zeros(size * cap, dtype=np.float64)
        self.flat_ones = np.ones(cap, dtype=np.float64)
        self._buffers: dict[int, _Buffers] = {}
        self._programs: dict[tuple[bytes, int], tuple] = {}
        # One view object per distinct row block and one op tuple per
        # distinct call, shared by programs: about half of a program's
        # ops repeat within it, and programs of one width share most.
        self._views: dict[tuple[int, int, int], np.ndarray] = {}
        self._calls: dict[tuple, tuple] = {}

    def buffers(self, width: int) -> _Buffers:
        """The views of one of :data:`PROGRAM_WIDTHS`."""
        buffers = self._buffers.get(width)
        if buffers is None:
            buffers = self._buffers[width] = _Buffers(self, width)
        return buffers

    def _rows(self, buf: np.ndarray, start: int, stop: int) -> np.ndarray:
        key = (id(buf), start, stop)
        if key not in self._views:
            self._views[key] = buf[start:stop]
        return self._views[key]

    def _compile(self, frozen_bytes: bytes, width: int) -> tuple:
        buffers = self.buffers(width)
        llr, mag, signs, off = buffers.llr, buffers.mag, buffers.signs, \
            buffers.offsets
        rows = self._rows
        ops: list[tuple] = []

        def leaf(idx: int, keep: bool) -> None:
            value = rows(off, idx, idx + 1)
            ops.append((np.add, (llr[0], value, value)))
            if keep:
                ops.append((np.copysign, (buffers.ones, value,
                                          rows(signs, idx, idx + 1))))

        for tag, stage, base, keep in _sc_plan(self.size, frozen_bytes):
            span = 1 << stage
            half = span >> 1
            src, dst = llr[stage], llr[stage - 1] if stage else None
            top, bot = rows(src, 0, half), rows(src, half, span)
            left = rows(signs, base, base + half)
            right = rows(signs, base + half, base + span)
            if tag == _OP_F:
                lo, hi = rows(mag, 0, half), rows(mag, half, span)
                ops += [(np.absolute, (src, rows(mag, 0, span))),
                        (np.fmin, (lo, hi, lo)),
                        (np.multiply, (top, bot, hi)),
                        (np.copysign, (lo, hi, dst))]
            elif tag == _OP_G:
                ops += [(np.multiply, (left, top, dst)),
                        (np.add, (bot, dst, dst))]
            elif tag == _OP_C:
                ops.append((np.multiply, (left, right, left)))
            elif tag == _OP_GSKIP:
                ops.append((np.add, (bot, top, dst)))
            elif tag == _OP_CSKIP:
                ops.append((np.positive, (right, left)))
            elif tag == _OP_RATE0:
                ops.append((rows(signs, base, base + span).fill, (1.0,)))
            elif tag == _OP_REP:
                # Fold halves exactly as the scalar g-chain would
                # (bot + top, left operand bot) down to the info leaf.
                for s in range(stage, 0, -1):
                    h = 1 << (s - 1)
                    ops.append((np.add, (rows(llr[s], h, 2 * h),
                                         rows(llr[s], 0, h), llr[s - 1])))
                last = base + span - 1
                leaf(last, keep)
                if keep:
                    ops.append((np.positive, (rows(signs, last, last + 1),
                                              rows(signs, base, last))))
            else:  # _OP_LEAF
                leaf(base, keep)
        _Engine.compiled += 1
        # The ids key live objects: every op holds its operands.
        calls = self._calls
        return tuple(calls.setdefault((fn, *map(id, args)), (fn, args))
                     for fn, args in ops)

    def program(self, frozen_bytes: bytes, width: int) \
            -> tuple[tuple, np.ndarray]:
        """The compiled program for one frozen mask at one of
        :data:`PROGRAM_WIDTHS` (cached, LRU): its ops and, read-only,
        their cumulative estimated cost (:func:`_op_cost`) before each
        op and after the last."""
        key = (frozen_bytes, width)
        program = self._programs.pop(key, None)
        if program is None:
            ops = self._compile(frozen_bytes, width)
            costs = np.zeros(len(ops) + 1, dtype=np.float64)
            np.cumsum([_op_cost(fn, args) for fn, args in ops],
                      out=costs[1:])
            costs.flags.writeable = False
            program = (ops, costs)
            if len(self._programs) >= _PROGRAMS_PER_ENGINE:
                del self._programs[next(iter(self._programs))]
        self._programs[key] = program
        return program

    def load(self, replicas: Sequence[tuple[np.ndarray, PolarCode,
                                            np.ndarray, bool]],
             leaves: np.ndarray) -> None:
        """Write the replica rows of one pass straight into the input
        buffers of the width :func:`fitted_width` gives for them: per
        ``(llrs, code, leaf offsets, repeat)`` group, in column order,
        its mother LLRs (:func:`_write_mother`, or a copy of the
        previous group's when ``repeat``: the same rows under a code of
        the same ``N``) and its offsets at ``leaves``, the only leaves
        the program reads them at.

        Columns past the pass's rows keep stale finite values from an
        earlier pass; their decisions are never read.
        """
        rows = sum(llrs.shape[0] for llrs, _, _, _ in replicas)
        buffers = self.buffers(fitted_width(rows))
        llr, offsets = buffers.llr[-1], buffers.offsets
        column = previous = 0
        for llrs, code, leaf_offsets, repeat in replicas:
            stop = column + llrs.shape[0]
            if repeat:
                llr[:, column:stop] = llr[:, previous:column]
            else:
                _write_mother(llrs, code, llr[:, column:stop].T)
            offsets[leaves, column:stop] = leaf_offsets[:, None]
            previous, column = column, stop

    def read(self, leaves: np.ndarray, out: np.ndarray) -> None:
        """The decisions at ``leaves`` of a finished pass over
        ``len(out)`` rows.

        Layout: leaves (U) intp
        Layout: out (R, U) bool
        """
        rows = out.shape[0]
        out[:] = np.less(
            self.buffers(fitted_width(rows)).offsets[leaves, :rows], 0.0).T


#: Idle engines by tree size.  A traversal takes an engine out and
#: gives it back when done, so overlapping traversals never share
#: buffers: the second one finds no idle engine and builds its own.
_IDLE_ENGINES: dict[int, list[_Engine]] = {}


def _take_engine(size: int) -> _Engine:
    idle = _IDLE_ENGINES.get(size)
    if idle:
        return idle.pop()
    return _Engine(size)


def _give_engine(engine: _Engine) -> None:
    _IDLE_ENGINES.setdefault(engine.size, []).append(engine)


@lru_cache(maxsize=256)
def _placement(info_len: int, rate_matched_len: int, size: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The info leaves and leaf offsets of the ``(K, E)`` code in a
    ``size``-leaf tree (keyed on ints: a :class:`PolarCode` hashes its
    index tuples).

    A shorter code sits in the last ``N`` leaves (see
    :class:`Traversal`), so its info set shifts by ``size - N``.
    Read-only: the arrays are shared by every decode.
    """
    code = construct(info_len, rate_matched_len)
    info = np.array(code.info_indices, dtype=np.intp) \
        + (size - code.block_len)
    offsets = np.full(size, np.inf, dtype=np.float64)
    offsets[info] = 0.0
    info.flags.writeable = False
    offsets.flags.writeable = False
    return info, offsets


class Traversal:
    """One SC traversal over several ``(llrs, codes)`` blocks, run in
    as many pieces as the caller likes.

    Each block is a stacked ``(B, E)`` LLR matrix to decode under every
    code in its tuple (all with rate-matched length ``E``).  The work
    is :attr:`n_ops` compiled ops: one program run once per pass, a
    pass being up to ``PROGRAM_WIDTHS[-1]`` replica rows run at the
    :func:`fitted_width` of its rows.  :meth:`step` runs the next ``n``
    of them, crossing passes as it goes, and :meth:`result` reads the
    bits once :attr:`remaining` is 0.  However the ops are split, the
    bits are those of one uninterrupted run: the traversal takes an
    engine when built and gives it back after its last op, so nothing
    else touches the engine's buffers in between (a traversal dropped
    half-run takes its engine with it).  Columns never interact, so a
    row's bits do not depend on the width, the pass or the other rows
    it runs with.

    Each block's rows are rate-unmatched under their own code and
    replicated once per code, straight into the engine's input buffers
    as each pass loads (:meth:`_Engine.load`), so the blocks must not
    change before the traversal is done.  The traversal runs on a tree
    sized to the largest mother code ``N_max`` in the call: a replica
    of a code with ``N < N_max`` puts its mother LLRs in the last ``N``
    leaves with ``0.0`` in front, and its info set shifts by
    ``N_max - N``.
    This is exact: the replica's leading leaves are all frozen for it,
    so its partial sums there are 0 and every g-node over the leading
    zeros computes ``bot + 0.0`` — the same value, up to the sign of a
    zero, which never flips a ``< 0`` decision (the same argument as
    the f-node's ``copysign``).  The traversal is the program compiled
    for the union of the shifted info sets (frozen only where every
    replica freezes, keeping the plan's pruning exact for all), with
    each replica's decisions forced to 0 off its own info set — the
    scalar frozen-leaf rule.

    The f-node computes ``copysign(min(|a|, |b|), a*b)`` instead of
    the scalar ``sign(a)*sign(b)*min(|a|, |b|)``: the two differ only
    when an input is zero, where copysign may give ``-0.0`` for
    ``+0.0``.  A zero-sign difference propagates only into other zero
    magnitudes and never flips a decision, so outputs stay
    bit-identical to :func:`decode` (the equivalence tests enforce
    this).
    """

    def __init__(self, blocks: Sequence[tuple[np.ndarray,
                                              tuple[PolarCode, ...]]]) \
            -> None:
        checked: list[tuple[np.ndarray, tuple[PolarCode, ...]]] = []
        size = N_MIN
        for llrs, codes in blocks:
            arr = np.asarray(llrs, dtype=float)
            if arr.ndim != 2:
                raise PolarError(f"expected a (B, E) LLR matrix, got"
                                 f" shape {arr.shape}")
            for code in codes:
                if arr.shape[1] != code.rate_matched_len:
                    raise PolarError(
                        f"expected {code.rate_matched_len} LLRs per row,"
                        f" got {arr.shape[1]}")
                size = max(size, code.block_len)
            checked.append((arr, codes))
        # One replica group per (block, code): its rows, LLRs, code and
        # leaf offsets, and its info leaves.
        groups: list[tuple[int, int, np.ndarray, PolarCode, np.ndarray,
                           np.ndarray]] = []
        frozen = np.ones(size, dtype=bool)
        n_rows = 0
        for arr, codes in checked:
            for code in codes:
                info, leaf_offsets = _placement(code.info_len,
                                                code.rate_matched_len, size)
                frozen[info] = False
                groups.append((n_rows, n_rows + arr.shape[0], arr, code,
                               leaf_offsets, info))
                n_rows += arr.shape[0]
        #: The leaves some replica decides: the only decisions read.
        self._leaves = np.flatnonzero(~frozen)
        self._bits = np.zeros((n_rows, self._leaves.size), dtype=bool)
        self._slices: list[list[tuple[int, int, np.ndarray]]] = []
        placed = iter(groups)
        for arr, codes in checked:
            self._slices.append([
                (start, stop, np.searchsorted(self._leaves, info))
                for start, stop, _, _, _, info in
                (next(placed) for _ in codes)])
        self._engine: _Engine | None = None
        #: Per pass, its rows, its program and the replica rows it loads.
        self._passes: list[tuple[int, int, tuple, list]] = []
        #: The estimated cost (:data:`OP_DISPATCH_NS`) of the first
        #: ``i`` ops, each pass's load with its first op, for every
        #: ``i`` from 0 to :attr:`n_ops`.
        self._costs = np.zeros(1, dtype=np.float64)
        if n_rows:
            engine = self._engine = _take_engine(size)
            frozen_bytes = frozen.view(np.uint8).tobytes()
            cap = PROGRAM_WIDTHS[-1]
            costs = []
            for start in range(0, n_rows, cap):
                stop = min(start + cap, n_rows)
                ops, pass_costs = engine.program(
                    frozen_bytes, fitted_width(stop - start))
                # The pass's load runs with its first op.
                pass_costs = pass_costs + LOAD_NS_PER_LLR * size \
                    * (stop - start) * (np.arange(len(ops) + 1) > 0)
                replicas: list[tuple[np.ndarray, PolarCode, np.ndarray,
                                     bool]] = []
                loaded = None
                for first, last, arr, code, leaf_offsets, _ in groups:
                    if first < stop and start < last:
                        lo = max(start, first) - first
                        hi = min(stop, last) - first
                        # The block's next code replicates the same rows.
                        source = (id(arr), lo, hi, code.block_len)
                        replicas.append((arr[lo:hi], code,
                                         leaf_offsets[self._leaves],
                                         source == loaded))
                        loaded = source
                self._passes.append((start, stop, ops, replicas))
                costs.append(pass_costs)
            self._costs = costs[0] if len(costs) == 1 \
                else np.concatenate([self._costs] + [
                    pass_costs[1:] + sum(c[-1] for c in costs[:p])
                    for p, pass_costs in enumerate(costs)])
        #: LLRs the passes load, a tree's worth per replica row.
        self.n_llrs = n_rows * size
        #: Compiled ops per pass (every width compiles the same plan).
        self._pass_ops = len(self._passes[0][2]) if self._passes else 0
        #: Compiled ops the whole traversal runs.
        self.n_ops = len(self._passes) * self._pass_ops
        self._done = 0

    @property
    def remaining(self) -> int:
        """Ops left to run."""
        return self.n_ops - self._done

    @property
    def cost(self) -> float:
        """Estimated ns of all the ops and loads (see
        :data:`OP_DISPATCH_NS`)."""
        return float(self._costs[-1])

    def cost_of(self, n_ops: int) -> float:
        """Estimated ns of the first ``n_ops`` ops."""
        return float(self._costs[n_ops])

    def ops_within(self, cost: float) -> int:
        """How many ops, counted from the first, fit in ``cost``
        estimated ns."""
        return max(int(np.searchsorted(self._costs, cost,
                                       side="right")) - 1, 0)

    def step(self, n: int) -> None:
        """Run the next ``n`` ops (fewer if fewer remain)."""
        stop_at = min(self.n_ops, self._done + max(n, 0))
        engine = self._engine
        while self._done < stop_at:
            assert engine is not None
            pass_index, op = divmod(self._done, self._pass_ops)
            start, stop, ops, replicas = self._passes[pass_index]
            if op == 0:
                engine.load(replicas, self._leaves)
            end = min(len(ops), op + stop_at - self._done)
            for fn, args in ops[op:end]:
                fn(*args)
            self._done += end - op
            if end == len(ops):
                engine.read(self._leaves, self._bits[start:stop])
        if engine is not None and self._done == self.n_ops:
            self._engine = None
            _give_engine(engine)

    def result(self) -> list[list[np.ndarray]]:
        """Per block, one ``(B, K_i)`` uint8 matrix per code, in order;
        every row bit-identical to :func:`decode` of that row under
        that code."""
        if self.remaining:
            raise PolarError(f"traversal has {self.remaining} ops to go")
        return [[self._bits[start:stop, at].view(np.uint8)
                 for start, stop, at in placed]
                for placed in self._slices]


def decode_blocks(blocks: Sequence[tuple[np.ndarray,
                                         tuple[PolarCode, ...]]]) \
        -> list[list[np.ndarray]]:
    """Decode several ``(llrs, codes)`` blocks in ONE SC traversal: a
    :class:`Traversal` run to the end.

    The PDCCH search hands over its (CORESET, level) groups at once, so
    they pay for one traversal.
    """
    traversal = Traversal(blocks)
    traversal.step(traversal.remaining)
    return traversal.result()


def decode_batch(llrs: np.ndarray, code: PolarCode) -> np.ndarray:
    """Decode a stacked ``(B, E)`` LLR matrix into ``(B, K)`` info bits.

    One :func:`decode_blocks` traversal for the whole batch.
    Bit-identical to calling :func:`decode` per row (enforced by the
    equivalence tests).

    Layout: llrs (B, E) float64
    Layout: return (B, K) uint8
    """
    return decode_blocks([(llrs, (code,))])[0][0]


def decode_batch_joint(llrs: np.ndarray, codes: tuple[PolarCode, ...]) \
        -> list[np.ndarray]:
    """Decode one ``(B, E)`` LLR matrix under several codes in ONE pass.

    Returns one ``(B, K_i)`` matrix per code, in ``codes`` order, each
    bit-identical to :func:`decode_batch` under that code; every code
    must have rate-matched length ``E``.  See :func:`decode_blocks`.

    Layout: llrs (B, E) float64
    """
    return decode_blocks([(llrs, tuple(codes))])[0]
