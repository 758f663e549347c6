"""Transport block size determination (TS 38.214 section 5.1.3.2).

The TBS is the quantity NR-Scope's whole telemetry pipeline exists to
recover: bits delivered to one UE in one TTI (paper section 3.2.2 and
Appendix A).  Inputs come from the decoded DCI (time/frequency allocation,
MCS) and the RRC configuration (DMRS pattern, overhead, MIMO layers).

Note on the paper's Appendix A: it restates the standard with the two
``N_info`` branches transposed and 3814 where the spec has 3816; this
module follows TS 38.214 itself, which is also what the released NR-Scope
C++ code does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.constants import N_SC_PER_PRB
from repro.phy.mcs_tables import McsEntry

#: Table 5.1.3.2-1: TBS values for N_info <= 3824.
TBS_TABLE = (
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
    152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
    672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
    1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736,
    1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472, 2536, 2600,
    2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496, 3624, 3752, 3824,
)

#: Cap on usable REs per PRB in the TBS formula (38.214 eq. in 5.1.3.2).
RE_PER_PRB_CAP = 156


class TbsError(ValueError):
    """Raised for invalid allocation parameters."""


@dataclass(frozen=True)
class TbsResult:
    """TBS plus the intermediate quantities, useful for logs and tests."""

    tbs_bits: int
    n_re: int
    n_info: float
    code_rate: float
    qm: int
    n_layers: int


def effective_res(n_prb: int, n_symbols: int, n_dmrs_per_prb: int,
                  n_oh_per_prb: int) -> int:
    """Resource elements counted toward the TBS (38.214 step 1).

    ``N'_RE = N_sc * N_symb - N_dmrs - N_oh`` per PRB, capped at 156, then
    scaled by the PRB count.
    """
    if n_prb <= 0:
        raise TbsError(f"PRB count must be positive, got {n_prb}")
    if not 1 <= n_symbols <= 14:
        raise TbsError(f"symbol count out of range: {n_symbols}")
    if n_dmrs_per_prb < 0 or n_oh_per_prb < 0:
        raise TbsError("DMRS/overhead RE counts must be non-negative")
    per_prb = N_SC_PER_PRB * n_symbols - n_dmrs_per_prb - n_oh_per_prb
    if per_prb <= 0:
        raise TbsError(
            f"allocation leaves no usable REs per PRB ({per_prb})")
    return min(RE_PER_PRB_CAP, per_prb) * n_prb


def _quantize_small(n_info: float) -> int:
    """N'_info for the N_info <= 3824 branch."""
    n = max(3, int(math.floor(math.log2(n_info))) - 6)
    return max(24, (1 << n) * int(math.floor(n_info / (1 << n))))


def _lookup_small(n_info_prime: int) -> int:
    """Smallest table TBS not less than N'_info."""
    for value in TBS_TABLE:
        if value >= n_info_prime:
            return value
    return TBS_TABLE[-1]


def _quantize_large(n_info: float, code_rate: float) -> int:
    """TBS for the N_info > 3824 branch (LDPC segmentation aware)."""
    n = int(math.floor(math.log2(n_info - 24))) - 5
    step = 1 << n
    n_info_prime = max(3840, step * round((n_info - 24) / step))
    if code_rate <= 0.25:
        c = math.ceil((n_info_prime + 24) / 3816)
        return 8 * c * math.ceil((n_info_prime + 24) / (8 * c)) - 24
    if n_info_prime > 8424:
        c = math.ceil((n_info_prime + 24) / 8424)
        return 8 * c * math.ceil((n_info_prime + 24) / (8 * c)) - 24
    return 8 * math.ceil((n_info_prime + 24) / 8) - 24


@lru_cache(maxsize=4096)
def transport_block_size(n_prb: int, n_symbols: int, mcs: McsEntry,
                         n_layers: int = 1, n_dmrs_per_prb: int = 12,
                         n_oh_per_prb: int = 0) -> TbsResult:
    """Full 38.214 section 5.1.3.2 TBS determination.

    Defaults match the paper's testbeds: single-symbol type-A DMRS without
    CDM-group data sharing contributes 12 DMRS REs per PRB, and
    ``xOverhead`` is absent (0), as in the Appendix B sample grant.

    Memoized: the result is a pure function of hashable arguments and
    is itself frozen.  Invalid arguments are not cached, so they raise
    on every call.
    """
    if not 1 <= n_layers <= 4:
        raise TbsError(f"layer count out of range: {n_layers}")
    n_re = effective_res(n_prb, n_symbols, n_dmrs_per_prb, n_oh_per_prb)
    n_info = n_re * mcs.code_rate * mcs.qm * n_layers
    if n_info <= 0:
        raise TbsError(f"non-positive N_info: {n_info}")
    if n_info <= 3824:
        tbs = _lookup_small(_quantize_small(n_info))
    else:
        tbs = _quantize_large(n_info, mcs.code_rate)
    return TbsResult(tbs_bits=int(tbs), n_re=n_re, n_info=float(n_info),
                     code_rate=mcs.code_rate, qm=mcs.qm, n_layers=n_layers)
