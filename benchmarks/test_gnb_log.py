"""Pickled bytes per logged DCI of the gNB's ground-truth log.

Every fleet checkpoint pickles each cell's gNB, and its log grows by one
DCI record per scheduled UE per slot.  The log keeps each DCI as one
packed row (``gnb._DCI_ROW``, 70 bytes) and interns the few non-integer
values, so a pickle copies one buffer instead of walking a frozen
``DciRecord`` with its nested ``Dci``, ``Grant``, ``McsEntry`` and
``PdcchCandidate`` per DCI (DESIGN.md §9).

On a 64-UE, 1 s message-fidelity session (2,822 DCIs at seed 1) the
log's DCI part pickles to 70.2 bytes per DCI; the same records as a
list of objects pickle to 227.0.  The bound sits between the two.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/test_gnb_log.py``.
"""

import pickle

import pytest

from repro import SRSRAN_PROFILE, Simulation
from repro.gnb.gnb import GnbLog

N_UES = 64
AIR_S = 1.0

#: Pickled bytes per DCI of the log's DCI rows and interned kinds.
MAX_PICKLED_BYTES_PER_DCI = 96


@pytest.fixture(scope="module")
def records():
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=N_UES, seed=1)
    sim.run(AIR_S)
    return sim.gnb.log.dci_records


def per_dci(blob, n: int) -> float:
    return len(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)) / n


def test_pickled_bytes_per_dci(records):
    log = GnbLog()
    for record in records:
        log.add_dci(record)
    n = len(records)
    columns, objects = per_dci(log, n), per_dci(records, n)
    print(f"{n} DCIs: {columns:.1f} B/DCI pickled as rows, "
          f"{objects:.1f} as record objects "
          f"(bound {MAX_PICKLED_BYTES_PER_DCI})")
    assert n > 2000
    assert columns <= MAX_PICKLED_BYTES_PER_DCI < objects
