"""Pickled bytes per delivery of the UEs' packet captures.

Every fleet checkpoint pickles each cell's gNB with its UEs, and each
UE's ``PacketCapture`` grows by one entry per delivered transport
block.  The capture keeps four columns (time, size, direction,
packets) in ``array.array``s, so a pickle copies four buffers instead of
walking one frozen ``PacketRecord`` per delivery.

On a 64-UE, 1 s message-fidelity session (2,748 deliveries at seed 1)
the captures pickle to 19.0 bytes per delivery; the same deliveries as
lists of ``PacketRecord`` objects pickle to 33.1, and the former layout
(those objects plus a list of their times) to 42.5.  The bound sits
below both object layouts.

Run it with ``PYTHONPATH=src python -m pytest
benchmarks/test_packet_capture.py``.
"""

import pickle

from repro import SRSRAN_PROFILE, Simulation

N_UES = 64
AIR_S = 1.0

#: Pickled bytes per delivery of the captures after the session.
MAX_PICKLED_BYTES_PER_DELIVERY = 32


def pickled(blob) -> int:
    return len(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL))


def test_pickled_bytes_per_delivery():
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=N_UES, seed=1)
    sim.run(AIR_S)
    captures = [ue.capture for ue in sim.gnb.ues.values()]
    n = sum(len(capture) for capture in captures)
    columns = pickled(captures) / n
    objects = pickled([capture.records for capture in captures]) / n
    print(f"{n} deliveries: {columns:.1f} B/delivery pickled as columns, "
          f"{objects:.1f} as record objects "
          f"(bound {MAX_PICKLED_BYTES_PER_DELIVERY})")
    assert n > 2000
    assert columns <= MAX_PICKLED_BYTES_PER_DELIVERY
