"""Pickled bytes per TTI of the spare-capacity estimator.

Every fleet checkpoint pickles each cell's scope, and the scope's
``SpareCapacityEstimator`` grows by one entry per downlink TTI.  What
each DCI carried is already a row of the telemetry store, which the
estimator reads by reference; of its own it keeps per TTI only the
slot, the time and the index of that TTI's tracked set, and each
tracked set once per change.

The estimator's share of a checkpoint is measured as the bytes a pickle
of the store and the estimator together adds to a pickle of the store
alone.  On a 64-UE, 1 s message-fidelity session (seed 1, 1,400 TTIs)
that is 20.8 bytes per TTI.  The former layout, which also kept an
RNTI, MCS and used-PRB entry per tracked UE per TTI, took 340.8.

Run it with ``PYTHONPATH=src python -m pytest
benchmarks/test_spare_capacity.py``.
"""

import pickle

from repro import NRScope, SRSRAN_PROFILE, Simulation

N_UES = 64
AIR_S = 1.0

#: Pickled bytes per TTI of the estimator, beyond the store it reads.
MAX_PICKLED_BYTES_PER_TTI = 32


def pickled(blob) -> int:
    return len(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL))


def test_pickled_bytes_per_tti():
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=N_UES, seed=1)
    scope = NRScope.attach(sim, snr_db=18.0)
    sim.run(AIR_S)
    store, spare = scope.telemetry.store, scope.spare
    n = spare.n_ttis
    per_tti = (pickled((store, spare)) - pickled(store)) / n
    print(f"{n} TTIs, {len(scope.tracked_rntis)} UEs tracked: "
          f"{per_tti:.1f} B/TTI pickled "
          f"(bound {MAX_PICKLED_BYTES_PER_TTI})")
    assert n > 1000
    assert len(scope.tracked_rntis) > N_UES // 2
    assert per_tti <= MAX_PICKLED_BYTES_PER_TTI
