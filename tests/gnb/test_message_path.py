"""The message path's shared derivations: the allocation memo behind
``dci_to_grant`` and the scheduler's TBS rows.

Both are per-process caches at module level.  These tests pin that a
memoized grant equals a fresh translation, that a failure is never
cached, and that neither cache travels in a pickled gNB.
"""

import pickle

import pytest

from repro import SRSRAN_PROFILE, Simulation
from repro.gnb.scheduler import tbs_row
from repro.phy.dci import riv_encode
from repro.phy.grant import GrantError, allocation, dci_to_grant

N_UES = 64
AIR_S = 1.0

#: The pickled gNB of this session before the HARQ processes held their
#: blocks and the captures became columns (796,802 bytes); it must not
#: grow.
MAX_GNB_PICKLE_BYTES = 796_802


@pytest.fixture(scope="module")
def sim():
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=N_UES, seed=1)
    sim.run(AIR_S)
    return sim


def test_logged_grants_match_a_fresh_translation(sim):
    config = SRSRAN_PROFILE.grant_config()
    records = sim.gnb.log.dci_records
    assert len(records) > 2000
    allocation.cache_clear()
    for record in records:
        assert record.grant == dci_to_grant(record.dci, config), record


@pytest.mark.parametrize("riv, time_alloc", [
    (2047, 1),                        # crosses the BWP edge
    (riv_encode(0, 4, 51), 16),       # one past the TDRA table
    (riv_encode(0, 4, 51), -1),
])
def test_a_bad_allocation_raises_on_every_call(riv, time_alloc):
    config = SRSRAN_PROFILE.grant_config()
    allocation.cache_clear()
    for _ in range(3):
        with pytest.raises(GrantError):
            allocation(config, riv, time_alloc, 10)
    assert allocation.cache_info().currsize == 0


def test_caches_are_bounded_and_not_pickled(sim):
    assert allocation.cache_info().maxsize is not None
    assert tbs_row.cache_info().maxsize is not None
    # Fill both caches, as the session's own slots did.
    config = SRSRAN_PROFILE.grant_config()
    for record in sim.gnb.log.dci_records:
        dci_to_grant(record.dci, config)
        tbs_row(config, record.grant.mcs, record.grant.n_symbols)
    assert allocation.cache_info().currsize > 0
    assert tbs_row.cache_info().currsize > 0
    warm = pickle.dumps(sim.gnb, protocol=pickle.HIGHEST_PROTOCOL)
    allocation.cache_clear()
    tbs_row.cache_clear()
    cold = pickle.dumps(sim.gnb, protocol=pickle.HIGHEST_PROTOCOL)
    assert warm == cold
    assert len(cold) <= MAX_GNB_PICKLE_BYTES
