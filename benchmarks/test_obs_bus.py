"""Per-event CPU of the enabled obs bus on a fleet's slot path.

A fleet's obs stream is almost all ``stage.span`` events, seven per
committed slot (DESIGN.md §7).  This test emits a slot's seven spans on
a ``bind``-ed :class:`ObsContext` with a :class:`CounterReporter`, the
bus of the bench's fleet, and bounds the CPU one event costs.

The host's speed moves in steps of up to a factor of two, and every
Python call slows down together.  Each batch of events is therefore
timed next to a batch of bare calls: the same seven ``timing`` calls
with the same arguments on an object whose ``timing`` does nothing.  The
per-event cost is scaled to the host speed at which such a call takes
``NOMINAL_CALL_US``, and the bound applies to the best of the scaled
batches.

On a shared 2-CPU x86 host an event costs 2.1 µs at that speed (about 7
bare calls), and the bound is twice that.  The bus that assembled each
event afresh and rebuilt each series key took 4.6 to 4.8 µs (15 to 16
bare calls) and fails it.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/test_obs_bus.py``.
"""

import statistics
import time

from repro.obs import CounterReporter, ObsContext

#: The runtime's stages: one span each per committed slot.
STAGES = ("sync", "prune", "uci", "capture", "rach", "dci", "sinks")

#: Slots per timed batch, and batches (each next to its bare calls).
SLOTS_PER_BATCH = 300
BATCHES = 60

#: One bare ``timing`` call at the reference host speed, in µs.
NOMINAL_CALL_US = 0.31

#: Bound on one event's scaled CPU, in µs.
MAX_EVENT_US = 4.2


class BareCalls:
    """The call sites' share of an event: the call and its arguments."""

    def timing(self, name, duration_s, **fields):
        return None


def slot_batch(obs) -> float:
    """CPU seconds per event of ``SLOTS_PER_BATCH`` slots' spans."""
    start = time.process_time()
    for slot in range(SLOTS_PER_BATCH):
        for stage in STAGES:
            obs.timing("stage.span", 1.25e-05, stage=stage, slot=slot,
                       outcome="ok")
    return (time.process_time() - start) / (SLOTS_PER_BATCH * len(STAGES))


def test_event_cpu_within_bound():
    counters = CounterReporter()
    obs = ObsContext.create([counters], run_id="bench").bind(cell="c0")
    bare = BareCalls()
    slot_batch(obs)
    ratios, best_s = [], float("inf")
    for _ in range(BATCHES):
        event_s = slot_batch(obs)
        ratios.append(event_s / slot_batch(bare))
        best_s = min(best_s, event_s)
    assert counters.span_count("stage.span") == \
        (BATCHES + 1) * SLOTS_PER_BATCH * len(STAGES)
    calls = statistics.median(ratios)
    scaled_us = calls * NOMINAL_CALL_US
    print(f"event: {scaled_us:.2f} us scaled ({calls:.1f} bare calls), "
          f"best {1e6 * best_s:.2f} us raw (bound {MAX_EVENT_US:.1f} us)")
    assert scaled_us <= MAX_EVENT_US
