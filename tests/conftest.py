"""Shared fixtures for the repro test suite."""

from typing import Callable

import numpy as np
import pytest

from repro.core.runtime import Executor, run_job


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator; reseed per test for isolation."""
    return np.random.default_rng(0xC0FFEE)


class ScriptedExecutor(Executor):
    """A saturated worker pool, without threads.

    ``refuse(seq)`` picks the submissions that bounce (the runtime
    counts each as a backpressure drop).  Accepted work is held until
    :meth:`wait`, which runs it newest first, so the runtime's reorder
    buffer sees completions out of slot order.
    """

    name = "scripted"

    def __init__(self, refuse: Callable[[int], bool] = lambda seq: False):
        self._refuse = refuse
        self._held: list = []
        self._ready: list = []

    def try_submit_payload(self, seq, job, payload):
        if self._refuse(seq):
            return False
        self._held.append((seq, job, payload))
        return True

    def pop_ready(self):
        ready, self._ready = self._ready, []
        return ready

    def wait(self, timeout_s):
        held, self._held = self._held, []
        self._ready.extend(run_job(*entry) for entry in reversed(held))


@pytest.fixture
def scripted_executor() -> type[ScriptedExecutor]:
    """The :class:`ScriptedExecutor` class, for deterministic
    backpressure and out-of-order-completion tests."""
    return ScriptedExecutor
