"""Shared fixtures for the repro test suite."""

from typing import Callable

import numpy as np
import pytest

from repro.core.runtime import Executor, WindowRun, run_window


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator; reseed per test for isolation."""
    return np.random.default_rng(0xC0FFEE)


class ScriptedExecutor(Executor):
    """A saturated worker pool, without threads.

    ``refuse(seq)`` picks the windows that bounce, by their first slot
    (the runtime counts each of their slots as a backpressure drop).
    Accepted windows are held until :meth:`wait`, which runs them
    newest first, so the runtime's reorder buffer sees completions out
    of slot order.
    """

    name = "scripted"

    def __init__(self, refuse: Callable[[int], bool] = lambda seq: False):
        self._refuse = refuse
        self._held: list = []
        self._ready: list = []

    def try_submit(self, seqs, job, payloads):
        if self._refuse(seqs[0]):
            return False
        self._held.append(WindowRun(seqs, job, payloads))
        return True

    def pop_ready(self):
        ready, self._ready = self._ready, []
        return ready

    def wait(self, timeout_s):
        held, self._held = self._held, []
        for window in reversed(held):
            self._ready.extend(reversed(run_window(window)))


@pytest.fixture
def scripted_executor() -> type[ScriptedExecutor]:
    """The :class:`ScriptedExecutor` class, for deterministic
    backpressure and out-of-order-completion tests."""
    return ScriptedExecutor
