"""Shared fixtures for the repro test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator; reseed per test for isolation."""
    return np.random.default_rng(0xC0FFEE)
