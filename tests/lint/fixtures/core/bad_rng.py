"""R007 fixture: randomness nobody owns, in every flavour.

stdlib ``random``, legacy ``np.random`` global state, entropy-seeded
``default_rng()`` and a draw chained on a discarded fresh generator.
"""

import random

import numpy as np


def coin_flip():
    return random.random() < 0.5


def legacy_noise(n):
    return np.random.randn(n)


def entropy_seeded():
    return np.random.default_rng()


def one_shot_draw():
    return np.random.default_rng(7).random()
