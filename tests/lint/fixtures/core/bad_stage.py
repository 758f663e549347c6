"""R006 fixture: a parallel stage whose closure is impure every way.

Both root-detection forms appear: the ``@parallel_stage`` decorator and
a ``Stage(..., parallel=True)`` construction.  The stage body reaches,
through helpers, a tracked-table mutation, a stateful RNG draw and a
wall-clock read — each must surface as an R006 finding with a witness
chain.  At runtime the same tracked write fails by construction: the
real parallel stage only sees a read-only snapshot of frozen search
spaces (``tests/core/test_space_snapshot.py``).
"""

import time

import numpy as np


def parallel_stage(fn):
    return fn


class Stage:
    def __init__(self, name, fn, parallel=False):
        self.name = name
        self.fn = fn
        self.parallel = parallel


def _mark_activity(tracked, rnti, now_s):
    tracked[rnti].last_seen_s = now_s


def _draw_decision():
    return np.random.default_rng().random() < 0.5


def _stamp():
    return time.time()


class BadPipeline:
    def __init__(self):
        self.tracked = {}
        self.stage = Stage("decode", self._stage_decode, parallel=True)

    def _stage_decode(self, ctx):
        for rnti in ctx.tracked:
            _mark_activity(ctx.tracked, rnti, _stamp())
            if _draw_decision():
                self.tracked.pop(rnti)


@parallel_stage
def decode_shard(tracked, rnti):
    tracked[rnti].decoded_dcis += 1
    return _draw_decision()
