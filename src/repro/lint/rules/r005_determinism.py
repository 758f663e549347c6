"""R005: unseeded randomness or wall-clock reads in simulation code.

Every figure in EXPERIMENTS.md is reproduced from a seed; the gNB, UE
population and simulation core must be bit-reproducible runs of
``np.random.default_rng(seed)``.  A single ``random.random()``,
``np.random.rand()`` (legacy global state) or ``time.time()`` in those
paths makes every regression diff a coin flip.

Flags, inside ``gnb/``, ``ue/`` and ``simulation.py``:

* any use of the stdlib ``random`` module (including ``from random
  import ...``);
* legacy ``np.random.<fn>()`` global-state calls;
* ``np.random.default_rng()`` with no arguments or an explicit
  ``None`` seed;
* wall-clock reads: ``time.time``/``time_ns``/``monotonic``/
  ``perf_counter`` and ``datetime.now``/``utcnow``/``today``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Package-relative prefixes/names that must stay deterministic.
DETERMINISTIC_PREFIXES = ("gnb/", "ue/")
DETERMINISTIC_BASENAMES = {"simulation.py"}

#: Legacy numpy global-state entry points (R007 uses this table too).
LEGACY_NP_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "normal", "uniform", "poisson",
    "exponential", "standard_normal", "binomial",
}

#: Wall-clock call suffixes (matched against the dotted call name).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
}


@register
class DeterminismRule(Rule):
    """Flag nondeterminism sources inside the simulation core."""

    rule_id = "R005"
    title = "unseeded randomness or wall clock in deterministic code"

    def applies(self, rel: str) -> bool:
        return rel.startswith(DETERMINISTIC_PREFIXES) or \
            rel.rsplit("/", 1)[-1] in DETERMINISTIC_BASENAMES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx, node,
                    "stdlib 'random' in deterministic simulation code: "
                    "thread a seeded np.random.default_rng through instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: LintContext,
                    node: ast.Call) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        # stdlib random module: random.<anything>()
        if parts[0] == "random" and len(parts) > 1:
            yield self.finding(
                ctx, node,
                f"'{name}()' uses unseeded global randomness: thread a "
                f"seeded np.random.default_rng through instead")
            return
        # numpy legacy global state: np.random.rand() etc.
        if len(parts) >= 3 and parts[-2] == "random" \
                and parts[-1] in LEGACY_NP_RANDOM:
            yield self.finding(
                ctx, node,
                f"'{name}()' drives numpy's global RNG state: use a "
                f"seeded np.random.default_rng instead")
            return
        if parts[-1] == "default_rng":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "default_rng() without a seed is entropy-seeded and "
                    "breaks run-to-run reproducibility")
            elif node.args and isinstance(node.args[0], ast.Constant) \
                    and node.args[0].value is None:
                yield self.finding(
                    ctx, node,
                    "default_rng(None) is entropy-seeded and breaks "
                    "run-to-run reproducibility")
            return
        suffix = ".".join(parts[-2:]) if len(parts) >= 2 else name
        if suffix in WALL_CLOCK_CALLS:
            yield self.finding(
                ctx, node,
                f"'{name}()' reads the wall clock inside deterministic "
                f"simulation code: derive time from the SlotClock")
