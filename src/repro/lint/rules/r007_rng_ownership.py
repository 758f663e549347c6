"""R007: every generator draw must flow from an owned, seeded Generator.

R005 polices ``gnb/``/``ue/``/``simulation.py``; the runtime core in
``core/`` has a stricter ownership story: the *session* seeds exactly
one ``np.random.default_rng(seed)`` per component in ``__init__``, and
every draw flows from that stored generator (``self._rng``) or from a
generator threaded in as a parameter.  Randomness that is not owned —
the stdlib ``random`` module, legacy ``np.random.*`` global state,
entropy-seeded ``default_rng()``, or a draw chained onto a fresh
``default_rng(...)`` that nobody keeps — makes replay diverge or (for
global state) couples independent components.

A *seeded* generator built inside a function is not flagged: it
reproduces run to run, and a draw from one that changes what the DCI
jobs decode fails the accuracy tests (EXPERIMENTS.md, "Catch matrix:
R007's parallel closure after the inline runtime").
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules.r005_determinism import LEGACY_NP_RANDOM

#: Draw methods of numpy Generator objects.
RNG_DRAW_METHODS = {
    "random", "normal", "integers", "uniform", "choice", "shuffle",
    "permutation", "standard_normal", "exponential", "poisson",
    "binomial", "bytes",
}


@register
class RngOwnershipRule(Rule):
    """Flag RNG that does not flow from an owned, seeded Generator."""

    rule_id = "R007"
    title = "RNG draw not owned by a seeded stage Generator"

    def applies(self, rel: str) -> bool:
        return rel.startswith("core/")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx, node,
                    "stdlib 'random' in the runtime core: draws must "
                    "flow from a stored, seeded np.random.default_rng")
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: LintContext,
                    node: ast.Call) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is not None:
            parts = name.split(".")
            if parts[0] == "random" and len(parts) > 1:
                yield self.finding(
                    ctx, node,
                    f"'{name}()' draws from unowned global randomness: "
                    f"thread a seeded np.random.default_rng through")
                return
            if len(parts) >= 3 and parts[-2] == "random" \
                    and parts[-1] in LEGACY_NP_RANDOM:
                yield self.finding(
                    ctx, node,
                    f"'{name}()' drives numpy's global RNG state, owned "
                    f"by nobody: use a stored seeded default_rng")
                return
            if parts[-1] == "default_rng":
                unseeded = (not node.args and not node.keywords) or (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None)
                if unseeded:
                    yield self.finding(
                        ctx, node,
                        "default_rng() without a seed is entropy-seeded: "
                        "an owned generator must be seeded so replay "
                        "reproduces its stream")
                return
        # A draw chained onto a fresh generator nobody stores:
        # ``default_rng(7).random()`` owns nothing — the stream restarts
        # at every call site.
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in RNG_DRAW_METHODS and \
                isinstance(node.func.value, ast.Call):
            inner = dotted_name(node.func.value.func)
            if inner is not None and \
                    inner.split(".")[-1] == "default_rng":
                yield self.finding(
                    ctx, node,
                    f"draw on a fresh '{inner}(...)': the generator is "
                    f"discarded after one draw, so the stream is not "
                    f"owned by any stage — store it and reuse it")
