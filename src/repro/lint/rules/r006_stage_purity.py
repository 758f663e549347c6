"""R006: parallel stage entry points must be transitively pure.

The staged SlotRuntime's determinism contract (inline == process,
byte-identical) holds only because the one parallel stage — per-UE DCI
decode — is a pure job of its payload (the captured control region and
the search-space snapshot).
Backbone stages own all RNG draws and tracked-table mutation; the
parallel stage may use *counter-keyed* RNG only, because keyed draws are
order- and thread-free.

This rule checks that contract over the whole scan: every function
transitively reachable from a parallel-stage root must be free of
``mutates-tracked`` / ``rng`` / ``io`` / ``clock`` effects (see
:mod:`repro.lint.effects`).  Roots are detected two ways:

* a function decorated ``@parallel_stage`` (any decorator of that
  name);
* the ``fn`` argument of any ``Stage(..., parallel=True)`` construction,
  every branch of it when the stage picks its job with a conditional
  expression (the scope's ``grid_decode_job if ... else
  record_decode_job``).

Findings are anchored at the root and carry the witness chain down to
the seeding call (``grid_decode_job -> decode_slot_batch ->
'np.random.random()'``) so the violation is actionable without
re-deriving the closure by hand.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.effects import FORBIDDEN_IN_PARALLEL
from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register


@register
class StagePurityRule(Rule):
    """Flag impure closures under parallel-stage entry points."""

    rule_id = "R006"
    title = "parallel stage reaches impure code (flow-aware)"
    needs_program = True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        program = ctx.program
        if program is None:  # pragma: no cover - engine always supplies it
            return
        for root in program.stage_roots:
            if root.rel != ctx.rel:
                continue
            effects = program.effects.effects_of(root.qualname)
            for effect in FORBIDDEN_IN_PARALLEL:
                if effect not in effects:
                    continue
                witness = program.effects.describe(root.qualname, effect)
                short = root.qualname.split("::", 1)[-1]
                snippet = ""
                if 1 <= root.lineno <= len(ctx.lines):
                    snippet = ctx.lines[root.lineno - 1].strip()
                yield Finding(
                    rule_id=self.rule_id,
                    message=(
                        f"parallel stage '{short}' reaches "
                        f"'{effect}' code: {witness} — the parallel "
                        f"DCI-decode closure may only use counter-keyed "
                        f"RNG; move this effect to a backbone stage"),
                    path=str(ctx.path), rel=ctx.rel,
                    line=root.lineno, col=0, snippet=snippet)
