"""R012: obs emissions must conform to the declared event registry.

``obs validate`` checks streams after the fact; this rule checks the
*call sites* before the code ever runs.  Every
``<obs>.emit/count/timing/span(...)`` call and every deferred
``events.append((name, {...}))`` queue entry is collected
(:mod:`repro.lint.obsconform`) and verified against
:data:`repro.obs.events.KNOWN_EVENTS`:

* the event name must be a literal declared in the registry;
* the emitting method's kind must match the declaration (a counter
  emitted via ``.emit()`` clusters wrong in every downstream view);
* the declaration's required fields must all be passed;
* passed fields must be declared (spec extras or the shared
  ``OPTIONAL_FIELDS``) — a misspelled field silently vanishes from
  TopN grouping;
* string label fields (``stage``, ``reason``, ...) must not be built
  dynamically — they feed fixed-cardinality counter labels
  (DESIGN.md §7).

Forwarding relays (dynamic name plus ``**fields``, the runtime's
commit-time drain of the deferred queue) are exempt: they re-emit an
event that was declared and checked at its true origin.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.obsconform import check_site, collect_emissions
from repro.lint.registry import Rule, register
from repro.obs.events import KNOWN_EVENTS


@register
class ObsConformanceRule(Rule):
    """Flag emission sites that violate the KNOWN_EVENTS registry."""

    rule_id = "R012"
    title = "obs emission violates the declared event registry"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for site in collect_emissions(ctx.tree):
            for issue in check_site(site, KNOWN_EVENTS):
                node = ast.Constant(value=None)
                node.lineno = issue.lineno
                node.col_offset = issue.col
                yield self.finding(ctx, node, issue.detail)
