"""nrlint: domain-aware static analysis for the NR-Scope reproduction.

Generic linters can tell you a variable is unused; they cannot tell you
that a DCI field is packed 4 bits wide and unpacked 3, or that a slot
index is reduced mod 20 behind the numerology helpers' back.  This
package holds an AST-based analysis pass with rules that encode the
repo's 3GPP bit-contract and determinism invariants (paper section
3.2.1: one mis-sized field silently corrupts every downstream metric).

Run it as ``python -m repro.lint [--format text|json] [paths...]`` or
through the main CLI as ``python -m repro.cli lint``.

Rule catalogue (see each module under :mod:`repro.lint.rules`):

* **R001** magic 3GPP numeric literals outside the constants modules.
* **R002** bit-width contract symmetry between pack/encode and
  unpack/decode sides of every codec.
* **R003** float equality comparisons in hot PHY/radio paths.
* **R004** raw slot/frame modular arithmetic bypassing numerology.
* **R005** unseeded randomness or wall-clock reads in deterministic
  simulation code.
* **R007** every RNG draw in the runtime core must flow from an
  owned, seeded Generator.
* **R008** dtype-less numpy allocations in PHY hot paths.
* **R012** obs emission conformance against the declared event
  registry.

The batched PHY kernels' dtypes, ranks and bit identity with their
scalar twins are pinned by tests (``tests/phy/test_batch_kernels.py``),
not by a rule.

Every rule sees one module at a time.  New rules are one file each:
drop ``rNNN_name.py`` into :mod:`repro.lint.rules` with a
``@register``-decorated :class:`Rule` subclass and the registry
discovers it.
"""

from __future__ import annotations

from repro.lint.engine import LintContext, LintEngine
from repro.lint.findings import Finding
from repro.lint.registry import Rule, iter_rules, register

__all__ = [
    "Finding",
    "LintContext",
    "LintEngine",
    "Rule",
    "iter_rules",
    "register",
]
