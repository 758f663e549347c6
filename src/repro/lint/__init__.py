"""nrlint: domain-aware static analysis for the NR-Scope reproduction.

Generic linters can tell you a variable is unused; they cannot tell you
that a DCI field is packed 4 bits wide and unpacked 3, or that a slot
index is reduced mod 20 behind the numerology helpers' back.  This
package holds an AST-based analysis pass with rules that encode the
repo's 3GPP bit-contract and determinism invariants (paper section
3.2.1: one mis-sized field silently corrupts every downstream metric).

Run it as ``python -m repro.lint [--format text|json] [paths...]`` or
through the main CLI as ``python -m repro.cli lint``.  Two more modes:
``python -m repro.lint contracts`` prints the JSON contract report
(shapes and obs emission sites), and ``--changed [REF]`` scopes the
scan to git-changed files for a fast PR gate.

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
* **R010**/**R011** dtype drift and axis-layout safety in the batched
  PHY kernels; **R012** obs emission conformance.

Every rule sees one module at a time.  New rules are one file each:
drop ``rNNN_name.py`` into :mod:`repro.lint.rules` with a
``@register``-decorated :class:`Rule` subclass and the registry
discovers it.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.engine import LintContext, LintEngine
from repro.lint.findings import Finding
from repro.lint.registry import Rule, iter_rules, register

__all__ = [
    "Baseline",
    "Finding",
    "LintContext",
    "LintEngine",
    "Rule",
    "iter_rules",
    "register",
]
