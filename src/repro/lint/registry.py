"""Rule plugin registry.

A rule is a class with a unique ``rule_id``, a human ``title``, a path
scope (:meth:`Rule.applies`) and a :meth:`Rule.check` that yields
:class:`~repro.lint.findings.Finding` objects for one parsed module.

Rules self-register via the :func:`register` decorator; the registry
imports every ``r*.py`` module under :mod:`repro.lint.rules` on first
use, so adding a rule to the catalogue is one new file, no wiring.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import LintContext


class RuleError(ValueError):
    """Raised for malformed rule registrations or selections."""


class Rule:
    """Base class for one lint rule."""

    rule_id: str = ""
    title: str = ""

    def applies(self, rel: str) -> bool:
        """Whether this rule scans the file at package-relative ``rel``."""
        return True

    def check(self, ctx: "LintContext") -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, ctx: "LintContext", node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(ctx.lines):
            snippet = ctx.lines[line - 1].strip()
        return Finding(rule_id=self.rule_id, message=message,
                       path=str(ctx.path), rel=ctx.rel, line=line,
                       col=col, snippet=snippet)


_REGISTRY: dict[str, type[Rule]] = {}
_LOADED = False


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not cls.rule_id:
        raise RuleError(f"rule {cls.__name__} has no rule_id")
    existing = _REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise RuleError(f"duplicate rule id {cls.rule_id!r}: "
                        f"{existing.__name__} and {cls.__name__}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def _load_builtin_rules() -> None:
    global _LOADED
    if _LOADED:
        return
    from repro.lint import rules as rules_pkg
    for info in pkgutil.iter_modules(rules_pkg.__path__):
        if info.name.startswith("_"):
            continue
        importlib.import_module(f"{rules_pkg.__name__}.{info.name}")
    _LOADED = True


def iter_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate registered rules, optionally restricted to ``select``.

    ``select`` takes rule ids (``R001``); unknown ids raise so a typo in
    ``--select`` fails loudly instead of silently checking nothing.
    """
    _load_builtin_rules()
    if select is None:
        chosen = sorted(_REGISTRY)
    else:
        chosen = []
        for rule_id in select:
            if rule_id not in _REGISTRY:
                known = ", ".join(sorted(_REGISTRY))
                raise RuleError(f"unknown rule {rule_id!r} (known: {known})")
            chosen.append(rule_id)
    return [_REGISTRY[rule_id]() for rule_id in chosen]
