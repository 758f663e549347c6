"""R003: float equality in hot PHY/radio paths.

``==`` / ``!=`` against a float literal inside the signal-processing
paths is almost always a latent bug: values arrive through FFTs, AGC
gains and LLR scalings where exact equality is an accident of rounding.
The fix is ``math.isclose`` / ``np.isclose`` — or, when the comparison
really is an exact sentinel, a named module-level constant saying so.

Also flags identity comparisons with numeric literals (``x is 5``),
which compare object identity and only work by CPython caching
accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Package-relative prefixes that count as hot signal paths.
HOT_PREFIXES = ("phy/", "radio/")


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and \
            isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


def _is_number_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and \
        isinstance(node.value, (int, float, complex)) and \
        not isinstance(node.value, bool)


@register
class FloatEqualityRule(Rule):
    """Flag exact float comparisons where tolerances belong."""

    rule_id = "R003"
    title = "float equality comparison in a hot PHY path"

    def applies(self, rel: str) -> bool:
        return rel.startswith(HOT_PREFIXES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)) and \
                        any(_is_float_literal(o) for o in operands):
                    yield self.finding(
                        ctx, node,
                        "exact float comparison in a hot path: use "
                        "math.isclose/np.isclose, or compare against a "
                        "named module-level constant if the value is a "
                        "true sentinel")
                    break
                if isinstance(op, (ast.Is, ast.IsNot)) and \
                        (_is_number_literal(right)
                         or _is_number_literal(node.left)):
                    yield self.finding(
                        ctx, node,
                        "identity comparison with a numeric literal "
                        "('is' compares object identity, not value)")
                    break
