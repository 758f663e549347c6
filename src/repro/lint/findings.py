"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    rule_id: str
    message: str
    path: str       #: path as scanned, for display
    rel: str        #: package-relative path, for scoping
    line: int       #: 1-based source line
    col: int        #: 0-based column
    snippet: str    #: the stripped source line, for display

    def render(self) -> str:
        """Conventional ``path:line:col: RULE message`` line."""
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule_id} {self.message}")

    def to_json(self) -> dict[str, object]:
        """JSON-serialisable form for ``--format json``."""
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "rel": self.rel,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
        }
