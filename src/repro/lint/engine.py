"""The lint driver: walk files, parse once, run every applicable rule.

Each file is parsed to an AST exactly once and handed to the rules
wrapped in a :class:`LintContext`.  Rule scoping works on a
*package-relative* path (``phy/dci.py``, ``gnb/scheduler.py``) computed
by stripping any leading ``src/repro/`` / ``repro/`` components, so the
same rules fire identically on the real tree and on test fixtures that
mimic its layout.  Every rule sees one module at a time, so a file's
findings do not depend on what else the scan covers.

A rule that *crashes* raises :class:`LintError` (naming the rule and
file) rather than leaking a traceback, so the CLI can report analyzer
breakage as exit 2, distinct from findings (exit 1).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, iter_rules

#: Directory names never scanned.
SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: Package-relative prefixes never scanned (the linter does not lint
#: itself: its rule tables legitimately contain every magic number).
SKIP_REL_PREFIXES = ("lint/",)


class LintError(ValueError):
    """Raised for unusable scan targets or analyzer crashes."""


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may want to know about one module."""

    path: Path          #: filesystem path, for display
    rel: str            #: package-relative path, for scoping
    source: str
    tree: ast.Module
    lines: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ParsedModule:
    """One successfully parsed file of a scan."""

    path: Path
    rel: str
    source: str
    tree: ast.Module


def _normalise_rel(rel: str) -> str:
    rel = rel.replace("\\", "/")
    for prefix in ("src/repro/", "repro/", "src/"):
        if rel.startswith(prefix):
            rel = rel[len(prefix):]
            break
    return rel


#: Rightmost-match markers that locate the package root inside an
#: absolute path, so a scan target given from *inside* the tree (a
#: single file, or a subdirectory root) still gets the package-relative
#: path that rule scoping needs: ``lint phy/dci.py`` must scope the same
#: as ``lint src/repro``.  ``/fixtures/`` covers the test-fixture trees
#: that mimic the package layout.
_REL_MARKERS = ("/src/repro/", "/repro/", "/fixtures/", "/src/")

#: Top-level subpackage names; when no root marker matches, a path
#: component with one of these names anchors the rel instead (kept in
#: the rel, unlike the markers above), so ``lint gnb/`` on a tree that
#: merely mimics the layout scopes the same as ``lint .``.
_PACKAGE_DIRS = ("phy", "rrc", "gnb", "ue", "radio", "core",
                 "analysis", "experiments")


def _recover_rel(path: Path, fallback: str) -> str:
    text = str(path.resolve()).replace("\\", "/")
    for marker in _REL_MARKERS:
        idx = text.rfind(marker)
        if idx != -1:
            return _normalise_rel(text[idx + len(marker):])
    parts = text.split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] in _PACKAGE_DIRS:
            return "/".join(parts[i:])
    return fallback


def _iter_python_files(root: Path) -> Iterator[tuple[Path, str]]:
    if root.is_file():
        yield root, _recover_rel(root, _normalise_rel(root.name))
        return
    if not root.is_dir():
        raise LintError(f"no such file or directory: {root}")
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if any(part in SKIP_DIRS or part.endswith(".egg-info")
               for part in parts):
            continue
        yield path, _recover_rel(path, _normalise_rel("/".join(parts)))


def _syntax_finding(path: Path, rel: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule_id="E000",
        message=f"syntax error: {exc.msg}",
        path=str(path), rel=rel,
        line=exc.lineno or 1, col=(exc.offset or 1) - 1,
        snippet="")


@dataclass
class LintEngine:
    """Runs a rule set over a list of scan roots."""

    rules: list[Rule] = field(default_factory=iter_rules)

    def collect(self, paths: Iterable[Path | str]) \
            -> tuple[list[ParsedModule], list[Finding]]:
        """Parse every Python file under ``paths`` exactly once.

        Returns the parsed modules plus E000 findings for files that do
        not parse.
        """
        modules: list[ParsedModule] = []
        findings: list[Finding] = []
        seen: set[Path] = set()
        for root in paths:
            for path, rel in _iter_python_files(Path(root)):
                if rel.startswith(SKIP_REL_PREFIXES):
                    continue
                resolved = path.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                try:
                    source = Path(path).read_text()
                except OSError as exc:
                    raise LintError(f"cannot read {path}: {exc}")
                try:
                    tree = ast.parse(source)
                except SyntaxError as exc:
                    findings.append(_syntax_finding(path, rel, exc))
                    continue
                modules.append(ParsedModule(path=path, rel=rel,
                                            source=source, tree=tree))
        return modules, findings

    def run(self, paths: Iterable[Path | str]) -> list[Finding]:
        """Lint every Python file under ``paths``; returns all findings."""
        modules, findings = self.collect(paths)
        for module in modules:
            findings.extend(self._check_module(module))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def run_file(self, path: Path, rel: str | None = None) -> list[Finding]:
        """Lint a single file."""
        rel = _normalise_rel(rel if rel is not None else path.name)
        try:
            source = Path(path).read_text()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}")
        return self.run_source(source, path=Path(path), rel=rel)

    def run_source(self, source: str, path: Path | str = "<memory>",
                   rel: str | None = None) -> list[Finding]:
        """Lint source text directly (the unit-test entry point)."""
        path = Path(path)
        rel = _normalise_rel(rel if rel is not None else path.name)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [_syntax_finding(path, rel, exc)]
        module = ParsedModule(path=path, rel=rel, source=source, tree=tree)
        return sorted(self._check_module(module),
                      key=lambda f: (f.path, f.line, f.col, f.rule_id))

    def _check_module(self, module: ParsedModule) -> list[Finding]:
        ctx = LintContext(path=module.path, rel=module.rel,
                          source=module.source, tree=module.tree,
                          lines=tuple(module.source.splitlines()))
        findings: list[Finding] = []
        for rule in self.rules:
            if not rule.applies(module.rel):
                continue
            try:
                findings.extend(rule.check(ctx))
            except LintError:
                raise
            except Exception as exc:
                raise LintError(
                    f"internal error: rule {rule.rule_id} crashed on "
                    f"{module.path}: {exc!r}")
        return findings
