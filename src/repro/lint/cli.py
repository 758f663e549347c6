"""Command-line front end: ``python -m repro.lint [PATH...]``.

Also mounted as the ``lint`` subcommand of ``python -m repro.cli``.

Exit codes: 0 clean, 1 findings, 2 analyzer crash / bad usage /
unreadable inputs — so CI can tell "violations" from "broken run".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.engine import LintEngine, LintError
from repro.lint.registry import RuleError, iter_rules

#: Default scan roots, tried in order relative to the current directory.
DEFAULT_ROOTS = ("src/repro", "repro", "src")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with the repro.cli subcommand)."""
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint "
                             "(default: the repro package)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", dest="output_format",
                        help="finding output format (sarif emits a "
                             "SARIF 2.1.0 log for code scanning)")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run "
                             "(e.g. R001,R004)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def _resolve_paths(paths: list[str]) -> list[Path]:
    if paths:
        return [Path(p) for p in paths]
    for candidate in DEFAULT_ROOTS:
        root = Path(candidate)
        if root.is_dir():
            return [root]
    return [Path(".")]


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    try:
        select = None if args.select is None else \
            [s.strip() for s in args.select.split(",") if s.strip()]
        if select is not None and not select:
            print("error: --select given but names no rules",
                  file=sys.stderr)
            return 2
        rules = iter_rules(select)
    except RuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    try:
        findings = LintEngine(rules=rules).run(_resolve_paths(args.paths))
    except (LintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "json":
        print(json.dumps({
            "findings": [f.to_json() for f in findings],
        }, indent=2))
    elif args.output_format == "sarif":
        from repro.lint.sarif import render_sarif
        print(render_sarif(findings, rules), end="")
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Domain-aware 3GPP bit-contract and determinism "
                    "lint for the NR-Scope reproduction.")
    add_arguments(parser)
    return run(parser.parse_args(argv))
