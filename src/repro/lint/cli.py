"""Command-line front end: ``python -m repro.lint``.

Also mounted as the ``lint`` subcommand of ``python -m repro.cli``.

Modes::

    python -m repro.lint [PATH...]        # lint (default)
    python -m repro.lint contracts [PATH...]  # JSON contract report
    python -m repro.lint --changed [REF]  # lint only git-changed files

Exit codes: 0 clean (or fully baselined), 1 new findings, 2 analyzer
crash / bad usage / unreadable inputs — so CI can tell "violations"
from "broken run".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.lint.baseline import (
    Baseline,
    BaselineError,
    DEFAULT_BASELINE_NAME,
)
from repro.lint.engine import LintEngine, LintError
from repro.lint.registry import RuleError, iter_rules

#: Default scan roots, tried in order relative to the current directory.
DEFAULT_ROOTS = ("src/repro", "repro", "src")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with the repro.cli subcommand)."""
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint; the first "
                             "may be the literal 'contracts' to emit "
                             "the JSON contract report instead of "
                             "findings (default: the repro package)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", dest="output_format",
                        help="finding output format (sarif emits a "
                             "SARIF 2.1.0 log for code scanning)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help=f"baseline file of grandfathered findings "
                             f"(default: ./{DEFAULT_BASELINE_NAME} "
                             f"when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write all current findings to the "
                             "baseline file and exit 0")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite the baseline file with orphaned "
                             "entries (no longer matching any finding) "
                             "removed")
    parser.add_argument("--changed", nargs="?", const="HEAD",
                        default=None, metavar="REF",
                        help="lint only Python files changed vs the "
                             "given git ref (default HEAD), plus "
                             "untracked ones — the fast PR gate")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run "
                             "(e.g. R001,R004)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def _resolve_paths(args: argparse.Namespace,
                   paths: list[str]) -> list[Path]:
    if paths:
        return [Path(p) for p in paths]
    for candidate in DEFAULT_ROOTS:
        root = Path(candidate)
        if root.is_dir():
            return [root]
    return [Path(".")]


def _resolve_baseline(args: argparse.Namespace) -> Path | None:
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    if default.is_file() or args.write_baseline:
        return default
    return None


def _git_lines(cmd: list[str]) -> list[str]:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise LintError(f"{' '.join(cmd)} failed: "
                        f"{proc.stderr.strip() or proc.returncode}")
    return [line for line in proc.stdout.splitlines() if line.strip()]


#: Repo-relative prefixes ``--changed`` never lints: the seeded
#: violation fixtures *must* contain findings, so a PR touching them
#: would otherwise turn the fast gate red by design.
CHANGED_EXCLUDE_PREFIXES = ("tests/lint/fixtures/",)


def changed_python_files(ref: str) -> list[Path]:
    """Python files changed vs ``ref`` plus untracked ones.

    Deleted files are filtered out (``--diff-filter=d`` and the
    existence check) — there is nothing left to lint.
    """
    names = _git_lines(["git", "diff", "--name-only", "--diff-filter=d",
                        ref, "--"])
    names += _git_lines(["git", "ls-files", "--others",
                         "--exclude-standard"])
    seen: set[str] = set()
    out: list[Path] = []
    for name in names:
        if not name.endswith(".py") or name in seen:
            continue
        if name.startswith(CHANGED_EXCLUDE_PREFIXES):
            continue
        seen.add(name)
        path = Path(name)
        if path.is_file():
            out.append(path)
    return out


def _run_contracts(args: argparse.Namespace, paths: list[str]) -> int:
    """The ``contracts`` mode: emit the cross-boundary contract report.

    Two sections mirror the R010-R012 analyses: ``shapes`` (dtype/
    layout interpretation of the hot batched modules, including scalar/
    batch twins) and ``obs`` (every emission site versus the declared
    event registry).
    """
    from repro.lint.obsconform import collect_emissions
    from repro.lint.rules.r010_dtype_drift import HOT_FILES, HOT_PREFIXES
    from repro.lint.shapes import analyze_module
    from repro.obs.events import KNOWN_EVENTS

    engine = LintEngine(rules=[])
    modules, parse_failures = engine.collect(
        _resolve_paths(args, paths))

    shapes_section: dict[str, object] = {}
    for module in modules:
        if not (module.rel.startswith(HOT_PREFIXES)
                or module.rel in HOT_FILES):
            continue
        mod = analyze_module(module.tree)
        functions = {
            qualname: {
                "layouts": {name: value.render() for name, value
                            in sorted(shapes.layouts.items())},
                "return": shapes.return_value.render(),
                "issues": [
                    {"kind": issue.kind, "line": issue.lineno,
                     "detail": issue.detail}
                    for issue in shapes.issues
                ],
            }
            for qualname, shapes in sorted(mod.functions.items())
        }
        twins = [
            {"scalar": scalar.qualname, "batch": batch.qualname,
             "scalar_return": scalar.return_value.render(),
             "batch_return": batch.return_value.render()}
            for scalar, batch in mod.batch_twins()
        ]
        shapes_section[module.rel] = {
            "functions": functions, "twins": twins,
        }

    sites: list[dict[str, object]] = []
    unknown: list[str] = []
    for module in modules:
        for site in collect_emissions(module.tree):
            known = site.name in KNOWN_EVENTS
            sites.append({
                "rel": module.rel, "line": site.lineno,
                "name": site.name, "kind": site.kind,
                "method": site.method, "known": known,
            })
            if site.name is not None and not known:
                unknown.append(site.name)

    report = {
        "shapes": shapes_section,
        "obs": {
            "n_sites": len(sites),
            "known_events": sorted(KNOWN_EVENTS),
            "unknown_names": sorted(set(unknown)),
            "sites": sorted(sites,
                            key=lambda s: (s["rel"], s["line"])),
        },
        "parse_failures": [f.rel for f in parse_failures],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    paths = list(args.paths)
    contracts_mode = bool(paths) and paths[0] == "contracts"
    if contracts_mode:
        paths = paths[1:]

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
        if contracts_mode:
            return _run_contracts(args, paths)

        if args.changed is not None:
            if paths:
                print("error: --changed and explicit paths are "
                      "mutually exclusive", file=sys.stderr)
                return 2
            changed = changed_python_files(args.changed)
            if not changed:
                print(f"no Python files changed vs {args.changed}; "
                      f"nothing to lint")
                return 0
            scan_paths: list[Path] = changed
        else:
            scan_paths = _resolve_paths(args, paths)

        engine = LintEngine(rules=rules)
        findings = engine.run(scan_paths)
    except (LintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = _resolve_baseline(args)

    if args.write_baseline:
        assert baseline_path is not None
        old = Baseline.load(baseline_path) if baseline_path.is_file() \
            else Baseline()
        new = Baseline.from_findings(findings)
        # Keep justifications already written for surviving entries.
        for key, text in old.justifications.items():
            if key in new.entries:
                new.justifications[key] = text
        new.save(baseline_path)
        print(f"wrote {sum(new.entries.values())} finding(s) to "
              f"{baseline_path}")
        return 0

    # Only entries for rules that actually ran may be judged orphaned.
    active_rules = {rule.rule_id for rule in rules}

    suppressed: list = []
    if baseline_path is not None and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        orphans = baseline.unmatched(findings,
                                     scanned_rels=engine.last_scanned,
                                     active_rules=active_rules)
        if args.prune_baseline:
            pruned = baseline.prune(findings,
                                    scanned_rels=engine.last_scanned,
                                    active_rules=active_rules)
            baseline.save(baseline_path)
            print(f"pruned {pruned} orphaned suppression(s) from "
                  f"{baseline_path}")
        else:
            for rule, rel, snippet in orphans:
                print(f"warning: orphaned baseline entry "
                      f"{rule} {rel}: {snippet!r} no longer matches "
                      f"any finding (run --prune-baseline)",
                      file=sys.stderr)
        findings, suppressed = baseline.filter(findings)
    elif args.prune_baseline:
        print("error: --prune-baseline needs an existing baseline file",
              file=sys.stderr)
        return 2

    if args.output_format == "json":
        print(json.dumps({
            "findings": [f.to_json() for f in findings],
            "suppressed": len(suppressed),
        }, indent=2))
    elif args.output_format == "sarif":
        from repro.lint.sarif import render_sarif
        print(render_sarif(findings, rules), end="")
    else:
        for finding in findings:
            print(finding.render())
        summary = f"{len(findings)} finding(s)"
        if suppressed:
            summary += f", {len(suppressed)} baselined"
        print(summary)
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Domain-aware 3GPP bit-contract and determinism "
                    "lint for the NR-Scope reproduction.")
    add_arguments(parser)
    return run(parser.parse_args(argv))
