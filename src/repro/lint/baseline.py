"""Grandfathered-finding baseline.

The baseline lets the lint gate turn red only for *new* violations:
pre-existing findings are recorded once (with a justification) and
suppressed on later runs.  Entries match findings by content — rule id,
package-relative path and the stripped source line — with a ``count``
so a file may grandfather N identical lines and still fail on the
N+1th.  Line numbers are deliberately not part of the identity.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding

BASELINE_VERSION = 1

#: Default baseline filename looked up in the current directory.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class BaselineError(ValueError):
    """Raised for unreadable or malformed baseline files."""


def _in_scope(rel: str, scanned_rels: set[str]) -> bool:
    """Whether a scan that covered ``scanned_rels`` can judge ``rel``.

    A baseline entry is judgeable if its file was scanned, or if the
    scan covered the file's directory (some scanned file shares it) —
    the latter is how an entry for a *deleted* file still surfaces as
    an orphan, while a scoped run (``--changed``, one file elsewhere)
    stays silent about files it never looked at.
    """
    if rel in scanned_rels:
        return True
    parent = rel.rsplit("/", 1)[0] if "/" in rel else ""
    for scanned in scanned_rels:
        scanned_parent = scanned.rsplit("/", 1)[0] if "/" in scanned \
            else ""
        if scanned_parent == parent:
            return True
    return False


@dataclass
class Baseline:
    """A set of suppressed finding groups."""

    #: (rule, rel, snippet) -> allowed occurrence count
    entries: Counter = field(default_factory=Counter)
    #: (rule, rel, snippet) -> justification string
    justifications: dict[tuple[str, str, str], str] = \
        field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline JSON file."""
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise BaselineError(f"malformed baseline {path}: {exc}")
        if not isinstance(raw, dict) or "entries" not in raw:
            raise BaselineError(f"baseline {path} has no 'entries' list")
        baseline = cls()
        for entry in raw["entries"]:
            try:
                key = (str(entry["rule"]), str(entry["path"]),
                       str(entry["snippet"]))
                count = int(entry.get("count", 1))
            except (KeyError, TypeError, ValueError) as exc:
                raise BaselineError(
                    f"malformed baseline entry in {path}: {entry!r} ({exc})")
            baseline.entries[key] += count
            if "justification" in entry:
                baseline.justifications[key] = str(entry["justification"])
        return baseline

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        """A baseline that grandfathers exactly ``findings``."""
        baseline = cls()
        for finding in findings:
            baseline.entries[finding.group_key] += 1
        return baseline

    def filter(self, findings: list[Finding]) \
            -> tuple[list[Finding], list[Finding]]:
        """Split findings into (new, suppressed)."""
        budget = Counter(self.entries)
        fresh: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            if budget[finding.group_key] > 0:
                budget[finding.group_key] -= 1
                suppressed.append(finding)
            else:
                fresh.append(finding)
        return fresh, suppressed

    def unmatched(self, findings: list[Finding],
                  scanned_rels: set[str] | None = None,
                  active_rules: set[str] | None = None) \
            -> list[tuple[str, str, str]]:
        """Baseline entries no longer matched by any current finding.

        An *orphan* is an entry whose (rule, path, snippet) fingerprint
        matched fewer findings than its count — the grandfathered code
        was fixed or deleted, so the entry is dead weight.  When
        ``scanned_rels`` is given, only entries for files the scan
        actually covered are considered, so a scoped run (``--changed``,
        a single file) never flags entries for files it did not look at.
        When ``active_rules`` is given, entries for rules that did not
        run are likewise never judged — a ``--select R012`` scan
        produces zero findings for the other rules by construction, not
        because the grandfathered code was fixed.
        """
        used: Counter = Counter(f.group_key for f in findings)
        orphans: list[tuple[str, str, str]] = []
        for key in sorted(self.entries):
            rule, rel, _ = key
            if active_rules is not None and rule not in active_rules:
                continue
            if scanned_rels is not None and \
                    not _in_scope(rel, scanned_rels):
                continue
            if used[key] < self.entries[key]:
                orphans.append(key)
        return orphans

    def prune(self, findings: list[Finding],
              scanned_rels: set[str] | None = None,
              active_rules: set[str] | None = None) -> int:
        """Shrink entries to what current findings still need.

        Counts are reduced to the number of matching findings (entries
        dropping to zero are removed along with their justification);
        returns how many suppression slots were pruned.  Scoping via
        ``scanned_rels`` and ``active_rules`` mirrors :meth:`unmatched`.
        """
        used: Counter = Counter(f.group_key for f in findings)
        pruned = 0
        for key in list(self.entries):
            rule, rel, _ = key
            if active_rules is not None and rule not in active_rules:
                continue
            if scanned_rels is not None and \
                    not _in_scope(rel, scanned_rels):
                continue
            excess = self.entries[key] - used[key]
            if excess <= 0:
                continue
            pruned += excess
            if used[key] > 0:
                self.entries[key] = used[key]
            else:
                del self.entries[key]
                self.justifications.pop(key, None)
        return pruned

    def save(self, path: Path) -> None:
        """Write the baseline as stable, reviewable JSON."""
        entries = []
        for key in sorted(self.entries):
            rule, rel, snippet = key
            entry: dict[str, object] = {
                "rule": rule, "path": rel, "snippet": snippet,
                "count": int(self.entries[key]),
            }
            justification = self.justifications.get(key)
            entry["justification"] = justification if justification else \
                "TODO: justify or fix"
            entries.append(entry)
        payload = {"version": BASELINE_VERSION, "entries": entries}
        path.write_text(json.dumps(payload, indent=2) + "\n")
