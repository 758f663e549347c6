"""SARIF 2.1.0 emission for nrlint findings.

GitHub code scanning (and most IDE SARIF viewers) ingest the Static
Analysis Results Interchange Format.  This module renders a lint run —
the findings plus the rule catalog that produced them — as a
single-run SARIF log.  URIs are repo-relative so the
upload action can map results onto PR diffs; columns are converted
from nrlint's 0-based ``col`` to SARIF's 1-based ``startColumn``.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Reported as the analysis tool in ``tool.driver``.
TOOL_NAME = "nrlint"
TOOL_URI = "https://github.com/nr-scope/repro"


def _clean_uri(path: str) -> str:
    """A forward-slash repo-relative URI from a scan path."""
    uri = path.replace("\\", "/")
    while uri.startswith("./"):
        uri = uri[2:]
    return uri


def _rule_descriptor(rule: Rule) -> dict[str, object]:
    """A ``reportingDescriptor`` for the rules catalog."""
    doc = (type(rule).__doc__ or rule.title).strip().splitlines()[0]
    return {
        "id": rule.rule_id,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": doc},
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: Finding, rule_index: dict[str, int]) \
        -> dict[str, object]:
    """A SARIF ``result`` for one finding."""
    region: dict[str, object] = {
        "startLine": finding.line,
        "startColumn": finding.col + 1,
    }
    if finding.snippet:
        region["snippet"] = {"text": finding.snippet}
    result: dict[str, object] = {
        "ruleId": finding.rule_id,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": _clean_uri(finding.path),
                    "uriBaseId": "%SRCROOT%",
                },
                "region": region,
            },
        }],
    }
    index = rule_index.get(finding.rule_id)
    if index is not None:
        result["ruleIndex"] = index
    return result


def to_sarif(findings: Iterable[Finding],
             rules: Sequence[Rule]) -> dict[str, object]:
    """Render findings and the rule catalog as a SARIF 2.1.0 log."""
    descriptors = [_rule_descriptor(rule) for rule in
                   sorted(rules, key=lambda r: r.rule_id)]
    rule_index = {d["id"]: i for i, d in enumerate(descriptors)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "informationUri": TOOL_URI,
                    "rules": descriptors,
                },
            },
            "results": [_result(f, rule_index) for f in findings],
        }],
    }


def render_sarif(findings: Iterable[Finding],
                 rules: Sequence[Rule]) -> str:
    """The SARIF log as pretty-printed JSON text."""
    return json.dumps(to_sarif(findings, rules), indent=2) + "\n"
