"""Engine, baseline and output-format tests for nrlint."""

import json
from pathlib import Path

import pytest

from repro.lint import Baseline, Finding, LintEngine
from repro.lint.baseline import BaselineError
from repro.lint.registry import RuleError, iter_rules

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestEngine:
    def test_repo_is_clean(self, engine):
        """The headline acceptance check: the shipped tree has no
        unfixed violations (the committed baseline is empty)."""
        findings = engine.run([REPO_SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_fixture_tree_violates_every_rule(self, engine, fixtures_dir):
        findings = engine.run([fixtures_dir])
        seen = {f.rule_id for f in findings}
        assert {"R001", "R002", "R003", "R004",
                "R005", "R007", "R008"} <= seen

    def test_findings_independent_of_file_order(self, engine, fixtures_dir):
        """Linting the tree must produce the same findings regardless
        of the order its files are given in."""
        files = sorted(p for p in fixtures_dir.rglob("*.py"))
        forward = engine.run(files)
        backward = engine.run(list(reversed(files)))
        as_keys = lambda fs: sorted(  # noqa: E731
            (f.rule_id, f.rel, f.line, f.message) for f in fs)
        assert as_keys(forward) == as_keys(backward)
        assert forward  # the comparison is not vacuous

    def test_rule_crash_becomes_lint_error(self, fixtures_dir):
        from repro.lint.engine import LintError
        from repro.lint.registry import Rule

        class Exploding(Rule):
            rule_id = "R999"
            title = "boom"

            def check(self, ctx):
                raise ValueError("internal inconsistency")

        engine = LintEngine(rules=[Exploding()])
        with pytest.raises(LintError, match="R999 crashed"):
            engine.run([fixtures_dir])

    def test_rel_normalisation_strips_src_repro(self, engine, tmp_path):
        tree = tmp_path / "src" / "repro" / "gnb"
        tree.mkdir(parents=True)
        (tree / "mod.py").write_text("import random\nrandom.random()\n")
        findings = engine.run([tmp_path])
        assert findings and findings[0].rel == "gnb/mod.py"

    def test_single_file_target_keeps_package_scope(self, engine,
                                                     fixtures_dir):
        """Linting one file by path must scope like linting the tree:
        the ``phy/`` prefix R003 needs is recovered from the absolute
        path, not lost to the basename."""
        findings = engine.run([fixtures_dir / "phy" / "bad_float.py"])
        assert "R003" in {f.rule_id for f in findings}

    def test_subdirectory_target_keeps_package_scope(self, engine):
        from repro.lint.engine import _iter_python_files
        findings = engine.run([REPO_SRC / "phy"])
        assert findings == []  # scoped correctly AND clean
        rels = [rel for _, rel in _iter_python_files(REPO_SRC / "phy")]
        assert rels and all(rel.startswith("phy/") for rel in rels)

    def test_syntax_error_reported_not_raised(self, engine, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = engine.run([tmp_path])
        assert findings[0].rule_id == "E000"

    def test_skips_cache_dirs_and_own_package(self, engine, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1024 % 1024\n")
        lint_pkg = tmp_path / "lint"
        lint_pkg.mkdir()
        (lint_pkg / "rules.py").write_text("MAGIC = {65535}\nx = 65535\n")
        assert engine.run([tmp_path]) == []

    def test_missing_path_raises(self, engine, tmp_path):
        from repro.lint.engine import LintError
        with pytest.raises(LintError):
            engine.run([tmp_path / "nope"])

    def test_unknown_rule_selection_fails_loudly(self):
        with pytest.raises(RuleError):
            iter_rules(["R999"])

    def test_selection_restricts_rules(self, fixtures_dir):
        engine = LintEngine(rules=iter_rules(["R004"]))
        findings = engine.run([fixtures_dir])
        assert findings and {f.rule_id for f in findings} == {"R004"}


class TestBaseline:
    def _finding(self, rel="gnb/mod.py", line=3,
                 snippet="return sfn % 1024"):
        return Finding(rule_id="R004", message="m", path=rel, rel=rel,
                       line=line, col=0, snippet=snippet)

    def test_roundtrip_and_suppression(self, tmp_path):
        finding = self._finding()
        baseline = Baseline.from_findings([finding])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        fresh, suppressed = loaded.filter([finding])
        assert fresh == [] and suppressed == [finding]

    def test_line_number_drift_still_matches(self, tmp_path):
        baseline = Baseline.from_findings([self._finding(line=3)])
        fresh, suppressed = baseline.filter([self._finding(line=300)])
        assert fresh == [] and len(suppressed) == 1

    def test_count_budget_is_enforced(self):
        baseline = Baseline.from_findings([self._finding()])
        fresh, suppressed = baseline.filter(
            [self._finding(), self._finding()])
        assert len(fresh) == 1 and len(suppressed) == 1

    def test_new_finding_not_suppressed(self):
        baseline = Baseline.from_findings([self._finding()])
        other = self._finding(snippet="return slot % 20")
        fresh, _ = baseline.filter([other])
        assert fresh == [other]

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError):
            Baseline.load(path)
        path.write_text(json.dumps({"entries": [{"rule": "R001"}]}))
        with pytest.raises(BaselineError):
            Baseline.load(path)

    def test_saved_file_carries_justification_slot(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self._finding()]).save(path)
        entry = json.loads(path.read_text())["entries"][0]
        assert entry["rule"] == "R004"
        assert entry["path"] == "gnb/mod.py"
        assert "justification" in entry

    def test_unmatched_reports_orphaned_entries(self):
        baseline = Baseline.from_findings([self._finding()])
        orphans = baseline.unmatched([])
        assert len(orphans) == 1 and orphans[0][0] == "R004"

    def test_unmatched_ignores_unscanned_files(self):
        """An entry for a file outside the scan scope is not an orphan —
        a ``--changed`` run must not flag the rest of the baseline."""
        baseline = Baseline.from_findings([self._finding()])
        assert baseline.unmatched([], scanned_rels={"phy/other.py"}) == []

    def test_prune_drops_unused_budget(self):
        used = self._finding()
        stale = self._finding(rel="gnb/gone.py")
        baseline = Baseline.from_findings([used, used, stale])
        pruned = baseline.prune([used])
        assert pruned == 2  # one surplus count + one whole stale entry
        fresh, suppressed = baseline.filter([used])
        assert fresh == [] and suppressed == [used]
        assert baseline.unmatched([used]) == []

    def test_committed_baseline_is_valid(self):
        committed = Path(__file__).resolve().parents[2] \
            / "lint-baseline.json"
        baseline = Baseline.load(committed)
        assert sum(baseline.entries.values()) == 0
