"""Engine tests for nrlint."""

from pathlib import Path

import pytest

from repro.lint import LintEngine
from repro.lint.registry import RuleError, iter_rules

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestEngine:
    def test_repo_is_clean(self, engine):
        """The headline acceptance check: the shipped tree has no
        violations."""
        findings = engine.run([REPO_SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_fixture_tree_violates_every_rule(self, engine, fixtures_dir):
        findings = engine.run([fixtures_dir])
        seen = {f.rule_id for f in findings}
        assert {rule.rule_id for rule in iter_rules()} <= seen

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

