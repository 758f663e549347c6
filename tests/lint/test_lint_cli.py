"""CLI-level tests: exit codes, formats, baseline workflow, repro.cli."""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main
from repro.lint.registry import iter_rules

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([str(REPO_SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_fixture_tree_exits_nonzero(self, fixtures_dir, capsys):
        """Every registered rule has a seeded fixture that trips it."""
        assert lint_main([str(fixtures_dir)]) == 1
        out = capsys.readouterr().out
        for rule in iter_rules():
            assert f" {rule.rule_id} " in out, rule.rule_id

    def test_single_rule_selection(self, fixtures_dir, capsys):
        assert lint_main([str(fixtures_dir), "--select", "R005"]) == 1
        out = capsys.readouterr().out
        assert "R005" in out and "R001" not in out

    def test_bad_selection_exits_two(self, capsys):
        assert lint_main(["--select", "R999", str(REPO_SRC)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_empty_selection_exits_two(self, capsys):
        """An empty --select must not silently run zero rules."""
        assert lint_main(["--select", "", str(REPO_SRC)]) == 2
        assert "names no rules" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys,
                                    monkeypatch):
        """Also the retired ``effects`` mode: the word is now linted as
        a path, which does not exist."""
        monkeypatch.chdir(tmp_path)
        for path in ("missing", "effects"):
            assert lint_main([path]) == 2
            assert repro_main(["lint", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, fixtures_dir, capsys):
        assert lint_main([str(fixtures_dir), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]
        rules = {f["rule"] for f in payload["findings"]}
        assert "R004" in rules
        assert all({"path", "line", "snippet"} <= set(f)
                   for f in payload["findings"])

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004",
                        "R005", "R007", "R008", "R012"):
            assert rule_id in out
        for retired in ("R006", "R009", "R010", "R011"):
            assert retired not in out

    def test_sarif_format(self, fixtures_dir, capsys):
        assert lint_main([str(fixtures_dir), "--format",
                          "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "nrlint"
        catalogue = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R001", "R007", "R012"} <= catalogue
        assert not {"R010", "R011"} & catalogue
        assert run["results"]
        result = run["results"][0]
        assert result["ruleId"] in catalogue
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_sarif_clean_tree_has_no_results(self, capsys):
        assert lint_main([str(REPO_SRC), "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

    def test_rule_crash_exits_two(self, fixtures_dir, capsys,
                                  monkeypatch):
        """An analyzer bug is exit 2 — never a fake-green exit 0."""
        from repro.lint.rules.r001_magic_numbers import MagicNumberRule

        def explode(self, ctx):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(MagicNumberRule, "check", explode)
        assert lint_main([str(fixtures_dir)]) == 2
        assert "crashed" in capsys.readouterr().err

    def test_baseline_workflow(self, fixtures_dir, tmp_path, capsys):
        """write-baseline grandfathers everything; reruns go green;
        a new violation still fails."""
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(fixtures_dir), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([str(fixtures_dir), "--baseline",
                          str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

        extra = tmp_path / "tree" / "gnb"
        extra.mkdir(parents=True)
        (extra / "fresh.py").write_text("import time\nt = time.time()\n")
        assert lint_main([str(fixtures_dir), str(extra.parent),
                          "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out

    def test_write_baseline_keeps_justifications(self, fixtures_dir,
                                                 tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(fixtures_dir), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        data = json.loads(baseline.read_text())
        data["entries"][0]["justification"] = "grandfathered: see PR 4"
        baseline.write_text(json.dumps(data))
        assert lint_main([str(fixtures_dir), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        rewritten = json.loads(baseline.read_text())
        assert any(e["justification"] == "grandfathered: see PR 4"
                   for e in rewritten["entries"])


class TestContractsMode:
    def test_contracts_via_repro_cli(self, tmp_path, capsys, monkeypatch):
        """The contracts report is retired: ``repro lint contracts``
        lints ``contracts`` as a path, which does not exist, and prints
        no report."""
        monkeypatch.chdir(tmp_path)
        assert repro_main(["lint", "contracts", str(REPO_SRC)]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert '"shapes"' not in captured.out


class TestChangedMode:
    def _git(self, *argv, cwd):
        import subprocess
        subprocess.run(["git", *argv], cwd=cwd, check=True,
                       capture_output=True,
                       env={"GIT_AUTHOR_NAME": "t",
                            "GIT_AUTHOR_EMAIL": "t@t",
                            "GIT_COMMITTER_NAME": "t",
                            "GIT_COMMITTER_EMAIL": "t@t",
                            "HOME": str(cwd), "PATH": "/usr/bin:/bin"})

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        self._git("init", "-q", cwd=tmp_path)
        tree = tmp_path / "src" / "repro" / "gnb"
        tree.mkdir(parents=True)
        (tree / "clean.py").write_text("X = 0\n")
        self._git("add", "-A", cwd=tmp_path)
        self._git("commit", "-qm", "seed", cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_no_changes_is_clean_noop(self, repo, capsys):
        assert lint_main(["--changed"]) == 0
        assert "nothing to lint" in capsys.readouterr().out

    def test_untracked_violation_is_caught(self, repo, capsys):
        bad = repo / "src" / "repro" / "gnb" / "fresh.py"
        bad.write_text("import time\nt = time.time()\n")
        assert lint_main(["--changed"]) == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_modified_tracked_file_is_caught(self, repo, capsys):
        target = repo / "src" / "repro" / "gnb" / "clean.py"
        target.write_text("import random\nrandom.random()\n")
        assert lint_main(["--changed", "HEAD"]) == 1
        assert "clean.py" in capsys.readouterr().out

    def test_changed_plus_paths_is_usage_error(self, repo, capsys):
        assert lint_main(["--changed", "--", "src"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_seeded_fixtures_are_exempt_from_the_gate(self, repo,
                                                      capsys):
        """A PR touching the violation fixtures must not turn the fast
        gate red: those files contain findings by design."""
        fixture = repo / "tests" / "lint" / "fixtures" / "phy"
        fixture.mkdir(parents=True)
        (fixture / "seeded.py").write_text("import time\nt = time.time()\n")
        assert lint_main(["--changed"]) == 0
        assert "nothing to lint" in capsys.readouterr().out

    def test_changed_prunes_fixed_r007_entry(self, repo, capsys):
        """Every rule sees one file at a time, so a --changed scan of a
        core/ file judges its R007 baseline entries like any other
        rule's: a fixed finding is orphaned, and pruned on request."""
        core = repo / "src" / "repro" / "core"
        core.mkdir()
        target = core / "noise.py"
        target.write_text("import numpy as np\nx = np.random.randn(4)\n")
        self._git("add", "-A", cwd=repo)
        self._git("commit", "-qm", "noise", cwd=repo)
        baseline = repo / "lint-baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "R007", "path": "core/noise.py",
                         "snippet": "x = np.random.randn(4)", "count": 1,
                         "justification": "grandfathered"}]}))
        target.write_text("import numpy as np\nx = np.zeros(4)\n")
        capsys.readouterr()

        assert lint_main(["--changed", "HEAD"]) == 0
        assert "orphaned baseline entry R007 core/noise.py" in \
            capsys.readouterr().err

        assert lint_main(["--changed", "HEAD",
                          "--prune-baseline"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        rewritten = json.loads(baseline.read_text())
        assert not any(e["rule"] == "R007" for e in rewritten["entries"])


class TestBaselineOrphans:
    def test_orphan_warning_and_prune(self, fixtures_dir, tmp_path,
                                      capsys):
        """A baselined-then-fixed finding warns, then --prune-baseline
        rewrites the file and the warning goes away."""
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(fixtures_dir), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        data = json.loads(baseline.read_text())
        data["entries"].append({
            "rule": "R001", "path": "ue/ghost.py",
            "snippet": "x = 1024", "count": 1,
            "justification": "file was deleted"})
        baseline.write_text(json.dumps(data))
        capsys.readouterr()

        # The ghost entry's directory was never scanned, so a scoped
        # run stays quiet about it...
        assert lint_main([str(fixtures_dir), "--baseline",
                          str(baseline)]) == 0
        assert "orphaned" not in capsys.readouterr().err

        # ...but a scan that *does* cover ue/ flags the dead entry.
        ghost_root = tmp_path / "tree" / "ue"
        ghost_root.mkdir(parents=True)
        (ghost_root / "other.py").write_text("Y = 1\n")
        assert lint_main([str(fixtures_dir), str(ghost_root.parent),
                          "--baseline", str(baseline)]) == 0
        assert "orphaned baseline entry" in capsys.readouterr().err

        assert lint_main([str(fixtures_dir), str(ghost_root.parent),
                          "--baseline", str(baseline),
                          "--prune-baseline"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        rewritten = json.loads(baseline.read_text())
        assert not any(e["path"] == "ue/ghost.py"
                       for e in rewritten["entries"])

    def test_prune_without_baseline_is_usage_error(self, fixtures_dir,
                                                   tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert lint_main([str(fixtures_dir), "--baseline", str(missing),
                          "--prune-baseline"]) == 2
        assert "existing baseline" in capsys.readouterr().err

    def test_select_scan_cannot_orphan_other_rules(self, fixtures_dir,
                                                   tmp_path, capsys):
        """A --select run finds nothing for the unselected rules *by
        construction*; their baseline entries must survive a prune."""
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(fixtures_dir), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        capsys.readouterr()

        assert lint_main([str(fixtures_dir), "--select", "R001",
                          "--baseline", str(baseline)]) == 0
        assert "orphaned" not in capsys.readouterr().err

        assert lint_main([str(fixtures_dir), "--select", "R001",
                          "--baseline", str(baseline),
                          "--prune-baseline"]) == 0
        assert "pruned 0" in capsys.readouterr().out
        rewritten = json.loads(baseline.read_text())
        surviving = {e["rule"] for e in rewritten["entries"]}
        assert {"R007", "R008", "R012"} <= surviving


class TestReproCliIntegration:
    def test_lint_subcommand_clean(self, capsys):
        assert repro_main(["lint", str(REPO_SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_subcommand_fails_on_fixtures(self, fixtures_dir,
                                               capsys):
        assert repro_main(["lint", str(fixtures_dir)]) == 1
        assert "R002" in capsys.readouterr().out
