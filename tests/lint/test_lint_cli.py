"""CLI-level tests: exit codes, formats, repro.cli."""

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

    def test_retired_options_are_usage_errors(self, fixtures_dir,
                                              capsys):
        """nrlint has no baseline and no changed-files mode: a finding
        can only be fixed, and these options are usage errors."""
        for option in ("--baseline=f.json", "--write-baseline",
                       "--prune-baseline", "--changed"):
            with pytest.raises(SystemExit) as exc:
                lint_main([str(fixtures_dir), option])
            assert exc.value.code == 2, option
        assert "unrecognized arguments" in capsys.readouterr().err


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


class TestReproCliIntegration:
    def test_lint_subcommand_clean(self, capsys):
        assert repro_main(["lint", str(REPO_SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_subcommand_fails_on_fixtures(self, fixtures_dir,
                                               capsys):
        assert repro_main(["lint", str(fixtures_dir)]) == 1
        assert "R002" in capsys.readouterr().out
