"""End-to-end tests of `repro lint` / `python -m repro.lint`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

SRC = str(Path(__file__).resolve().parent.parent / "src")
PKG = Path(SRC) / "repro"

DIRTY = (
    "import networkx\n"
    "def pick(items, seen=[]):\n"
    "    return seen\n"
)


def write_tree(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    (root / "repro").mkdir(parents=True)
    (root / "repro" / "mod.py").write_text(DIRTY, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_repo_strict(self, capsys):
        assert repro_main(["lint", SRC, "--strict"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_fail(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        assert lint_main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "R003" in out and "R005" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        assert lint_main([str(root), "--select", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestSelectAndFormat:
    def test_select_restricts_rules(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        assert lint_main([str(root), "--select", "R005"]) == 1
        out = capsys.readouterr().out
        assert "R005" in out and "R003" not in out

    def test_json_report(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        assert lint_main([str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {v["code"] for v in payload["violations"]} == {
            "R003", "R005",
        }

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R008"):
            assert code in out


class TestNarrowRoots:
    """A root inside the package keeps its package path (``repro/...``),
    so path-scoped rules and module names see what they see under src."""

    @pytest.mark.parametrize("root", [
        PKG / "core",
        PKG / "graph",
        PKG / "core" / "pairs.py",
        PKG / "resilience" / "policy.py",
    ], ids=lambda p: p.relative_to(PKG).as_posix())
    def test_package_subtree_lints_clean(self, root, capsys):
        assert lint_main([str(root), "--strict"]) == 0, capsys.readouterr().out


REMOVED_FLAGS = [
    ["--cache-dir"],
    ["--changed"],
    ["--diff-base", "HEAD"],
    ["--baseline", "baseline.json"],
    ["--write-baseline"],
]


class TestRemovedFlags:
    """Every run analyses the whole program and every finding counts:
    flags asking for a per-file cache, a changed-files report slice or a
    baseline are usage errors (exit 2), never silently ignored."""

    @pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda f: f[0])
    def test_repro_lint_rejects(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda f: f[0])
    def test_python_m_repro_lint_rejects(self, flag, tmp_path):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path), *flag],
            cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert completed.returncode == 2
        assert "unrecognized arguments" in completed.stderr
