"""Drive the two-phase analysis over files and fold in suppressions.

Phase 1 runs every file-scope rule on each file by itself.
Phase 2 builds the whole-program :class:`ProjectContext` + call graph
once and runs the project-scope rules over it.  Findings from both
phases merge per file before suppressions apply, so one inline waiver
works identically for either kind of rule — and a waiver whose rule no
longer fires is itself reported as *stale* (a strict failure), keeping
the suppression inventory honest.

Everything is processed in sorted-path order regardless of argument
order, so reports are byte-identical across shuffled inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.context import FileContext
from repro.lint.project import ProjectContext
from repro.lint.registry import Rule, all_rules, select_rules
from repro.lint.suppress import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
    unjustified,
)
from repro.lint.violation import Violation


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Violations not waived by a suppression — the set that fails a run.
    violations: List[Violation] = field(default_factory=list)
    #: Suppressions missing a justification (strict error).
    unjustified_suppressions: List[Tuple[str, Suppression]] = field(
        default_factory=list
    )
    #: Suppressions whose rule no longer fires on their line, as
    #: ``(path, suppression, code)`` — fixed code wearing a stale
    #: waiver (strict error).
    stale_suppressions: List[Tuple[str, Suppression, str]] = field(
        default_factory=list
    )
    #: Files that failed to parse, as ``(path, error)`` — always fatal.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Number of files linted.
    files: int = 0

    def ok(self, strict: bool = False) -> bool:
        """Whether the run passes (strict adds stale/unjustified checks)."""
        if self.violations or self.parse_errors:
            return False
        if strict and (
            self.unjustified_suppressions or self.stale_suppressions
        ):
            return False
        return True


def _split_rules(
    rules: Sequence[Rule],
) -> Tuple[List[Rule], List[Rule]]:
    file_rules = [r for r in rules if r.scope == "file"]
    project_rules = [r for r in rules if r.scope == "project"]
    return file_rules, project_rules


def _check_project(
    contexts: Sequence[FileContext], project_rules: Sequence[Rule]
) -> List[Violation]:
    if not project_rules or not contexts:
        return []
    project = ProjectContext(contexts)
    graph = CallGraph(project)
    found: List[Violation] = []
    for rule in project_rules:
        found.extend(rule.check(project, graph))
    return found


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one source string; suppressions applied.

    ``path`` should be the lint-root-relative posix path — several rules
    scope themselves by package location (e.g. R002's allowlist, R004's
    engine exemption).  Project-scope rules see a one-file project.
    """
    ctx = FileContext.parse(path, source)
    selected = list(rules) if rules is not None else all_rules()
    file_rules, project_rules = _split_rules(selected)
    found: List[Violation] = []
    for r in file_rules:
        found.extend(r.check(ctx))
    found.extend(_check_project([ctx], project_rules))
    found.sort()
    return apply_suppressions(found, parse_suppressions(ctx.lines))


def _iter_python_files(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def _relative_path(file: Path, root: Path) -> str:
    """``file``'s posix path below the outermost package around ``root``.

    A root inside a package keeps its package path: ``src/repro/core``
    yields ``repro/core/pairs.py``, as ``src`` does.
    """
    base = Path(os.path.abspath(root if root.is_dir() else root.parent))
    while (base / "__init__.py").is_file():
        base = base.parent
    return Path(os.path.abspath(file)).relative_to(base).as_posix()


def lint_paths(
    paths: Sequence[Path], *, select: Optional[Sequence[str]] = None
) -> LintResult:
    """Lint every ``*.py`` under ``paths`` and aggregate the outcome.

    Each path is a lint root.  Rule-relevant module paths (``repro/...``)
    are taken from the directory above the outermost package around it,
    so ``src``, ``src/repro/core`` and ``src/repro/core/pairs.py`` all
    see ``repro/core/pairs.py``.  Project rules see only the files given.
    """
    rules = select_rules(select) if select else all_rules()
    file_rules, project_rules = _split_rules(rules)
    selected_codes = {r.code for r in rules}
    result = LintResult()

    contexts: Dict[str, FileContext] = {}
    raw_by_path: Dict[str, List[Violation]] = {}
    for root in paths:
        root = Path(root)
        for file in _iter_python_files(root):
            relpath = _relative_path(file, root)
            if relpath in contexts:
                continue
            source = file.read_text(encoding="utf-8")
            result.files += 1
            try:
                ctx = FileContext.parse(relpath, source)
            except SyntaxError as exc:
                result.parse_errors.append((relpath, str(exc)))
                continue
            contexts[relpath] = ctx
            raw_by_path[relpath] = [v for r in file_rules for v in r.check(ctx)]

    ordered_contexts = [contexts[p] for p in sorted(contexts)]
    for violation in _check_project(ordered_contexts, project_rules):
        raw_by_path.setdefault(violation.path, []).append(violation)

    for relpath in sorted(raw_by_path):
        ctx = contexts.get(relpath)
        if ctx is None:
            continue
        raw = sorted(raw_by_path[relpath])
        suppressions = parse_suppressions(ctx.lines)
        result.violations.extend(apply_suppressions(raw, suppressions))
        result.unjustified_suppressions.extend(
            (relpath, sup) for sup in unjustified(suppressions)
        )
        fired = {(v.code, v.line) for v in raw}
        for sup in suppressions:
            for code in sup.codes:
                if code not in selected_codes:
                    continue
                if (code, sup.target_line) not in fired:
                    result.stale_suppressions.append((relpath, sup, code))

    result.parse_errors.sort()
    result.violations.sort()
    return result
