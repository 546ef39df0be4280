"""reprolint: whole-program enforcement of the reproducibility contracts.

The reproduction's guarantees — byte-identical output at any worker
count, seeded-only randomness, an audited SSSP budget ledger, resume
keys independent of execution-only config — are invariants of the
*codebase*, not of any single test.  This package checks them
mechanically on every commit, in two phases: file-scope AST rules per
file, then whole-program rules over a project-wide symbol table, call
graph, and interprocedural taint engine.

======  ==============================  =======================================
code    name                            invariant protected
======  ==============================  =======================================
R001    unseeded-randomness             all randomness flows from explicit seeds
R002    wall-clock-read                 results never depend on the clock
R003    networkx-outside-tests          networkx is a test oracle, not a dep
R004    uncharged-sssp                  every SSSP is charged to SPBudget (file)
R005    mutable-default-argument        no state leaks across runs via defaults
R006    swallowed-broad-except          failures re-raise or emit a log_event
R007    execution-config-in-...-key     checkpoint keys are worker-independent
R008    unpicklable-parallel-task       pool tasks survive spawn pickling
R009    untyped-def-in-strict-package   strict packages stay fully annotated
R010    uncharged-reachable-sssp        no uncharged call path API -> traversal
R011    frozen-view-mutation            engine-returned arrays are never written
R012    nondeterminism-reaches-output   entropy never reaches keys/WAL/rankings
R013    cross-process-capture           worker tasks read no parent globals
======  ==============================  =======================================

Run ``repro lint`` (or ``python -m repro.lint``); see
docs/static-analysis.md for suppressions and SARIF output.
"""

from importlib import import_module
from typing import Any

#: Public name -> defining module.  Each is imported on first access, so
#: that ``repro`` builds its ``lint`` subcommand without loading the
#: analyzer.
_EXPORTS = {
    "CallGraph": "repro.lint.callgraph",
    "LintResult": "repro.lint.runner",
    "ProjectContext": "repro.lint.project",
    "Rule": "repro.lint.registry",
    "Violation": "repro.lint.violation",
    "all_rules": "repro.lint.registry",
    "get_rule": "repro.lint.registry",
    "lint_paths": "repro.lint.runner",
    "lint_source": "repro.lint.runner",
    "parse_suppressions": "repro.lint.suppress",
    "render_sarif": "repro.lint.sarif",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)
