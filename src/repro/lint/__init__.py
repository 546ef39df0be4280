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
R014    nondeterministic-shm-...-name   shm segment names derive from the seed
======  ==============================  =======================================

Run ``repro lint`` (or ``python -m repro.lint``); see
docs/static-analysis.md for suppressions and SARIF output.
"""

from repro.lint.callgraph import CallGraph
from repro.lint.project import ProjectContext
from repro.lint.registry import Rule, all_rules, get_rule
from repro.lint.runner import LintResult, lint_paths, lint_source
from repro.lint.sarif import render_sarif
from repro.lint.suppress import parse_suppressions
from repro.lint.violation import Violation

__all__ = [
    "CallGraph",
    "LintResult",
    "ProjectContext",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "render_sarif",
]
