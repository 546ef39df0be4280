"""R004: every SSSP is charged to the budget ledger.

One SSSP computation is the paper's unit of cost (Problem 2); the
reproduction's Table 1-6 numbers are trustworthy only because every
traversal in the budgeted pipeline passes through
:meth:`repro.core.budget.SPBudget.charge`.  This rule makes the wiring
mechanical: outside the ``repro/graph/`` engine package, a direct call
to an SSSP entry point is legal only inside a function that also
charges a budget.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.registry import rule
from repro.lint.violation import Violation

#: The raw traversal entry points (one call = one SSSP of budgeted cost).
SSSP_ENTRY_POINTS = frozenset({
    "single_source_distances",
    "bfs_distances",
    "dijkstra_distances",
    "bfs_tree",
    "dijkstra_tree",
    "bfs_levels",
    "bfs_distances_fast",
    "all_pairs_distances",
    "all_sources_levels",
    # Incremental delta-BFS: a repair produces a full t2 level array, so
    # it *is* the second SSSP of a snapshot pair and charges like one
    # (the ledger counts SSSP results obtained, not edges scanned).
    "repair_levels",
    # Δ-aware pruned traversals: a level-cut BFS still obtains the
    # traversal's budgeted result (every level the output can depend on),
    # so it charges exactly like the full traversal it replaces — the
    # pruning layer must never become an uncharged side door.
    "bounded_bfs_levels",
    "csr_top_k_rows",
    # The CSR ground-truth collectors: each call obtains two rows per t1
    # node (the paper's 2n-SSSP baseline), so an uncharged caller outside
    # the ground-truth layer would bypass the budget model wholesale.
    "csr_delta_histogram",
    "csr_pairs_at_threshold",
    "csr_top_k_pairs",
    # Bit-parallel multi-source BFS: one *source* in a batch is one SSSP
    # result of budgeted cost, exactly as if it ran alone — batching
    # amortises frontier sweeps, never charges (docs/budget-model.md).
    "msbfs_levels",
    "iter_msbfs_rows",
    "bfs_distances_many",
    # Algorithm 1's row source: one returned row is one SSSP result; the
    # caller charges it, because a charge inside a batch would reorder
    # the ledger.
    "pair_rows",
})

#: The engine package itself — the layer the entry points live in.
_ENGINE_PREFIX = "repro/graph/"

#: The exact ground-truth layer: computes the unbudgeted reference
#: answer (the paper's 2n-SSSP baseline) that budgeted algorithms are
#: *evaluated against* — by definition outside the budget model.
R004_GROUND_TRUTH_PATHS = frozenset({
    "repro/core/pairs.py",
    "repro/core/fastpairs.py",
})


#: Modules whose listed entry points count as SSSP work.  The CSR
#: ground-truth engine (``repro.core.fastpairs``) is included because
#: each of its collectors runs O(n) traversals per call — importing one
#: into an uncharged context would bypass the whole budget model.
_ENTRY_POINT_MODULES = ("repro.graph", "repro.core.fastpairs")


def _is_entry_point(ctx: FileContext, func: ast.AST) -> bool:
    resolved = ctx.imports.resolve_node(func)
    if resolved is None:
        return False
    module, _, name = resolved.rpartition(".")
    return name in SSSP_ENTRY_POINTS and module.startswith(
        _ENTRY_POINT_MODULES
    )


@rule(
    "R004",
    "uncharged-sssp",
    summary="SSSP entry point called outside a budget-charging function",
    invariant="One SSSP = one unit of the paper's 2m budget; every "
              "traversal outside repro/graph must run in a function that "
              "charges SPBudget, so the audited ledger equals the true "
              "cost (docs/budget-model.md).",
)
def check_uncharged_sssp(ctx: FileContext) -> Iterator[Violation]:
    if ctx.path.startswith(_ENGINE_PREFIX) or ctx.path in R004_GROUND_TRUTH_PATHS:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not _is_entry_point(ctx, node.func):
            continue
        enclosing = ctx.enclosing_functions(node)
        if any(ctx.calls_method(fn, "charge") for fn in enclosing):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else "?"
        )
        yield ctx.violation(
            node, "R004",
            f"{name}() performs an SSSP but no enclosing function "
            f"charges an SPBudget; route it through a charging wrapper "
            f"in repro/core",
        )
