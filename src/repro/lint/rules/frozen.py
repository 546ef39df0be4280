"""R011: arrays handed out by the graph engine are frozen views.

A runtime window keeps one :class:`~repro.graph.pair.SnapshotPair`
(``_KeptWindow.pair`` in :mod:`repro.runtime.engine`), and every later
read of that window — its top-k, each ``node`` answer — uses that
pair's CSR arrays, so a write through a CSR or level array the engine
returned would change every later answer of the window.  The rule
taints every value produced by ``repro.graph.csr`` /
``repro.graph.incremental`` and flags any in-place write reached
without an explicit ``.copy()`` (or another materializing call) in
between — including writes that happen inside a helper the array was
merely *passed to*, via the mutates-parameter summaries.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import CallGraph
from repro.lint.context import FileContext, dotted_name
from repro.lint.dataflow import (
    ProjectTaint,
    TaintPolicy,
    iter_writes,
    match_arguments,
)
from repro.lint.project import ProjectContext, walk_no_nested
from repro.lint.registry import project_rule
from repro.lint.violation import Violation

#: Modules whose return values are frozen engine views.
FROZEN_SOURCE_MODULES = ("repro.graph.csr", "repro.graph.incremental")

#: The engine files themselves own their buffers and may write freely.
_EXEMPT_PATHS = frozenset({
    "repro/graph/csr.py",
    "repro/graph/incremental.py",
})

#: Calls that materialize a private buffer, killing the view taint.
_SANITIZER_METHODS = frozenset({"copy", "astype", "tolist", "item", "sum"})
_SANITIZER_CALLS = frozenset({
    "numpy.array", "numpy.copy", "list", "tuple", "sorted", "len",
    "min", "max", "sum", "dict", "set", "frozenset",
})

#: numpy functions that may *alias* their input instead of copying.
_ALIASING_CALLS = frozenset({
    "numpy.asarray", "numpy.asanyarray", "numpy.ascontiguousarray",
    "numpy.atleast_1d", "numpy.ravel", "numpy.reshape", "numpy.transpose",
})

#: Names that hold scalars pulled off engine objects — never views.
_SCALAR_NAMES = frozenset({
    "num_nodes", "num_edges", "num_new_edges", "num_new_nodes",
    "source_index", "n", "m", "count", "total",
})


class FrozenViewPolicy(TaintPolicy):
    """Taint = "value produced by the graph engine"."""

    def call_is_source(
        self, ctx: FileContext, project: ProjectContext, call: ast.Call
    ) -> bool:
        callee = project.resolve_call(ctx, call.func)
        if callee is not None:
            return callee.module in FROZEN_SOURCE_MODULES
        resolved = ctx.imports.resolve_node(call.func)
        if resolved is None:
            return False
        canonical = project.canonical(resolved)
        return canonical.rpartition(".")[0] in FROZEN_SOURCE_MODULES

    def call_is_sanitizer(
        self, ctx: FileContext, project: ProjectContext, call: ast.Call
    ) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SANITIZER_METHODS:
            return True
        resolved = ctx.imports.resolve_node(func) or dotted_name(func)
        return resolved in _SANITIZER_CALLS

    def call_propagates(
        self, ctx: FileContext, project: ProjectContext, call: ast.Call
    ) -> bool:
        resolved = ctx.imports.resolve_node(call.func)
        return resolved in _ALIASING_CALLS

    def name_is_exempt(self, name: str) -> bool:
        return name in _SCALAR_NAMES


def _write_kind(node: ast.AST) -> str:
    if isinstance(node, ast.AugAssign):
        return "augmented assignment"
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return "subscript assignment"
    return "in-place call"


@project_rule(
    "R011",
    "frozen-view-mutation",
    summary="write through a CSR/level array returned by the graph "
            "engine without .copy()",
    invariant="Arrays returned by repro.graph.csr / "
              "repro.graph.incremental are frozen views (the zero-copy "
              "shared-memory precondition); mutate a .copy(), never the "
              "view (docs/parallel.md).",
)
def check_frozen_view_mutation(
    project: ProjectContext, graph: CallGraph
) -> Iterator[Violation]:
    taint = ProjectTaint(project, FrozenViewPolicy())
    for info in project.iter_functions():
        if info.path in _EXEMPT_PATHS:
            continue
        flow = taint.analyze(info)
        for node, base in iter_writes(info.node):
            if not flow.expr_tainted(base):
                continue
            target = dotted_name(base) or "<view>"
            yield info.ctx.violation(
                node, "R011",
                f"{_write_kind(node)} mutates {target}, a frozen view "
                f"returned by the graph engine; write to a .copy() "
                f"instead",
            )
        # A tainted view handed to a helper that mutates that parameter
        # is a mutation at this call site.
        for node in walk_no_nested(info.node):
            if not isinstance(node, ast.Call):
                continue
            callee = project.resolve_call(info.ctx, node.func)
            if callee is None or callee.path in _EXEMPT_PATHS:
                continue
            summary = taint.summaries.get(callee.qualname)
            if summary is None or not summary.mutates:
                continue
            for param, arg in sorted(
                match_arguments(node, callee).items()
            ):
                if param in summary.mutates and flow.expr_tainted(arg):
                    yield info.ctx.violation(
                        node, "R011",
                        f"passes a frozen engine view to "
                        f"{callee.name}(), which writes through "
                        f"parameter '{param}'; pass a .copy()",
                    )
