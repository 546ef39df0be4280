"""R007/R008: checkpoint and pool-task contracts.

R007 guards the resume contract: a checkpoint's identity may contain
only value-determining knobs, never execution-only ones (worker count,
retry policy, checkpoint paths) — otherwise rerunning with a different
pool size silently recomputes everything, or worse, resumes nothing.

R008 guards the process-pool contract: task functions cross a process
boundary, so they must be importable module-level functions; a lambda
or a closure pickles under ``fork`` by accident and then breaks the
moment ``spawn`` is the start method (macOS/Windows CI).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.context import FileContext
from repro.lint.registry import rule
from repro.lint.violation import Violation

#: ``ExperimentConfig`` fields that steer *how* a run executes but can
#: never change *what* it computes (see the field comments in
#: repro/experiments/config.py) — byte-identity across worker counts
#: and resume-after-crash both depend on keys excluding these.
EXECUTION_ONLY_FIELDS = frozenset({
    "workers", "checkpoint_dir", "resume", "max_retries",
    "retry_backoff_s", "deadline_s", "on_error",
})

#: Method names under which a CheckpointStore consumes a key.
_STORE_METHODS = frozenset({"put", "get", "contains", "delete"})


def _in_key_builder(ctx: FileContext, node: ast.AST) -> bool:
    return any(
        "key" in fn.name.lower() for fn in ctx.enclosing_functions(node)
    )


def _store_call_args(call: ast.Call) -> bool:
    """Whether ``call`` looks like ``<...store...>.put/get/...(key, ...)``."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in _STORE_METHODS):
        return False
    base = func.value
    name = base.id if isinstance(base, ast.Name) else (
        base.attr if isinstance(base, ast.Attribute) else ""
    )
    return "store" in name.lower()


@rule(
    "R007",
    "execution-config-in-checkpoint-key",
    summary="execution-only config field flows into a checkpoint key",
    invariant="Checkpoint keys contain only value-determining parameters; "
              "workers/retries/deadlines must never enter them, so a run "
              "resumes identically at any worker count "
              "(docs/parallel.md, docs/resilience.md).",
)
def check_checkpoint_key_purity(ctx: FileContext) -> Iterator[Violation]:
    flagged: Set[int] = set()

    def emit(node: ast.Attribute) -> Iterator[Violation]:
        if id(node) in flagged:
            return
        flagged.add(id(node))
        yield ctx.violation(
            node, "R007",
            f"execution-only field .{node.attr} must not flow into a "
            f"checkpoint key (it cannot change the computed value)",
        )

    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in EXECUTION_ONLY_FIELDS
            and isinstance(getattr(node, "ctx", None), ast.Load)
            and _in_key_builder(ctx, node)
        ):
            yield from emit(node)
        elif isinstance(node, ast.Call) and _store_call_args(node):
            key_args = node.args[:1]
            for arg in key_args:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr in EXECUTION_ONLY_FIELDS
                    ):
                        yield from emit(sub)


def _executor_names(ctx: FileContext) -> Set[str]:
    """Variables assigned from a ``ParallelExecutor(...)`` construction."""
    names: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        resolved = ctx.imports.resolve_node(node.value.func)
        ctor = (resolved or "").rpartition(".")[2] or (
            node.value.func.id if isinstance(node.value.func, ast.Name) else ""
        )
        if ctor != "ParallelExecutor":
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _nested_function_names(ctx: FileContext, node: ast.AST) -> Set[str]:
    """Functions defined inside any function enclosing ``node``."""
    nested: Set[str] = set()
    for fn in ctx.enclosing_functions(node):
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not fn:
                nested.add(sub.name)
    return nested


@rule(
    "R008",
    "unpicklable-parallel-task",
    summary="lambda/closure passed as a ParallelExecutor task",
    invariant="Pool tasks cross a process boundary: they must be "
              "module-level functions so they pickle under the spawn "
              "start method, not just under fork (docs/parallel.md).",
)
def check_parallel_task_picklable(ctx: FileContext) -> Iterator[Violation]:
    executors = _executor_names(ctx)

    def is_executor_map(call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "map"):
            return False
        base = func.value
        if isinstance(base, ast.Name):
            return base.id in executors or "executor" in base.id.lower()
        if isinstance(base, ast.Call):
            resolved = ctx.imports.resolve_node(base.func) or ""
            return resolved.rpartition(".")[2] == "ParallelExecutor"
        return False

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not is_executor_map(node):
            continue
        task_args: List[ast.AST] = node.args[:1]
        for arg in task_args:
            if isinstance(arg, ast.Lambda):
                yield ctx.violation(
                    arg, "R008",
                    "lambda passed as a ParallelExecutor task; use a "
                    "module-level function (spawn-pickling safety)",
                )
            elif isinstance(arg, ast.Name) and arg.id in _nested_function_names(ctx, node):
                yield ctx.violation(
                    arg, "R008",
                    f"closure {arg.id}() passed as a ParallelExecutor "
                    f"task; hoist it to module level so it pickles under "
                    f"spawn",
                )
