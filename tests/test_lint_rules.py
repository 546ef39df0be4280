"""reprolint rule fixtures: each rule must catch its breach and stay
quiet on the compliant twin, and suppressions must waive precisely.
Fast suite — pure AST work, no graphs."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
)
from repro.lint.suppress import parse_suppressions, unjustified


def lint(code: str, path: str = "repro/example.py"):
    return lint_source(textwrap.dedent(code), path=path)


def codes(violations) -> list:
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_fourteen_rules_registered():
    assert [r.code for r in all_rules()] == [
        "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
        "R009", "R010", "R011", "R012", "R013", "R014",
    ]
    for r in all_rules():
        assert r.invariant  # every rule documents what it protects
    scopes = {r.code: r.scope for r in all_rules()}
    assert all(
        scopes[code] == "project" for code in ("R010", "R011", "R012", "R013")
    )
    assert all(
        scopes[code] == "file"
        for code in ("R001", "R002", "R003", "R004", "R005", "R006", "R007",
                     "R008", "R009", "R014")
    )


def test_unknown_rule_code_raises():
    with pytest.raises(KeyError):
        get_rule("R999")


# ----------------------------------------------------------------------
# R001 — unseeded randomness
# ----------------------------------------------------------------------
def test_r001_flags_global_random_module():
    found = lint("""
        import random
        def pick(items):
            return random.choice(items)
    """)
    assert codes(found) == ["R001"]


def test_r001_flags_unseeded_default_rng_and_alias():
    found = lint("""
        import numpy as np
        rng = np.random.default_rng()
        x = np.random.rand(3)
    """)
    assert codes(found) == ["R001", "R001"]


def test_r001_passes_seeded_rng():
    found = lint("""
        import random
        import numpy as np
        rng = np.random.default_rng(42)
        r2 = np.random.default_rng(seed)
        r3 = random.Random(7)
        value = rng.random()
    """.replace("seed)", "0)"))
    assert found == []


# ----------------------------------------------------------------------
# R002 — wall-clock reads
# ----------------------------------------------------------------------
def test_r002_flags_clock_calls_and_references():
    found = lint("""
        import time
        from datetime import datetime
        def stamp():
            return time.time(), datetime.now()
        DEFAULT_CLOCK = time.monotonic
    """)
    assert codes(found) == ["R002", "R002", "R002"]


def test_r002_passes_injected_clock_and_allowlisted_file():
    clean = lint("""
        def elapsed(clock):
            t0 = clock()
            return clock() - t0
    """)
    assert clean == []
    allowlisted = lint(
        """
        import time
        def now() -> float:
            return time.monotonic()
        """,
        path="repro/resilience/policy.py",
    )
    assert allowlisted == []


# ----------------------------------------------------------------------
# R003 — networkx outside tests
# ----------------------------------------------------------------------
def test_r003_flags_networkx_import():
    assert codes(lint("import networkx as nx")) == ["R003"]
    assert codes(lint("from networkx.algorithms import bipartite")) == ["R003"]


def test_r003_passes_runtime_dependencies():
    assert lint("import numpy\nimport scipy.sparse\n") == []


# ----------------------------------------------------------------------
# R004 — uncharged SSSP
# ----------------------------------------------------------------------
def test_r004_flags_uncharged_traversal():
    found = lint("""
        from repro.graph.traversal import single_source_distances
        def distances(g, source):
            return single_source_distances(g, source)
    """)
    assert codes(found) == ["R004"]


def test_r004_passes_charging_function_and_engine_module():
    charged = lint("""
        from repro.graph.traversal import single_source_distances
        def charged_row(g, source, budget):
            budget.charge("topk", "g1", 1)
            return single_source_distances(g, source)
    """)
    assert charged == []
    engine = lint(
        """
        from repro.graph.traversal import bfs_distances
        def helper(g: object, s: int) -> dict:
            return bfs_distances(g, s)
        """,
        path="repro/graph/landmarks.py",
    )
    assert engine == []


def test_r004_guards_pruned_entry_points():
    """The pruning layer must not become an uncharged SSSP side door."""
    from repro.lint.rules.budget import SSSP_ENTRY_POINTS

    # Registration pin: a new pruned entry point silently dropped from
    # the allowlist would let pruned traversals dodge the budget audit.
    assert {"bounded_bfs_levels", "csr_top_k_rows"} <= SSSP_ENTRY_POINTS
    # Same pin for the batched multi-source kernels: one source in a
    # batch is one budgeted SSSP, so they must stay on the allowlist.
    assert {
        "msbfs_levels", "iter_msbfs_rows", "bfs_distances_many"
    } <= SSSP_ENTRY_POINTS

    cut_bfs = lint("""
        from repro.graph.prune import bounded_bfs_levels
        def cheap_row(csr, i):
            return bounded_bfs_levels(csr, i, 3)
    """)
    assert codes(cut_bfs) == ["R004"]
    pruned_engine = lint("""
        from repro.core.fastpairs import csr_top_k_rows
        def shortcut(g1, g2):
            return csr_top_k_rows(g1, g2, 10)
    """)
    assert codes(pruned_engine) == ["R004"]
    charged = lint("""
        from repro.graph.prune import bounded_bfs_levels
        def charged_row(csr, i, budget):
            budget.charge("topk", "g2", 1)
            return bounded_bfs_levels(csr, i, 3)
    """)
    assert charged == []


def test_r004_guards_the_ground_truth_collectors():
    """Each CSR collector obtains two rows per t1 node, so a caller outside
    the ground-truth layer must charge for them."""
    from repro.lint.rules.budget import SSSP_ENTRY_POINTS

    collectors = (
        "csr_delta_histogram", "csr_pairs_at_threshold", "csr_top_k_pairs",
    )
    assert set(collectors) <= SSSP_ENTRY_POINTS
    for name in collectors:
        uncharged = lint(f"""
            from repro.core.fastpairs import {name}
            def shortcut(g1, g2):
                return {name}(g1, g2, 3)
        """)
        assert codes(uncharged) == ["R004"], name
        charged = lint(f"""
            from repro.core.fastpairs import {name}
            def charged(g1, g2, budget):
                budget.charge("truth", "g1", 2 * g1.num_nodes)
                return {name}(g1, g2, 3)
        """)
        assert charged == [], name


def test_r004_guards_the_pair_row_source():
    """Algorithm 1's row source charges nothing itself, so every caller
    outside repro/graph must charge."""
    from repro.lint.rules.budget import SSSP_ENTRY_POINTS

    assert "pair_rows" in SSSP_ENTRY_POINTS
    uncharged = lint("""
        from repro.graph.pair import pair_rows
        def rows(pair, sources):
            return pair_rows(pair, sources, "g1")
    """)
    assert codes(uncharged) == ["R004"]
    charged = lint("""
        from repro.graph.pair import pair_rows
        def rows(pair, sources, budget):
            for _ in sources:
                budget.charge("generation", "g1", 1)
            return pair_rows(pair, sources, "g1")
    """)
    assert charged == []


# ----------------------------------------------------------------------
# R005 — mutable default arguments
# ----------------------------------------------------------------------
def test_r005_flags_mutable_defaults():
    found = lint("""
        def accumulate(item, seen=[]):
            seen.append(item)
            return seen
        def tally(counts={}):
            return counts
    """)
    assert codes(found) == ["R005", "R005"]


def test_r005_passes_none_and_immutable_defaults():
    found = lint("""
        def accumulate(item, seen=None, limit=10, name="x", pair=(1, 2)):
            seen = [] if seen is None else seen
            return seen
    """)
    assert found == []


def test_r005_flags_call_expression_defaults():
    found = lint("""
        def a(seen=list()):
            return seen
        def b(counts=dict()):
            return counts
        def c(bag=set()):
            return bag
        def d(order=sorted([])):
            return order
        def e(table=dict.fromkeys("ab")):
            return table
        def f(snapshot=[].copy()):
            return snapshot
    """)
    assert codes(found) == ["R005"] * 6


def test_r005_resolves_aliased_constructors():
    found = lint("""
        from builtins import list as mklist

        def g(seen=mklist()):
            return seen
    """)
    assert codes(found) == ["R005"]


def test_r005_passes_frozen_call_defaults():
    found = lint("""
        def h(pair=tuple(), names=frozenset(), n=int(), s=str()):
            return pair, names, n, s
    """)
    assert found == []


# ----------------------------------------------------------------------
# R006 — swallowed broad except
# ----------------------------------------------------------------------
def test_r006_flags_silent_broad_except():
    found = lint("""
        def load(path):
            try:
                return open(path).read()
            except Exception:
                return None
    """)
    assert codes(found) == ["R006"]
    assert codes(lint("""
        def load(path):
            try:
                return open(path).read()
            except:
                return None
    """)) == ["R006"]


def test_r006_passes_reraise_or_event_routing():
    found = lint("""
        from repro.resilience.events import log_event
        def guarded(fn, unit):
            try:
                return fn()
            except Exception as exc:
                log_event("skip", unit=unit, error=type(exc).__name__)
                return None
        def loud(fn):
            try:
                return fn()
            except Exception:
                raise
        def narrow(path):
            try:
                return open(path).read()
            except FileNotFoundError:
                return None
    """)
    assert found == []


def test_r006_flags_tuple_and_base_exception_forms():
    found = lint("""
        def tupled(fn):
            try:
                return fn()
            except (ValueError, Exception):
                return None
        def based(fn):
            try:
                return fn()
            except BaseException:
                return None
    """)
    assert codes(found) == ["R006", "R006"]
    narrow_tuple = lint("""
        def tupled(fn):
            try:
                return fn()
            except (ValueError, KeyError):
                return None
    """)
    assert narrow_tuple == []


def test_r006_nested_def_raise_does_not_route():
    # The raise/log_event must belong to the handler itself — one
    # buried in a nested function the handler merely *defines* runs
    # later (or never) and still swallows the failure.
    found = lint("""
        def sneaky(fn):
            try:
                return fn()
            except Exception:
                def later():
                    raise
                return later
    """)
    assert codes(found) == ["R006"]


# ----------------------------------------------------------------------
# R007 — execution-only config in checkpoint keys
# ----------------------------------------------------------------------
def test_r007_flags_workers_in_key_builder():
    found = lint("""
        def _cell_key(config, dataset):
            return ["cell", dataset, config.seed, config.workers]
    """)
    assert codes(found) == ["R007"]


def test_r007_flags_execution_field_in_store_put():
    found = lint("""
        def persist(store, config, value):
            store.put(["cell", config.max_retries], value)
    """)
    assert codes(found) == ["R007"]


def test_r007_passes_value_determining_key():
    found = lint("""
        def _cell_key(config, dataset, delta):
            return ["cell", dataset, delta, config.seed, config.repeats]
        def uses_workers_elsewhere(config):
            return config.workers * 2
    """)
    assert found == []


# ----------------------------------------------------------------------
# R008 — unpicklable parallel tasks
# ----------------------------------------------------------------------
def test_r008_flags_lambda_task():
    found = lint("""
        from repro.parallel import ParallelExecutor
        def run(items):
            executor = ParallelExecutor(4)
            return executor.map(lambda x: x + 1, items)
    """)
    assert codes(found) == ["R008"]


def test_r008_flags_closure_task():
    found = lint("""
        from repro.parallel import ParallelExecutor
        def run(items, offset):
            def shifted(x):
                return x + offset
            executor = ParallelExecutor(4)
            return executor.map(shifted, items)
    """)
    assert codes(found) == ["R008"]


def test_r008_passes_module_level_task():
    found = lint("""
        from repro.parallel import ParallelExecutor
        def _task(x):
            return x + 1
        def run(items):
            executor = ParallelExecutor(4)
            return executor.map(_task, items)
    """)
    assert found == []


# ----------------------------------------------------------------------
# R014 — nondeterministic shm segment names (R008's shm companion)
# ----------------------------------------------------------------------
def test_r014_flags_clock_derived_shm_run_id():
    found = lint("""
        import time
        from repro.parallel import ParallelExecutor
        def run(state):
            run_id = f"run-{time.time()}"
            return ParallelExecutor(4, state=state, shm_run_id=run_id)
    """)
    # R002 independently flags the clock read; R014 flags the flow into
    # the segment identity.
    assert "R014" in codes(found)


def test_r014_flags_pid_in_derive_run_id():
    found = lint("""
        import os
        from repro.parallel import derive_run_id
        def run(seed):
            return derive_run_id("topk", seed, os.getpid())
    """)
    assert codes(found) == ["R014"]


def test_r014_flags_pid_named_shared_memory():
    found = lint("""
        import os
        from multiprocessing import shared_memory
        def open_segment():
            return shared_memory.SharedMemory(
                name=f"repro_{os.getpid()}", create=True, size=64
            )
    """)
    assert codes(found) == ["R014"]


def test_r014_flags_uuid_in_arena_publish():
    found = lint("""
        import uuid
        from repro.parallel import SharedCsrArena
        def publish(state):
            arena = SharedCsrArena.maybe_publish(
                state, run_id=uuid.uuid4().hex
            )
            return arena
    """)
    assert codes(found) == ["R014"]


def test_r014_passes_seeded_run_id():
    found = lint("""
        from repro.parallel import ParallelExecutor, SharedCsrArena, derive_run_id
        def run(state, seed, k):
            rid = derive_run_id("topk.sssp", seed, k)
            arena = SharedCsrArena.maybe_publish(state, run_id=rid)
            return ParallelExecutor(4, state=state, shm_run_id=rid), arena
    """)
    assert found == []


def test_r014_taint_propagates_through_assignment_chain():
    found = lint("""
        import os
        from repro.parallel import ParallelExecutor
        def run(state):
            pid = os.getpid()
            run_id = f"run-{pid}"
            return ParallelExecutor(4, state=state, shm_run_id=run_id)
    """)
    assert codes(found) == ["R014"]


# ----------------------------------------------------------------------
# R009 — untyped defs in strict-profile packages
# ----------------------------------------------------------------------
UNTYPED = """
    def helper(x, y):
        return x + y
"""

PARTIALLY_TYPED = """
    def helper(x: int, y) -> int:
        return x + y
"""

FULLY_TYPED = """
    class Gate:
        def __init__(self, limit: int):
            self.limit = limit

        @staticmethod
        def of(limit: int) -> "Gate":
            return Gate(limit)

        def admit(self, n: int, *rest: int, cap: int = 0,
                  **extra: object) -> bool:
            return n <= self.limit
"""


def test_r009_flags_untyped_def_in_strict_package():
    found = lint(UNTYPED, path="repro/ingest/helpers.py")
    # Two unannotated parameters plus the missing return annotation.
    assert codes(found) == ["R009", "R009", "R009"]


def test_r009_flags_incomplete_annotations():
    found = lint(PARTIALLY_TYPED, path="repro/graph/util.py")
    assert codes(found) == ["R009"]
    assert "parameter 'y'" in found[0].message


def test_r009_ignores_non_strict_packages():
    assert lint(UNTYPED, path="repro/datasets/helpers.py") == []
    assert lint(UNTYPED, path="repro/lint/rules/example.py") == []


def test_r009_passes_fully_typed_code():
    # self/cls are excused, __init__ may omit its return annotation,
    # *args/**kwargs count as parameters, staticmethods get no excuse.
    assert lint(FULLY_TYPED, path="repro/ingest/gate.py") == []


def test_r009_flags_untyped_staticmethod_first_param():
    found = lint("""
        class C:
            @staticmethod
            def make(cls) -> "C":
                return C()
    """, path="repro/core/c.py")
    assert codes(found) == ["R009"]


def test_r009_strict_packages_match_pyproject():
    """The AST gate and the mypy override list enforce the same set."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11

    from repro.lint.rules.typing_gate import STRICT_PACKAGES

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    strict_modules = set()
    for override in config["tool"]["mypy"]["overrides"]:
        if override.get("disallow_untyped_defs"):
            strict_modules.update(override["module"])
    assert "repro.ingest.*" in strict_modules
    from_rule = {
        prefix.rstrip("/").replace("/", ".") + ".*"
        for prefix in STRICT_PACKAGES
    }
    assert from_rule == strict_modules


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_waives_only_listed_code_on_line():
    code = """
        import networkx  # reprolint: disable=R003 -- fixture exercising the oracle import
    """
    assert lint(code) == []
    # A different rule's code does not waive it.
    still = lint("""
        import networkx  # reprolint: disable=R001 -- wrong code
    """)
    assert codes(still) == ["R003"]


def test_suppression_comment_above_line():
    found = lint("""
        # reprolint: disable=R003 -- oracle import, fixture only
        import networkx
    """)
    assert found == []


def test_suppression_does_not_leak_to_other_lines():
    found = lint("""
        import networkx  # reprolint: disable=R003 -- first import only
        import networkx.algorithms
    """)
    assert codes(found) == ["R003"]


def test_unjustified_suppressions_detected():
    sups = parse_suppressions([
        "import networkx  # reprolint: disable=R003",
        "import networkx  # reprolint: disable=R003 -- has a reason",
    ])
    assert len(sups) == 2
    assert [s.comment_line for s in unjustified(sups)] == [1]


# ----------------------------------------------------------------------
# Repo gate: the linter stays green on the shipped sources
# ----------------------------------------------------------------------
def test_repo_sources_are_lint_clean():
    src = Path(__file__).resolve().parent.parent / "src"
    result = lint_paths([src])
    assert result.parse_errors == []
    assert result.violations == [], "\n".join(
        f"{v.path}:{v.line} {v.code} {v.message}"
        for v in result.violations
    )
    # Every in-repo suppression carries a justification (strict gate).
    assert result.unjustified_suppressions == []
