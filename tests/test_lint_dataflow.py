"""Whole-program analyzer suite: symbol table, call graph, taint engine,
the R010–R013 interprocedural rules, stale suppressions, SARIF output,
and the report-determinism property."""

from __future__ import annotations

import ast
import json
import random
import textwrap
from pathlib import Path

from repro.lint import (
    CallGraph,
    ProjectContext,
    lint_paths,
    lint_source,
    render_sarif,
)
from repro.lint.cli import main as lint_main
from repro.lint.context import FileContext
from repro.lint.dataflow import (
    FunctionTaint,
    ProjectTaint,
    TaintPolicy,
    iter_writes,
    param_names,
)
from repro.lint.project import module_name
from repro.lint.registry import all_rules, select_rules
from repro.lint.report import render_json, render_text
from repro.lint.rules.budget import _ENTRY_POINT_MODULES
from repro.lint.rules.budget_flow import computed_entry_point_modules

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_SARIF = Path(__file__).resolve().parent / "data" / "reprolint_golden.sarif"


def ctx_of(path: str, code: str) -> FileContext:
    return FileContext.parse(path, textwrap.dedent(code))


def project_of(**files: str) -> ProjectContext:
    return ProjectContext(
        [ctx_of(path, code) for path, code in sorted(files.items())]
    )


def lint_one(code: str, path: str, rule: str):
    return lint_source(
        textwrap.dedent(code), path=path, rules=select_rules([rule])
    )


def repo_project() -> ProjectContext:
    contexts = [
        FileContext.parse(
            p.relative_to(SRC).as_posix(), p.read_text(encoding="utf-8")
        )
        for p in sorted(SRC.rglob("*.py"))
    ]
    return ProjectContext(contexts)


# ----------------------------------------------------------------------
# Phase 1: symbol table + resolution
# ----------------------------------------------------------------------
def test_module_name_handles_init_and_nesting():
    assert module_name("repro/core/pairs.py") == "repro.core.pairs"
    assert module_name("repro/graph/__init__.py") == "repro.graph"
    assert module_name("setup.py") == "setup"


def test_symbol_table_collects_functions_methods_and_nested_defs():
    project = project_of(**{
        "repro/a.py": """
            def top():
                def inner():
                    return 1
                return inner()

            class Box:
                def get(self):
                    return 1
        """,
    })
    assert "repro.a.top" in project.functions
    assert "repro.a.top.inner" in project.functions
    assert "repro.a.Box.get" in project.functions
    assert project.functions["repro.a.Box.get"].class_name == "Box"


def test_reexport_alias_resolves_through_package_init():
    project = project_of(**{
        "repro/graph/__init__.py": "from repro.graph.csr import bfs_levels\n",
        "repro/graph/csr.py": """
            def bfs_levels(csr, source):
                return source
        """,
        "repro/core/use.py": """
            from repro.graph import bfs_levels

            def go(csr):
                return bfs_levels(csr, 0)
        """,
    })
    assert (
        project.canonical("repro.graph.bfs_levels")
        == "repro.graph.csr.bfs_levels"
    )
    ctx = project.modules["repro.core.use"]
    call = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call))
    resolved = project.resolve_call(ctx, call.func)
    assert resolved is not None
    assert resolved.qualname == "repro.graph.csr.bfs_levels"


def test_ambiguous_method_resolves_to_none():
    project = project_of(**{
        "repro/a.py": """
            class A:
                def run(self):
                    return 1

            class B:
                def run(self):
                    return 2

            def call(x):
                return x.run()
        """,
    })
    ctx = project.modules["repro.a"]
    call = [n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call)][-1]
    assert project.resolve_call(ctx, call.func) is None  # unknown edge


# ----------------------------------------------------------------------
# Phase 1: call graph
# ----------------------------------------------------------------------
def test_call_graph_reachability_and_guards():
    project = project_of(**{
        "repro/a.py": """
            def public(budget):
                return _mid(budget)

            def _mid(budget):
                budget.charge("p", "g1", 1)
                return _leaf()

            def _leaf():
                return 1

            def _orphan():
                return _leaf()
        """,
    })
    graph = CallGraph(project)
    reach = graph.reachable(["repro.a.public"])
    assert "repro.a._leaf" in reach
    assert "repro.a._orphan" not in reach
    # _mid charges, so nothing past it is uncharged-reachable.
    uncharged = graph.guarded_reachability(
        ["repro.a.public"], guards={"repro.a._mid"}
    )
    assert "repro.a.public" in uncharged
    assert "repro.a._leaf" not in uncharged
    path = graph.path_to(
        graph.guarded_reachability(["repro.a.public"], guards=set()),
        "repro.a._leaf",
    )
    assert path[0] == "repro.a.public" and path[-1] == "repro.a._leaf"


def test_call_graph_sees_function_references_not_just_calls():
    project = project_of(**{
        "repro/a.py": """
            def task(x):
                return x

            def dispatch(executor, items):
                return executor.map(task, items)
        """,
    })
    graph = CallGraph(project)
    assert "repro.a.task" in graph.callees("repro.a.dispatch")


# ----------------------------------------------------------------------
# Phase 2: taint engine
# ----------------------------------------------------------------------
class _MarkPolicy(TaintPolicy):
    """Taints any call to a function literally named ``source``."""

    def call_is_source(self, ctx, project, call):
        return isinstance(call.func, ast.Name) and call.func.id == "source"

    def call_is_sanitizer(self, ctx, project, call):
        return isinstance(call.func, ast.Name) and call.func.id == "clean"


def _taint_names(code: str) -> set:
    ctx = ctx_of("repro/t.py", code)
    project = ProjectContext([ctx])
    fn = project.functions["repro.t.f"]
    flow = FunctionTaint(project, ctx, fn.node, _MarkPolicy())
    return set(flow.tainted)


def test_taint_propagates_through_assignment_chains_and_loops():
    tainted = _taint_names("""
        def f():
            a = source()
            b = a
            c = b + 1
            for item in a:
                d = item
            e = clean(a)
            return c, d, e
    """)
    assert {"a", "b", "c", "d"} <= tainted
    assert "e" not in tainted


def test_taint_strong_update_untaints_rebound_names():
    tainted = _taint_names("""
        def f():
            a = source()
            a = 0
            return a
    """)
    assert "a" not in tainted


def test_interprocedural_summaries_propagate_and_return_taint():
    project = project_of(**{
        "repro/t.py": """
            def source_wrapper():
                return source()

            def passthrough(x):
                return x

            def f():
                a = source_wrapper()
                b = passthrough(a)
                c = passthrough(1)
                return a, b, c
        """,
    })
    taint = ProjectTaint(project, _MarkPolicy())
    assert taint.summaries["repro.t.source_wrapper"].returns_tainted
    assert taint.summaries["repro.t.passthrough"].propagates
    flow = taint.analyze(project.functions["repro.t.f"])
    assert {"a", "b"} <= flow.tainted
    assert "c" not in flow.tainted


def test_mutates_summary_tracks_writes_through_helpers():
    project = project_of(**{
        "repro/t.py": """
            def scribble(arr):
                arr[0] = 1

            def relay(buf):
                scribble(buf)
        """,
    })
    taint = ProjectTaint(project, TaintPolicy())
    assert taint.summaries["repro.t.scribble"].mutates == frozenset({"arr"})
    assert taint.summaries["repro.t.relay"].mutates == frozenset({"buf"})


def test_iter_writes_catches_all_write_shapes():
    tree = ast.parse(textwrap.dedent("""
        x[0] = 1
        x[1] += 2
        x += y
        x.sort()
        numpy.copyto(x, y)
        f(a, out=x)
    """))
    assert len(list(iter_writes(tree))) == 6


def test_param_names_covers_every_kind():
    fn = ast.parse("def f(a, /, b, *args, c, **kw): pass").body[0]
    assert param_names(fn) == ["a", "b", "args", "c", "kw"]


# ----------------------------------------------------------------------
# R010 — budget soundness (computed reachability)
# ----------------------------------------------------------------------
UNCHARGED_TRAVERSAL = """
    from repro.graph.csr import bfs_levels

    def find_pairs(csr, budget):
        return _scan(csr)

    def _scan(csr):
        return bfs_levels(csr, 0)
"""


def test_r010_uncharged_traversal_fixture_fires_exactly_once():
    found = lint_one(UNCHARGED_TRAVERSAL, "repro/core/algorithm.py", "R010")
    assert [v.code for v in found] == ["R010"]
    assert "find_pairs -> " in found[0].message  # path reconstruction


def test_r010_quiet_when_the_path_charges():
    found = lint_one("""
        from repro.graph.csr import bfs_levels

        def find_pairs(csr, budget):
            budget.charge("topk", "g1", 1)
            return _scan(csr)

        def _scan(csr):
            return bfs_levels(csr, 0)
    """, "repro/core/algorithm.py", "R010")
    assert found == []


def test_r010_quiet_when_not_reachable_from_public_api():
    found = lint_one("""
        from repro.graph.csr import bfs_levels

        def _private_probe(csr):
            return bfs_levels(csr, 0)
    """, "repro/core/algorithm.py", "R010")
    assert found == []


def test_r010_flags_import_time_traversal():
    found = lint_one("""
        from repro.graph.csr import bfs_levels

        LEVELS = bfs_levels(None, 0)
    """, "repro/core/algorithm.py", "R010")
    assert [v.code for v in found] == ["R010"]
    assert "import time" in found[0].message


def test_r010_computed_entry_points_superset_of_hand_list():
    computed = computed_entry_point_modules(repo_project())
    for legacy in _ENTRY_POINT_MODULES:
        assert any(
            module == legacy or module.startswith(legacy + ".")
            for module in computed
        ), f"computed set {computed} lost legacy module {legacy}"


# ----------------------------------------------------------------------
# R011 — frozen-view mutation
# ----------------------------------------------------------------------
FROZEN_WRITE = """
    from repro.graph.csr import bfs_levels

    def tweak(csr):
        levels = bfs_levels(csr, 0)
        levels[0] = -1
        return levels
"""


def test_r011_frozen_view_write_fixture_fires_exactly_once():
    found = lint_one(FROZEN_WRITE, "repro/core/selectors.py", "R011")
    assert [v.code for v in found] == ["R011"]


def test_r011_copy_kills_the_taint():
    found = lint_one("""
        from repro.graph.csr import bfs_levels

        def tweak(csr):
            levels = bfs_levels(csr, 0).copy()
            levels[0] = -1
            return levels
    """, "repro/core/selectors.py", "R011")
    assert found == []


def test_r011_flags_mutation_via_helper_summary():
    found = lint_one("""
        from repro.graph.csr import bfs_levels

        def _mask(arr, i):
            arr[i] = -1

        def tweak(csr):
            levels = bfs_levels(csr, 0)
            _mask(levels, 0)
            return levels
    """, "repro/core/selectors.py", "R011")
    assert len(found) == 1
    assert "_mask" in found[0].message


def test_r011_engine_files_are_exempt():
    found = lint_one("""
        from repro.graph.incremental import repair_levels

        def fix(delta, row):
            lv = repair_levels(delta, row)
            lv[0] = 0
            return lv
    """, "repro/graph/csr.py", "R011")
    assert found == []


# ----------------------------------------------------------------------
# R012 — determinism taint
# ----------------------------------------------------------------------
UNSEEDED_KEY = """
    import time

    def make_key(config):
        return f"ckpt-{time.time()}"
"""


def test_r012_unseeded_key_fixture_fires_exactly_once():
    found = lint_one(UNSEEDED_KEY, "repro/experiments/keys.py", "R012")
    assert [v.code for v in found] == ["R012"]


def test_r012_sorted_boundary_sanitizes():
    found = lint_one("""
        def make_key(config):
            return "ckpt-" + "-".join(sorted(config.datasets))
    """, "repro/experiments/keys.py", "R012")
    assert found == []


def test_r012_set_iteration_into_store_key():
    found = lint_one("""
        def save(store, values):
            key = "-".join(set(values))
            store.put(key, values)
    """, "repro/experiments/store_use.py", "R012")
    assert [v.code for v in found] == ["R012"]


def test_r012_ranked_output_from_unseeded_rng():
    found = lint_one("""
        import random

        def top_k_pairs(pairs, k):
            random.shuffle(pairs)
            return pairs[:k]
    """, "repro/core/rank.py", "R012")
    # R012 only (the select filter keeps R001 out of this run).
    assert found == []  # shuffle's return is None; pairs stays untainted

    found = lint_one("""
        import random

        def top_k_pairs(pairs, k):
            order = random.sample(pairs, len(pairs))
            return order[:k]
    """, "repro/core/rank.py", "R012")
    assert [v.code for v in found] == ["R012"]


def test_r012_service_response_is_a_sink():
    found = lint_one("""
        from repro.service.protocol import encode_response

        def respond(request_id, version, answers):
            pairs = list(answers.values())
            return encode_response(
                request_id, version=version, stale=False, result=pairs,
            )
    """, "repro/service/handlers.py", "R012")
    assert [v.code for v in found] == ["R012"]
    assert "service response" in found[0].message


def test_r012_sorted_service_response_passes():
    found = lint_one("""
        from repro.service.protocol import encode_response

        def respond(request_id, version, answers):
            pairs = sorted(answers.values())
            return encode_response(
                request_id, version=version, stale=False, result=pairs,
            )
    """, "repro/service/handlers.py", "R012")
    assert found == []


# ----------------------------------------------------------------------
# R013 — cross-process capture
# ----------------------------------------------------------------------
PARENT_GLOBAL_TASK = """
    _CACHE = {}

    def task(item):
        return _CACHE[item]

    def run_all(executor, items):
        return list(executor.map(task, items))
"""


def test_r013_parent_global_fixture_fires_exactly_once():
    found = lint_one(PARENT_GLOBAL_TASK, "repro/experiments/tasks.py", "R013")
    assert [v.code for v in found] == ["R013"]
    assert "_CACHE" in found[0].message


def test_r013_worker_state_channel_is_sanctioned():
    found = lint_one("""
        from repro.parallel.executor import worker_state

        def task(item):
            return worker_state()["cache"][item]

        def run_all(executor, items):
            return list(executor.map(task, items))
    """, "repro/experiments/tasks.py", "R013")
    assert found == []


def test_r013_constants_and_type_aliases_are_allowed():
    found = lint_one("""
        from typing import Tuple

        LIMIT = 16
        Spec = Tuple[str, int]

        def task(spec: Spec) -> int:
            return min(spec[1], LIMIT)

        def run_all(executor, items):
            return list(executor.map(task, items))
    """, "repro/experiments/tasks.py", "R013")
    assert found == []


# ----------------------------------------------------------------------
# The repository itself stays clean under the full strict rule set
# ----------------------------------------------------------------------
def test_repo_sources_pass_strict_with_project_rules():
    result = lint_paths([SRC])
    assert result.violations == []
    assert result.stale_suppressions == []
    assert result.ok(strict=True)


# ----------------------------------------------------------------------
# Stale suppressions
# ----------------------------------------------------------------------
def test_stale_suppression_is_a_strict_finding(tmp_path):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent("""
        x = 1  # reprolint: disable=R001 -- left behind after a fix
    """))
    result = lint_paths([tmp_path])
    assert result.violations == []
    assert len(result.stale_suppressions) == 1
    path, sup, code = result.stale_suppressions[0]
    assert code == "R001" and path == "repro/mod.py"
    assert result.ok(strict=False)
    assert not result.ok(strict=True)
    assert "stale suppression" in render_text(result, strict=True)
    assert json.loads(render_json(result, strict=True))[
        "stale_suppressions"
    ][0]["code"] == "R001"


def test_used_suppression_is_not_stale(tmp_path):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent("""
        import random

        def pick(items):
            return random.choice(items)  # reprolint: disable=R001 -- fixture
    """))
    result = lint_paths([tmp_path])
    assert result.violations == []
    assert result.stale_suppressions == []
    assert result.ok(strict=True)


def test_unselected_rules_cannot_make_a_suppression_stale(tmp_path):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("x = 1  # reprolint: disable=R001 -- judged elsewhere\n")
    result = lint_paths([tmp_path], select=["R005"])
    assert result.stale_suppressions == []


# ----------------------------------------------------------------------
# Determinism property: shuffled inputs, byte-identical reports
# ----------------------------------------------------------------------
def _violation_corpus(tmp_path) -> list:
    files = {
        "alpha.py": "import random\nx = random.random()\n",
        "bravo.py": "def f(x=[]):\n    return x\n",
        "charlie.py": (
            "try:\n    pass\nexcept Exception:\n    pass\n"
        ),
        "delta.py": "import time\nt = time.time()\n",
        "echo.py": "x = 1\n",
    }
    paths = []
    for name, code in files.items():
        target = tmp_path / name
        target.write_text(code)
        paths.append(target)
    return paths


def test_reports_are_byte_identical_across_shuffled_orderings(tmp_path):
    paths = _violation_corpus(tmp_path)
    baseline_run = lint_paths(sorted(paths))
    assert baseline_run.violations  # non-vacuous: corpus does violate
    expected_text = render_text(baseline_run, strict=True)
    expected_json = render_json(baseline_run, strict=True)
    expected_sarif = render_sarif(baseline_run.violations, all_rules())
    rng = random.Random(2015)
    for _ in range(5):
        shuffled = list(paths)
        rng.shuffle(shuffled)
        run = lint_paths(shuffled)
        assert render_text(run, strict=True) == expected_text
        assert render_json(run, strict=True) == expected_json
        assert render_sarif(run.violations, all_rules()) == expected_sarif


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_document_structure():
    found = lint_one(FROZEN_WRITE, "repro/core/selectors.py", "R011")
    doc = json.loads(render_sarif(found, select_rules(["R011"])))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["R011"]
    result = run["results"][0]
    assert result["ruleId"] == "R011"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/core/selectors.py"
    assert location["region"]["startLine"] == found[0].line


def test_sarif_golden_snapshot():
    violations = []
    for code, path, rule in (
        (UNCHARGED_TRAVERSAL, "repro/core/algorithm.py", "R010"),
        (FROZEN_WRITE, "repro/core/selectors.py", "R011"),
        (UNSEEDED_KEY, "repro/experiments/keys.py", "R012"),
        (PARENT_GLOBAL_TASK, "repro/experiments/tasks.py", "R013"),
    ):
        violations.extend(lint_one(code, path, rule))
    rendered = render_sarif(
        violations, select_rules(["R010", "R011", "R012", "R013"])
    )
    assert rendered == GOLDEN_SARIF.read_text(encoding="utf-8"), (
        "SARIF output drifted from the golden snapshot; if the change is "
        "intentional, regenerate tests/data/reprolint_golden.sarif"
    )


# ----------------------------------------------------------------------
# CLI: --explain, --sarif
# ----------------------------------------------------------------------
def test_cli_explain_prints_rule_documentation(capsys):
    assert lint_main(["--explain", "R010"]) == 0
    out = capsys.readouterr().out
    assert "R010" in out and "project-scope" in out and "suppress" in out
    assert lint_main(["--explain", "R999"]) == 2


def test_cli_sarif_writes_the_document(tmp_path, capsys):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("import random\nx = random.random()\n")
    sarif_path = tmp_path / "out" / "findings.sarif"
    code = lint_main(
        [str(tmp_path), "--select", "R001", "--sarif", str(sarif_path)]
    )
    assert code == 1
    doc = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert doc["runs"][0]["results"][0]["ruleId"] == "R001"
