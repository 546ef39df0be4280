"""Tests for the repository's maintenance scripts."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def expgen():
    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md", SCRIPTS_DIR / "generate_experiments_md.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGenerateExperimentsMd:
    @pytest.fixture(scope="class")
    def report(self, expgen):
        # Smoke scale; contexts may already be cached by other tests.
        return expgen.generate(scale=0.15)

    def test_all_sections_present(self, report):
        for heading in (
            "# EXPERIMENTS — paper vs. measured",
            "## Table 1", "## Table 2", "## Table 3", "## Table 5",
            "## Table 6", "## Figure 1", "## Figure 2", "## Figure 3",
            "## Ablation A-1", "## Ablation A-2", "## Ablation A-3",
            "## Ablation A-4", "## Ablation A-5", "## Ablation A-6",
            "## Extension E-X1", "## Extension E-X2",
            "## Extension E-X3", "## Extension E-X4",
            "## Experiment E-P1",
        ):
            assert heading in report, f"missing section {heading!r}"

    def test_every_section_quotes_the_paper(self, report):
        # Each artefact section pairs a paper claim with a measurement.
        assert report.count("**Paper") >= 8
        assert report.count("**Measured") >= 8

    def test_main_writes_file(self, expgen, tmp_path):
        out = tmp_path / "EXP.md"
        rc = expgen.main(["--scale", "0.15", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "Table 5" in out.read_text()


class TestGenerateApiDocs:
    @pytest.fixture(scope="class")
    def apigen(self):
        spec = importlib.util.spec_from_file_location(
            "generate_api_docs", SCRIPTS_DIR / "generate_api_docs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_committed_reference_is_current(self, apigen):
        """docs/api.md must match the live package (regenerate if not)."""
        committed = (
            SCRIPTS_DIR.parent / "docs" / "api.md"
        ).read_text(encoding="utf-8")
        assert committed == apigen.generate()

    def test_reference_covers_all_public_modules(self, apigen):
        content = apigen.generate()
        for module in apigen.PUBLIC_MODULES:
            assert f"## `{module}`" in content

    def test_check_mode(self, apigen, capsys):
        assert apigen.main(["--check"]) == 0

    def test_check_mode_detects_staleness(self, apigen, tmp_path):
        stale = tmp_path / "api.md"
        stale.write_text("old", encoding="utf-8")
        assert apigen.main(["--check", "--out", str(stale)]) == 1


class TestCheckBench:
    @pytest.fixture(scope="class")
    def checker(self):
        spec = importlib.util.spec_from_file_location(
            "check_bench", SCRIPTS_DIR / "check_bench.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclass field-type resolution needs the module registered.
        sys.modules["check_bench"] = module
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _incremental_baseline(speedup):
        return {
            "schema": "bench-incremental/v1",
            "scale": 0.5,
            "host": {"cpus": 1, "platform": "linux", "start_method": "fork"},
            "datasets": {
                "actors": {
                    "nodes": 10, "edges_t2": 20, "new_edges": 5,
                    "new_nodes": 1, "full_s": 0.2,
                    "incremental_s": round(0.2 / speedup, 6),
                    "speedup": speedup,
                },
            },
            "speedup": {"actors": speedup},
        }

    def test_committed_baselines_pass_their_floors(self, checker):
        assert checker.main([]) == 0

    def test_discovers_all_committed_baselines(self, checker):
        names = {p.name for p in checker.discover()}
        assert {"BENCH_incremental.json", "BENCH_service.json"} <= names

    def test_incremental_floor_violation_fails(self, checker, tmp_path):
        import json

        path = tmp_path / "BENCH_incremental.json"
        path.write_text(json.dumps(self._incremental_baseline(1.1)))
        assert checker.main([str(path)]) == 1
        # Below-floor numbers still validate structurally.
        assert checker.main([str(path), "--no-floor"]) == 0
        assert checker.main([str(path), "--min-speedup", "1.0"]) == 0

    def test_incremental_floor_is_not_cpu_gated(self, checker, tmp_path):
        """Repair speedup is algorithmic — single-core hosts get no pass."""
        import json

        baseline = self._incremental_baseline(1.0)
        baseline["host"]["cpus"] = 1
        path = tmp_path / "BENCH_incremental.json"
        path.write_text(json.dumps(baseline))
        assert checker.main([str(path)]) == 1

    def test_parallel_v1_schema_retired(self, checker, tmp_path):
        import json

        path = tmp_path / "BENCH_parallel.json"
        for schema in ("bench-parallel/v1", "bench-parallel/v2"):
            baseline = self._incremental_baseline(2.0)
            baseline["schema"] = schema
            path.write_text(json.dumps(baseline))
            assert checker.main([str(path), "--no-floor"]) == 1

    def test_unknown_schema_rejected(self, checker, tmp_path):
        import json

        path = tmp_path / "BENCH_gpu.json"
        path.write_text(json.dumps({"schema": "bench-gpu/v9"}))
        assert checker.main([str(path)]) == 1

    def test_missing_fields_rejected(self, checker, tmp_path):
        import json

        baseline = self._incremental_baseline(2.0)
        del baseline["host"]["start_method"]
        path = tmp_path / "BENCH_incremental.json"
        path.write_text(json.dumps(baseline))
        assert checker.main([str(path)]) == 1

    def test_corrupt_json_rejected(self, checker, tmp_path):
        path = tmp_path / "BENCH_incremental.json"
        path.write_text("{not json")
        assert checker.main([str(path)]) == 1


class TestUpdateRegressionBands:
    @pytest.fixture(scope="class")
    def bandsgen(self):
        spec = importlib.util.spec_from_file_location(
            "update_regression_bands",
            SCRIPTS_DIR / "update_regression_bands.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_band_structure(self, bandsgen):
        bands = bandsgen.compute_bands(scale=0.15, margin=0.1)
        assert bands["scale"] == 0.15
        cov = bands["average_coverage"]
        assert "SumDiff" in cov and "Degree" in cov
        for band in cov.values():
            assert 0.0 <= band["low"] <= band["mean"] <= band["high"] <= 1.0

    def test_main_writes_file(self, bandsgen, tmp_path):
        out = tmp_path / "bands.json"
        rc = bandsgen.main(["--scale", "0.15", "--out", str(out)])
        assert rc == 0
        import json

        data = json.loads(out.read_text())
        assert data["margin"] == 0.12
