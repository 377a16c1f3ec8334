"""Unit tests for the CI helper scripts (perf trajectory, coverage table)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


perf_trajectory = load_script("perf_trajectory")
coverage_table = load_script("coverage_table")


RAW_BENCHMARK = {
    "machine_info": {
        "python_version": "3.12.0",
        "machine": "x86_64",
        "system": "Linux",
        "cpu": {"count": 8},
    },
    "benchmarks": [
        {
            "name": "test_service_throughput",
            "fullname": "benchmarks/test_bench_service_throughput.py::test_service_throughput",
            "group": None,
            "stats": {
                "min": 0.5,
                "max": 0.7,
                "mean": 0.6,
                "stddev": 0.05,
                "median": 0.58,
                "rounds": 3,
                "iterations": 1,
                "data": [0.5, 0.6, 0.7],  # volatile bulk, must be dropped
            },
        },
        {
            "name": "test_a",
            "fullname": "benchmarks/test_a.py::test_a",
            "group": "alpha",
            "stats": {"min": 0.1, "max": 0.2, "mean": 0.15, "stddev": 0.01,
                      "median": 0.15, "rounds": 5, "iterations": 2},
            "extra_info": {
                "speedup": 2.123456789,
                "executor": {"num_shards": 4, "max_workers": 8},
                "ratios": [1.04999999, 2.0],
            },
        },
    ],
}


class TestPerfTrajectory:
    def test_normalise_sorts_and_strips(self):
        rows = perf_trajectory.normalise_report(RAW_BENCHMARK)
        assert [row["name"] for row in rows] == sorted(row["name"] for row in rows)
        assert rows[0]["mean"] == 0.15
        assert "data" not in rows[0] and "data" not in rows[1]

    def test_extra_info_ratios_are_normalised(self):
        rows = perf_trajectory.normalise_report(RAW_BENCHMARK)
        assert rows[0]["extra_info"] == {
            "executor": {"num_shards": 4, "max_workers": 8},
            "ratios": [1.05, 2.0],
            "speedup": 2.1235,
        }
        assert "extra_info" not in rows[1]  # none recorded

    def test_gate_ratio_summary_promotes_ratio_keys(self):
        rows = perf_trajectory.normalise_report(RAW_BENCHMARK)
        rows[0]["extra_info"]["notify_speedup"] = 12.5
        summary = perf_trajectory.gate_ratio_summary(rows)
        # Only scalar *speedup/*ratio keys are promoted, keyed by test name;
        # the list-valued "ratios" and the executor config stay out.
        assert summary == {"test_a": {"notify_speedup": 12.5, "speedup": 2.1235}}

    def test_build_trajectory_carries_gate_ratios(self):
        trajectory = perf_trajectory.build_trajectory([RAW_BENCHMARK], run_id="9")
        assert trajectory["gate_ratios"] == {"test_a": {"speedup": 2.1235}}

    def test_build_trajectory_stamps_run(self):
        trajectory = perf_trajectory.build_trajectory(
            [RAW_BENCHMARK], run_id="123", commit="abc", timestamp="2026-01-01T00:00:00Z"
        )
        assert trajectory["schema"] == perf_trajectory.SCHEMA_VERSION
        assert trajectory["run_id"] == "123"
        assert trajectory["commit"] == "abc"
        assert trajectory["num_benchmarks"] == 2
        assert trajectory["machine"]["python_version"] == "3.12.0"
        assert trajectory["machine"]["cpu_count"] == 8

    def test_build_trajectory_stamps_src_lines(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("x = 1\ny = 2\n")
        (package / "b.py").write_text("z = 3\n")
        (package / "notes.txt").write_text("not\ncounted\n")
        assert perf_trajectory.src_line_count(tmp_path) == 3
        # The record counts the repository's own src/, next to scripts/.
        src = SCRIPTS.parent / "src"
        assert perf_trajectory.SRC_ROOT == src
        expected = sum(len(path.read_text().splitlines()) for path in src.rglob("*.py"))
        trajectory = perf_trajectory.build_trajectory([RAW_BENCHMARK], run_id="5")
        assert trajectory["src_lines"] == expected > 0

    def test_empty_reports(self):
        trajectory = perf_trajectory.build_trajectory([], run_id="0")
        assert trajectory["num_benchmarks"] == 0
        assert trajectory["machine"] == {}

    def test_main_writes_bench_artifact(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(RAW_BENCHMARK))
        out = tmp_path / "artifacts"
        code = perf_trajectory.main(
            [str(raw), "--run-id", "77", "--commit", "deadbeef", "--out", str(out)]
        )
        assert code == 0
        artifact = out / "BENCH_77.json"
        assert artifact.exists()
        assert str(artifact) in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["run_id"] == "77"
        assert len(payload["benchmarks"]) == 2

    def test_main_missing_report(self, tmp_path):
        code = perf_trajectory.main(
            [str(tmp_path / "nope.json"), "--run-id", "1", "--out", str(tmp_path)]
        )
        assert code == 2


COVERAGE_PAYLOAD = {
    "files": {
        "src/repro/cli.py": {"summary": {"num_statements": 100, "missing_lines": 10}},
        "src/repro/engine/cache.py": {
            "summary": {"num_statements": 50, "missing_lines": 0}
        },
        "src/repro/engine/plans.py": {
            "summary": {"num_statements": 50, "missing_lines": 25}
        },
        "src/repro/corpus/engine.py": {
            "summary": {"num_statements": 200, "missing_lines": 20}
        },
    }
}


class TestCoverageTable:
    def test_package_of(self):
        assert coverage_table.package_of("src/repro/engine/cache.py") == "repro.engine"
        assert coverage_table.package_of("src/repro/cli.py") == "repro"
        assert (
            coverage_table.package_of("src/repro/corpus/sharding.py") == "repro.corpus"
        )

    def test_rows_aggregate_per_package(self):
        rows = coverage_table.package_rows(COVERAGE_PAYLOAD)
        by_package = {row["package"]: row for row in rows}
        assert by_package["repro.engine"]["statements"] == 100
        assert by_package["repro.engine"]["missing"] == 25
        assert by_package["repro.engine"]["percent"] == 75.0
        assert by_package["repro.corpus"]["percent"] == 90.0
        assert by_package["TOTAL"]["statements"] == 400
        assert by_package["TOTAL"]["missing"] == 55

    def test_format_table_alignment(self):
        table = coverage_table.format_table(
            coverage_table.package_rows(COVERAGE_PAYLOAD)
        )
        lines = table.splitlines()
        assert lines[0].split() == ["package", "stmts", "miss", "cover"]
        assert lines[-1].startswith("TOTAL")
        assert "86.2%" in lines[-1]  # 345/400

    def test_main_prints_table(self, tmp_path, capsys):
        report = tmp_path / "coverage.json"
        report.write_text(json.dumps(COVERAGE_PAYLOAD))
        assert coverage_table.main([str(report)]) == 0
        output = capsys.readouterr().out
        assert "repro.corpus" in output and "TOTAL" in output

    def test_main_missing_report(self, tmp_path):
        assert coverage_table.main([str(tmp_path / "nope.json")]) == 2


docstring_coverage = load_script("docstring_coverage")
check_markdown_links = load_script("check_markdown_links")


class _DocumentedClass:
    """A class with a real docstring, long enough to count."""

    def documented(self):
        """This method is documented well enough to pass the gate."""

    def undocumented(self):
        pass

    @property
    def documented_property(self):
        """A documented property of the documented class."""
        return 1


def _documented_function():
    """A documented module-level function for the coverage walker."""


class _FakePackage:
    __all__ = ["Documented", "documented_function", "DATA_CONSTANT"]
    Documented = _DocumentedClass
    documented_function = staticmethod(_documented_function)
    DATA_CONSTANT = ("plain", "data")


class TestDocstringCoverage:
    def test_collect_symbols_walks_classes_and_skips_data(self):
        rows, skipped = docstring_coverage.collect_symbols(_FakePackage)
        names = dict(rows)
        assert names["Documented"] is True
        assert names["Documented.documented"] is True
        assert names["Documented.undocumented"] is False
        assert names["Documented.documented_property"] is True
        assert names["documented_function"] is True
        assert skipped == ["DATA_CONSTANT"]

    def test_coverage_report_percent_and_missing(self):
        report = docstring_coverage.coverage_report(
            [("a", True), ("b", True), ("c", False), ("d", True)]
        )
        assert report["total"] == 4
        assert report["documented"] == 3
        assert report["percent"] == 75.0
        assert report["missing"] == ["c"]

    def test_trivial_docstrings_count_as_missing(self):
        class Stub:
            """x"""

        assert not docstring_coverage._documented(Stub)

    def test_main_passes_on_the_real_public_api(self, capsys):
        # The repo's own gate: the public API must stay >= 95% documented.
        assert docstring_coverage.main(["--min", "95"]) == 0
        assert "docstring coverage" in capsys.readouterr().out

    def test_main_fails_below_threshold(self, capsys):
        code = docstring_coverage.main(["--min", "100.1"])
        assert code == 1
        assert "below" in capsys.readouterr().err

    def test_main_unknown_package(self):
        assert docstring_coverage.main(["--package", "no_such_pkg_xyz"]) == 2


class TestMarkdownLinkCheck:
    def test_extract_links(self):
        text = "See [docs](docs/a.md), [site](https://x.y) and [top](#anchor)."
        assert check_markdown_links.extract_links(text) == [
            "docs/a.md", "https://x.y", "#anchor",
        ]

    def test_broken_links_resolved_relative_to_file(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "real.md").write_text("# real")
        readme = tmp_path / "README.md"
        readme.write_text(
            "[ok](docs/real.md) [anchored](docs/real.md#sec) "
            "[gone](docs/missing.md) [web](https://example.com) [self](#top)"
        )
        assert check_markdown_links.broken_links(readme) == ["docs/missing.md"]

    def test_find_markdown_files_excludes_git(self, tmp_path):
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "x.md").write_text("hidden")
        (tmp_path / "a.md").write_text("visible")
        found = check_markdown_links.find_markdown_files(tmp_path)
        assert [p.name for p in found] == ["a.md"]

    def test_main_reports_broken_and_fails(self, tmp_path, capsys):
        (tmp_path / "a.md").write_text("[dead](nope.md)")
        assert check_markdown_links.main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "broken link -> nope.md" in out

    def test_main_passes_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "a.md").write_text("[ok](b.md)")
        (tmp_path / "b.md").write_text("# b")
        assert check_markdown_links.main(["--root", str(tmp_path)]) == 0
        assert "0 broken" in capsys.readouterr().out

    def test_main_missing_root(self, tmp_path):
        assert check_markdown_links.main(["--root", str(tmp_path / "no")]) == 2


# --------------------------------------------------------------------------- #
# perfbench's traced entry points
# --------------------------------------------------------------------------- #
PERFBENCH = SCRIPTS.parent / "perfbench"


def test_perfbench_trace_targets_resolve(monkeypatch):
    """Every traced name resolves the way ``tracing.install`` resolves it.

    A rename in ``src/`` would otherwise surface only in traced benchmark
    runs.  ``layers.py`` imports its sibling modules by bare name, so
    ``perfbench/`` is on ``sys.path`` for this test only, and the modules it
    loads are dropped again afterwards.
    """
    import importlib
    import inspect

    monkeypatch.syspath_prepend(str(PERFBENCH))
    siblings = ("layers", "measure", "tracing")
    for name in siblings:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        layers = importlib.import_module("layers")
        targets = layers.ENGINE_TARGETS + layers.SERVER_TARGETS + layers.CLIENT_TARGETS
    finally:
        for name in siblings:
            sys.modules.pop(name, None)
    assert targets
    for target in targets:
        owner = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        assert callable(getattr(raw, "__func__", raw)), target.name
