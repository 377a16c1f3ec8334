#!/usr/bin/env python3
"""Normalise pytest-benchmark JSON output into a ``BENCH_<run>.json`` artifact.

The CI ``perf-trajectory`` job runs the ratio-only benchmark gates with
``--benchmark-json`` and feeds the raw report(s) through this script, which
strips the volatile bulk (per-round timings, full machine info) down to a
small, stable trajectory record: one row per benchmark with its summary
statistics, stamped with the CI run id, the commit and the line count of
the package source (``src_lines``: the repository's ``src/**/*.py``, found
relative to this script), so net source size is tracked beside the
timings.  The resulting
``BENCH_<run>.json`` files are uploaded as workflow artifacts, so the perf
trajectory of the project accumulates run by run instead of being discarded
with each CI log.

Standard library only; usable standalone::

    python -m pytest benchmarks/... --benchmark-json raw.json
    python scripts/perf_trajectory.py raw.json --run-id local --out artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "normalise_report",
    "gate_ratio_summary",
    "src_line_count",
    "build_trajectory",
    "main",
]

#: Trajectory record schema version (bump on incompatible shape changes).
SCHEMA_VERSION = 2

#: The package source whose size each record carries.
SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

#: Benchmark statistics copied into a trajectory row (seconds).
_STAT_FIELDS = ("min", "max", "mean", "stddev", "median", "rounds", "iterations")


def _normalise_extra(value):
    """Round floats (ratios, latencies) so trajectory diffs stay stable."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {str(key): _normalise_extra(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_normalise_extra(item) for item in value]
    return value


def normalise_report(payload: dict) -> list[dict]:
    """One trajectory row per benchmark of a raw pytest-benchmark report.

    Rows are sorted by benchmark name so trajectory diffs are stable even
    when pytest collection order changes.  A benchmark's ``extra_info``
    (speedup ratios, executor configuration) is carried through with floats
    rounded, so the gates' measured ratios accumulate in the artifact
    alongside the absolute timings.
    """
    rows: list[dict] = []
    for benchmark in payload.get("benchmarks", []):
        stats = benchmark.get("stats", {})
        row: dict = {
            "name": benchmark.get("fullname") or benchmark.get("name"),
            "group": benchmark.get("group"),
        }
        for field in _STAT_FIELDS:
            row[field] = stats.get(field)
        extra = benchmark.get("extra_info")
        if extra:
            row["extra_info"] = _normalise_extra(extra)
        rows.append(row)
    rows.sort(key=lambda row: row["name"] or "")
    return rows


def gate_ratio_summary(rows: Sequence[dict]) -> dict:
    """Promote each gate's measured speedup ratios into one top-level map.

    Every ratio gate records its headline measurement in ``extra_info``
    under a key ending in ``speedup`` or ``ratio``; collecting those into
    ``gate_ratios`` (``{test_name: {key: value}}``) lets trajectory tooling
    track the gates' headroom across runs without digging through each
    benchmark row.
    """
    summary: dict[str, dict] = {}
    for row in rows:
        extra = row.get("extra_info") or {}
        ratios = {
            key: value
            for key, value in extra.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            and (key.endswith("speedup") or key.endswith("ratio"))
        }
        if ratios:
            name = (row.get("name") or "").rsplit("::", 1)[-1]
            summary[name] = ratios
    return summary


def _machine_summary(payload: dict) -> dict:
    machine = payload.get("machine_info", {})
    return {
        "python_version": machine.get("python_version"),
        "machine": machine.get("machine"),
        "system": machine.get("system"),
        "cpu_count": (machine.get("cpu") or {}).get("count"),
    }


def src_line_count(root: Path = SRC_ROOT) -> int:
    """Lines (newline count, as ``wc -l``) of every ``*.py`` file under ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def build_trajectory(
    reports: Sequence[dict],
    *,
    run_id: str,
    commit: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """Merge raw reports into one stamped trajectory record."""
    benchmarks: list[dict] = []
    for report in reports:
        benchmarks.extend(normalise_report(report))
    benchmarks.sort(key=lambda row: row["name"] or "")
    return {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "commit": commit,
        "timestamp": timestamp,
        "src_lines": src_line_count(),
        "num_benchmarks": len(benchmarks),
        "machine": _machine_summary(reports[0]) if reports else {},
        "gate_ratios": gate_ratio_summary(benchmarks),
        "benchmarks": benchmarks,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; writes ``<out>/BENCH_<run-id>.json`` and prints its path."""
    parser = argparse.ArgumentParser(
        description="Normalise pytest-benchmark JSON into a BENCH_<run>.json artifact"
    )
    parser.add_argument("reports", nargs="+", help="raw --benchmark-json output files")
    parser.add_argument("--run-id", required=True, help="CI run id (artifact suffix)")
    parser.add_argument("--commit", default=None, help="commit SHA to stamp")
    parser.add_argument("--timestamp", default=None, help="ISO timestamp to stamp")
    parser.add_argument("--out", default="artifacts", help="output directory")
    args = parser.parse_args(argv)

    payloads = []
    for report_path in args.reports:
        path = Path(report_path)
        if not path.exists():
            print(f"error: benchmark report {path} does not exist", file=sys.stderr)
            return 2
        payloads.append(json.loads(path.read_text()))

    trajectory = build_trajectory(
        payloads, run_id=args.run_id, commit=args.commit, timestamp=args.timestamp
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{args.run_id}.json"
    out_path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
