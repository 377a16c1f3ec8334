"""Median and quartile spread of each metric over saved benchmark results.

Usage: ``python3 perfbench/spread.py RESULTS...`` where each file holds one
result line (the last line ``run.py`` prints) per run of one workload.  The
spread is (Q3 - Q1) / median with ``statistics.quantiles(n=4)`` quartiles,
the figure compared with each metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys

import measure


def main(paths: list[str]) -> int:
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        print(f"{path}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}")
        for name, first in rows[0]["metrics"].items():
            values = [row["metrics"][name]["value"] for row in rows]
            spread = measure.quartile_spread(values) if len(values) > 1 else 0.0
            print(
                f"  {name:34s} median {measure.median(values):12.6g} {first['unit']:10s}"
                f" spread {spread:6.3f}  min {min(values):.6g}  max {max(values):.6g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
