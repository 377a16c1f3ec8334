"""Figure 10(f) — top-h generation time Tg vs h on dataset D1: Murty vs partition.

The paper scales h from 100 to 1000 on D1 and reports the partition-based
approach improving over Murty by at least ~88% at every h.
"""

from __future__ import annotations

import pytest

from repro.mapping.assignment import available_backends
from repro.mapping.generator import generate_top_h_mappings

from _workloads import load_dataset, time_query

H_VALUES = [100, 200, 400, 600, 800, 1000]


@pytest.mark.parametrize("h", H_VALUES)
def test_fig10f_generation_vs_h(benchmark, experiment_report, h):
    matching = load_dataset("D1").matching

    mapping_set = benchmark.pedantic(
        lambda: generate_top_h_mappings(matching, h, method="partition"),
        rounds=1,
        iterations=1,
    )

    # The full-bipartite Murty baseline is the one caller large enough for
    # SciPy, which loads on first use: load it untimed, so Tg measures
    # generation only.
    available_backends()
    partition_time, _ = time_query(generate_top_h_mappings, matching, h, method="partition")
    murty_time, _ = time_query(generate_top_h_mappings, matching, h, method="murty")
    improvement = 1.0 - partition_time / murty_time if murty_time > 0 else 0.0
    report = experiment_report(
        "fig10f",
        "Fig 10(f): Tg vs h on D1, murty vs partition (paper: improvement always > 87.97%)",
    )
    report.add_row(
        f"h={h:<5}",
        f"murty={murty_time:7.2f} s  partition={partition_time:7.2f} s  "
        f"improvement={improvement:6.1%}",
    )
    assert len(mapping_set) <= h
    assert partition_time < murty_time
