"""Ablation — lazy (best-first) vs exhaustive partition-ranking merge.

Algorithm 5 merges per-partition rankings pairwise.  The library's default is
a best-first merge that scores only the O(h log h) index pairs that can reach
the top h and materialises h combinations per step; the ablation compares it
against the exhaustive O(h²) cross-product merge to quantify the benefit
(both produce identical mapping sets).
"""

from __future__ import annotations

import pytest

from repro.mapping.generator import generate_top_h_mappings

from _workloads import load_dataset, time_query

H_VALUES = [50, 100]


@pytest.mark.parametrize("h", H_VALUES)
def test_ablation_merge_strategy(benchmark, experiment_report, h):
    matching = load_dataset("D7").matching

    mapping_set = benchmark.pedantic(
        lambda: generate_top_h_mappings(matching, h, method="partition", merge_strategy="lazy"),
        rounds=1,
        iterations=1,
    )

    lazy_time, lazy_set = time_query(
        generate_top_h_mappings, matching, h, method="partition", merge_strategy="lazy"
    )
    exhaustive_time, exhaustive_set = time_query(
        generate_top_h_mappings, matching, h, method="partition", merge_strategy="exhaustive"
    )
    report = experiment_report(
        "ablation-merge",
        "Ablation: partition-ranking merge strategy, lazy (best-first) vs exhaustive (cross product), D7",
    )
    report.add_row(
        f"h={h:<4}",
        f"lazy={lazy_time:6.2f} s  exhaustive={exhaustive_time:6.2f} s",
    )
    assert [round(m.score, 6) for m in lazy_set] == [round(m.score, 6) for m in exhaustive_set]
    assert len(mapping_set) == len(lazy_set)
