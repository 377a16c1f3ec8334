"""Compiled-plan speedup gate: ``compiled`` vs a warmed ``basic`` plan on D7.

The compiled plan groups the relevant mappings of a query by identical
rewrite and evaluates each distinct rewrite exactly once; on the paper's
query workload (Table III over D7, |M|=100) the top-100 mappings collapse
into a handful of distinct rewrites per query, so evaluation cost drops by
roughly that sharing factor.

Design notes for CI (this file runs as a smoke check in the workflow's
benchmark job):

* **ratio-only assertion** — both plans are timed in the same process on the
  same warmed session, so machine speed cancels out and the gate
  (``MIN_SPEEDUP``, ≥3x) is stable across hosts;
* **warm measurements** — artifacts, prepared queries, the compiled artifact
  and both plans' code paths are exercised once before timing, so neither
  side pays one-time construction; the session result cache is bypassed so
  real evaluation is measured;
* **best-of timing** — each plan's full ten-query sweep is timed a few times
  and the best run kept, which suppresses scheduler noise without long
  benchmark loops.

A second gate bounds how a miss scales with a query's embeddings: at
|M|=400, ``//StartDate`` (6 embeddings, 10 rewrites over the same 400
mappings) may cost at most ``MAX_SCALING_RATIO`` times the mean uncached
single-embedding key of the D7 workload.  The compiled plan matches each
distinct rewrite once, so what is left to scale with the embeddings is the
fan-out of matches to mappings; it runs once per cell of mappings the same
rewrites reach (:func:`repro.query.ptq.match_rewrites`).  Fanned out one
mapping and one rewrite at a time, ``//StartDate`` cost ~7.5x a
single-embedding key.
"""

from __future__ import annotations

from repro.engine import Dataspace
from repro.service import workload_queries
from repro.workloads.queries import QUERY_IDS

from _workloads import best_of, paired_rounds, ratio_spread

#: Required speedup of the compiled plan over the warmed basic plan.
MIN_SPEEDUP = 3.0
#: The paper's headline dataset and mapping-set size.
DATASET_ID = "D7"
NUM_MAPPINGS = 100
#: Timed rounds per plan (best-of).
ROUNDS = 3

#: The multi-embedding key of the scaling gate, and its allowed cost relative
#: to the mean single-embedding key of ``workload_queries(DATASET_ID)``.
SCALING_QUERY = "//StartDate"
MAX_SCALING_RATIO = 3.0
#: Mapping-set size of the scaling gate (the write-mix benchmark's).
SCALING_H = 400
#: Rounds of the scaling gate (the gate reads the median per-round ratio) and
#: passes per side in each round.  One pass of either side executes as many
#: queries as there are single-embedding keys (14, ~3-6 ms uncached on a
#: 2-vCPU host), and the two sides alternate pass by pass.
SCALING_ROUNDS = 9
SCALING_PASSES = 10


def test_compiled_plan_speedup_d7(benchmark, experiment_report):
    session = Dataspace.from_dataset(DATASET_ID, h=NUM_MAPPINGS)
    prepared = [session.prepare(query_id) for query_id in QUERY_IDS]

    # Warm everything outside the timed windows: artifacts, the compiled
    # bitset view, resolved queries, the filter cache and both plans' paths.
    session.snapshot(need_tree=False)
    session.compiled
    for item in prepared:
        item.execute(plan="basic", use_cache=False)
        item.execute(plan="compiled", use_cache=False)

    def run_basic():
        for item in prepared:
            item.execute(plan="basic", use_cache=False)

    def run_compiled():
        for item in prepared:
            item.execute(plan="compiled", use_cache=False)

    basic_time, _ = best_of(ROUNDS, run_basic)
    compiled_time, _ = best_of(ROUNDS, run_compiled)
    speedup = basic_time / compiled_time if compiled_time > 0 else float("inf")
    # Record the compiled sweep in the pytest-benchmark JSON so the CI
    # perf-trajectory artifact carries an absolute series for this gate too.
    benchmark.pedantic(run_compiled, rounds=ROUNDS, iterations=1)

    stats = session.explain("Q7", plan="compiled", use_cache=False).compiled_stats
    report = experiment_report(
        "plan_compiled",
        f"Compiled plan vs warmed basic plan ({DATASET_ID}, Q1-Q10, |M|={NUM_MAPPINGS})",
    )
    report.add_row("basic", f"{basic_time * 1000:8.1f} ms for all 10 queries")
    report.add_row("compiled", f"{compiled_time * 1000:8.1f} ms for all 10 queries")
    report.add_row("speedup", f"{speedup:.1f}x (required >= {MIN_SPEEDUP:.0f}x)")
    if stats:
        report.add_row(
            "sharing (Q7)",
            f"{stats['num_distinct_rewrites']} distinct rewrites for "
            f"{stats['num_selected']} mappings "
            f"(saved {stats['evaluations_saved']} evaluations)",
        )

    assert speedup >= MIN_SPEEDUP, (
        f"compiled plan is only {speedup:.2f}x the warmed basic plan "
        f"({compiled_time * 1000:.1f} ms vs {basic_time * 1000:.1f} ms)"
    )


def _answers(result):
    return sorted((a.mapping_id, a.matches, a.probability.hex()) for a in result)


def test_rewrite_fanout_scales_with_cells(benchmark, experiment_report):
    session = Dataspace.from_dataset(DATASET_ID, h=SCALING_H)
    session.snapshot(need_tree=False)
    session.compiled
    target = session.prepare(SCALING_QUERY)
    singles = [
        prepared
        for prepared in map(session.prepare, workload_queries(DATASET_ID))
        if len(prepared.embeddings) == 1
    ]
    assert len(target.embeddings) > 1 and singles

    # Byte-identity before timing, which also warms every timed query.
    for prepared in [target, *singles]:
        assert _answers(prepared.execute(plan="compiled", use_cache=False)) == _answers(
            prepared.execute(plan="basic", use_cache=False)
        )

    def target_pass():
        for _ in singles:
            target.execute(plan="compiled", use_cache=False)

    def singles_pass():
        for prepared in singles:
            prepared.execute(plan="compiled", use_cache=False)

    pairs = paired_rounds(SCALING_ROUNDS, target_pass, singles_pass, passes=SCALING_PASSES)
    spread = ratio_spread(pairs)
    ratio = spread["median"]
    benchmark.pedantic(
        target.execute, kwargs={"plan": "compiled", "use_cache": False}, rounds=ROUNDS
    )
    benchmark.extra_info["scaling_ratio"] = ratio
    benchmark.extra_info["ratio_spread"] = spread

    executions = len(singles) * SCALING_PASSES
    report = experiment_report(
        "rewrite_fanout_scaling",
        f"Uncached {SCALING_QUERY} vs the mean single-embedding key "
        f"({DATASET_ID}, |M|={SCALING_H}, median of {SCALING_ROUNDS} rounds of "
        f"{SCALING_PASSES} interleaved passes)",
    )
    report.add_row(
        SCALING_QUERY,
        f"{min(a for a, _ in pairs) / executions * 1000:6.3f} ms per execute "
        f"({len(target.embeddings)} embeddings, best round)",
    )
    report.add_row(
        "single-embedding",
        f"{min(b for _, b in pairs) / executions * 1000:6.3f} ms per execute "
        f"(mean of {len(singles)} keys, best round)",
    )
    report.add_row(
        "ratio",
        f"{ratio:.2f} (median of {spread['min']:.2f}-{spread['max']:.2f}; "
        f"allowed <= {MAX_SCALING_RATIO:.1f})",
    )

    assert ratio <= MAX_SCALING_RATIO, (
        f"uncached {SCALING_QUERY} costs {ratio:.2f}x the mean single-embedding key "
        f"(allowed <= {MAX_SCALING_RATIO:.1f}x)"
    )
