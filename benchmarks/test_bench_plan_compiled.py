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
"""

from __future__ import annotations

from repro.engine import Dataspace
from repro.workloads.queries import QUERY_IDS

from _workloads import best_of

#: Required speedup of the compiled plan over the warmed basic plan.
MIN_SPEEDUP = 3.0
#: The paper's headline dataset and mapping-set size.
DATASET_ID = "D7"
NUM_MAPPINGS = 100
#: Timed rounds per plan (best-of).
ROUNDS = 3


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
