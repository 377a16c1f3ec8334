"""Cost-based planner gates: never slower than the fixed default, and faster
where the fixed default is wrong.

Two ratio-only gates for the adaptive planner
(:mod:`repro.engine.planner`), both asserting relative speeds measured in one
process so machine speed cancels out:

* **never-slower** — on the paper's D7/D9/D10 workloads the cost-routed
  ``execute()`` must stay within ``NO_REGRESSION_TOLERANCE`` of a forced
  ``compiled`` run.  The cost model is conservative by design (a cold query
  runs the fixed default; a challenger must beat a *measured* default by the
  decision margin), so routing overhead is the only thing this can lose —
  a few dictionary lookups per query.

* **adaptive speedup** — on the skewed catalogue workload (the scatter
  benchmark's high-fanout document, where the block tree's structural joins
  beat the compiled plan's per-rewrite twig matching), one ``calibrate()``
  pass over the in-process plans must teach the planner to route
  ``execute()`` at least ``MIN_ADAPTIVE_SPEEDUP`` faster than the fixed
  plan — with byte-identical answers, asserted before timing.

Both sides of each ratio are timed in alternating rounds
(:func:`~_workloads.paired_rounds`); the never-slower gate also alternates
them pass by pass inside each round and reads the median of the per-round
ratios.  The measured ratios and their
per-round spreads land in ``extra_info`` and therefore in the CI
``BENCH_<run>.json`` trajectory artifact.
"""

from __future__ import annotations

from repro.engine import Dataspace

from _workloads import paired_rounds, ratio_spread
from test_bench_corpus_scatter import (
    QUERIES as CATALOGUE_QUERIES,
    build_workload as build_catalogue,
)

#: The cost-routed path may not be slower than the fixed default by more than
#: this factor on the paper workloads (covers timer noise, nothing else).
NO_REGRESSION_TOLERANCE = 1.1
#: Required speedup of the cost-routed path on the skewed catalogue workload.
MIN_ADAPTIVE_SPEEDUP = 1.5
#: Paper datasets the never-slower gate replays.
DATASETS = ("D7", "D9", "D10")
#: Mapping-set size for the paper datasets (cheap to build for all three).
PLANNER_H = 25
#: Timed rounds per side.  The adaptive gate takes the best of them; the
#: no-regression gate takes the median of the per-round ratios.
ROUNDS = 9
#: Passes over a dataset's queries per side in one timed no-regression round.
#: One pass takes ~0.35-1.3 ms uncached on a 2-vCPU host, so 40 keep every
#: side's round above ~14 ms.  The fixed and routed passes alternate inside
#: the round, and the gate reads the median per-round ratio: with whole
#: sweeps timed one after the other and the best of each side compared, the
#: host's speed spells decided the ratio, which read 0.86-1.31 at 3 passes
#: and 0.81-1.46 at 30 against the 1.10 bound.
SWEEP_REPEATS = 40


def _dataset_queries(dataset_id: str) -> list[str]:
    from repro.service import workload_queries

    return workload_queries(dataset_id, limit=4)


def test_planner_never_slower_than_fixed(benchmark, experiment_report):
    report = experiment_report(
        "planner_no_regression",
        f"Cost-routed execute vs forced compiled plan "
        f"({', '.join(DATASETS)}, |M|={PLANNER_H}, median of {ROUNDS} rounds of "
        f"{SWEEP_REPEATS} interleaved passes)",
    )
    ratios: dict[str, float] = {}
    spreads: dict[str, dict[str, float]] = {}
    sessions: dict[str, Dataspace] = {}
    for dataset_id in DATASETS:
        session = Dataspace.from_dataset(dataset_id, h=PLANNER_H)
        sessions[dataset_id] = session
        queries = _dataset_queries(dataset_id)
        session.snapshot(need_tree=False)
        session.compiled

        def fixed_pass():
            for query in queries:
                session.execute(query, plan="compiled", use_cache=False)

        def routed_pass():
            for query in queries:
                session.execute(query, use_cache=False)

        # The first fixed pass resolves every query and fills the session
        # filter cache; the first routed pass then feeds the planner its
        # first measurements — exactly the serving-traffic sequence the
        # conservative model is designed for.
        pairs = paired_rounds(ROUNDS, fixed_pass, routed_pass, passes=SWEEP_REPEATS)
        spread = ratio_spread([(routed, fixed) for fixed, routed in pairs])
        ratios[dataset_id] = spread["median"]
        spreads[dataset_id] = spread
        report.add_row(
            dataset_id,
            f"fixed {min(fixed for fixed, _ in pairs) * 1000:7.2f} ms  "
            f"routed {min(routed for _, routed in pairs) * 1000:7.2f} ms (best rounds)  "
            f"ratio {spread['median']:.2f} (median of {spread['min']:.2f}-"
            f"{spread['max']:.2f}; allowed <= {NO_REGRESSION_TOLERANCE:.2f})",
        )

    worst_dataset = max(ratios, key=ratios.get)

    def run_all_routed():
        for dataset_id, session in sessions.items():
            for query in _dataset_queries(dataset_id):
                session.execute(query, use_cache=False)

    benchmark.pedantic(run_all_routed, rounds=3, iterations=1)
    benchmark.extra_info["ratios"] = ratios
    benchmark.extra_info["worst_ratio"] = ratios[worst_dataset]
    benchmark.extra_info["ratio_spread"] = spreads

    assert ratios[worst_dataset] <= NO_REGRESSION_TOLERANCE, (
        f"cost-routed execution on {worst_dataset} is "
        f"{ratios[worst_dataset]:.2f}x the fixed compiled plan "
        f"(allowed <= {NO_REGRESSION_TOLERANCE:.2f}x)"
    )


def test_planner_adaptive_speedup(benchmark, experiment_report):
    session = build_catalogue()
    queries = CATALOGUE_QUERIES

    # Byte-identity before timing: the cost-routed answers must serialize
    # exactly like the forced default's, whatever strategy the model picks.
    fixed_answers = {
        query: sorted(
            (a.mapping_id, a.matches, a.probability.hex())
            for a in session.execute(query, plan="compiled", use_cache=False)
        )
        for query in queries
    }

    # One calibration pass measures every in-process plan — on this skewed
    # workload the fixed compiled default is the wrong choice.
    calibrations = {query: session.calibrate(query) for query in queries}
    decisions = {
        query: session.plan_decision(session.prepare(query)) for query in queries
    }

    for query in queries:
        routed = sorted(
            (a.mapping_id, a.matches, a.probability.hex())
            for a in session.execute(query, use_cache=False)
        )
        assert routed == fixed_answers[query], (
            f"cost-routed answers diverge for {query} "
            f"(chose {decisions[query].plan_name})"
        )

    def fixed_sweep():
        for query in queries:
            session.execute(query, plan="compiled", use_cache=False)

    def routed_sweep():
        for query in queries:
            session.execute(query, use_cache=False)

    pairs = paired_rounds(ROUNDS, fixed_sweep, routed_sweep)
    fixed_time = min(fixed for fixed, _ in pairs)
    routed_time = min(routed for _, routed in pairs)
    speedup = fixed_time / routed_time if routed_time > 0 else float("inf")

    benchmark.pedantic(routed_sweep, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["speedup_spread"] = ratio_spread(pairs)
    benchmark.extra_info["decisions"] = {
        query: decisions[query].plan_name for query in queries
    }

    report = experiment_report(
        "planner_adaptive",
        f"Cost-routed execute vs forced compiled on the skewed catalogue "
        f"workload ({len(queries)} queries, calibrated over the in-process "
        f"plans, best of {ROUNDS} alternating rounds)",
    )
    report.add_row("fixed compiled", f"{fixed_time * 1000:8.1f} ms per sweep")
    report.add_row("cost-routed", f"{routed_time * 1000:8.1f} ms per sweep")
    spread = benchmark.extra_info["speedup_spread"]
    report.add_row(
        "speedup",
        f"{speedup:.1f}x (required >= {MIN_ADAPTIVE_SPEEDUP:.1f}x; per round "
        f"{spread['min']:.1f}-{spread['max']:.1f}x)",
    )
    for query in queries:
        timings = ", ".join(
            f"{name}={ms:.1f}" for name, ms in sorted(calibrations[query].items())
        )
        report.add_row(query, f"{decisions[query].plan_name}  [{timings} ms]")

    assert speedup >= MIN_ADAPTIVE_SPEEDUP, (
        f"cost-routed execution is only {speedup:.2f}x the fixed compiled plan "
        f"on the skewed workload ({routed_time * 1000:.1f} ms vs "
        f"{fixed_time * 1000:.1f} ms); decisions: "
        + ", ".join(f"{q}->{d.plan_name}" for q, d in decisions.items())
    )
