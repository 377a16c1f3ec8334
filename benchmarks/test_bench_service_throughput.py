"""Service-layer throughput: warm-cache serving vs sequential uncached execution.

Replays a mixed D1–D10 workload (three deterministic queries per dataset,
interleaved round-robin) two ways:

* **baseline** — sequential, cache-bypassing ``execute()`` calls, i.e. what a
  single-threaded caller paid before the service layer existed;
* **service** — the same operation stream through per-dataset
  :class:`repro.service.QueryService` instances with a warm result cache,
  each sized by
  :func:`~repro.service.service.default_service_workers`; the executor
  configuration used lands in the benchmark's ``extra_info`` and with it in
  the ``BENCH_<run>.json`` artifact.

Both passes run against pre-built session artifacts, so the comparison is
steady-state serving, not construction.  The acceptance bar is a ≥2x
throughput win for the service path; the warm cache turns evaluations into
dictionary lookups, and ~2.5-3x is typical on the mixed workload.  p50/p95/p99
latencies of one warm pass of each land in the report.

The ratio used to come from one pass per side, and the baseline's pass was
the first execution of every query (parse, resolve and filter included);
it read 1.2-1.7x inside full test runs and 2.4-3.7x standalone.  A pass
takes a few milliseconds, shorter than the host's speed spells, so both
sides are now timed warm in alternating rounds of ``PASSES`` pass-by-pass
interleaved passes (:func:`~_workloads.paired_rounds`), and the gate reads
the median per-round ratio; its spread lands in ``extra_info``.

Environment knobs
-----------------
``REPRO_BENCH_SERVICE_DATASETS``
    Comma-separated dataset ids to replay (default: all of D1–D10).
"""

from __future__ import annotations

import os

from repro.engine import Dataspace
from repro.service import QueryService, build_workload, replay_workload
from repro.workloads.datasets import DATASET_IDS

from _workloads import paired_rounds, ratio_spread

#: Required speedup of the warm-cache service over sequential uncached execution.
MIN_SPEEDUP = 2.0
#: Mapping-set size: small enough that all ten datasets stay cheap to build.
SERVICE_H = 25
#: Timed rounds (the gate reads the median per-round ratio) and passes per
#: side in each round.  A sequential pass takes ~5-10 ms on a 2-vCPU host, so
#: a round times each side for ~0.1-0.2 s.
ROUNDS = 9
PASSES = 20


def _datasets() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_SERVICE_DATASETS", "")
    if raw.strip():
        return [item.strip().upper() for item in raw.split(",") if item.strip()]
    return list(DATASET_IDS)


def test_service_throughput(benchmark, experiment_report):
    datasets = _datasets()
    ops = build_workload(datasets, queries_per_dataset=3, repeats=3)

    sessions = {
        dataset_id: Dataspace.from_dataset(dataset_id, h=SERVICE_H)
        for dataset_id in datasets
    }
    # No explicit max_workers: default_service_workers() sizes the pool
    # (one thread), and the replay below runs at that concurrency.
    cached = {
        dataset_id: QueryService(session)
        for dataset_id, session in sessions.items()
    }
    concurrency = next(iter(cached.values())).executor_config()["max_workers"]
    uncached = {
        dataset_id: QueryService(session, max_workers=1, use_cache=False)
        for dataset_id, session in sessions.items()
    }
    try:
        # Build every session's artifacts outside the timed windows, so the
        # baseline measures steady-state sequential evaluation — not one-time
        # matching/mapping construction.  The default (compiled) plan needs
        # the compiled mapping set but no block tree.
        for session in sessions.values():
            session.snapshot(need_tree=False)
            session.compiled
        # The first baseline pass prepares every query; the report shows the
        # second.
        replay_workload(ops, concurrency=1, services=uncached)
        baseline = replay_workload(ops, concurrency=1, services=uncached)
        service = replay_workload(ops, concurrency=concurrency, services=cached, warm=True)

        def run_baseline_round():
            replay_workload(ops, concurrency=1, services=uncached)

        def run_warm_round():
            replay_workload(ops, concurrency=concurrency, services=cached)

        pairs = paired_rounds(ROUNDS, run_baseline_round, run_warm_round, passes=PASSES)
        benchmark.pedantic(run_warm_round, rounds=3, iterations=1)
        benchmark.extra_info["executor"] = next(iter(cached.values())).executor_config()
    finally:
        for item in list(cached.values()) + list(uncached.values()):
            item.close()

    # Both sides replay the same ops, so the time ratio is the throughput ratio.
    spread = ratio_spread(pairs)
    speedup = spread["median"]
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["ratio_spread"] = spread
    report = experiment_report(
        "service_throughput",
        f"Concurrent warm-cache service vs sequential execute "
        f"({len(datasets)} datasets, {len(ops)} ops, |M|={SERVICE_H}, median of "
        f"{ROUNDS} rounds of {PASSES} interleaved passes)",
    )
    report.add_row(
        "sequential",
        f"{baseline.throughput_qps:9.1f} q/s  "
        f"p50={baseline.latency_ms.get('p50', 0):.2f} ms  "
        f"p99={baseline.latency_ms.get('p99', 0):.2f} ms",
    )
    report.add_row(
        f"service c={concurrency}",
        f"{service.throughput_qps:9.1f} q/s  "
        f"p50={service.latency_ms.get('p50', 0):.2f} ms  "
        f"p99={service.latency_ms.get('p99', 0):.2f} ms",
    )
    report.add_row(
        "speedup",
        f"{speedup:.1f}x (median of {spread['min']:.1f}-{spread['max']:.1f}x; "
        f"required >= {MIN_SPEEDUP:.0f}x)",
    )
    report.add_row(
        "cache",
        f"hits={service.cache['hits']} misses={service.cache['misses']}",
    )

    assert baseline.errors == 0 and service.errors == 0
    assert speedup >= MIN_SPEEDUP, (
        f"warm concurrent service is only {speedup:.2f}x the sequential baseline "
        f"(median per-round ratio; per round {spread['min']:.2f}-{spread['max']:.2f}x)"
    )
