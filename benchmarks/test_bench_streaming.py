"""Standing-query notification gate: incremental notify vs re-execute-all.

The streaming engine's performance claim (ISSUE 10) is that a committed
delta batch *notifies* every standing query instead of forcing each one to
re-run.  This gate pins it on the paper's headline dataset: with **40
standing queries** (the ten Table III queries, each subscribed full and at
three top-k restrictions) over **400 mappings**, a delta batch touching
**10 mappings** (<=10%) must be served **>=10x** cheaper through the
notification path —
classification from the batch's dirty masks plus rescoring of cached rows —
than re-executing every standing query from scratch.

The second claim measured here is that *unaffected* subscribers cost O(1):
a structural batch whose edits fall outside every standing query's
required-target set is classified by pure mask tests, so its cost per
subscriber is a bitwise AND, not an evaluation.  The per-subscriber overhead
is measured by timing the same unaffected batch with and without the
subscriber population and recorded in ``extra_info`` (and with it in the
``BENCH_<run>.json`` perf-trajectory artifact), alongside the notify/re-run
ratio and the registry's classification counters.

Design notes for CI (this file runs in the workflow's perf-trajectory job):

* **ratio-only assertions** — both sides are timed in one process on the
  same machine, so absolute speed cancels out;
* **mass-preserving rotations** — the timed reweight batches rotate the
  probabilities of the touched mappings, so every round does real rescoring
  work and the state cycles through fixed points;
* **alternating structural edits** — the unaffected rounds retract and
  restore correspondences outside every query's target set, the exact case
  the mask classification is built to recognise.
"""

from __future__ import annotations

from repro.engine import Dataspace, MappingDelta
from repro.engine.streaming import DeltaBatch
from repro.workloads.queries import load_query

from _workloads import best_of, paired_rounds, ratio_spread

#: Required speedup of notifying all standing queries over re-running them.
MIN_SPEEDUP = 10.0
#: Mapping-set size and the number of mappings each batch touches (<=10%).
NUM_MAPPINGS = 400
TOUCHED = 10
#: Timed rounds per side (best-of).
ROUNDS = 4

#: The paper's ten Table III queries; each is subscribed at four top-k
#: restrictions (full, top-10, top-20, top-50), giving forty standing
#: queries.  The k values sit at or beyond the rotated block boundary so the
#: steady-state rounds are pure reweights (top-k membership is stable); the
#: entrant/eviction path is covered by the unit and property suites.
QUERIES = tuple(load_query(f"Q{i}") for i in range(1, 11))
TOP_KS = (None, 10, 20, 50)


def rotation_batch(session) -> DeltaBatch:
    """A mass-preserving probability rotation over the touched mappings."""
    mapping_set = session.mapping_set
    probabilities = [mapping_set[i].probability for i in range(TOUCHED)]
    rotated = {
        i: probabilities[(i + 1) % TOUCHED] for i in range(TOUCHED)
    }
    return DeltaBatch.of(MappingDelta.build(reweight=rotated))


def pick_edits(session) -> list:
    """One removable pair per touched mapping, outside every query's targets."""
    query_targets = 0
    for query in QUERIES:
        query_targets |= session.prepare(query).required_target_mask()
    edits = []
    for mapping in session.mapping_set:
        for pair in sorted(mapping.correspondences):
            if not (query_targets >> pair[1]) & 1:
                edits.append((mapping.mapping_id, pair))
                break
        if len(edits) == TOUCHED:
            break
    assert len(edits) == TOUCHED, (
        f"could only find {len(edits)} of {TOUCHED} edit sites outside the "
        "query target set"
    )
    return edits


def test_streaming_notification_speedup(benchmark, experiment_report):
    session = Dataspace.from_dataset("D7", h=NUM_MAPPINGS)
    received = [0]
    handles = [
        session.subscribe(query, k=k, callback=lambda update: received.__setitem__(0, received[0] + 1))
        for query in QUERIES
        for k in TOP_KS
    ]
    num_subscribers = len(handles)
    assert received[0] == num_subscribers  # one initial baseline each

    # The re-run side models a non-incremental system on a *mirror* session
    # with no subscribers: it pays the same batch commit, then re-executes
    # every standing query from scratch.
    mirror = Dataspace.from_dataset("D7", h=NUM_MAPPINGS)
    mirror.compiled  # the notify session's commits patch a compiled artifact

    def notify_round():
        session.apply_delta_batch(rotation_batch(session))

    def rerun_round():
        mirror.apply_delta_batch(rotation_batch(mirror))
        for query in QUERIES:
            for k in TOP_KS:
                mirror.execute(query, k=k, use_cache=False)

    # Sanity before timing: the rotation actually reaches subscribers.
    notify_round()
    assert received[0] > num_subscribers, "the reweight batch notified nobody"

    notify_time, _ = best_of(ROUNDS, notify_round)
    rerun_time, _ = best_of(ROUNDS, rerun_round)
    speedup = rerun_time / notify_time if notify_time > 0 else float("inf")
    # Recorded, not gated: in alternating rounds every notify batch follows a
    # re-run and starts with cold caches, so the per-round ratio reads lower
    # than the steady-state best-of ratio the gate asserts.
    spread = ratio_spread(paired_rounds(ROUNDS, rerun_round, notify_round))

    # Unaffected classification: structural edits outside every standing
    # query's required-target set must cost mask tests only.
    edits = pick_edits(session)
    removed = [False]

    def unaffected_round():
        delta = (
            MappingDelta.build(add=edits)
            if removed[0]
            else MappingDelta.build(remove=edits)
        )
        removed[0] = not removed[0]
        session.apply_delta_batch(DeltaBatch.of(delta))

    before = session.subscriptions.stats()
    unaffected_with, _ = best_of(ROUNDS, unaffected_round)
    after = session.subscriptions.stats()
    classified = after["unaffected"] - before["unaffected"]
    assert classified == ROUNDS * num_subscribers, (
        f"expected every standing query unaffected each round, got {classified}"
    )

    # Record the notify round in the pytest-benchmark JSON so the CI
    # perf-trajectory artifact carries an absolute series for this gate too.
    benchmark.pedantic(notify_round, rounds=ROUNDS, iterations=1)

    # Per-subscriber overhead of an unaffected commit: the same batch timed
    # with the population cancelled isolates the mask-test cost.
    for handle in handles:
        handle.cancel()
    unaffected_without, _ = best_of(ROUNDS, unaffected_round)
    per_subscriber_us = max(0.0, unaffected_with - unaffected_without) / num_subscribers * 1e6

    stats = session.subscriptions.stats()
    benchmark.extra_info["subscribers"] = num_subscribers
    benchmark.extra_info["standing_queries"] = num_subscribers
    benchmark.extra_info["touched_mappings"] = TOUCHED
    benchmark.extra_info["num_mappings"] = NUM_MAPPINGS
    benchmark.extra_info["notify_ms"] = notify_time * 1e3
    benchmark.extra_info["rerun_ms"] = rerun_time * 1e3
    benchmark.extra_info["notify_speedup"] = speedup
    benchmark.extra_info["ratio_spread"] = spread
    benchmark.extra_info["unaffected_round_ms"] = unaffected_with * 1e3
    benchmark.extra_info["unaffected_per_subscriber_us"] = per_subscriber_us
    benchmark.extra_info["classified"] = {
        "unaffected": stats["unaffected"],
        "reweight_only": stats["reweight_only"],
        "structural": stats["structural"],
    }

    report = experiment_report(
        "streaming_notify",
        f"notify {num_subscribers} standing queries on a batch touching "
        f"{TOUCHED}/{NUM_MAPPINGS} mappings vs re-executing them (D7)",
    )
    report.add_row("notify all", f"{notify_time * 1000:8.2f} ms per batch")
    report.add_row("re-run all", f"{rerun_time * 1000:8.2f} ms per batch")
    report.add_row("speedup", f"{speedup:.1f}x (required >= {MIN_SPEEDUP:.0f}x)")
    report.add_row(
        "alternating rounds",
        f"{spread['median']:.1f}x median of {spread['min']:.1f}-{spread['max']:.1f}x "
        f"over {spread['rounds']} rounds (recorded, not gated)",
    )
    report.add_row(
        "unaffected commit", f"{unaffected_with * 1000:8.2f} ms per batch"
    )
    report.add_row(
        "unaffected overhead", f"{per_subscriber_us:8.2f} us per subscriber"
    )
    report.add_row("notifications delivered", received[0])

    assert stats["callback_errors"] == 0 and stats["update_errors"] == 0
    assert speedup >= MIN_SPEEDUP, (
        f"notifying standing queries is only {speedup:.2f}x re-running them "
        f"({notify_time * 1000:.2f} ms vs {rerun_time * 1000:.2f} ms)"
    )
