"""A planted wrong answer must be counted as a failure."""

import gen
import layers
import worker


def test_planted_wrong_reference_fails_every_op_of_its_key():
    workload = worker.EvalJoin(1)
    workload.start()
    try:
        planted = gen.JOIN_QUERIES[0]
        answers = list(workload.reference[planted])
        first = answers[0]
        answers[0] = type(first)(
            mapping_id=first.mapping_id,
            probability=first.probability / 2,
            matches=first.matches,
        )
        workload.reference[planted] = answers
        phase = workload.run(worker.Limit(ops=30))
        assert phase.attempted == 30
        # Each block of three ops runs every shape once.
        assert phase.failed == 10
        assert workload.check() == (3, 1)
    finally:
        workload.close()


def test_write_mix_oracle_counts_planted_wrong_reads_and_replays():
    workload = worker.WriteMix(1)
    workload.start()
    try:
        phase = workload.run(worker.Limit(ops=120))
        assert phase.failed == 0 and len(workload.batches) == 6
        checked, failed = workload.check()
        assert failed == 0 and checked > 0

        samples = workload.samples[0]
        key, _ = samples[0]
        other = next(k for k in workload.keys if k[0] != key[0])
        samples[0] = (key, workload.session.execute(other[0], k=other[1], use_cache=False))
        log = next(log for log in workload.updates.values() if len(log) > 1)
        del log[-1]
        assert workload.check() == (checked, 2)
    finally:
        workload.close()


def test_reads_outside_the_measured_population_count_as_failed():
    counts = {name: 0 for name in layers.COUNTERS}
    counts.update({"result.hits": 900, "result.misses": 3})
    # remote-hot measures hits: each miss is a failed op.
    assert worker.off_population("remote-hot", counts) == 3
    # write-mix measures misses: a mostly-hit phase fails every read.
    assert worker.off_population("write-mix", counts) == 903
    counts.update({"result.hits": 100, "result.misses": 800, "result.retained": 80})
    assert worker.off_population("write-mix", counts) == 0
    assert worker.off_population("eval-join", counts) == 0
