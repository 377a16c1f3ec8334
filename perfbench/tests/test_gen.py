import itertools
from collections import Counter

import gen
import worker


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_streams_repeat_for_a_seed_and_differ_across_seeds():
    for make in (
        lambda seed: gen.zipf_stream(32, seed, "conn0"),
        lambda seed: gen.uniform_stream(32, seed, "reads"),
        gen.write_mix_ops,
        gen.sampled_epochs,
    ):
        assert take(make(7), 2000) == take(make(7), 2000)
        assert take(make(7), 2000) != take(make(8), 2000)


def test_block_frequencies_are_exact_whatever_the_seed():
    counts = gen.exact_counts([1.0 / r for r in range(1, 33)], 256)
    assert sum(counts) == 256 and min(counts) >= 1
    for seed in (1, 2):
        block = Counter(take(gen.zipf_stream(32, seed, "conn0"), 256))
        assert [block[i] for i in range(32)] == counts
    ops = Counter(take(gen.write_mix_ops(3), 400))
    assert ops == {"read": 380, "rotate": 14, "outside": 3, "inside": 3}


def test_catalogue_repeats_for_a_seed():
    def fingerprint(seed):
        session = gen.build_catalogue(seed)
        nodes = [(n.element_id, n.value) for n in session.document.iter_preorder()]
        probabilities = [m.probability for m in session.mapping_set]
        return nodes, probabilities

    first = fingerprint(5)
    assert first == fingerprint(5)
    assert first != fingerprint(6)
    nodes, _ = first
    assert sum(1 for _, value in nodes if value and value.startswith("c")) == gen.CATALOGUE_PRODUCTS


def _wide_mapping_set():
    from repro.mapping.mapping import Mapping
    from repro.mapping.mapping_set import MappingSet

    base = gen.build_catalogue(1).mapping_set
    mappings = [
        Mapping(i, base[i % len(base)].correspondences, score=1.0 + i % 7)
        for i in range(gen.ROTATE_SIZE * gen.ROTATION_SETS + 10)
    ]
    return MappingSet(base.matching, mappings)


def test_delta_stream_repeats_for_a_seed():
    mapping_set = _wide_mapping_set()
    name_target = max(t for _, (_, t) in [(0, p) for p in mapping_set[0].correspondences])
    mask = 1 << name_target

    def payloads(seed):
        stream = gen.DeltaStream(seed, mapping_set, mask)
        kinds = take(gen.write_mix_ops(seed), 800)
        return [
            stream.next(kind, mapping_set).to_payload() for kind in kinds if kind != "read"
        ]

    first = payloads(4)
    assert first == payloads(4)
    assert first != payloads(5)
    assert sorted(map(repr, first)) == sorted(map(repr, payloads(5)))


def test_workload_op_streams_repeat_for_a_seed():
    def ops(seed):
        workload = worker.EvalJoin(seed)
        workload.start()
        try:
            return [workload.next_op() for _ in range(30)]
        finally:
            workload.close()

    assert ops(2) == ops(2)
    assert ops(2) != ops(3)
