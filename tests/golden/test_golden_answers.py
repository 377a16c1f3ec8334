"""Golden regression fixtures: PTQ answers on D1–D10, snapshot-compared.

Each dataset has a JSON snapshot under ``tests/golden/data/`` holding the
canonical serialisation of the answers to a fixed, deterministic query set
(:func:`repro.service.workload_queries`).  The snapshots are *generated from
the seed free functions* (``evaluate_ptq_blocktree``) and *asserted against
the concurrent service path* (warm-cache ``QueryService.execute_many``), so
they prove byte-identical answers across the whole stack and pin them down
for future perf refactors.

Regenerate after an intentional answer change with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

Probabilities are serialised with ``float.hex()`` — exact, platform-stable
representations — so "byte-identical" means exactly that.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.serialize import result_to_json
from repro.engine import Dataspace
from repro.query.parser import parse_twig
from repro.query.ptq import evaluate_ptq_blocktree
from repro.service import QueryService, workload_queries
from repro.workloads.datasets import DATASET_IDS
from repro.workloads.queries import QUERY_ALIASES, QUERY_STRINGS, load_query

#: Bitset kernels the compiled plan runs on.  Python ints are the only
#: implementation; the axis keeps each snapshot's case id naming them.
KERNELS = ("python",)

#: Mapping-set size for the golden fixtures (kept small so all ten datasets
#: stay cheap to build; the differential suites cover other sizes).
GOLDEN_H = 25
#: Queries per dataset.
GOLDEN_QUERIES = 5

DATA_DIR = Path(__file__).parent / "data"


def golden_path(dataset_id: str) -> Path:
    return DATA_DIR / f"{dataset_id}.json"


def twig_for(query: str):
    """Parse a workload query exactly as the seed pipeline would."""
    if query.upper() in QUERY_STRINGS:
        return load_query(query)
    return parse_twig(query, aliases=QUERY_ALIASES)


def canonical_result(result) -> dict:
    """Canonical, byte-stable serialisation of a PTQResult.

    Delegates to the library-wide codec (:mod:`repro.api.serialize`) — the
    same one the CLI's ``--json`` and the network server emit — so these
    snapshots pin every serving surface at once.  The existing snapshot
    files predate the shared codec and remain valid unchanged because the
    codec emits exactly this historical shape.
    """
    return result_to_json(result)


def serialize(dataset_id: str, results: dict[str, dict]) -> str:
    payload = {
        "dataset": dataset_id,
        "h": GOLDEN_H,
        "queries": results,
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("dataset_id", DATASET_IDS)
def test_golden_answers(dataset_id, kernels, update_golden):
    queries = workload_queries(dataset_id, limit=GOLDEN_QUERIES)
    session = Dataspace.from_dataset(dataset_id, h=GOLDEN_H)
    assert kernels == "python" and type(session.compiled.all_mask) is int
    # The service path below runs the engine's default plan — the compiled
    # bitset core — so these snapshots pin the compiled plan byte-exactly
    # against answers generated from the seed free functions.
    assert all(
        session.plan_decision(session.prepare(query)) == "compiled"
        for query in queries
    )

    if update_golden:
        # Regenerate from the *seed free functions* — the reference the
        # service path is later held to.
        mapping_set = session.mapping_set
        document = session.document
        block_tree = session.block_tree
        reference = {
            query: canonical_result(
                evaluate_ptq_blocktree(twig_for(query), mapping_set, document, block_tree)
            )
            for query in queries
        }
        DATA_DIR.mkdir(exist_ok=True)
        golden_path(dataset_id).write_text(serialize(dataset_id, reference))
        pytest.skip(f"golden snapshot for {dataset_id} regenerated")

    path = golden_path(dataset_id)
    assert path.exists(), (
        f"missing golden snapshot {path}; run pytest tests/golden --update-golden"
    )
    golden = path.read_text()

    # Serve the same queries through the concurrent, cached service path —
    # twice, so the second pass answers from a warm result cache.
    with QueryService(session, max_workers=4) as service:
        cold = service.execute_many(queries)
        warm = service.execute_many(queries)
    cold_serialized = serialize(
        dataset_id, {q: canonical_result(r) for q, r in zip(queries, cold)}
    )
    warm_serialized = serialize(
        dataset_id, {q: canonical_result(r) for q, r in zip(queries, warm)}
    )
    assert warm_serialized == cold_serialized
    assert cold_serialized == golden, (
        f"{dataset_id}: service answers diverge from the golden snapshot; if the "
        "change is intentional, regenerate with --update-golden"
    )
    # The warm pass must actually have been served by the cache.
    assert session.result_cache.stats().hits >= len(queries)


