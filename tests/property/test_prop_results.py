"""Property tests: a cell-shaped PTQ result reads exactly like its answer rows.

A result holds disjoint ``(mask, match set)`` cells, a probability column
and the column's ranking, and builds its ``PTQAnswer`` rows only when they
are read.  Every read path is checked here against an eager reference: the
rows built one per mapping and ordered with ``rank_by_probability``, and
each aggregation accumulated row by row.  Probabilities are drawn from a
small pool with ties and both signed zeros, and equal match sets may sit in
different cells.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.serialize import canonical_json, result_to_json
from repro.engine.compiled import CompiledMappingSet
from repro.query.results import PTQAnswer, PTQResult, rank_by_probability

#: Probabilities with ties and both zeros (which compare equal).
_PROBABILITIES = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.25, 0.5, 1e-300])
#: Match sets over a three-node query; node 0 is the output node.
_MATCH_SETS = (
    frozenset(),
    frozenset({((0, 1), (1, 2))}),
    frozenset({((0, 1), (1, 2)), ((0, 3), (1, 4))}),
    frozenset({((0, 5),), ((0, 3),)}),
    frozenset({((1, 2),)}),
)
#: Document node -> text value (None for a node without text).
_VALUES = {1: "Alice", 2: "x", 3: "Bob", 4: None, 5: "Alice"}

QUERY = SimpleNamespace(text="//A/B", output_node=SimpleNamespace(node_id=0))
DOCUMENT = SimpleNamespace(get=lambda node_id: SimpleNamespace(value=_VALUES[node_id]))


@st.composite
def _results(draw):
    """A column, the answering ids, each id's set index and cell label."""
    size = draw(st.integers(1, 40))
    column = tuple(draw(st.lists(_PROBABILITIES, min_size=size, max_size=size)))
    members = draw(st.sets(st.integers(0, size - 1), max_size=size))
    # Each member gets a match set and a cell label; two labels may carry
    # equal sets (built separately), so equal sets can sit in two cells.
    assignment = {
        mapping_id: (draw(st.integers(0, len(_MATCH_SETS) - 1)), draw(st.integers(0, 1)))
        for mapping_id in sorted(members)
    }
    return column, assignment


def _cells(assignment):
    masks: dict = {}
    for mapping_id, label in assignment.items():
        masks[label] = masks.get(label, 0) | 1 << mapping_id
    # A fresh (equal, not identical) set object per cell.
    return [(mask, frozenset(set(_MATCH_SETS[label[0]]))) for label, mask in masks.items()]


def _ranked(column):
    """The column's ranking, from the compiled artifact's own code."""
    view = SimpleNamespace(probabilities=column, num_mappings=len(column), _ranked=None)
    return CompiledMappingSet.ranked_ids(view)


def _reference_rows(column, assignment):
    return rank_by_probability(
        PTQAnswer(mapping_id, column[mapping_id], _MATCH_SETS[set_index])
        for mapping_id, (set_index, _) in assignment.items()
    )


def _hex(rows):
    return [(row.mapping_id, row.probability.hex(), row.matches) for row in rows]


def _hex_items(distribution):
    return [(key, value.hex()) for key, value in distribution.items()]


def _reference_patterns(rows):
    distribution: dict = {}
    for row in rows:
        distribution[row.matches] = distribution.get(row.matches, 0.0) + row.probability
    return distribution


def _reference_values(rows):
    distribution: dict = {}
    for row in rows:
        values = set()
        for match in row.matches:
            for query_node_id, document_node_id in match:
                if query_node_id == 0:
                    values.add(_VALUES[document_node_id])
        for value in values:
            distribution[value] = distribution.get(value, 0.0) + row.probability
    return distribution


def _both(column, assignment):
    """The same answers as a cell result and as a row-built result."""
    reference = _reference_rows(column, assignment)
    cells = PTQResult.from_cells(
        QUERY, _cells(assignment), column, _ranked(column), document=DOCUMENT
    )
    rows = PTQResult(QUERY, list(reversed(reference)), document=DOCUMENT)
    return reference, (cells, rows)


class TestRowView:
    @settings(max_examples=150, deadline=None)
    @given(_results(), st.integers(0, 45))
    def test_rows_order_slices_and_length(self, drawn, k):
        column, assignment = drawn
        reference, results = _both(column, assignment)
        for result in results:
            assert _hex(result.answers[:k]) == _hex(reference[:k])
            if reference:
                assert _hex([result.answers[-1]]) == _hex([reference[-1]])
            assert len(result) == len(result.answers) == len(reference)
            assert _hex(result) == _hex(reference)
            assert _hex(result.answers) == _hex(result.answers) == _hex(reference)
            assert _hex(result.answers[:k]) == _hex(reference[:k])
            assert result.answers is result.answers
            assert list(result.answers) == reference

    @settings(max_examples=150, deadline=None)
    @given(_results(), st.integers(-2, 45))
    def test_answer_for(self, drawn, mapping_id):
        column, assignment = drawn
        reference, results = _both(column, assignment)
        expected = [row for row in reference if row.mapping_id == mapping_id]
        for result in results:
            answer = result.answer_for(mapping_id)
            if expected:
                assert _hex([answer]) == _hex(expected)
            else:
                assert answer is None

    @settings(max_examples=150, deadline=None)
    @given(_results())
    def test_aggregations(self, drawn):
        column, assignment = drawn
        reference, results = _both(column, assignment)
        total = sum(row.probability for row in reference)
        for result in results:
            # An empty sum is the int 0, as it was for eager rows.
            got = result.total_probability()
            assert (type(got), float(got).hex()) == (type(total), float(total).hex())
            assert _hex(result.non_empty()) == _hex([row for row in reference if row.matches])
            assert _hex_items(result.pattern_distribution()) == _hex_items(
                _reference_patterns(reference)
            )
            assert _hex_items(result.value_distribution()) == _hex_items(
                _reference_values(reference)
            )

    @settings(max_examples=100, deadline=None)
    @given(_results())
    def test_wire_bytes(self, drawn):
        column, assignment = drawn
        reference, results = _both(column, assignment)
        expected = canonical_json(result_to_json(reference))
        for result in results:
            assert canonical_json(result_to_json(result)) == expected
