"""Tests for the bipartite graph and the assignment solvers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import AssignmentError
from repro.mapping import assignment
from repro.mapping.assignment import (
    available_backends,
    hungarian_min_cost,
    solve_max_weight_matching,
)
from repro.mapping.bipartite import BipartiteGraph
from repro.matching.matching import SchemaMatching
from repro.schema.parser import parse_schema


@pytest.fixture()
def small_graph():
    # Figure 7-style bipartite: four source elements, three target elements.
    weights = {
        (0, 0): 0.9,
        (0, 1): 0.4,
        (1, 0): 0.5,
        (1, 1): 0.8,
        (2, 2): 0.7,
        (3, 2): 0.6,
    }
    return BipartiteGraph([0, 1, 2, 3], [0, 1, 2], weights)


class TestBipartiteGraph:
    def test_size_and_edges(self, small_graph):
        assert small_graph.size == 7
        assert small_graph.num_edges == 6
        assert small_graph.max_weight() == 0.9

    def test_edge_nodes_validated(self):
        with pytest.raises(AssignmentError):
            BipartiteGraph([0], [0], {(5, 0): 0.5})

    def test_negative_weight_rejected(self):
        with pytest.raises(AssignmentError):
            BipartiteGraph([0], [0], {(0, 0): -0.5})

    def test_from_matching_full_and_reduced(self):
        source = parse_schema("S\n  a\n  b\n  c\n", name="src")
        target = parse_schema("T\n  x\n", name="tgt")
        matching = SchemaMatching(source, target)
        matching.add_pair(1, 1, 0.5)
        full = BipartiteGraph.from_matching(matching, include_unmatched_elements=True)
        reduced = BipartiteGraph.from_matching(matching, include_unmatched_elements=False)
        assert full.size == len(source) + len(target)
        assert reduced.size == 2

    def test_connected_components(self):
        weights = {(0, 0): 1.0, (1, 0): 0.5, (2, 1): 0.7, (3, 2): 0.3}
        graph = BipartiteGraph([0, 1, 2, 3], [0, 1, 2], weights)
        components = graph.connected_components()
        assert len(components) == 3
        assert sum(c.num_edges for c in components) == graph.num_edges
        sizes = sorted(c.size for c in components)
        assert sizes == [2, 2, 3]

    def test_components_are_node_disjoint(self, small_graph):
        components = small_graph.connected_components()
        seen_sources: set[int] = set()
        for component in components:
            assert not (set(component.source_ids) & seen_sources)
            seen_sources.update(component.source_ids)

    def test_restrict(self, small_graph):
        sub = small_graph.restrict([(0, 0), (1, 1)])
        assert sub.num_edges == 2
        assert sub.source_ids == [0, 1]
        with pytest.raises(AssignmentError):
            small_graph.restrict([(9, 9)])


class TestHungarian:
    def test_empty(self):
        assert hungarian_min_cost([]) == []

    def test_identity_optimal(self):
        cost = [
            [0.0, 5.0, 5.0],
            [5.0, 0.0, 5.0],
            [5.0, 5.0, 0.0],
        ]
        assert sorted(hungarian_min_cost(cost)) == [(0, 0), (1, 1), (2, 2)]

    def test_classic_example(self):
        cost = [
            [4.0, 1.0, 3.0],
            [2.0, 0.0, 5.0],
            [3.0, 2.0, 2.0],
        ]
        assignment = hungarian_min_cost(cost)
        total = sum(cost[i][j] for i, j in assignment)
        assert total == pytest.approx(5.0)

    def test_rectangular_rows_less_than_cols(self):
        cost = [
            [1.0, 9.0, 9.0, 0.5],
            [9.0, 1.0, 9.0, 9.0],
        ]
        assignment = hungarian_min_cost(cost)
        assert len(assignment) == 2
        total = sum(cost[i][j] for i, j in assignment)
        assert total == pytest.approx(1.5)

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(AssignmentError):
            hungarian_min_cost([[1.0], [2.0]])

    def test_ragged_rejected(self):
        with pytest.raises(AssignmentError):
            hungarian_min_cost([[1.0, 2.0], [1.0]])


class TestSolveMaxWeightMatching:
    def test_unconstrained_optimum(self, small_graph):
        score, edges = solve_max_weight_matching(small_graph, backend="python")
        assert score == pytest.approx(0.9 + 0.8 + 0.7)
        assert edges == {(0, 0), (1, 1), (2, 2)}

    def test_backends_agree(self, small_graph):
        python_score, python_edges = solve_max_weight_matching(small_graph, backend="python")
        if "scipy" in available_backends():
            scipy_score, scipy_edges = solve_max_weight_matching(small_graph, backend="scipy")
            assert scipy_score == pytest.approx(python_score)
            assert scipy_edges == python_edges

    def test_forbidden_edge_respected(self, small_graph):
        score, edges = solve_max_weight_matching(
            small_graph, forbidden=[(2, 2)], backend="python"
        )
        assert (2, 2) not in edges
        assert score == pytest.approx(0.9 + 0.8 + 0.6)

    def test_forced_edge_respected(self, small_graph):
        score, edges = solve_max_weight_matching(small_graph, forced=[(1, 0)], backend="python")
        assert (1, 0) in edges
        # Forcing (1, 0) excludes (0, 0) and (1, 1); best completion uses (0, 1) and (2, 2).
        assert score == pytest.approx(0.5 + 0.4 + 0.7)

    def test_forced_and_forbidden_conflict(self, small_graph):
        with pytest.raises(AssignmentError):
            solve_max_weight_matching(small_graph, forced=[(0, 0)], forbidden=[(0, 0)])

    def test_forced_must_be_edge(self, small_graph):
        with pytest.raises(AssignmentError):
            solve_max_weight_matching(small_graph, forced=[(0, 2)])

    def test_forced_must_be_disjoint(self, small_graph):
        with pytest.raises(AssignmentError):
            solve_max_weight_matching(small_graph, forced=[(0, 0), (0, 1)])

    def test_everything_forbidden_gives_empty(self, small_graph):
        score, edges = solve_max_weight_matching(
            small_graph, forbidden=list(small_graph.weights), backend="python"
        )
        assert score == 0.0
        assert edges == frozenset()

    def test_unknown_backend_rejected(self, small_graph):
        with pytest.raises(AssignmentError):
            solve_max_weight_matching(small_graph, backend="gpu")

    def test_partial_matching_better_unmatched(self):
        # A single source element with two low-weight options and one target
        # element with a high-weight option elsewhere: the solver must not be
        # forced into using low-value edges (they are still positive, so it
        # takes them, but unmatched elements are simply absent).
        graph = BipartiteGraph([0, 1], [0], {(0, 0): 0.9, (1, 0): 0.2})
        score, edges = solve_max_weight_matching(graph, backend="python")
        assert edges == {(0, 0)}
        assert score == pytest.approx(0.9)

    def test_edgeless_graph(self):
        graph = BipartiteGraph([0, 1], [0, 1], {})
        score, edges = solve_max_weight_matching(graph, backend="python")
        assert score == 0.0
        assert edges == frozenset()


def large_graph(side: int = 70) -> BipartiteGraph:
    """A graph whose side exceeds the size above which "auto" prefers SciPy."""
    weights = {(i, (i * 7) % side): 0.5 + (i % 5) / 10 for i in range(side)}
    weights.update({(i, (i * 7 + 1) % side): 0.3 for i in range(side)})
    return BipartiteGraph(list(range(side)), list(range(side)), weights)


@pytest.fixture()
def scipy_unavailable(monkeypatch):
    """Make ``import scipy.optimize`` fail, with a fresh solver loader."""
    assignment._load_scipy.cache_clear()
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    yield
    assignment._load_scipy.cache_clear()


class TestLazySciPy:
    def test_auto_falls_back_to_python_without_scipy(self, scipy_unavailable, monkeypatch):
        calls = []
        solve = assignment.hungarian_min_cost
        monkeypatch.setattr(
            assignment, "hungarian_min_cost", lambda cost: calls.append(1) or solve(cost)
        )
        graph = large_graph()
        assert available_backends() == ("python",)
        auto = solve_max_weight_matching(graph, backend="auto")
        assert calls
        assert auto == solve_max_weight_matching(graph, backend="python")

    def test_scipy_backend_raises_without_scipy(self, scipy_unavailable, small_graph):
        with pytest.raises(AssignmentError):
            solve_max_weight_matching(small_graph, backend="scipy")

    def test_serving_stack_never_imports_scipy_or_numpy(self):
        src = Path(assignment.__file__).resolve().parents[2]
        script = (
            "import sys\n"
            "import repro, repro.engine, repro.net, repro.service, repro.cli\n"
            "repro.Dataspace.from_dataset('D7', h=100).mapping_set\n"
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert completed.stdout.strip() == "[]"
