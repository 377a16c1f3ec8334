"""Maximum-weight bipartite matching (the assignment substrate).

Two interchangeable backends solve the assignment problems that Murty's
ranking and the partition-based generator create:

* ``"python"`` — a from-scratch Hungarian (Kuhn–Munkres) implementation using
  the potentials + shortest-augmenting-path formulation, O(n² m).  This is
  the reference implementation and is always available.
* ``"scipy"`` — :func:`scipy.optimize.linear_sum_assignment`, used for large
  matrices (the paper-faithful "full bipartite" baseline spans more than a
  thousand elements per side) when SciPy is installed.

``"auto"`` picks SciPy for matrices above a size threshold when available and
the pure-Python solver otherwise, so the library has no hard dependency on
SciPy.  NumPy and SciPy are imported on first use (the first solve that
picks the SciPy backend, or :func:`available_backends`), never at import
time.  The partition-based generator's per-partition problems usually stay
below the threshold, so most processes never load either library.

All solvers work on the *maximisation* problem with implicit zero-weight
"stay unmatched" edges: the returned edge set only ever contains real
(positive-weight, non-forbidden) correspondence edges.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import AssignmentError
from repro.mapping.bipartite import BipartiteGraph
from repro.matching.correspondence import CorrespondenceKey

__all__ = ["solve_max_weight_matching", "hungarian_min_cost", "available_backends"]

_SCIPY_THRESHOLD = 64  # matrix side above which "auto" prefers SciPy


@lru_cache(maxsize=1)
def _load_scipy() -> tuple[Any, Callable[..., Any]] | None:
    """Import NumPy and SciPy's solver once; ``None`` when either is unusable."""
    try:
        import numpy
        from scipy.optimize import linear_sum_assignment
    except Exception:
        return None
    return numpy, linear_sum_assignment


def available_backends() -> tuple[str, ...]:
    """Return the assignment backends usable in this environment."""
    if _load_scipy() is not None:
        return ("python", "scipy")
    return ("python",)


# --------------------------------------------------------------------------- #
# Pure-Python Hungarian algorithm (minimisation, rectangular with rows <= cols)
# --------------------------------------------------------------------------- #
def hungarian_min_cost(cost: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Solve the rectangular assignment problem, minimising total cost.

    Parameters
    ----------
    cost:
        A dense ``n x m`` cost matrix with ``n <= m`` (every row gets
        assigned to a distinct column).

    Returns
    -------
    list[tuple[int, int]]
        ``(row, column)`` pairs of the optimal assignment, one per row.

    Raises
    ------
    AssignmentError
        If the matrix is empty, ragged, or has more rows than columns.
    """
    n = len(cost)
    if n == 0:
        return []
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise AssignmentError("cost matrix is ragged")
    if n > m:
        raise AssignmentError(
            f"hungarian_min_cost requires rows <= columns, got {n} x {m}; transpose first"
        )

    infinity = float("inf")
    # Potentials for rows (u) and columns (v); p[j] is the row assigned to
    # column j (1-based, 0 means unassigned); way[j] is the previous column
    # on the alternating path.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [infinity] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = infinity
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                current = row[j - 1] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    return [(p[j] - 1, j - 1) for j in range(1, m + 1) if p[j] != 0]


# --------------------------------------------------------------------------- #
# Public solver over BipartiteGraph with forced / forbidden edges
# --------------------------------------------------------------------------- #
def solve_max_weight_matching(
    graph: BipartiteGraph,
    forced: Iterable[CorrespondenceKey] = (),
    forbidden: Iterable[CorrespondenceKey] = (),
    backend: str = "auto",
) -> tuple[float, frozenset[CorrespondenceKey]]:
    """Return the maximum-weight one-to-one matching of ``graph``.

    Parameters
    ----------
    graph:
        The bipartite to match.
    forced:
        Edges that must appear in the result.  They must be real edges of the
        graph and pairwise node-disjoint.
    forbidden:
        Edges that must not appear in the result.
    backend:
        ``"auto"``, ``"python"`` or ``"scipy"``.

    Returns
    -------
    (score, edges)
        The total weight and the set of chosen correspondence edges
        (including the forced ones).  Elements not covered by any returned
        edge are unmatched, i.e. paired with their image in the paper's
        formulation.

    Raises
    ------
    AssignmentError
        On conflicting constraints or an unavailable backend.
    """
    forced = list(forced)
    forbidden_set = set(forbidden)
    _validate_constraints(graph, forced, forbidden_set)

    forced_sources = {source_id for source_id, _ in forced}
    forced_targets = {target_id for _, target_id in forced}
    forced_score = sum(graph.weights[key] for key in forced)

    rows = [s for s in graph.source_ids if s not in forced_sources]
    cols = [t for t in graph.target_ids if t not in forced_targets]

    free_weights = {
        (source_id, target_id): weight
        for (source_id, target_id), weight in graph.weights.items()
        if source_id not in forced_sources
        and target_id not in forced_targets
        and (source_id, target_id) not in forbidden_set
    }

    if not free_weights or not rows or not cols:
        return forced_score, frozenset(forced)

    chosen = _solve_dense(rows, cols, free_weights, backend)
    score = forced_score + sum(graph.weights[key] for key in chosen)
    return score, frozenset(forced) | chosen


def _validate_constraints(
    graph: BipartiteGraph,
    forced: list[CorrespondenceKey],
    forbidden: set[CorrespondenceKey],
) -> None:
    seen_sources: set[int] = set()
    seen_targets: set[int] = set()
    for key in forced:
        if key not in graph.weights:
            raise AssignmentError(f"forced edge {key} is not an edge of the graph")
        if key in forbidden:
            raise AssignmentError(f"edge {key} is both forced and forbidden")
        source_id, target_id = key
        if source_id in seen_sources or target_id in seen_targets:
            raise AssignmentError("forced edges are not node-disjoint")
        seen_sources.add(source_id)
        seen_targets.add(target_id)


def _solve_dense(
    rows: list[int],
    cols: list[int],
    weights: dict[CorrespondenceKey, float],
    backend: str,
) -> frozenset[CorrespondenceKey]:
    """Solve the free part of the problem on a dense matrix."""
    if backend not in ("auto", "python", "scipy"):
        raise AssignmentError(f"unknown assignment backend {backend!r}")
    wants_scipy = backend == "scipy" or (
        backend == "auto" and max(len(rows), len(cols)) > _SCIPY_THRESHOLD
    )
    scipy = _load_scipy() if wants_scipy else None
    if scipy is None and backend == "scipy":
        raise AssignmentError("the scipy backend was requested but SciPy is not installed")

    row_index = {source_id: i for i, source_id in enumerate(rows)}
    col_index = {target_id: j for j, target_id in enumerate(cols)}

    if scipy is not None:
        numpy, linear_sum_assignment = scipy
        matrix = numpy.zeros((len(rows), len(cols)), dtype=float)
        for (source_id, target_id), weight in weights.items():
            matrix[row_index[source_id], col_index[target_id]] = weight
        assigned_rows, assigned_cols = linear_sum_assignment(matrix, maximize=True)
        pairs = zip(assigned_rows.tolist(), assigned_cols.tolist())
    else:
        # Maximise by minimising (max_weight - w); implicit zero edges become
        # max_weight, so they are only used when nothing better is available.
        max_weight = max(weights.values())
        transposed = len(rows) > len(cols)
        if transposed:
            size_r, size_c = len(cols), len(rows)
        else:
            size_r, size_c = len(rows), len(cols)
        cost = [[max_weight] * size_c for _ in range(size_r)]
        for (source_id, target_id), weight in weights.items():
            i, j = row_index[source_id], col_index[target_id]
            if transposed:
                cost[j][i] = max_weight - weight
            else:
                cost[i][j] = max_weight - weight
        solution = hungarian_min_cost(cost)
        if transposed:
            pairs = ((i, j) for j, i in solution)
        else:
            pairs = iter(solution)

    chosen: set[CorrespondenceKey] = set()
    for i, j in pairs:
        key = (rows[i], cols[j])
        if key in weights:
            chosen.add(key)
    return frozenset(chosen)
