"""Seeded random graph generators for the property suites and CLI checks.

Each candidate pair i < j (every pair, or every cross pair) takes one uniform
draw in row-major order. All k draws come from one ``rng.random(k)`` call,
which consumes the stream exactly as k scalar draws, so a seed gives the same
graph as drawing pair by pair.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _matrix_rows


def _graph_from_pairs(n: int, pairs: np.ndarray, p: float, rng: np.random.Generator) -> Graph:
    """Keep each pair marked in the boolean strict upper triangle ``pairs`` with
    probability p; the draws fill the marked cells in row-major order."""
    a = np.zeros((n, n), dtype=np.uint8)
    a.T[pairs] = rng.random(np.count_nonzero(pairs)) < p  # into the lower triangle
    return Graph._unchecked(n, _matrix_rows(a))


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    return _graph_from_pairs(n, ~np.tri(n, dtype=bool), p, rng)


def random_connected_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Random graph plus a random spanning tree, so always connected."""
    g = random_graph(n, p, rng)
    rows = list(g.rows)
    order = [int(t) for t in rng.permutation(n)]
    for k in range(1, n):
        a = order[k]
        b = order[int(rng.integers(0, k))]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph._unchecked(n, tuple(rows))


def random_multipartite(n: int, r: int, p: float, rng: np.random.Generator) -> Graph:
    """Random vertex classes, each cross pair kept with probability p.

    The result is r-partite by construction, hence free of (r+1)-cliques.
    """
    # scalar class draws: a vector integers() call consumes the stream differently
    classes = np.array([int(rng.integers(0, r)) for _ in range(n)], dtype=np.int64)
    cross = ~np.tri(n, dtype=bool) & (classes[:, None] != classes)
    return _graph_from_pairs(n, cross, p, rng)
