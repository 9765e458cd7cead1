"""Seeded random graph generators for the property suites and CLI checks."""

from __future__ import annotations

import numpy as np

from .graphs import Graph


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._unchecked(n, tuple(rows))


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
    classes = [int(rng.integers(0, r)) for _ in range(n)]
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if classes[i] != classes[j] and rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._unchecked(n, tuple(rows))
