"""The canonical certificate against networkx as an independent isomorphism
oracle: equal certificates exactly for isomorphic graphs, and invariance
under relabelling."""

import random
from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from spexlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edges,
    make_multipartite,
)
from spexlab.search import are_isomorphic, canonical_certificate


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@st.composite
def graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [p for p, keep in zip(pairs, chosen) if keep])


@st.composite
def regular_graphs(draw) -> Graph:
    """Random regular graphs: colour refinement leaves them as one cell, so
    only individualisation can tell their vertices apart."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d + 1, 8).filter(lambda k: k * d % 2 == 0))
    h = nx.random_regular_graph(d, n, seed=draw(st.integers(0, 2**32 - 1)))
    return from_edges(n, h.edges())


def any_graphs():
    return st.one_of(graphs(), regular_graphs())


@st.composite
def graph_pairs(draw):
    """(g, h) of equal order: h is an independent graph, a relabelling of g,
    or a relabelling of g with one pair toggled (often, but not always,
    isomorphic to g again), so both answers of the oracle come up."""
    g = draw(any_graphs())
    kind = draw(st.sampled_from(["independent", "relabel", "toggle"]))
    if kind == "independent":
        return g, draw(any_graphs().filter(lambda h: h.n == g.n))
    perm = draw(st.permutations(range(g.n)))
    h = g.relabel(perm)
    if kind == "toggle" and g.n >= 2:
        i, j = draw(st.sampled_from(list(combinations(range(g.n), 2))))
        h = h.remove_edge(i, j) if h.has_edge(i, j) else h.add_edge(i, j)
    return g, h


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_certificate_equality_iff_networkx_isomorphic(pair):
    g, h = pair
    same = canonical_certificate(g) == canonical_certificate(h)
    assert same == nx.is_isomorphic(to_nx(g), to_nx(h))
    assert are_isomorphic(g, h) == same


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_certificate_invariant_under_relabelling(data):
    g = data.draw(any_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_certificate(g.relabel(perm)) == canonical_certificate(g)


def test_certificate_separates_regular_graphs():
    # colour refinement alone cannot split a regular graph; individualisation must
    cube = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                          (0, 4), (1, 5), (2, 6), (3, 7)])
    moebius = from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    prism = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])
    regular = [
        cycle_graph(8),
        disjoint_union(cycle_graph(4), cycle_graph(4)),
        disjoint_union(cycle_graph(5), cycle_graph(3)),
        cube,
        moebius,
        disjoint_union(complete_graph(4), complete_graph(4)),
        make_multipartite([4, 4]),
        cycle_graph(6),
        disjoint_union(cycle_graph(3), cycle_graph(3)),
        prism,
        make_multipartite([3, 3]),
    ]
    for g, h in combinations(regular, 2):
        expected = g.n == h.n and nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_certificate(g) == canonical_certificate(h)) == expected
    rng = random.Random(5)
    for g in regular:
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_certificate(g.relabel(perm)) == canonical_certificate(g)


def test_certificates_of_all_labelled_graphs_count_the_classes():
    # OEIS A000088: 1, 2, 4, 11, 34, 156 unlabelled graphs on 1..6 vertices
    for n, classes in enumerate([1, 2, 4, 11, 34, 156], start=1):
        pairs = list(combinations(range(n), 2))
        certs = set()
        for mask in range(1 << len(pairs)):
            edges = [p for t, p in enumerate(pairs) if (mask >> t) & 1]
            certs.add(canonical_certificate(from_edges(n, edges)))
        assert len(certs) == classes, n
