"""The canonical certificate against networkx as an independent isomorphism
oracle: equal certificates exactly for isomorphic graphs, and invariance
under relabelling."""

import random
import time
from functools import reduce
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spexlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edges,
    make_multipartite,
    path_graph,
)
from spexlab.search import _branches, are_isomorphic, canonical_certificate, canonical_graph6


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


def copies(g: Graph, k: int) -> Graph:
    return reduce(disjoint_union, [g] * k)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_certificates_of_unions_of_copies_match_networkx():
    # k x C_m and k x K_3 have large automorphism groups, which the search
    # prunes with the automorphisms it finds; equal orders pair them with
    # each other and with unions of unequal cycles
    family = [copies(cycle_graph(m), k) for k in range(1, 5) for m in range(3, 7)]
    family += [copies(complete_graph(3), k) for k in range(1, 6)]
    family += [disjoint_union(cycle_graph(5), cycle_graph(4)), disjoint_union(cycle_graph(6), cycle_graph(3)),
               disjoint_union(cycle_graph(8), cycle_graph(4)), disjoint_union(cycle_graph(3), cycle_graph(9))]
    rng = random.Random(31)
    drawn = [relabelled(g, rng) for g in family for _ in range(3)]
    certs = [canonical_certificate(g) for g in drawn]
    for (g, a), (h, b) in combinations(zip(drawn, certs), 2):
        if g.n == h.n:
            assert (a == b) == nx.is_isomorphic(to_nx(g), to_nx(h)), (g.rows, h.rows)


def generalized_petersen(n: int, k: int) -> Graph:
    return from_edges(2 * n, [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
                      + [(n + i, n + (i + k) % n) for i in range(n)])


@pytest.mark.parametrize("g, name", [
    (disjoint_union(cycle_graph(5), cycle_graph(4)), "HG?WtB?"),
    (disjoint_union(cycle_graph(6), cycle_graph(3)), "H?LRCA@"),
    (generalized_petersen(9, 4), "Q@O?G?@?_G@HCKGIGICW?c_B_??"),
])
def test_certificates_of_symmetric_graphs_are_pinned(g, name):
    # a sibling is skipped only inside an orbit of the automorphisms known to
    # fix its node: skipping every later sibling once any automorphism is
    # known names some relabellings of these graphs differently
    rng = random.Random(7)
    for _ in range(20):
        assert canonical_graph6(relabelled(g, rng)) == name


@pytest.mark.parametrize("found, prefixes", [
    ([[1, 2, 3, 4, 5, 0]], [(0, 2), (0, 4)]),  # v -> v + 1 moves the prefix
    ([[0, 5, 4, 3, 2, 1]], [(0, 2)]),  # v -> -v fixes 0 and swaps 2 and 4
])
def test_branches_prune_only_by_automorphisms_fixing_the_prefix(found, prefixes):
    # C_6 with 0 individualised and refined: the rotation lies in a group that
    # maps 2 to 4, but it moves 0, so it must not prune the node's children
    rows = cycle_graph(6).rows
    cells = [1 << 0, (1 << 2) | (1 << 4), 1 << 3, (1 << 1) | (1 << 5)]
    children = _branches(rows, cells, 1, {2: 2, 4: 4}, (0,), found)
    assert [prefix for _, prefix in children] == prefixes


def test_certificates_of_long_cycles_paths_and_copies_are_fast():
    # the found automorphisms prune the cycle's rotations and reflections and
    # the copies' swaps; C_200 took 63 s and 7 x C_4 127 s without them
    for g in (cycle_graph(200), copies(cycle_graph(5), 4), copies(cycle_graph(4), 7)):
        start = time.process_time()
        cert = canonical_certificate(g)
        assert time.process_time() - start < 5, g.n
        assert nx.is_isomorphic(to_nx(Graph(g.n, cert)), to_nx(g))
    assert are_isomorphic(path_graph(200), relabelled(path_graph(200), random.Random(2)))
