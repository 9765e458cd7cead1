"""Exact predicates: colouring, book containment vs a naive subgraph
isomorphism oracle, colour-criticality, partitions, degree classes."""

import hashlib
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from typing import Optional

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spexlab.graphs import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    generalized_book,
    make_multipartite,
    path_graph,
    turan,
    u_graph,
    y_graph,
    y_graph_layout,
)
from spexlab.random_graphs import random_graph, random_multipartite
from spexlab.search import _census, enumerate_graphs
from spexlab.structure import (
    FeasibilityError,
    Partition,
    _colour,
    _contract_twins,
    _find_clique,
    _refine,
    chromatic_number,
    color_refine,
    contains_clique,
    contains_generalized_book,
    degeneracy_order,
    degree_classes,
    is_color_critical,
    is_complete_bipartite,
    is_r_colorable,
    max_cross_partition,
)


def naive_subgraph_contains(g: Graph, h: Graph) -> bool:
    """Brute-force subgraph (not induced) containment via vertex injections."""
    if h.n > g.n or h.edge_count > g.edge_count:
        return False
    hedges = list(h.edges())
    for image in permutations(range(g.n), h.n):
        if all(g.has_edge(image[a], image[b]) for a, b in hedges):
            return True
    return False


def random_blow_up(rng, max_n: int = 30) -> Graph:
    """A random 0/1 pattern on at most 6 vertices with each vertex blown up
    into a class of 1-5 open twins, at most max_n vertices in all, the
    classes' members interleaved by a random labelling."""
    m = int(rng.integers(1, 7))
    sizes = []
    for t in range(m):  # leave each later class at least one vertex
        sizes.append(int(rng.integers(1, min(5, max_n - sum(sizes) - (m - 1 - t)) + 1)))
    cls = rng.permutation([t for t, size in enumerate(sizes) for _ in range(size)])
    pattern = np.triu(rng.random((m, m)) < rng.uniform(0.3, 1.0), 1)
    pattern |= pattern.T  # no loops: a class is independent
    edges = [(a, b) for a, b in combinations(range(len(cls)), 2) if pattern[cls[a], cls[b]]]
    return from_edges(len(cls), edges)


def reference_refine(rows, cells):
    """Colour refinement by its definition: each round splits every cell by its
    vertices' vectors of neighbour counts into every current cell, sub-cells in
    ascending vector order, until a round splits nothing."""
    cells = list(cells)
    while True:
        out = []
        for c in cells:
            sig = {}
            for v in bits(c):
                key = tuple((rows[v] & x).bit_count() for x in cells)
                sig[key] = sig.get(key, 0) | (1 << v)
            out += [sig[k] for k in sorted(sig)]
        if len(out) == len(cells):
            return out
        cells = out


@st.composite
def graphs_with_partitions(draw, max_n: int = 40):
    """A random graph of at most max_n vertices, sparse to dense (sparse ones
    refine over many rounds), with a random ordered partition of its vertices."""
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_graph(n, draw(st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.8])), rng)
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    order = draw(st.permutations(range(5)))
    cells = [sum(1 << v for v in range(n) if labels[v] == t) for t in order]
    return g, [c for c in cells if c]


@settings(max_examples=200, deadline=None)
@given(graphs_with_partitions())
def test_color_refine_matches_the_all_cells_reference(drawn):
    # the incremental rounds (new sub-cells only, the last one of each split
    # dropped) give the reference's partition in the reference's cell order
    g, cells = drawn
    assert color_refine(g.rows, cells) == reference_refine(g.rows, cells)


@settings(max_examples=200, deadline=None)
@given(graphs_with_partitions(), st.data())
def test_individualisation_enters_refinement_as_its_first_round(drawn, data):
    # the certificate individualises v in an equitable partition and signs the
    # first round against {v} alone
    g, cells = drawn
    cells = color_refine(g.rows, cells)
    targets = [t for t, c in enumerate(cells) if c & (c - 1)]
    if not targets:
        return
    t = data.draw(st.sampled_from(targets))
    v = data.draw(st.sampled_from(list(bits(cells[t]))))
    child = cells[:t] + [1 << v, cells[t] ^ (1 << v)] + cells[t + 1:]
    assert _refine(g.rows, list(child), [1 << v]) == reference_refine(g.rows, child)


def test_refinement_of_long_cycles_and_paths():
    # a cycle or a path refines over about n / 2 rounds after one vertex is
    # individualised; the reference checks the cell order of those rounds
    for g in (cycle_graph(41), path_graph(40), disjoint_union(cycle_graph(9), path_graph(9))):
        cells = color_refine(g.rows, [(1 << g.n) - 1])
        assert cells == reference_refine(g.rows, [(1 << g.n) - 1])
        t = next(t for t, c in enumerate(cells) if c & (c - 1))
        low = cells[t] & -cells[t]
        child = cells[:t] + [low, cells[t] ^ low] + cells[t + 1:]
        assert _refine(g.rows, list(child), [low]) == reference_refine(g.rows, child)


def test_colorable_basics():
    ok, colors = is_r_colorable(turan(3, 9), 3)
    assert ok
    assert all(colors[i] != colors[j] for i, j in turan(3, 9).edges())
    assert not is_r_colorable(y_graph(3, 9), 3)[0]
    assert not is_r_colorable(cycle_graph(5), 2)[0]
    ok, colors = is_r_colorable(cycle_graph(5), 3)
    assert ok and max(colors) <= 2
    assert is_r_colorable(empty_graph(4), 1)[0]
    assert not is_r_colorable(complete_graph(3), 2)[0]
    with pytest.raises(ValueError, match="need r >= 1"):
        is_r_colorable(cycle_graph(5), 0)


def test_witness_is_always_proper():
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = random_graph(int(rng.integers(1, 10)), float(rng.uniform(0.1, 0.9)), rng)
        for r in (2, 3, 4):
            ok, colors = is_r_colorable(g, r)
            if ok:
                assert len(colors) == g.n
                assert max(colors, default=0) < r
                for i, j in g.edges():
                    assert colors[i] != colors[j]


def degeneracy_order_reference(g: Graph) -> list[int]:
    """The re-counting loop: remove a minimum-degree vertex, ties by index."""
    alive = (1 << g.n) - 1
    order = []
    for _ in range(g.n):
        best_v, best_d = -1, g.n + 1
        for v in bits(alive):
            d = (g.rows[v] & alive).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        order.append(best_v)
        alive &= ~(1 << best_v)
    return order


def test_degeneracy_order_matches_recounting_reference():
    rng = np.random.default_rng(21)
    graphs = [random_graph(int(rng.integers(0, 60)), float(rng.uniform(0.05, 0.9)), rng)
              for _ in range(120)]
    graphs += [complete_graph(n) for n in (0, 1, 2, 5, 40)]
    graphs += [turan(r, n) for r, n in ((2, 7), (3, 30), (4, 41))]
    graphs += [empty_graph(n) for n in (0, 1, 6)]
    graphs += [y_graph(3, 31), path_graph(50), cycle_graph(9)]
    for g in graphs:
        assert degeneracy_order(g) == degeneracy_order_reference(g), g.rows


def test_one_twin_contraction_leaves_no_twins():
    rng = np.random.default_rng(8)
    graphs = list(_census(7, (None, None)))
    graphs += [random_graph(int(rng.integers(1, 15)), float(rng.uniform(0.05, 0.95)), rng)
               for _ in range(150)]
    graphs += [random_multipartite(int(rng.integers(2, 15)), 3, float(rng.choice([0.9, 1.0])), rng)
               for _ in range(150)]  # p = 1 makes every class one twin class
    for g in graphs:
        h, members = _contract_twins(g)
        assert _contract_twins(h)[0] is h
        assert sorted(v for grp in members for v in grp) == list(range(g.n))
        assert all(len({g.rows[v] for v in grp}) == 1 for grp in members)
        assert h == g.induced([grp[0] for grp in members])
        # the kernel's input: the contraction in first-member order, relabelled by degree
        heads = g.induced(sorted(grp[0] for grp in members))
        assert h == heads.induced(by_degree(heads.rows))


def test_chromatic_number_knowns():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(generalized_book(3, 2)) == 4
    assert chromatic_number(y_graph(3, 9)) == 4
    assert chromatic_number(complete_graph(6)) == 6
    assert chromatic_number(make_multipartite([2, 3])) == 2
    assert chromatic_number(empty_graph(5)) == 1
    assert chromatic_number(empty_graph(0)) == 0


def test_chromatic_matches_min_colorable():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = random_graph(int(rng.integers(1, 9)), float(rng.uniform(0.1, 0.95)), rng)
        chi = chromatic_number(g)
        assert is_r_colorable(g, chi)[0]
        if chi > 1:
            assert not is_r_colorable(g, chi - 1)[0]


def test_contains_clique():
    assert contains_clique(complete_graph(5), 5)
    assert not contains_clique(turan(3, 9), 4)
    assert contains_clique(turan(3, 9), 3)
    assert not contains_clique(cycle_graph(5), 3)


def test_book_containment_basics():
    assert contains_generalized_book(complete_graph(5), 3, 1)[0]
    assert not contains_generalized_book(turan(3, 9), 3, 1)[0]
    for k in (1, 2, 3):
        assert not contains_generalized_book(y_graph(3, 12), 3, k)[0]
    has, witness = contains_generalized_book(generalized_book(3, 2), 3, 2)
    assert has and len(witness) == 5
    # triangle detection is the (2, 1) case
    assert contains_generalized_book(cycle_graph(3), 2, 1)[0]
    assert not contains_generalized_book(cycle_graph(4), 2, 1)[0]
    with pytest.raises(ValueError, match="need r >= 2"):
        contains_generalized_book(complete_graph(5), 1, 1)
    with pytest.raises(ValueError, match="need k >= 1"):
        contains_generalized_book(complete_graph(5), 2, 0)


def test_book_witness_structure():
    # every witness is a book, and it is the one the kernel names on g itself,
    # also on blow-ups, which are first decided on their twin-class heads; k
    # runs past every class size (1-5) of random_blow_up
    rng = np.random.default_rng(8)
    graphs = [random_graph(int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.95)), rng)
              for _ in range(60)]
    graphs += [random_blow_up(rng) for _ in range(150)]
    for g in graphs:
        for r, k in product((2, 3, 4), range(1, 7)):
            has, witness = contains_generalized_book(g, r, k)
            found = _find_clique(g.rows, degeneracy_order(g), r, k)
            if found is None:
                assert (has, witness) == (False, None), (g.rows, r, k)
            else:
                assert witness == found[0] + tuple(islice(bits(found[1]), k)), (g.rows, r, k)
            if has:
                clique, pages = witness[:r], witness[r:]
                assert len(pages) == k
                for i, a in enumerate(clique):
                    for b in clique[i + 1 :]:
                        assert g.has_edge(a, b)
                    for p in pages:
                        assert g.has_edge(a, p)


def test_book_agrees_with_naive_oracle_small_census():
    pairs = [(r, k) for r in range(2, 6) for k in range(1, 7 - r)]
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for r, k in pairs:
                expect = naive_subgraph_contains(g, generalized_book(r, k))
                assert contains_generalized_book(g, r, k)[0] == expect, (g.rows, r, k)


def test_book_r1_agrees_with_clique_finder():
    rng = np.random.default_rng(14)
    for _ in range(60):
        g = random_graph(int(rng.integers(2, 10)), float(rng.uniform(0.2, 0.95)), rng)
        for r in (2, 3, 4):
            assert contains_generalized_book(g, r, 1)[0] == contains_clique(g, r + 1)


def test_book_monotone_in_k():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = random_graph(8, float(rng.uniform(0.4, 0.9)), rng)
        for r in (2, 3):
            flags = [contains_generalized_book(g, r, k)[0] for k in (1, 2, 3)]
            for a, b in zip(flags, flags[1:]):
                assert a or not b  # k+1 implies k


def test_clique_matches_networkx():
    rng = np.random.default_rng(41)
    graphs = [random_graph(int(rng.integers(0, 41)), float(rng.uniform(0.05, 0.9)), rng)
              for _ in range(200)]
    graphs += [random_blow_up(rng) for _ in range(150)]
    for g in graphs:
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges())
        omega = max((len(c) for c in nx.find_cliques(nxg)), default=0)
        for q in range(1, omega + 2):
            assert contains_clique(g, q) == (omega >= q), (g.rows, q)


def test_book_witnesses_are_pinned():
    # roots in degeneracy order, each clique grown from later neighbours by
    # lowest index, pages the k lowest common neighbours
    rng = np.random.default_rng(43)
    digest = hashlib.sha256()
    for _ in range(150):
        g = random_graph(int(rng.integers(0, 25)), float(rng.uniform(0.2, 0.9)), rng)
        for r, k in [(2, 2), (3, 2), (4, 1)]:
            digest.update(repr(contains_generalized_book(g, r, k)).encode())
    assert digest.hexdigest() == "8e0ec29e8f82f44596e41e71347820eb799bdfb5fbe6d4633f08c03594c4b0e3"


class CountingRows(tuple):
    """Bitset rows that count how often the search reads one."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def test_clique_search_forms_each_clique_once():
    # each row read extends one clique, and a clique is only ever grown from
    # its first vertex in the order, so no clique is formed twice
    rng = np.random.default_rng(47)
    graphs = [turan(3, 9), turan(4, 12), y_graph(3, 12), complete_graph(6)]
    graphs += [random_graph(int(rng.integers(4, 16)), float(rng.uniform(0.3, 0.9)), rng)
               for _ in range(60)]
    for g in graphs:
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges())
        for r in (3, 4, 5):
            cliques = sum(1 for c in nx.enumerate_all_cliques(nxg) if len(c) <= r)
            for order, k in [(range(g.n), 0), (degeneracy_order(g), 2)]:
                rows = CountingRows(g.rows)
                _find_clique(rows, order, r, k)
                assert rows.reads <= cliques, (g.rows, r, k)


def test_clique_search_stays_inside_its_order():
    # the census asks for cliques inside a vertex set: roots and growth stay in
    # the order, while the common neighbourhood is read from the rows
    rows = complete_graph(5).rows
    assert _find_clique(rows, [0, 1, 2], 3, 0) == ((0, 1, 2), 0b11000)
    assert _find_clique(rows, [0, 1], 3, 0) is None
    assert _find_clique(rows, [3, 1], 2, 3) == ((3, 1), 0b10101)


def test_deep_cliques_need_no_recursion():
    g = complete_graph(1010)
    assert contains_clique(g, 1005) and not contains_clique(g, 1011)
    has, witness = contains_generalized_book(g, 1000, 5)
    assert has and witness == tuple(range(1005))


def test_color_critical():
    ok, edge = is_color_critical(complete_graph(4))
    assert ok and edge is not None
    assert not is_color_critical(cycle_graph(4))[0]
    ok, edge = is_color_critical(generalized_book(3, 2))
    assert ok
    g = generalized_book(3, 2)
    chi = chromatic_number(g)
    assert chromatic_number(g.remove_edge(*edge)) == chi - 1
    with pytest.raises(ValueError):
        is_color_critical(empty_graph(3))


def reference_color_backtrack(g: Graph, r: int) -> Optional[list[int]]:
    """The recursive DSATUR the bitset kernel replaced: same vertex choice
    (saturation, then degree, then lowest index) and colour order."""
    n = g.n
    if n == 0:
        return []
    colors = [-1] * n
    neighbor_colors = [0] * n  # bitmask of colours seen on neighbours

    def choose() -> int:
        best, key = -1, (-1, -1)
        for v in range(n):
            if colors[v] == -1:
                sat = neighbor_colors[v].bit_count()
                deg = g.rows[v].bit_count()
                if (sat, deg) > key:
                    best, key = v, (sat, deg)
        return best

    def rec(used: int) -> bool:
        v = choose()
        if v == -1:
            return True
        # symmetry breaking: at most one brand-new colour may be tried
        limit = min(used + 1, r)
        for c in range(limit):
            if (neighbor_colors[v] >> c) & 1:
                continue
            colors[v] = c
            touched = []
            for w in bits(g.rows[v]):
                if colors[w] == -1 and not (neighbor_colors[w] >> c) & 1:
                    neighbor_colors[w] |= 1 << c
                    touched.append(w)
            if rec(max(used, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                neighbor_colors[w] &= ~(1 << c)
        return False

    return colors[:] if rec(0) else None


def brute_colorable(rows, r: int, vertices) -> bool:
    """Exhaustive r-colouring of the subgraph induced by ``vertices``, in index order."""
    vs = sorted(vertices)
    colour = {}

    def rec(k: int) -> bool:
        if k == len(vs):
            return True
        v = vs[k]
        for c in range(r):
            if all(colour.get(w) != c for w in bits(rows[v])):
                colour[v] = c
                if rec(k + 1):
                    return True
                del colour[v]
        return False

    return rec(0)


def brute_chromatic(g: Graph) -> int:
    return next(r for r in range(g.n + 1) if brute_colorable(g.rows, r, range(g.n)))


def brute_first_critical_edge(g: Graph) -> Optional[tuple[int, int]]:
    """The first edge e in ``edges()`` order with chi(G - e) = chi(G) - 1."""
    chi = brute_chromatic(g)
    for e in g.edges():
        if brute_colorable(g.remove_edge(*e).rows, chi - 1, range(g.n)):
            return e
    return None


def grotzsch_graph() -> Graph:
    """The Mycielskian of C5: triangle-free, 4-chromatic and colour-critical."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(10, 5 + i) for i in range(5)]
    return from_edges(11, edges)


@st.composite
def seeded_graphs(draw, max_n: int = 14) -> Graph:
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.05, 0.95))
    return random_graph(n, p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def by_degree(rows) -> list[int]:
    """The vertices of ``rows`` by (-degree, index)."""
    return sorted(range(len(rows)), key=lambda v: (-rows[v].bit_count(), v))


def dsatur(rows, r: int) -> tuple[Optional[list[int]], int]:
    """The kernel on ``rows`` relabelled by degree, its colours and core in
    ``rows``' labels."""
    order = by_degree(rows)
    colours, core = _colour(Graph(len(rows), tuple(rows)).induced(order).rows, r)
    if colours is None:
        return None, sum(1 << order[i] for i in bits(core))
    return [c for _, c in sorted(zip(order, colours))], 0


@settings(max_examples=400, deadline=None)
@given(seeded_graphs(), st.integers(1, 6))
def test_kernel_matches_recursive_reference(g, r):
    colours, core = dsatur(g.rows, r)
    assert colours == reference_color_backtrack(g, r)
    assert (core == 0) == (colours is not None)


def test_refutation_cores_are_not_colorable():
    rng = np.random.default_rng(17)
    refuted = 0
    for _ in range(300):
        g = random_graph(int(rng.integers(1, 11)), float(rng.uniform(0.2, 0.95)), rng)
        for r in range(1, 6):
            colours, core = dsatur(g.rows, r)
            if colours is None:
                refuted += 1
                assert core and core < 1 << g.n
                assert not brute_colorable(g.rows, r, bits(core)), (g.rows, r, core)
    assert refuted > 300


def test_color_critical_matches_definition():
    named = [cycle_graph(k) for k in (3, 5, 7, 9)] + [complete_graph(k) for k in (2, 3, 4, 5, 6)]
    named += [generalized_book(3, 2), grotzsch_graph(), cycle_graph(4), make_multipartite([3, 3])]
    rng = np.random.default_rng(21)
    seeded = [random_graph(int(rng.integers(2, 10)), float(rng.uniform(0.2, 0.9)), rng)
              for _ in range(80)]
    critical = 0
    for g in named + [h for h in seeded if h.edge_count]:
        e = brute_first_critical_edge(g)
        assert is_color_critical(g) == (e is not None, e), g.rows
        critical += e is not None
    assert critical > 20 and is_color_critical(grotzsch_graph())[0]


@st.composite
def twinned_graphs(draw) -> Graph:
    """Order <= 9: a seeded G(n, p), then open or closed twins of drawn
    vertices, then maybe a second component."""
    rows = list(draw(seeded_graphs(max_n=7)).rows)
    twins = draw(st.integers(0, 8 - len(rows))) if rows else 0
    for _ in range(twins):
        v = draw(st.integers(0, len(rows) - 1))
        twin = rows[v] | draw(st.booleans()) << v  # closed twins are adjacent
        for w in bits(twin):
            rows[w] |= 1 << len(rows)
        rows.append(twin)
    g = Graph(len(rows), tuple(rows))
    return disjoint_union(g, draw(seeded_graphs(max_n=9 - g.n))) if g.n < 9 else g


@settings(max_examples=300, deadline=None)
@given(st.one_of(twinned_graphs(), st.integers(0, 2**32 - 1).map(
    lambda seed: random_blow_up(np.random.default_rng(seed), max_n=10))))
def test_color_critical_matches_brute_force_with_twins_and_components(g):
    # blow-ups too: only edges between twinless vertices can be critical
    assume(g.edge_count > 0)
    assert chromatic_number(g) == brute_chromatic(g)
    e = brute_first_critical_edge(g)
    assert is_color_critical(g) == (e is not None, e)


def _kernel_spy(monkeypatch, g: Graph, removed: list):
    """Spy on the colouring kernel: each call's rows are g's view, class t
    renamed t, so map g's edges through the classes and record those the
    rows lack."""
    import spexlab.structure as structure_mod

    pos = {v: t for t, grp in enumerate(_contract_twins(g)[1]) for v in grp}
    real = structure_mod._colour

    def spy(adj, r):
        removed.extend(e for e in g.edges() if not (adj[pos[e[0]]] >> pos[e[1]]) & 1)
        return real(adj, r)

    monkeypatch.setattr(structure_mod, "_colour", spy)


def test_color_critical_tries_only_edges_inside_the_core(monkeypatch):
    # two disjoint K4: the first core is the first K4, so no edge of the second
    # one is ever deleted, and each deletion leaves a K4 behind
    quads = [range(4), range(4, 8)]
    g = from_edges(8, [e for q in quads for e in combinations(q, 2)])
    removed = []
    _kernel_spy(monkeypatch, g, removed)
    assert is_color_critical(g) == (False, None)
    assert removed == list(combinations(range(4), 2))


def test_color_criticality_relabels_each_graph_once(monkeypatch):
    # chi is known first (chromatic_number relabels the twin-contracted graph);
    # then every try toggles one edge in a copy of that view, relabelling nothing
    import spexlab.structure as structure_mod

    real = structure_mod._reordered
    relabels = []
    monkeypatch.setattr(structure_mod, "_reordered",
                        lambda rows, order: relabels.append(len(rows)) or real(rows, order))
    rng = np.random.default_rng(23)
    tries = graphs = 0
    for _ in range(40):
        g = random_graph(int(rng.integers(6, 22)), float(rng.uniform(0.2, 0.8)), rng)
        if not g.edge_count:
            continue
        chromatic_number(g)
        relabels.clear()
        removed = []
        with monkeypatch.context() as m:
            _kernel_spy(m, g, removed)
            is_color_critical(g)
        assert relabels == []
        tries += len(removed)
        graphs += 1
    assert tries > 2 * graphs


def test_predicates_on_the_papers_graphs_read_their_twin_view(monkeypatch):
    # each graph has at most 6 twin classes: no clique search may take more than
    # 6 roots and no colouring more than 6 rows, for any k; and no predicate may
    # build a derived graph or walk the edge list
    import spexlab.structure as structure_mod

    real_find, real_colour = structure_mod._find_clique, structure_mod._colour
    real_induced, real_edges = Graph.induced, Graph.edges
    seen, derived = [], []

    def find(rows, order, r, k):
        assert len(order) <= 6, (len(order), r, k)
        seen.append(len(order))
        return real_find(rows, order, r, k)

    def colour(adj, r):
        assert len(adj) <= 6, len(adj)
        seen.append(len(adj))
        return real_colour(adj, r)

    def induced(g, vertices):
        derived.append("induced")
        return real_induced(g, vertices)

    def edges(g):
        derived.append("edges")
        return real_edges(g)

    y, t3, t4 = y_graph(3, 1500), turan(3, 1500), turan(4, 1200)
    monkeypatch.setattr(structure_mod, "_find_clique", find)
    monkeypatch.setattr(structure_mod, "_colour", colour)
    monkeypatch.setattr(Graph, "induced", induced)
    monkeypatch.setattr(Graph, "edges", edges)
    structure_mod._chromatic_number.cache_clear()
    for g, books in [(y, [(3, 1), (3, 2), (3, 300)]), (t3, [(3, 1), (3, 2)]),
                     (t4, [(4, 1), (4, 200)])]:
        for r, k in books:
            assert contains_generalized_book(g, r, k) == (False, None)
            assert not contains_clique(g, r + 1)
    assert is_r_colorable(t3, 3) == (True, tuple(v // 500 for v in range(1500)))
    assert not is_r_colorable(y, 3)[0] and not is_r_colorable(t4, 3)[0]
    assert [chromatic_number(g) for g in (y, t3, t4)] == [4, 3, 4]
    assert is_color_critical(y) == (True, (0, 500))
    assert is_color_critical(t3) == is_color_critical(t4) == (False, None)
    assert len(seen) > 10  # one clique search per book and clique question, then colourings
    assert derived == []


def test_an_improper_witness_colouring_is_refused(monkeypatch):
    # the witness is checked on g itself, each vertex's row against its colour
    # class, so a kernel colouring that is improper on g never reaches the caller
    import spexlab.structure as structure_mod

    def kernel_returns(colours):
        monkeypatch.setattr(structure_mod, "_colour", lambda adj, r: (list(colours), 0))

    kernel_returns([2, 0, 1])  # T_3(6) contracts to a triangle, one head per part
    assert is_r_colorable(turan(3, 6), 3) == (True, (2, 2, 0, 0, 1, 1))
    for g, colours in [(cycle_graph(5), [0, 1, 0, 1, 1]), (turan(3, 6), [0, 1, 1])]:
        kernel_returns(colours)
        with pytest.raises(AssertionError, match="^internal error: witness colouring is improper$"):
            is_r_colorable(g, 3)


def test_deep_inputs_need_no_recursion():
    ok, colours = is_r_colorable(path_graph(5000), 2)
    assert ok and all(colours[i] != colours[i + 1] for i in range(4999))
    assert is_color_critical(cycle_graph(5001)) == (True, (0, 1))


def test_max_cross_partition_exact():
    part, cross, exact = max_cross_partition(cycle_graph(5), 2)
    assert exact and cross == 4
    _, cross, _ = max_cross_partition(make_multipartite([3, 3]), 2)
    assert cross == 9
    _, cross, _ = max_cross_partition(complete_graph(4), 2)
    assert cross == 4
    part, cross, _ = max_cross_partition(turan(3, 9), 3)
    assert cross == 27
    with pytest.raises(FeasibilityError):
        max_cross_partition(empty_graph(17), 2)
    with pytest.raises(FeasibilityError):
        max_cross_partition(empty_graph(13), 3)
    # the guard is the largest n with r^n <= 3^12: 12 at r = 3, 9 at r = 4, 8 at r = 5
    for r, limit in [(3, 12), (4, 9), (5, 8)]:
        assert max_cross_partition(empty_graph(limit), r)[1:] == (0, True)
        with pytest.raises(FeasibilityError, match=f"guard: r={r} allows n <= {limit}, "
                                                    f"got n={limit + 1}$"):
            max_cross_partition(empty_graph(limit + 1), r)
    with pytest.raises(ValueError, match="need r >= 2"):
        max_cross_partition(cycle_graph(5), 1)
    with pytest.raises(ValueError, match="mode must be 'exact' or 'local'"):
        max_cross_partition(cycle_graph(5), 2, mode="x")


def test_max_cross_partition_accounting_and_local():
    rng = np.random.default_rng(9)
    for _ in range(25):
        g = random_graph(int(rng.integers(2, 11)), float(rng.uniform(0.2, 0.9)), rng)
        r = int(rng.integers(2, 4))
        part, cross, exact = max_cross_partition(g, r, mode="exact")
        assert exact
        idx = part.cell_index(g.n)
        internal = sum(1 for i, j in g.edges() if idx[i] == idx[j])
        assert internal + cross == g.edge_count
        lpart, lcross, lexact = max_cross_partition(g, r, mode="local")
        assert not lexact
        assert lcross <= cross
        # local output admits no improving single-vertex move
        lidx = lpart.cell_index(g.n)
        masks = lpart.masks()
        for v in range(g.n):
            here = (g.rows[v] & masks[lidx[v]]).bit_count()
            for c in range(r):
                assert (g.rows[v] & masks[c]).bit_count() >= here or c == lidx[v]


def test_degree_classes_turan():
    g = turan(3, 9)
    part = Partition.of([range(0, 3), range(3, 6), range(6, 9)])
    dc = degree_classes(g, part, 0.01)
    assert dc.w == frozenset() and dc.l == frozenset()


def test_degree_classes_y_graph():
    n = 9
    g = y_graph(3, n)
    lay = y_graph_layout(3, n)
    part = Partition.of(lay.parts)
    dc = degree_classes(g, part, 0.0001)
    # the only internal edge is uw, so W = {u, w}
    assert dc.w == frozenset({lay.u, lay.w})
    threshold = (1 - 1 / 3 - 5 * 0.01) * n
    expect_l = frozenset(v for v in range(n) if g.degree(v) <= threshold)
    assert dc.l == expect_l
    assert lay.u in dc.l


def test_degree_classes_eps_near_one():
    # the low-degree threshold is negative, so no vertex can fall below it
    g = turan(2, 6)
    part = Partition.of([range(0, 3), range(3, 6)])
    dc = degree_classes(g, part, 0.999)
    assert dc.l == frozenset()
    assert dc.w == frozenset()


def test_degree_classes_exact_rational_matches_float():
    g = y_graph(3, 10)
    lay = y_graph_layout(3, 10)
    part = Partition.of(lay.parts)
    for eps in (Fraction(1, 10000), Fraction(1, 100), Fraction(9, 100)):
        a = degree_classes(g, part, eps)
        b = degree_classes(g, part, float(eps))
        assert a.w == b.w and a.l == b.l
    with pytest.raises(ValueError):
        degree_classes(g, part, 0.0)


def test_degree_classes_inclusive_at_exact_boundaries():
    # K4 plus 6 isolated vertices, r = 2, n = 10, eps = 1/100: the K4 vertices
    # have internal degree 3 = 3 sqrt(eps) n, and the isolated ones total
    # degree 0 = (1 - 1/2 - 5 sqrt(eps)) n, so both classes hit their threshold
    g = disjoint_union(complete_graph(4), empty_graph(6))
    part = Partition.of([range(4), range(4, 10)])
    for eps in (0.01, Fraction(1, 100)):
        dc = degree_classes(g, part, eps)
        assert dc.w == frozenset(range(4)), eps
        assert dc.l == frozenset(range(4, 10)), eps
    # a float is read as the decimal it prints as, not as its binary value,
    # which lies just above 1/100 and misses both boundaries
    dc = degree_classes(g, part, Fraction(0.01))
    assert dc.w == dc.l == frozenset()


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.of([[0, 1], [1, 2]]).validate(3)
    with pytest.raises(ValueError):
        Partition.of([[0, 1]]).validate(3)
    Partition.of([[0, 1], [2]]).validate(3)


def test_complete_bipartite_predicate():
    assert is_complete_bipartite(make_multipartite([2, 3]))
    assert is_complete_bipartite(empty_graph(4))  # edgeless counts
    assert is_complete_bipartite(Graph(3, (2, 1, 0)))  # K_2 plus isolate
    assert not is_complete_bipartite(path_graph(4))
    assert not is_complete_bipartite(cycle_graph(5))
    assert not is_complete_bipartite(u_graph(5))


def brute_complete_bipartite(g: Graph) -> bool:
    """Some 2-partition of the vertices has every cross pair, and only those, as edges."""
    return any(
        all(g.has_edge(i, j) == (((side >> i) ^ (side >> j)) & 1 == 1)
            for i, j in combinations(range(g.n), 2))
        for side in range(1 << g.n)
    )


def test_complete_bipartite_predicate_matches_brute_force():
    for n in range(8):
        for g in _census(n, (None, None)):
            h = g.induced([v for v in range(g.n) if g.rows[v]])
            assert is_complete_bipartite(g) == brute_complete_bipartite(h)
            assert is_complete_bipartite(g, ignore_isolated=False) == brute_complete_bipartite(g)
