"""Constructor contracts, structural invariants, and graph6 round trips."""

import numpy as np
import pytest

from spexlab.graphs import (
    FamilySpec,
    Graph,
    Graph6ParseError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    generalized_book,
    graph6_decode,
    graph6_encode,
    join,
    make_multipartite,
    path_graph,
    turan,
    turan_part_sizes,
    u_graph,
    y_graph,
    y_graph_layout,
)
from spexlab.random_graphs import random_graph


def naive_graph6(g: Graph) -> str:
    """Independent re-derivation from the published bit layout."""
    assert g.n <= 62
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = chr(g.n + 63)
    for t in range(0, len(bits), 6):
        val = sum(b << (5 - s) for s, b in enumerate(bits[t : t + 6]))
        out += chr(val + 63)
    return out


def check_simple(g: Graph):
    for i in range(g.n):
        assert not g.has_edge(i, i)
        for j in range(g.n):
            assert g.has_edge(i, j) == g.has_edge(j, i)
    assert g.edge_count == sum(r.bit_count() for r in g.rows) // 2


def test_multipartite_small():
    assert make_multipartite([1, 1, 1]).edge_count == 3  # K_3
    assert make_multipartite([2, 3]).edge_count == 6  # K_{2,3}
    g = make_multipartite([3, 3, 3])
    assert g.edge_count == 27
    assert all(g.degree(v) == 6 for v in range(9))
    check_simple(g)


def test_multipartite_errors():
    with pytest.raises(ValueError):
        make_multipartite([])
    with pytest.raises(ValueError):
        make_multipartite([2, 0, 1])


def test_turan():
    assert turan(3, 9).edge_count == 27
    assert turan(2, 5).edge_count == 6
    assert turan_part_sizes(2, 5) == (3, 2)
    assert turan_part_sizes(3, 10) == (4, 3, 3)
    assert turan(3, 10).edge_count == 33
    with pytest.raises(ValueError):
        turan(0, 5)
    with pytest.raises(ValueError):
        turan(6, 5)


def test_join():
    k3 = join(complete_graph(2), empty_graph(1))
    assert k3.edge_count == 3 and k3.n == 3
    b32 = join(complete_graph(3), empty_graph(2))
    assert b32.n == 5 and b32.edge_count == 9
    k23 = join(empty_graph(2), empty_graph(3))
    assert k23.rows == make_multipartite([2, 3]).rows
    # order/size closed forms on random pairs
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(int(rng.integers(0, 7)), 0.5, rng)
        h = random_graph(int(rng.integers(0, 7)), 0.5, rng)
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n
        check_simple(j)


def test_generalized_book():
    assert generalized_book(3, 1).rows == complete_graph(4).rows
    g = generalized_book(2, 2)
    assert g.n == 4 and g.edge_count == 5  # K_4 minus one edge
    g = generalized_book(3, 2)
    assert g.n == 5 and g.edge_count == 9
    with pytest.raises(ValueError):
        generalized_book(1, 1)
    with pytest.raises(ValueError):
        generalized_book(3, 0)


def test_y_graph_edge_counts():
    assert y_graph(3, 9).edge_count == 27 - 3 + 1
    assert y_graph(3, 10).edge_count == 33 - 3 + 1
    for r in (2, 3, 4, 5):
        for n in range(2 * r, 41):
            assert y_graph(r, n).edge_count == turan(r, n).edge_count - n // r + 1, (r, n)
    with pytest.raises(ValueError):
        y_graph(3, 5)


def test_y_graph_local_structure():
    for r, n in [(3, 9), (3, 10), (3, 11), (4, 13), (2, 6), (5, 26)]:
        g = y_graph(r, n)
        lay = y_graph_layout(r, n)
        check_simple(g)
        u, w, v = lay.u, lay.w, lay.v
        t1 = set(lay.parts[lay.t1])
        assert g.has_edge(u, w)
        # no common neighbour inside the thinned part
        assert not (g.rows[u] & g.rows[w] & sum(1 << x for x in t1))
        assert set(g.neighbors(u)) & t1 == {v}
        assert set(g.neighbors(w)) & t1 == t1 - {v}
        # vertices outside the two special parts keep their multipartite degrees
        t = turan(r, n)
        special = set(lay.parts[lay.t1]) | set(lay.parts[lay.t2])
        for x in range(n):
            if x not in special:
                assert g.rows[x] == t.rows[x]


def test_u_graph():
    assert u_graph(3).rows == cycle_graph(3).rows
    g = u_graph(5)
    assert g.n == 5 and g.edge_count == 5
    assert g.degree_sequence() == (4, 2, 2, 1, 1)
    assert u_graph(6).edge_count == 6
    with pytest.raises(ValueError):
        u_graph(2)


def test_family_spec_dispatch():
    assert FamilySpec("turan", r=3, n=9).build().rows == turan(3, 9).rows
    assert FamilySpec("book", r=3, k=2).build().rows == generalized_book(3, 2).rows
    assert FamilySpec("ygraph", r=3, n=9).build().rows == y_graph(3, 9).rows
    assert FamilySpec("ugraph", m=5).build().rows == u_graph(5).rows
    assert FamilySpec("multipartite", parts=(2, 3)).build().edge_count == 6
    assert FamilySpec("complete", n=4).build().rows == complete_graph(4).rows
    inner = FamilySpec("complete", n=2)
    assert FamilySpec("join", left=inner, right=FamilySpec("complete", n=1)).build().edge_count == 3
    assert FamilySpec("union", left=inner, right=inner).build().edge_count == 2
    with pytest.raises(ValueError):
        FamilySpec("turan", r=3).build()
    with pytest.raises(ValueError):
        FamilySpec("nosuch", n=1).build()


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (2,))  # out-of-range bit


def test_graph_edit_ops():
    g = path_graph(4)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.add_edge(0, 3).edge_count == 4
    assert g.remove_edge(1, 2).components() == [(0, 1), (2, 3)]
    assert g.delete_vertex(0).rows == path_graph(3).rows
    assert not g.remove_edge(1, 2).is_connected()
    assert g.is_connected()
    perm = [3, 2, 1, 0]
    assert g.relabel(perm).rows == g.rows  # path is reversal-symmetric


def test_graph6_known_strings():
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(empty_graph(0)) == "?"
    assert graph6_decode("?").n == 0
    assert graph6_decode("Bw").rows == complete_graph(3).rows


def test_graph6_matches_independent_layout():
    rng = np.random.default_rng(3)
    graphs = [empty_graph(1), complete_graph(5), turan(3, 10), y_graph(3, 9),
              path_graph(7), cycle_graph(5), u_graph(6)]
    graphs += [random_graph(int(rng.integers(1, 20)), float(rng.uniform(0, 1)), rng)
               for _ in range(60)]
    for g in graphs:
        s = graph6_encode(g)
        assert s == naive_graph6(g)
        assert graph6_decode(s).rows == g.rows


def test_graph6_long_form_round_trip():
    rng = np.random.default_rng(11)
    g = random_graph(70, 0.1, rng)
    s = graph6_encode(g)
    assert s[0] == chr(126)
    assert graph6_decode(s).rows == g.rows


def test_graph6_error_offsets():
    with pytest.raises(Graph6ParseError):
        graph6_decode("")
    with pytest.raises(Graph6ParseError) as ei:
        graph6_decode("B" + chr(30))
    assert ei.value.offset == 1
    with pytest.raises(Graph6ParseError):
        graph6_decode("Bwww")  # wrong length for n=3
    # K_3 with a nonzero padding bit: 111111 -> 'B' + chr(63+63)
    with pytest.raises(Graph6ParseError):
        graph6_decode("B" + chr(126))
    with pytest.raises(Graph6ParseError):
        graph6_decode(chr(126) + "??")  # truncated long header


def test_graph6_header_prefix():
    assert graph6_decode(">>graph6<<Bw").rows == complete_graph(3).rows


def test_disjoint_union():
    g = disjoint_union(complete_graph(3), complete_graph(2))
    assert g.n == 5 and g.edge_count == 4
    assert g.components() == [(0, 1, 2), (3, 4)]


def test_from_edges_roundtrip():
    g = from_edges(4, [(0, 2), (1, 3)])
    assert sorted(g.edges()) == [(0, 2), (1, 3)]
    assert from_edges(3, [(0, 1), (1, 0), (0, 1)]).rows == path_graph(2).rows + (0,)


@pytest.mark.parametrize("edge, message", [
    ((1, 1), "loop"), ((0, 4), "outside"), ((4, 0), "outside"),
    ((-1, 2), "outside"), ((2, -1), "outside"),
])
def test_from_edges_rejects_bad_endpoints(edge, message):
    with pytest.raises(ValueError, match=message):
        from_edges(4, [(0, 1), edge])


def test_long_path_builds_directly():
    g = path_graph(2000)
    assert g.edge_count == 1999 and g.degree(0) == g.degree(1999) == 1
    assert g.rows[1000] == (1 << 999) | (1 << 1001)
    assert cycle_graph(2000).rows[0] == (1 << 1) | (1 << 1999)
