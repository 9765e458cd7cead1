"""Constructor contracts, structural invariants, and graph6 round trips."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------
# validation at the public constructor
# ---------------------------------------------------------------------


def symmetric_rows(n: int, seed: int) -> list[int]:
    """Rows of a seeded symmetric loop-free 0/1 matrix, built without spexlab."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 0.3, 1)
    a = a | a.T
    return [sum(1 << int(j) for j in np.flatnonzero(a[i])) for i in range(n)]


def test_public_constructor_accepts_symmetric_rows():
    for n in (0, 1, 2, 7, 8, 9, 200):
        rows = tuple(symmetric_rows(n, n))
        assert Graph(n, rows).rows == rows


def _loop(rows, n):
    rows[n - 1] |= 1 << (n - 1)


def _first_asymmetric_pair(rows, n):
    # one-sided bits; in (i, j) order the first pair is (0, n-1), whose only
    # bit sits in the later row
    rows[n - 1] ^= 1 << 0
    if n > 2:
        rows[1] ^= 1 << (n - 1)
        rows[2] ^= 1 << 1


def _out_of_range(rows, n):
    rows[1] |= 1 << n


def _negative(rows, n):
    rows[1] = -1


def _not_int(rows, n):
    rows[1] = 1.0


@pytest.mark.parametrize("n", [2, 200])
@pytest.mark.parametrize("corrupt, message", [
    (_loop, "loop at vertex {last}"),
    (_first_asymmetric_pair, r"adjacency not symmetric at \(0,{last}\)"),
    (_out_of_range, "row 1 has bits outside 0..n-1"),
    (_negative, "row 1 has bits outside 0..n-1"),
    (_not_int, "row 1 is not an int"),
], ids=["loop", "asymmetric", "out-of-range", "negative", "non-int"])
def test_public_constructor_rejects(n, corrupt, message):
    rows = symmetric_rows(n, 5)
    corrupt(rows, n)
    with pytest.raises(ValueError, match=message.format(last=n - 1)):
        Graph(n, tuple(rows))


def test_public_constructor_rejects_bad_shape():
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="exactly n rows"):
        Graph(3, (0, 0))


# ---------------------------------------------------------------------
# argument checks of the derived-graph methods
# ---------------------------------------------------------------------


@pytest.mark.parametrize("op, message", [
    pytest.param(lambda g: g.add_edge(0, 5), r"edge \(0, 5\) has an endpoint outside 0..4", id="add_edge-high"),
    pytest.param(lambda g: g.add_edge(-1, 2), "outside 0..4", id="add_edge-negative"),
    pytest.param(lambda g: g.add_edge(2, 2), "loop", id="add_edge-loop"),
    pytest.param(lambda g: g.remove_edge(4, 5), "outside 0..4", id="remove_edge-high"),
    pytest.param(lambda g: g.remove_edge(-1, 3), "outside 0..4", id="remove_edge-negative"),
    pytest.param(lambda g: g.delete_vertex(5), "vertex 5 outside 0..4", id="delete_vertex-high"),
    pytest.param(lambda g: g.delete_vertex(-1), "vertex -1 outside 0..4", id="delete_vertex-negative"),
    pytest.param(lambda g: g.induced([0, 2, 0]), "distinct", id="induced-repeated"),
    pytest.param(lambda g: g.induced([0, 5]), "lie in 0..4", id="induced-high"),
    pytest.param(lambda g: g.induced([-1, 0]), "lie in 0..4", id="induced-negative"),
    pytest.param(lambda g: g.relabel([1, 0, 2, 3]), "permutation", id="relabel-short"),
    pytest.param(lambda g: g.relabel([1, 0, 2, 3, 4, 5]), "permutation", id="relabel-long"),
    pytest.param(lambda g: g.relabel([1, 1, 2, 3, 4]), "permutation", id="relabel-repeated"),
    pytest.param(lambda g: g.relabel([1, 2, 3, 4, 5]), "permutation", id="relabel-out-of-range"),
    pytest.param(lambda g: g.relabel([-1, 0, 1, 2, 3]), "permutation", id="relabel-negative"),
])
def test_derived_graph_argument_checks(op, message):
    with pytest.raises(ValueError, match=message):
        op(path_graph(5))


def test_derived_graphs_stay_simple():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 12)), 0.4, rng)
        i, j = (int(t) for t in rng.choice(g.n, 2, replace=False))
        perm = [int(t) for t in rng.permutation(g.n)]
        keep = sorted(int(t) for t in rng.choice(g.n, g.n // 2, replace=False))
        for h in (g.add_edge(i, j), g.remove_edge(i, j), g.delete_vertex(i),
                  g.induced(keep), g.relabel(perm), join(g, g), disjoint_union(g, g)):
            assert Graph(h.n, h.rows) == h  # passes the public validation
    for h in (y_graph(3, 11), y_graph(4, 13), turan(4, 13), generalized_book(3, 2),
              u_graph(6), complete_graph(5), empty_graph(3), cycle_graph(6)):
        assert Graph(h.n, h.rows) == h


# ---------------------------------------------------------------------
# graph6 codec against networkx, and its errors
# ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 130), p=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_graph6_matches_networkx(n, p, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(n, p, rng)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    expected = nx.to_graph6_bytes(h, header=False).decode().rstrip("\n")
    s = graph6_encode(g)
    assert s == expected
    assert graph6_decode(s) == g


def test_graph6_header_switch_at_63():
    assert graph6_encode(empty_graph(62))[0] == chr(62 + 63)
    assert graph6_encode(empty_graph(63))[:4] == "~??~"
    for n in (62, 63):
        assert graph6_decode(graph6_encode(complete_graph(n))) == complete_graph(n)


def test_graph6_36_bit_header_round_trip():
    # graph6 readers accept a 36-bit header for any order >= 63
    body = graph6_encode(complete_graph(63))[4:]
    assert graph6_decode("~~?????~" + body) == complete_graph(63)


def test_graph6_large_round_trip():
    g = y_graph(3, 3200)
    s = graph6_encode(g)
    assert s.startswith("~?q?")  # 3200 = 0 * 64^2 + 50 * 64 + 0
    assert graph6_decode(s).rows == g.rows


@pytest.mark.parametrize("k", [0, 1, 5, 11])
@pytest.mark.parametrize("ch", ["\u00e9", "\u20ac", "\U0001f600"])
def test_graph6_non_ascii_offset(k, ch):
    s = graph6_encode(complete_graph(12))
    bad = s[:k] + ch + s[k + 1:]
    with pytest.raises(Graph6ParseError, match=f"byte {ord(ch)} outside") as ei:
        graph6_decode(bad)
    assert ei.value.offset == k


def test_graph6_first_bad_byte_wins():
    s = graph6_encode(complete_graph(7))
    with pytest.raises(Graph6ParseError, match="byte 32 outside") as ei:
        graph6_decode(s[:2] + " " + s[3:5] + "\u00e9" + s[6:])
    assert ei.value.offset == 2


@pytest.mark.parametrize("text, message, offset", [
    pytest.param("B" + chr(126), "nonzero padding bits", 1, id="padding"),
    # K_63: 1953 bits in 326 bytes, the last one 111000; "@" sets a padding bit
    pytest.param(graph6_encode(complete_graph(63))[:-1] + "@", "nonzero padding bits", 4 + 325,
                 id="padding-long-form"),
    pytest.param("~??", "truncated 18-bit length header", 3, id="truncated-18"),
    pytest.param("~", "truncated 18-bit length header", 1, id="truncated-18-marker-only"),
    pytest.param("~~?????", "truncated 36-bit length header", 7, id="truncated-36"),
    pytest.param("~~~", "truncated 36-bit length header", 3, id="truncated-36-short"),
    pytest.param("~???", "long-form header used for small order 0", 0, id="long-form-small"),
    pytest.param("Bwww", "expected 1 edge bytes for order 3, got 3", 1, id="body-long"),
    pytest.param("B", "expected 1 edge bytes for order 3, got 0", 1, id="body-missing"),
    pytest.param("~??~" + "?" * 10, "expected 326 edge bytes for order 63, got 10", 4,
                 id="body-short-long-form"),
    pytest.param(">>graph6<<", "empty graph6 string", 0, id="empty"),
])
def test_graph6_error_messages_and_offsets(text, message, offset):
    with pytest.raises(Graph6ParseError, match=message) as ei:
        graph6_decode(text)
    assert ei.value.offset == offset
