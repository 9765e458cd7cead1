"""Canonical labeling against a brute-force oracle, census counts against the
cycle-index formula, and the exhaustive searches at known small cases."""

import hashlib
import math
import threading
import time
import weakref
from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import spexlab.search as search
from spexlab.graphs import (
    Graph,
    _family_pattern,
    _y_graph_cells,
    bits,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    make_multipartite,
    path_graph,
    turan,
    u_graph,
    y_graph,
)
from spexlab.quotient import Partition, quotient_matrix, y_graph_quotient_partition
from spexlab.random_graphs import random_graph
from spexlab.search import (
    FAMILY_CONFIG_GUARD,
    PredicateSpec,
    _cell_graph_rho,
    _census,
    _family_cell_sizes,
    _family_configs,
    _family_y_key,
    _partitions_into,
    are_isomorphic,
    canonical_certificate,
    canonical_form,
    canonical_graph6,
    conjecture_scan,
    enumerate_graphs,
    ex_search,
    hill_climb,
    lemma27_scan,
    spex_search,
)
from spexlab.spectral import TIE_TOL, spectral_radius
from spexlab.structure import (
    FeasibilityError,
    contains_clique,
    contains_generalized_book,
    is_r_colorable,
)


def brute_canonical_graph6(g: Graph) -> str:
    """Minimum graph6 string over all relabelings, no pruning. The strings of
    one order share their length and header, and graph6 maps each 6-bit group
    of the column-major upper triangle monotonically to one byte, so the
    minimal bit tuple is found first and encoded once, here, without the
    package's encoder."""
    n = g.n
    adj = [[(g.rows[u] >> v) & 1 for v in range(n)] for u in range(n)]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    best = min(tuple(adj[p[i]][p[j]] for i, j in pairs) for p in permutations(range(n)))
    padded = best + (0,) * (-len(best) % 6)
    groups = (padded[t:t + 6] for t in range(0, len(padded), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, b)), 2)) for b in groups)


def burnside_graph_count(n: int) -> int:
    """Number of isomorphism classes of order-n graphs via the pair cycle index."""

    def partitions(total, mx=None):
        if mx is None:
            mx = total
        if total == 0:
            yield ()
            return
        for first in range(min(total, mx), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    total = Fraction(0)
    for lam in partitions(n):
        mult = {}
        for part in lam:
            mult[part] = mult.get(part, 0) + 1
        z = 1
        for size, m in mult.items():
            z *= size**m * math.factorial(m)
        q = sum(part // 2 for part in lam)
        q += sum(
            math.gcd(lam[i], lam[j]) for i in range(len(lam)) for j in range(i + 1, len(lam))
        )
        total += Fraction(2**q, z)
    assert total.denominator == 1
    return int(total)


def test_canonical_form_matches_brute_force():
    # the canonical form is the certificate labelling: a graph of g's class (the
    # same brute-force lex-min string), its own canonical form, and the same for
    # every relabelling of g
    rng = np.random.default_rng(21)
    graphs = [turan(2, 5), cycle_graph(5), u_graph(6), make_multipartite([1, 2, 3])]
    graphs += [random_graph(int(rng.integers(1, 8)), float(rng.uniform(0.1, 0.9)), rng)
               for _ in range(40)]
    names = {}
    for g in graphs:
        g6 = canonical_graph6(g)
        form = graph6_decode(g6)
        assert brute_canonical_graph6(form) == brute_canonical_graph6(g)
        assert canonical_graph6(form) == g6
        assert canonical_graph6(g.relabel([int(t) for t in rng.permutation(g.n)])) == g6
        names.setdefault(brute_canonical_graph6(g), set()).add(g6)
    assert all(len(g6s) == 1 for g6s in names.values())


def test_canonical_form_is_an_invariant():
    rng = np.random.default_rng(22)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.1, 0.9)), rng)
        perm = [int(t) for t in rng.permutation(g.n)]
        assert canonical_form(g).rows == canonical_form(g.relabel(perm)).rows
        assert are_isomorphic(g, g.relabel(perm))


@pytest.mark.parametrize("g", [complete_graph(1100), path_graph(20)], ids=["K1100", "P20"])
def test_canonical_form_names_large_orders_at_once(g):
    # the lex-min branch and bound exhausted the recursion limit on K_1100 and
    # ran for minutes on P_20, so it refused both; the certificate names them
    t0 = time.perf_counter()
    form = canonical_form(g)
    assert time.perf_counter() - t0 < 1.0
    assert (form.n, form.edge_count, form.degree_sequence()) == (
        g.n, g.edge_count, g.degree_sequence())
    assert form.is_connected()  # with those degrees, K_1100 and P_20 again
    assert canonical_certificate(form) == form.rows
    assert canonical_graph6(form) == graph6_encode(form)
    assert canonical_graph6(path_graph(12)) == "K???GSSIA_S?"  # the lex-min name too


def test_canonical_forms_of_the_order7_census_are_pinned():
    # the published representatives of all 1,044 classes, pinned as a sorted
    # list: the order in which the census holds its classes is not a contract.
    # They are the census's own certificate rows, so the digest is the order-7
    # pin of test_census_certificate_rows_are_pinned
    census = tuple(_census(7, (None, None)))
    rows = repr(sorted(canonical_form(g).rows for g in census)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "8ffd270f3d7086cc9443187c79238e1a3a74b35a66f87635a75e36f1fe425881")


@pytest.mark.parametrize("n, prune_key, count, digest", [
    (8, (4, None), 6431, "d0d1022e8a18fcceac41c8157fec6b5c91ef81b328e42eed2f3ee3e7487489be"),
    (8, (3, None), 410, "ad73fdbe3ef61ab791e83c3bac393787da23d9ef7215284f34d9275bbc64c289"),
    (7, (None, (3, 2)), 855, "e052e1e542a0e42aa5155d6e131502fabe3081e6b0aa8f7312ef494d41115fd9"),
    (7, (None, None), 1044, "8ffd270f3d7086cc9443187c79238e1a3a74b35a66f87635a75e36f1fe425881"),
    (8, (None, (3, 2)), 8861, "62fd4f2ab25a262f477daf63314a05bef10e3097635860ea4bbbdefd4ee4a993"),
    (8, (None, (2, 3)), 4771, "4a2ceba5f96b4b21dc87df53ecc28c7f961b727f4aa1e06803269aa0fbcff0ac"),
])
def test_census_certificate_rows_are_pinned(n, prune_key, count, digest):
    # the certificate rows of every class, sorted, so the pin does not depend
    # on the order in which the census holds its classes
    census = tuple(_census(n, prune_key))
    assert len(census) == count
    rows = repr(sorted(g.rows for g in census)).encode()
    assert hashlib.sha256(rows).hexdigest() == digest


def test_book_census_builds_no_degeneracy_order(monkeypatch):
    # the census asks the clique kernel yes or no, which any root order answers
    import spexlab.structure as structure_mod

    def refuse(g):
        raise AssertionError("the census needs no root order")

    monkeypatch.setattr(structure_mod, "degeneracy_order", refuse)
    census = tuple(_census(7, (None, (3, 2))))
    assert len(census) == 855
    rows = repr(sorted(g.rows for g in census)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "e052e1e542a0e42aa5155d6e131502fabe3081e6b0aa8f7312ef494d41115fd9")


def is_max_edge(rows, i, j):
    """Whether edge ij maximises the edge key among all edges of ``rows``: the
    whole-graph scan that the census's incremental test replaces."""
    deg = [r.bit_count() for r in rows]
    key = search._edge_key(rows, deg, i, j)
    return all(search._edge_key(rows, deg, u, v) <= key
               for u in range(len(rows)) for v in bits(rows[u]) if u < v)


def test_edge_key_maximisers_are_invariant():
    rng = np.random.default_rng(24)
    for _ in range(80):
        g = random_graph(int(rng.integers(2, 10)), float(rng.uniform(0.1, 0.9)), rng)
        perm = [int(t) for t in rng.permutation(g.n)]
        h = g.relabel(perm)
        edges = list(g.edges())
        deg = [r.bit_count() for r in g.rows]
        top = max((search._edge_key(g.rows, deg, u, v) for u, v in edges), default=None)
        best = {(u, v) for u, v in edges if is_max_edge(g.rows, u, v)}
        assert best == {(u, v) for u, v in edges
                        if search._edge_key(g.rows, deg, u, v) == top}
        assert bool(best) == bool(edges)
        moved = {tuple(sorted((perm[u], perm[v]))) for u, v in best}
        assert moved == {(u, v) for u, v in h.edges() if is_max_edge(h.rows, u, v)}


# every forbidden K_q and B(r,k) that the local checks are held to
LOCAL_CHECK_KEYS = [(q, None) for q in (2, 3, 4, 5)] + [
    (None, book) for book in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))]


def with_edge(rows, i, j):
    child = list(rows)
    child[i] |= 1 << j
    child[j] |= 1 << i
    return tuple(child)


def marked(g: nx.Graph, pair) -> nx.Graph:
    h = g.copy()
    nx.set_node_attributes(h, {v: v in pair for v in h}, "end")
    return h


def same_aut_orbit(g: nx.Graph, h: nx.Graph) -> bool:
    """Whether an automorphism maps the pair marked in g onto the pair marked
    in h, two marked copies of one graph: networkx's VF2 matcher."""
    return nx.algorithms.isomorphism.GraphMatcher(
        g, h, node_match=lambda a, b: a["end"] == b["end"]).is_isomorphic()


@pytest.mark.parametrize("n, census_key", [(7, (None, None)), (8, (4, None))])
def test_local_child_checks_match_whole_child_oracles(n, census_key):
    # every non-edge child of every class: the incremental edge-key test against
    # the whole-child scan, the local K_q / B(r,k) test against whole-child
    # _free_of for every key the parent is free of; the twin swaps and the
    # certificate's found automorphisms are automorphisms, and the parent tries
    # exactly one maximising non-edge per orbit of its automorphism group,
    # which networkx's matcher decides
    for parent in _census(n, census_key):
        rows = parent.rows
        edges = set(parent.edges())
        generators = search._certificate(rows)[1]
        swaps = []
        for v, h in enumerate(search._twin_heads(rows, range(n))):
            swap = list(range(n))
            swap[v], swap[h] = h, v
            swaps.append(swap)
        for perm in generators + swaps:
            assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
        keys = [key for key in LOCAL_CHECK_KEYS if search._free_of(key, parent)]
        maximal = []
        for i, j in combinations(range(n), 2):
            if (rows[i] >> j) & 1:
                continue
            child = with_edge(rows, i, j)
            if is_max_edge(child, i, j):
                maximal.append((i, j))
            for key in keys:
                assert search._free_with_new_edge(key, rows, i, j) == search._free_of(
                    key, Graph._unchecked(n, child)), (rows, i, j, key)
        tried = list(search._max_edge_children(rows, generators))
        assert set(tried) <= set(maximal)
        # pairs of one orbit have isomorphic children: only those need the matcher
        g = to_nx(parent)
        children = {e: canonical_certificate(Graph._unchecked(n, with_edge(rows, *e))) for e in maximal}
        ends = {e: marked(g, e) for e in maximal}
        for e in maximal:
            assert sum(children[t] == children[e] and same_aut_orbit(ends[e], ends[t])
                       for t in tried) == 1, (rows, e)


def test_census_makes_no_whole_child_checks(monkeypatch):
    # the order-8 K4-free census decides each child from the new edge's ends;
    # one child per automorphism orbit keeps its certificates at 8,000 (11,149
    # before twin-orbit pruning, 9,759 with twin orbits alone)
    def refuse(*args):
        raise AssertionError("the census checks children locally")

    monkeypatch.setattr(search, "_free_of", refuse)
    # the census's own count: its certificates are made in whichever process
    # expands the level (test_pooled_and_in_process_census_agree)
    counted = search._Census(8, (4, None))
    census = tuple(g for g, _ in counted)
    assert len(census) == 6431
    assert counted.certified <= 8_000
    rows = repr(sorted(g.rows for g in census)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "d0d1022e8a18fcceac41c8157fec6b5c91ef81b328e42eed2f3ee3e7487489be")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 12), data=st.data())
def test_column_codes_sort_as_graph6(n, data):
    # _published sorts one order's classes by this integer instead of graph6
    pairs = list(combinations(range(n), 2))
    graphs = []
    for mask in data.draw(st.lists(st.integers(0, 2 ** len(pairs) - 1), min_size=2, max_size=6)):
        rows = [0] * n
        for t, (i, j) in enumerate(pairs):
            if (mask >> t) & 1:
                rows = list(with_edge(rows, i, j))
        graphs.append(Graph(n, tuple(rows)))
    assert sorted(graphs, key=search._column_code) == sorted(graphs, key=graph6_encode)


def test_census_counts_match_cycle_index():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert burnside_graph_count(n) == count
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_graphs(n)) == expected[n], n


def test_census_matches_labeled_dedup_oracle():
    # independent oracle: dedupe all labeled graphs by brute-force minimum form,
    # against the brute-force forms of the census members
    for n in range(1, 6):
        forms = set()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for t, (i, j) in enumerate(pairs):
                if (mask >> t) & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            forms.add(brute_canonical_graph6(Graph(n, tuple(rows))))
        census = list(enumerate_graphs(n))
        assert len(census) == len(forms)
        assert {brute_canonical_graph6(g) for g in census} == forms


def test_census_graphs_are_canonical_and_ordered():
    prev = None
    for g in enumerate_graphs(6):
        assert canonical_form(g).rows == g.rows
        key = (g.edge_count, graph6_encode(g))
        if prev is not None:
            assert key > prev
        prev = key


def test_census_members_are_certificate_fixed_points():
    # the enumeration represents each class by its certificate rows, which are
    # also its printed name
    census = tuple(_census(7, (4, None)))
    assert len(census) == 685
    for g in census:
        assert canonical_certificate(g) == g.rows


# Printed names since they became certificate strings: the lex-min name that
# each pin, document or earlier output held, and the name printed now for the
# same class. A change of the certificate's refinement or cell order renames
# classes again, and would need this table again.
RENAMED = {
    "GFznno": "GLr~vo",  # y_graph(3, 8), the order-8 B(3,1) and B(3,2) champion
    "GBj^V_": "GJemnO",  # rho = sqrt(16) exactly
    "I@vVF~}~_": "IBY^F~}~_",  # y_graph(3, 10), the order-10 B(3,1) and B(3,2) champion
    "F@vV_": "FBY^G",  # the liu_miao_U champion at m = 11
    "G?FnVo": "G?\\s^c",  # the liu_miao_U champion at m = 14
    "G?FnV_": "G?`zv_",  # an order-8 non-bipartite triangle-free graph with 13 edges
    "H@vf~z{": "H@vf~z{",  # y_graph(3, 9)
    "HLr~v~}": "HLr~v~}",  # the order-9 B(3,3) champion
    "GFzf~w": "GFzf~w",  # T_3(8)
    "K???GSSIA_S?": "K???GSSIA_S?",  # P_12
}


def to_nx(g: Graph) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("old, new", sorted(RENAMED.items()))
def test_renamed_pins_name_the_same_classes(old, new):
    g, h = graph6_decode(old), graph6_decode(new)
    assert are_isomorphic(g, h)
    assert nx.is_isomorphic(to_nx(g), to_nx(h))
    assert canonical_graph6(g) == canonical_graph6(h) == new


def certificates_outside_the_census(monkeypatch):
    """Spy on certificates, with every census level expanded in-process. The
    returned function gives the number made since its last call by anything
    but a census or an ``are_isomorphic`` call, and the number each
    ``are_isomorphic`` call made, and starts counting again."""
    calls, censuses, iso = [], [], []
    certify, real_iso = search._certificate, search.are_isomorphic

    class Census(search._Census):
        def __init__(self, *args):
            super().__init__(*args)
            censuses.append(self)

    def are_isomorphic(g, h):
        before = len(calls)
        answer = real_iso(g, h)
        iso.append(len(calls) - before)
        return answer

    force_census_mode(monkeypatch, False)
    monkeypatch.setattr(search, "_certificate", lambda g: calls.append(g) or certify(g))
    monkeypatch.setattr(search, "are_isomorphic", are_isomorphic)
    monkeypatch.setattr(search, "_Census", Census)

    def outside():
        assert calls, "the spy saw no certificate"
        made = len(calls) - sum(c.certified for c in censuses) - sum(iso)
        verdicts = list(iso)
        for seen in (calls, censuses, iso):
            seen.clear()
        return made, verdicts

    return outside


def test_searches_canonicalise_only_the_champions(monkeypatch):
    # a champion is a census member, so its certificate labelling is its name:
    # a search makes no certificate outside the census
    outside = certificates_outside_the_census(monkeypatch)
    for run in (spex_search, ex_search):
        rep = run(7, PredicateSpec(forbid_clique=4))
        assert len(rep.champions) == 1
        assert outside() == (0, []), run.__name__


def test_searches_hold_only_their_near_maximum_classes(monkeypatch):
    # each census graph counts as live from its yield until it is freed: the
    # searches read the census once and hold only the classes near the maximum
    counts = {"live": 0, "peak": 0, "made": 0}
    real = search._Census
    censuses = []

    def freed():
        counts["live"] -= 1

    def counted(n, keep, judge=None):
        census = real(n, keep, judge)
        censuses.append(census)
        for g, verdict in census:
            counts["made"] += 1
            counts["live"] += 1
            counts["peak"] = max(counts["peak"], counts["live"])
            weakref.finalize(g, freed)
            yield g, verdict

    monkeypatch.setattr(search, "_Census", counted)
    # spex_search holds a handful; ex_search climbs one edge level at a time,
    # and the largest level of the order-8 K4-free census has 1,061 classes
    for run, most in ((spex_search, 16), (ex_search, 1099)):
        counts.update(live=0, peak=0, made=0)
        censuses.clear()
        rep = run(8, PredicateSpec(forbid_clique=4))
        counts["certified"] = sum(census.certified for census in censuses)
        assert counts["made"] == rep.graphs_scanned == 6431, run.__name__
        assert counts["peak"] <= most, (run.__name__, counts["peak"])
        assert counts["live"] == 0, run.__name__
        # the edge-key filter and automorphism-orbit pruning certify about
        # 1.24 children per class at order 8; certifying every child that
        # passes the predicate costs 12.1
        assert counts["certified"] <= 1.25 * counts["made"], run.__name__


def force_census_mode(monkeypatch, pooled):
    """Expand every level in a pool of two forked workers (one CPU or more), or
    every level in-process."""
    monkeypatch.setattr(search, "_POOL_MIN_LEVEL", 1 if pooled else math.inf)
    monkeypatch.setattr(search, "_pool_workers", lambda: 2)


@pytest.mark.parametrize("n, key, digest", [
    (7, (None, None), "8ffd270f3d7086cc9443187c79238e1a3a74b35a66f87635a75e36f1fe425881"),
    (8, (4, None), "d0d1022e8a18fcceac41c8157fec6b5c91ef81b328e42eed2f3ee3e7487489be"),
])
def test_pooled_and_in_process_census_agree(monkeypatch, n, key, digest):
    # the same classes and certificate count both ways, and in-process the
    # count is the number of certificate calls; pooled, none is made here
    calls = []
    certify = search._certificate
    monkeypatch.setattr(search, "_certificate", lambda g: calls.append(g) or certify(g))
    seen = []
    for pooled in (True, False):
        force_census_mode(monkeypatch, pooled)
        calls.clear()
        census = search._Census(n, key)
        rows = repr(sorted(g.rows for g, _ in census)).encode()
        assert hashlib.sha256(rows).hexdigest() == digest, pooled
        assert len(calls) == (0 if pooled else census.certified), pooled
        seen.append(census.certified)
    assert seen[0] == seen[1]


@pytest.mark.parametrize("pred", [
    PredicateSpec(forbid_clique=4),
    PredicateSpec(forbid_book=(3, 2)),
    PredicateSpec(forbid_book=(3, 1), require_non_r_partite=3),
])
def test_pooled_and_in_process_searches_agree(monkeypatch, pred):
    for run in (spex_search, ex_search):
        reports = []
        for pooled in (True, False):
            force_census_mode(monkeypatch, pooled)
            reports.append(run(8, pred).to_json_dict())
        assert reports[0] == reports[1], run.__name__


@pytest.mark.parametrize("kind", ["nosal_book", "liu_miao_U", "sqrt_2m_bound"])
def test_pooled_and_in_process_scans_agree(monkeypatch, kind):
    reports = []
    for pooled in (True, False):
        force_census_mode(monkeypatch, pooled)
        reports.append(conjecture_scan(kind, 7).to_json_dict())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kind", ["nosal_book", "sqrt_2m_bound"])
def test_bound_scans_print_the_rho_the_census_judged(monkeypatch, kind):
    # each class is solved once, by its judge; at r = 2, k = 3 a second solve of
    # each of the 1,423 order-8 sqrt_2m_bound violations made 6,966 solves
    calls = []
    real = search._rhos
    monkeypatch.setattr(search, "_rhos", lambda graphs: calls.extend(graphs) or real(graphs))
    force_census_mode(monkeypatch, False)
    rep = conjecture_scan(kind, 8, r=2, k=3)
    assert rep.violations and len(calls) == rep.scanned


def test_census_filter_colours_members_as_they_are(monkeypatch):
    # the twin-contracted colouring view is check's; the search colours the
    # census members' own rows
    from spexlab.structure import _contract_twins

    force_census_mode(monkeypatch, False)
    misses = _contract_twins.cache_info().misses
    rep = spex_search(8, PredicateSpec(forbid_book=(3, 1), require_non_r_partite=3))
    assert rep.feasible_count > 0
    assert _contract_twins.cache_info().misses == misses


def test_census_pool_judges_in_workers_and_ends_with_the_census(monkeypatch):
    import multiprocessing
    import os

    monkeypatch.setattr(search, "_pool_workers", lambda: 2)
    # levels 9 to 16 of the order-8 K4-free census have at least 256 classes
    # (340 to 1,061), and only those are expanded and judged by the pool
    judged = {g.edge_count: pid for g, pid in
              search._Census(8, (4, None), lambda graphs: [os.getpid()] * len(graphs))}
    assert {m for m, pid in judged.items() if pid != os.getpid()} == set(range(9, 17))
    assert multiprocessing.active_children() == []
    # closed after the first class of the first pooled level, other chunks in flight
    census = iter(search._Census(8, (4, None)))
    assert any(g.edge_count == 9 for g, _ in census)
    assert multiprocessing.active_children()
    census.close()
    assert multiprocessing.active_children() == []

    # the search's non-r-colourability filter raises in a worker
    def colorable(g, r):
        if g.edge_count == 12:
            raise ArithmeticError(f"judged in process {os.getpid()}")
        return real(g, r)

    real = search._colorable
    monkeypatch.setattr(search, "_colorable", colorable)
    with pytest.raises(ArithmeticError, match="judged in process") as raised:
        spex_search(8, PredicateSpec(forbid_clique=4, require_non_r_partite=3))
    assert str(os.getpid()) not in str(raised.value)
    assert multiprocessing.active_children() == []


def test_worker_exceptions_that_would_not_unpickle_are_renamed(monkeypatch):
    # an exception whose constructor takes other arguments than its message
    # fails to unpickle in the parent, which would stop the pool's result
    # thread; it arrives as a RuntimeError that names it
    from spexlab.quotient import EquitabilityError

    def rhos(graphs):
        raise EquitabilityError(0, 1, 2, 3, 4, 5)

    def run():
        try:
            spex_search(7, PredicateSpec(forbid_clique=4))
        except RuntimeError as exc:
            raised.append(exc)

    force_census_mode(monkeypatch, True)
    monkeypatch.setattr(search, "_rhos", rhos)
    raised = []
    searching = threading.Thread(target=run, daemon=True)
    searching.start()
    searching.join(timeout=60)
    assert not searching.is_alive(), "the census hangs"
    assert [type(exc) for exc in raised] == [RuntimeError]
    assert str(raised[0]) == ("EquitabilityError: partition not equitable: vertices 2 and 3 "
                              "of cell 0 have 4 vs 5 neighbours in cell 1")


def test_order9_non_3_partite_b31_champion_is_pinned():
    # ROADMAP item 1's order-9 case; about 13 s on two CPUs with the census pool
    rep = spex_search(9, PredicateSpec(forbid_book=(3, 1), require_non_r_partite=3))
    assert rep.champions == (("H@vf~z{", 5.586148030011217),)
    assert rep.gap_to_runner_up == 0.0035723350553773514
    assert (rep.graphs_scanned, rep.feasible_count) == (103_164, 14_664)
    assert rep.ties_within_tol == ()


@pytest.fixture(scope="module")
def order6_census():
    return tuple(_census(6, (None, None)))


# no shrink phase: shrinking a failure of this draw took minutes before it reported
@settings(max_examples=30, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(data=st.data(), tie_tol=st.sampled_from([0.0, TIE_TOL]))
def test_one_pass_search_matches_the_batch_definition(order6_census, data, tie_tol):
    # exact ties, values exactly tie_tol below the maximum and one ulp below
    # that, in any arrival order, against the definition over the whole census;
    # ascending arrival makes every value below the final window one that a
    # rising maximum dropped from it
    census = data.draw(st.permutations(order6_census))
    top = data.draw(st.floats(-8, 8))
    ladder = [top, top - tie_tol, math.nextafter(top - tie_tol, -math.inf), top - 1]
    drawn = data.draw(st.lists(st.sampled_from(ladder), min_size=156, max_size=156))
    if data.draw(st.booleans()):
        drawn.sort()
    table = {g.rows: v for g, v in zip(census, drawn)}
    pred = data.draw(st.sampled_from([PredicateSpec(require_connected=True),
                                      PredicateSpec(forbid_clique=7)]))
    feasible = [g for g in census if pred._beyond_census(g)]
    values = [table[g.rows] for g in feasible]
    best = max(values)
    champions = tuple(sorted((canonical_graph6(g), v) for g, v in zip(feasible, values)
                             if v >= best - tie_tol))
    runner = max((v for v in values if v < best - tie_tol), default=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_Census", lambda n, key, judge: zip(census, judge(census)))
        rep = search._extremal_search(6, pred, "rho", lambda gs: [table[g.rows] for g in gs],
                                      tie_tol)
    assert rep.champions == champions
    assert rep.gap_to_runner_up == (None if runner is None else best - runner)
    assert rep.ties_within_tol == (tuple(g6 for g6, _ in champions) if len(champions) > 1 else ())
    assert (rep.graphs_scanned, rep.feasible_count) == (156, len(feasible))


def test_scans_canonicalise_only_what_they_print(monkeypatch):
    # what a scan prints is a census member, named by its certificate
    # labelling: a scan makes no certificate outside the census. liu_miao_U's
    # only others are its verdicts champion_is_u, one are_isomorphic per m,
    # which certifies the stripped champion and U(m) when orders and sizes agree
    outside = certificates_outside_the_census(monkeypatch)
    rep = conjecture_scan("nosal_book", 6, k=2)
    assert (rep.scanned, len(rep.violations), len(rep.equality_witnesses)) == (107, 17, 31)
    assert outside() == (0, [])
    rep = conjecture_scan("sqrt_2m_bound", 7, r=3, k=1)
    assert (rep.scanned, len(rep.violations)) == (851, 0)
    assert outside() == (0, [])
    rep = conjecture_scan("sqrt_2m_bound", 7, r=2, k=3)
    assert len(rep.violations) == 325
    assert outside() == (0, [])
    rep = conjecture_scan("liu_miao_U", 7)
    made, verdicts = outside()
    assert made == 0 and len(verdicts) == len(rep.per_edge_champions) == 9
    assert set(verdicts) <= {0, 2}


def test_bound_scans_decide_near_ties_on_the_printed_form(monkeypatch):
    # rho(GBj^V_) = 4 = sqrt(16) exactly. eigh gave 4.000000000000001 on that
    # lex-min labelling, once printed, so at tol 0 the scans reported the class
    # as a violation. The certificate labelling GJemnO is what they decide on
    # and print now, and there eigh gives 4.0: at tol 0 an equality witness
    g = graph6_decode("GJemnO")
    assert canonical_graph6(graph6_decode("GBj^V_")) == "GJemnO" == graph6_encode(g)
    assert spectral_radius(g).rho == 4.0
    monkeypatch.setattr(search, "_Census", lambda n, key, judge: zip([g], judge([g])) if n == 8 else [])
    rep = conjecture_scan("sqrt_2m_bound", 8, r=2, k=3, tol=0.0)
    assert rep.violations == ()
    rep = conjecture_scan("nosal_book", 8, k=3, tol=0.0)
    assert rep.violations == ()
    assert rep.equality_witnesses == ("GJemnO",)


def test_triangle_free_counts_match_oeis():
    # OEIS A006785: triangle-free graphs on n unlabeled nodes
    for n, count in {7: 107, 8: 410}.items():
        rep = ex_search(n, PredicateSpec(forbid_clique=3))
        assert rep.graphs_scanned == rep.feasible_count == count, n


def test_census_pairwise_distinct_by_independent_canon():
    forms = [brute_canonical_graph6(g) for g in enumerate_graphs(6)]
    assert len(set(forms)) == len(forms) == 156


def test_census_dump(tmp_path):
    from spexlab.search import write_census

    g6 = tmp_path / "census5.g6"
    cs = tmp_path / "census5.csv"
    assert write_census(5, g6, cs) == 34
    lines = g6.read_text().splitlines()
    assert len(lines) == 34
    assert all(graph6_decode(t).n == 5 for t in lines)
    rows = cs.read_text().splitlines()
    assert rows[0] == "graph6,n,m,rho,chi,connected,bipartite"
    assert len(rows) == 35


# sha256 of the graph6 file followed by the CSV file that write_census(n)
# writes; the dump shares the census sweep with the conjecture scans
CENSUS_DUMP_PINS = {
    0: "f1e17e5522444ba14a5a458690cc824d576943492e4085cad9234110fce76841",
    1: "161660361df6437f3f419ca4e0c8fe7a9422a624a6f2ad04c1911bd4459a5068",
    2: "c4722a49f3bd52470c6bcfa3834cfe41c5f0b571215f5325c40c04cfca2616b6",
    3: "7cd0968f3d6f41b900eadf2a66e297deea0ea6248a83e561e6897a46088ba7ef",
    4: "0f482637726a6000ca50d3a103fa272069a7f9ee1e1023e6215298527bb827e5",
    5: "aba08a138afc63780b28bf8c509714ede137b131dece1348434e0db1bcf90c72",
    6: "6e350a41f29f62d04acb3b4a85e615e877a2b01818d81b59ae6ccaeccb77e62e",
}


@pytest.mark.parametrize("n", sorted(CENSUS_DUMP_PINS))
def test_census_dump_bytes(tmp_path, n):
    from spexlab.search import write_census

    g6, cs = tmp_path / "census.g6", tmp_path / "census.csv"
    write_census(n, g6, cs)
    digest = hashlib.sha256(g6.read_bytes() + cs.read_bytes()).hexdigest()
    assert digest == CENSUS_DUMP_PINS[n]


@pytest.mark.parametrize("n, error", [(11, FeasibilityError), (-1, ValueError)])
def test_refused_census_dump_leaves_the_files_as_they_were(tmp_path, n, error):
    from spexlab.search import write_census

    g6, cs = tmp_path / "census.g6", tmp_path / "census.csv"
    g6.write_bytes(b"keep\n")
    cs.write_bytes(b"a,b\r\n1,2\r\n")
    with pytest.raises(error):
        write_census(n, g6, cs)
    assert (g6.read_bytes(), cs.read_bytes()) == (b"keep\n", b"a,b\r\n1,2\r\n")


def test_enumeration_guard():
    with pytest.raises(FeasibilityError):
        list(enumerate_graphs(11))
    with pytest.raises(ValueError, match="nonnegative"):
        list(enumerate_graphs(-1))
    pred = PredicateSpec(forbid_clique=3)
    for search in (spex_search, ex_search):
        with pytest.raises(FeasibilityError):
            search(11, pred)
        with pytest.raises(ValueError, match="nonnegative"):
            search(-1, pred)


def test_predicate_spec_validation():
    with pytest.raises(ValueError):
        PredicateSpec()
    with pytest.raises(ValueError):
        PredicateSpec(forbid_book=(1, 1))
    with pytest.raises(ValueError, match="forbid_clique needs a clique order >= 2"):
        PredicateSpec(forbid_clique=1)
    with pytest.raises(ValueError, match="require_non_r_partite"):
        PredicateSpec(forbid_clique=3, require_non_r_partite=0)
    p = PredicateSpec(forbid_book=(3, 1))
    assert p.prune_key() == (4, None)
    p = PredicateSpec(forbid_clique=3, forbid_book=(2, 2))
    assert p.prune_key() == (3, (2, 2))


def test_satisfies_matches_direct_formula():
    specs = [
        PredicateSpec(forbid_clique=q, forbid_book=b, require_non_r_partite=r,
                      require_connected=c)
        for q in (None, 3, 4)
        for b in (None, (2, 1), (3, 1), (2, 2), (3, 2))
        for r in (None, 2, 3)
        for c in (False, True)
        if (q, b, r, c) != (None, None, None, False)
    ]
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_graph(int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.9)), rng)
        for p in specs:
            direct = not (
                (p.forbid_clique is not None and contains_clique(g, p.forbid_clique))
                or (p.forbid_book is not None
                    and contains_generalized_book(g, *p.forbid_book)[0])
                or (p.require_non_r_partite is not None
                    and is_r_colorable(g, p.require_non_r_partite)[0])
                or (p.require_connected and not g.is_connected())
            )
            assert p.satisfies(g) == direct, (g.rows, p)


def test_spex_triangle_free_order5():
    rep = spex_search(5, PredicateSpec(forbid_clique=3))
    assert len(rep.champions) == 1
    g6, rho = rep.champions[0]
    assert g6 == canonical_graph6(turan(2, 5))
    assert rho == pytest.approx(math.sqrt(6), abs=1e-9)
    assert rep.gap_to_runner_up > 1e-6
    assert rep.exhaustive and rep.ties_within_tol == ()


def test_spex_k4_free_order7():
    rep = spex_search(7, PredicateSpec(forbid_clique=4))
    assert [g6 for g6, _ in rep.champions] == [canonical_graph6(turan(3, 7))]
    assert rep.gap_to_runner_up > 1e-6


def test_spex_champions_satisfy_predicate():
    pred = PredicateSpec(forbid_book=(2, 1), require_non_r_partite=2)
    rep = spex_search(6, pred)
    assert rep.champions
    for g6, _ in rep.champions:
        g = graph6_decode(g6)
        assert pred.satisfies(g)
        assert not contains_clique(g, 3)
        assert not is_r_colorable(g, 2)[0]


def test_spex_empty_feasible_set():
    # no triangle-free non-2-partite graph below five vertices
    for search in (spex_search, ex_search):
        rep = search(4, PredicateSpec(forbid_clique=3, require_non_r_partite=2))
        assert rep.champions == ()
        assert rep.feasible_count == 0
        assert rep.gap_to_runner_up is None and rep.ties_within_tol == ()
        assert rep.graphs_scanned == 7  # the triangle-free classes of order 4


def test_spex_ties_reported_in_graph6_order():
    # two B_{2,2}-free graphs of order 6 share rho = 3 (K_{3,3} and the
    # triangular prism, both 3-regular)
    rep = spex_search(6, PredicateSpec(forbid_book=(2, 2)))
    assert [g6 for g6, _ in rep.champions] == ["EFz_", "ELv_"]
    assert all(abs(rho - 3.0) <= 1e-9 for _, rho in rep.champions)
    assert rep.ties_within_tol == ("EFz_", "ELv_")
    assert rep.gap_to_runner_up > 1e-6


@pytest.mark.parametrize("search", [spex_search, ex_search])
@pytest.mark.parametrize("n, pred", [
    (6, PredicateSpec(forbid_book=(2, 2))),
    (7, PredicateSpec(forbid_clique=4)),
    (8, PredicateSpec(forbid_book=(2, 1), require_non_r_partite=2)),
])
def test_champion_strings_are_canonical(search, n, pred):
    rep = search(n, pred)
    assert rep.champions
    for g6, _ in rep.champions:
        assert canonical_graph6(graph6_decode(g6)) == g6


def test_spex_edgeless_feasible_set():
    # forbidding K_2 leaves only the edgeless graph
    rep = spex_search(5, PredicateSpec(forbid_clique=2))
    assert len(rep.champions) == 1
    assert rep.champions[0][1] == 0.0
    assert rep.gap_to_runner_up is None


def test_ex_small_knowns():
    rep = ex_search(5, PredicateSpec(forbid_clique=3))
    assert rep.champions == ((canonical_graph6(turan(2, 5)), 6),)
    assert rep.gap_to_runner_up == 1
    rep = ex_search(6, PredicateSpec(forbid_clique=4))
    assert rep.champions == ((canonical_graph6(turan(3, 6)), 12),)
    assert rep.gap_to_runner_up >= 1


def test_ex_non_bipartite_triangle_free_order7():
    # maximum size of a non-bipartite triangle-free graph: floor((n-1)^2/4) + 1
    rep = ex_search(7, PredicateSpec(forbid_book=(2, 1), require_non_r_partite=2))
    assert rep.champions[0][1] == 36 // 4 + 1


def test_lemma27_scan_small():
    rep = lemma27_scan(3, 9)
    assert rep.argmax_is_y and rep.unique
    assert rep.max_rho == pytest.approx(spectral_radius(y_graph(3, 9)).rho, abs=1e-8)
    assert rep.configs_scanned > 1
    rep = lemma27_scan(4, 12)
    assert rep.argmax_is_y and rep.unique
    rep = lemma27_scan(2, 4)  # one configuration: no rival, so no gap
    assert rep.configs_scanned == 1 and rep.gap_to_non_isomorphic is None
    assert rep.argmax_is_y and rep.unique
    with pytest.raises(ValueError):
        lemma27_scan(3, 5)
    with pytest.raises(ValueError, match="need r >= 2"):
        lemma27_scan(1, 5)


def recursive_partitions(total, parts, max_part=None):
    """The recursive generator the family scan used to enumerate part sizes."""
    if max_part is None:
        max_part = total
    if parts == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    for first in range(min(total - parts + 1, max_part), 0, -1):
        for rest in recursive_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def family_config_graph(sizes, slot_v, slot_w):
    """Reference build of a configuration: complete multipartite on sizes, a
    removed cross edge vw, and a new vertex adjacent to v, w and every part
    hosting neither."""
    base = make_multipartite(sizes)
    rows = list(base.rows)
    v = sum(sizes[:slot_v])
    w = sum(sizes[:slot_w])
    umask = (rows[v] & rows[w]) | (1 << v) | (1 << w)
    rows[v] &= ~(1 << w)
    rows[w] &= ~(1 << v)
    u = base.n
    for t in bits(umask):
        rows[t] |= 1 << u
    rows.append(umask)
    return Graph._unchecked(u + 1, tuple(rows))


def family_config_cells(sizes, slot_v, slot_w):
    """The cells u, v, w, A', B', then the other parts, of the reference build;
    a part of size 1 leaves its primed cell empty."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    blocks = [tuple(range(s, s + p)) for s, p in zip(starts, sizes)]
    v, w = starts[slot_v], starts[slot_w]
    others = [b for i, b in enumerate(blocks) if i not in (slot_v, slot_w)]
    return [(sum(sizes),), (v,), (w,), blocks[slot_v][1:], blocks[slot_w][1:]] + others


def graph_family_scan(r, n):
    """The family scan on built graphs: every slot pair of every partition,
    deduplicated by (sizes, slot sizes), with the dense radius and an
    isomorphism test against y_graph(r, n)."""
    y = y_graph(r, n)
    seen = set()
    best_rho, best_is_y, best_other = -math.inf, False, -math.inf
    for sizes in recursive_partitions(n - 1, r):
        for ia in range(r):
            for ib in range(ia + 1, r):
                key = (sizes, tuple(sorted((sizes[ia], sizes[ib]))))
                if key in seen:
                    continue
                seen.add(key)
                g = family_config_graph(sizes, ia, ib)
                rho = spectral_radius(g).rho
                is_y = are_isomorphic(g, y)
                if rho > best_rho:
                    best_rho, best_is_y = rho, is_y
                if not is_y:
                    best_other = max(best_other, rho)
    gap = None if best_other == -math.inf else best_rho - best_other
    return best_rho, best_is_y, len(seen), gap


def test_partitions_into_keeps_the_recursive_order():
    for total in range(31):
        for parts in range(1, 9):
            expanded = [
                tuple(v for v, c in runs for _ in range(c))
                for runs in _partitions_into(total, parts, total)
            ]
            assert expanded == list(recursive_partitions(total, parts)), (total, parts)


FAMILY_SWEEP = [(r, n) for r in range(2, 8) for n in range(2 * r, 40)]


def family_sweep_sha256(item):
    """sha256 over item(r, n) for every sweep case; a refused case adds the
    guard's message instead."""
    h = hashlib.sha256()
    for r, n in FAMILY_SWEEP:
        try:
            h.update(repr(item(r, n)).encode())
        except FeasibilityError as exc:
            h.update(str(exc).encode())
    return h.hexdigest()


def test_family_scan_sweep_is_pinned():
    # taken before the partition walk moved to (size, multiplicity) runs;
    # (7, 39) is the one case refused by the guard
    assert family_sweep_sha256(lambda r, n: list(_family_configs(r, n))) == (
        "33a1200b758e0e836d12fd58c83193723015a1079b6d09d313b156c873996835"
    )
    assert family_sweep_sha256(lemma27_scan) == (
        "a2914db152d47f23e9703d5e235a02bec519321f20047a905b4179691ad87d2c"
    )


FAMILY_ORACLE_CASES = [(r, n) for r in range(2, 6) for n in range(2 * r, 21)]


@pytest.mark.parametrize("r,n", FAMILY_ORACLE_CASES)
def test_family_cell_graph_matches_built_configurations(r, n):
    c = _family_pattern(r)
    y = y_graph(r, n)
    y_key = _family_y_key(r, n)
    for sizes, ia, ib in _family_configs(r, n):
        g = family_config_graph(sizes, ia, ib)
        s = _family_cell_sizes(sizes, ia, ib)
        cells = family_config_cells(sizes, ia, ib)
        assert [len(cell) for cell in cells] == s.tolist()
        full = [k for k, cell in enumerate(cells) if cell]
        q = quotient_matrix(g, Partition(tuple(cells[k] for k in full)))
        assert np.array_equal(np.array(q.entries), (c * s)[np.ix_(full, full)]), (sizes, ia, ib)
        assert _cell_graph_rho(c, s) == pytest.approx(spectral_radius(g).rho, abs=1e-12)
        is_y = (sizes, (sizes[ib], sizes[ia])) == y_key
        assert is_y == are_isomorphic(g, y), (sizes, ia, ib)


@pytest.mark.parametrize("r,n", [(2, 6), (2, 9), (3, 9), (3, 11), (4, 12), (4, 15), (5, 15)])
def test_y_graph_quotient_is_the_family_quotient_at_its_key(r, n):
    y_sizes, (low, high) = _family_y_key(r, n)
    ia = y_sizes.index(high)
    ib = y_sizes.index(low) if low < high else ia + 1
    q = (_family_pattern(r) * _family_cell_sizes(y_sizes, ia, ib)).tolist()
    swap = [1, 0] + list(range(2, r + 3))  # y's cells start v, u; the family's u, v
    expect = [[q[i][j] for j in swap] for i in swap]
    got = quotient_matrix(y_graph(r, n), y_graph_quotient_partition(r, n))
    assert [list(row) for row in got.entries] == expect


@pytest.mark.parametrize("r,n", FAMILY_ORACLE_CASES)
def test_y_graph_is_the_blow_up_of_the_family_pattern(r, n):
    # one cell order for y_graph and the lemma27 scan: no swap
    cells = _y_graph_cells(r, n)
    sizes = [len(cell) for cell in cells]
    full = [k for k, cell in enumerate(cells) if cell]
    q = quotient_matrix(y_graph(r, n), Partition(tuple(cells[k] for k in full)))
    expect = (_family_pattern(r) * np.array(sizes))[np.ix_(full, full)]
    assert np.array_equal(np.array(q.entries), expect)


@pytest.mark.parametrize("r,n", FAMILY_ORACLE_CASES + [(3, 30), (4, 30)])
def test_lemma27_scan_matches_the_graph_scan(r, n):
    rho, is_y, count, gap = graph_family_scan(r, n)
    rep = lemma27_scan(r, n)
    assert (rep.argmax_is_y, rep.configs_scanned) == (is_y, count)
    assert rep.max_rho == pytest.approx(rho, abs=1e-12)
    assert (rep.gap_to_non_isomorphic is None) == (gap is None)
    if gap is not None:
        assert rep.gap_to_non_isomorphic == pytest.approx(gap, abs=1e-12)
    assert rep.unique == (is_y and (gap is None or gap > 1e-9))


def test_lemma27_scan_builds_no_graph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the family scan must work from part sizes alone")

    for name in ("spectral_radius", "are_isomorphic", "canonical_certificate", "_certificate"):
        monkeypatch.setattr(search, name, forbidden)
    monkeypatch.setattr(Graph, "_unchecked", classmethod(forbidden))
    monkeypatch.setattr(Graph, "__post_init__", forbidden)
    rep = lemma27_scan(4, 12)
    assert rep.argmax_is_y and rep.unique and rep.configs_scanned > 1


@pytest.mark.parametrize("margin", [-1.0, math.nan, math.inf])
def test_lemma27_scan_unique_margin_must_be_a_number(margin):
    # a nan margin reported unique=False at a gap of 0.00357; a negative one
    # would count a tie (gap 0) as unique
    with pytest.raises(ValueError, match="unique_margin must be nonnegative and finite"):
        lemma27_scan(3, 9, unique_margin=margin)
    assert lemma27_scan(3, 9, unique_margin=0.0).unique


def test_family_scan_guard_counts_while_enumerating():
    seen = 0
    with pytest.raises(FeasibilityError, match=f"family scan guard: more than {FAMILY_CONFIG_GUARD}"):
        for _ in _family_configs(3, 3000):
            seen += 1
    assert seen == FAMILY_CONFIG_GUARD
    with pytest.raises(FeasibilityError, match="family scan guard"):
        lemma27_scan(3, 3000)


def test_hill_climb_from_cycle():
    pred = PredicateSpec(forbid_clique=3)
    g, trace = hill_climb(cycle_graph(5), pred, budget=12)
    assert trace, "a 5-cycle is not spectrally maximal among triangle-free graphs"
    rhos = [step.rho for step in trace]
    assert all(b > a + 1e-9 for a, b in zip(rhos, rhos[1:])) or len(rhos) == 1
    assert spectral_radius(g).rho > spectral_radius(cycle_graph(5)).rho
    assert not contains_clique(g, 3)


def test_hill_climb_rejects_bad_start():
    with pytest.raises(ValueError):
        hill_climb(complete_graph(4), PredicateSpec(forbid_clique=3), budget=3)


@pytest.mark.parametrize("accept_tol", [-1.0, math.nan, math.inf])
def test_hill_climb_accept_tol_must_be_a_number(accept_tol):
    # a negative accept_tol took a descending step from C_5 (remove 1-3, rho
    # 2.449 -> 2.136); a nan one took no step at all
    pred = PredicateSpec(forbid_clique=3)
    with pytest.raises(ValueError, match="accept_tol must be nonnegative and finite"):
        hill_climb(cycle_graph(5), pred, budget=3, accept_tol=accept_tol)
    _, trace = hill_climb(cycle_graph(5), pred, budget=3, accept_tol=0.0)
    assert len(trace) == 2 and trace[0].rho < trace[1].rho


def test_hill_climb_trace_graphs_keep_predicate():
    pred = PredicateSpec(forbid_book=(2, 1), require_non_r_partite=2)
    g, trace = hill_climb(cycle_graph(9), pred, budget=6)
    assert pred.satisfies(g)
    rhos = [step.rho for step in trace]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))


def test_nosal_scan_triangle_free_family():
    # the k=1 family is where the sqrt(m) bound holds at every size
    rep = conjecture_scan("nosal_book", 6, k=1)
    assert rep.violations == ()
    assert rep.witnesses_all_complete_bipartite
    assert rep.equality_witnesses  # complete bipartite graphs are in range
    assert rep.scanned > 50


def test_nosal_scan_book_family_reports_small_size_violations():
    # with triangles allowed (k = 2) the bound needs large m: the triangle
    # itself (rho 2 > sqrt 3) and the bowtie (rho 2.56 > sqrt 6) are reported
    rep = conjecture_scan("nosal_book", 5, k=2)
    bad = {v["graph6"] for v in rep.violations}
    assert canonical_graph6(complete_graph(3)) in bad


def test_liu_miao_scan_small():
    # report-only scan: champions per edge count against the pendant-triangle
    rep = conjecture_scan("liu_miao_U", 6)
    champs = {c["m"]: c for c in rep.per_edge_champions}
    assert 3 in champs and champs[3]["champion_is_u"]  # C_3 is the m=3 champion
    for c in rep.per_edge_champions:
        g = graph6_decode(c["champion_graph6"])
        assert c["champion_rho"] == pytest.approx(spectral_radius(g).rho, abs=1e-8)
    # the bowtie beats the pendant-triangle at m = 6, and is reported as such
    assert champs[6]["champion_rho"] > champs[6]["u_rho"]
    assert 6 in {v["m"] for v in rep.violations}


def test_sqrt_2m_scan_small():
    rep = conjecture_scan("sqrt_2m_bound", 7, r=3, k=1)
    assert isinstance(rep.violations, tuple)
    for v in rep.violations:
        g = graph6_decode(v["graph6"])
        assert spectral_radius(g).rho > math.sqrt((2 / 3) * 2 * g.edge_count)


def test_scan_guard_and_unknown_kind():
    with pytest.raises(FeasibilityError):
        conjecture_scan("nosal_book", 12)
    with pytest.raises(ValueError):
        conjecture_scan("nope", 5)
    for kind, first in [("nosal_book", 1), ("liu_miao_U", 3), ("sqrt_2m_bound", 1)]:
        with pytest.raises(ValueError, match=f"max_n >= {first}"):
            conjecture_scan(kind, first - 1)
        assert conjecture_scan(kind, first).scanned == 1
        # a nan tol passed every comparison vacuously, a negative one failed them all
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
                conjecture_scan(kind, first, tol=tol)
