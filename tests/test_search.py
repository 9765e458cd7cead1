"""Canonical labeling against a brute-force oracle, census counts against the
cycle-index formula, and the exhaustive searches at known small cases."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from spexlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    make_multipartite,
    turan,
    u_graph,
    y_graph,
)
from spexlab.random_graphs import random_graph
from spexlab.search import (
    PredicateSpec,
    _census_cached,
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
from spexlab.spectral import spectral_radius
from spexlab.structure import (
    FeasibilityError,
    contains_clique,
    contains_generalized_book,
    is_r_colorable,
)


def brute_canonical_graph6(g: Graph) -> str:
    """Minimum graph6 string over all relabelings, no pruning."""
    best = None
    for perm in permutations(range(g.n)):
        s = graph6_encode(g.relabel(perm))
        if best is None or s < best:
            best = s
    return best


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
    rng = np.random.default_rng(21)
    graphs = [turan(2, 5), cycle_graph(5), u_graph(6), make_multipartite([1, 2, 3])]
    graphs += [random_graph(int(rng.integers(1, 8)), float(rng.uniform(0.1, 0.9)), rng)
               for _ in range(40)]
    for g in graphs:
        assert canonical_graph6(g) == brute_canonical_graph6(g)


def test_canonical_form_is_an_invariant():
    rng = np.random.default_rng(22)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.1, 0.9)), rng)
        perm = [int(t) for t in rng.permutation(g.n)]
        assert canonical_form(g).rows == canonical_form(g.relabel(perm)).rows
        assert are_isomorphic(g, g.relabel(perm))


def test_census_counts_match_cycle_index():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert burnside_graph_count(n) == count
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_graphs(n)) == expected[n], n


def test_census_matches_labeled_dedup_oracle():
    # independent oracle: dedupe all labeled graphs by brute-force minimum form
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
        assert {graph6_encode(g) for g in census} == forms


def test_census_graphs_are_canonical_and_ordered():
    prev = None
    for g in enumerate_graphs(6):
        assert canonical_form(g).rows == g.rows
        key = (g.edge_count, graph6_encode(g))
        if prev is not None:
            assert key > prev
        prev = key


def test_census_members_are_certificate_fixed_points():
    # the enumeration represents each class by its certificate rows, never by
    # the lex-min form
    census = _census_cached(7, (4, None))
    assert len(census) == 685
    for g in census:
        assert canonical_certificate(g) == g.rows


def test_searches_canonicalise_only_the_champions(monkeypatch):
    import spexlab.search as search_mod

    calls = []
    real = search_mod.canonical_perm
    monkeypatch.setattr(search_mod, "canonical_perm", lambda g: calls.append(g) or real(g))
    for search in (spex_search, ex_search):
        _census_cached.cache_clear()
        calls.clear()
        rep = search(7, PredicateSpec(forbid_clique=4))
        assert len(rep.champions) == 1
        assert len(calls) == 1, search.__name__


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
