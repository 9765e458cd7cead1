"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-points are strict xfails because they are mathematically unattainable
as stated (verified with explicit counterexamples, see the xfail reasons):
the n = 2r endpoint of the colourability sweep, and the sqrt(m) scan over the
family that allows triangles.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import spexlab.search as search
from spexlab.graphs import (
    complete_graph,
    graph6_decode,
    graph6_encode,
    make_multipartite,
    turan,
    u_graph,
    y_graph,
)
from spexlab.quotient import (
    char_poly,
    largest_root,
    quotient_matrix,
    verify_lemma32,
    y_graph_quotient_partition,
    y_spectral_lower_bound,
)
from spexlab.random_graphs import random_connected_graph, random_graph, random_multipartite
from spexlab.search import (
    PredicateSpec,
    canonical_graph6,
    conjecture_scan,
    enumerate_graphs,
    ex_search,
    hill_climb,
    lemma27_scan,
    spex_search,
)
from spexlab.spectral import deletion_bound, rayleigh_quotient, rotate_edges, spectral_radius
from spexlab.structure import contains_generalized_book, is_r_colorable


def announce(capfd, num: int, ok: bool, detail: str):
    with capfd.disabled():
        print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


def test_criterion_1_quotient_polynomial_identity(capfd):
    t0 = time.time()
    residues = set()
    for n in range(9, 61):
        rep = verify_lemma32(n)
        assert rep.poly_match, f"coefficient mismatch at n={n}, index {rep.mismatch_index}"
        assert rep.sign_ok, f"sign evaluation not negative at n={n}"
        residues.add(n % 3)
    elapsed = time.time() - t0
    ok = residues == {0, 1, 2} and elapsed < 10.0
    announce(capfd, 1, ok, f"exact polynomial identity and sign for n in [9,60] ({elapsed:.1f}s)")
    assert residues == {0, 1, 2}
    assert elapsed < 10.0


def test_criterion_2_quotient_root_matches_dense_radius(capfd):
    worst = 0.0
    for n in range(9, 61):
        g = y_graph(3, n)
        computed = char_poly(quotient_matrix(g, y_graph_quotient_partition(3, n)))
        rho_q = largest_root(computed)
        rho_d = spectral_radius(g).rho
        worst = max(worst, abs(rho_q - rho_d))
        assert abs(rho_q - rho_d) <= 1e-8, n
        assert rho_d > 2 * n / 3 - 7 / 12, n
    announce(capfd, 2, True, f"largest quotient root vs dense rho, worst gap {worst:.2e}")


def test_criterion_3_higher_r_lower_bound(capfd):
    worst = math.inf
    for r in (4, 5):
        for n in range(2 * r, 61):
            rho = spectral_radius(y_graph(r, n)).rho
            bound = y_spectral_lower_bound(r, n)
            worst = min(worst, rho - bound)
            assert rho > bound - 1e-8, (r, n)
    announce(capfd, 3, True, f"rho above closed-form bound for r in {{4,5}}, min margin {worst:.3f}")


def test_criterion_4_edge_count_identity(capfd):
    for r in (3, 4, 5):
        for n in range(2 * r, 201):
            e_y = y_graph(r, n).edge_count
            e_t = turan(r, n).edge_count
            assert e_y == e_t - n // r + 1, (r, n)
            lower = (1 - Fraction(1, r)) * Fraction(n * n, 2) - Fraction(n, r) - Fraction(r, 8) + 1
            assert Fraction(e_y) >= lower, (r, n)
    announce(capfd, 4, True, "exact size identity and lower bound, r in {3,4,5}, n to 200")


SPEX_CASES = [(2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (3, 8)]


@pytest.fixture(scope="module")
def k4_free_order8():
    return []  # the order-8 K4-free census, once a test of this module has read it


@pytest.fixture
def shared_k4_free_order8(monkeypatch, k4_free_order8):
    """Criteria 5, 6 and 10 each search the order-8 K4-free census: the first
    to run enumerates it (inside its own timing) and the others share it."""
    real = search._Census

    def census(n, key, judge=None):
        if (n, key) != (8, (4, None)):
            return real(n, key, judge)
        if not k4_free_order8:
            judged = list(real(n, key, judge))
            k4_free_order8.extend(g for g, _ in judged)
            return iter(judged)
        return zip(k4_free_order8, judge(k4_free_order8))

    monkeypatch.setattr(search, "_Census", census)


def test_criterion_5_spectral_turan_exhaustive(capfd, shared_k4_free_order8):
    t_heavy = None
    for r, n in SPEX_CASES:
        t0 = time.time()
        rep = spex_search(n, PredicateSpec(forbid_clique=r + 1))
        elapsed = time.time() - t0
        if (r, n) == (3, 8):
            t_heavy = elapsed
        expect = canonical_graph6(turan(r, n))
        assert len(rep.champions) == 1, (r, n, rep.champions)
        assert rep.champions[0][0] == expect, (r, n)
        assert rep.gap_to_runner_up > 1e-6, (r, n)
    ok = t_heavy < 300.0
    announce(capfd, 5, ok, f"unique spectral champion is the balanced multipartite graph "
                           f"at all six cases (n=8 case {t_heavy:.0f}s)")
    assert ok


def test_criterion_6_edge_turan_exhaustive(capfd, shared_k4_free_order8):
    for r, n in SPEX_CASES:
        rep = ex_search(n, PredicateSpec(forbid_clique=r + 1))
        expect = canonical_graph6(turan(r, n))
        assert len(rep.champions) == 1, (r, n)
        assert rep.champions[0][0] == expect, (r, n)
        assert rep.gap_to_runner_up >= 1, (r, n)
    announce(capfd, 6, True, "unique edge champion with margin >= 1 at all six cases")


def test_criterion_7_family_scan(capfd):
    cases = [(3, n) for n in range(9, 15)] + [(4, n) for n in (12, 13, 14)]
    for r, n in cases:
        rep = lemma27_scan(r, n, unique_margin=1e-9)
        assert rep.argmax_is_y, (r, n)
        assert rep.unique, (r, n, rep.gap_to_non_isomorphic)
    announce(capfd, 7, True, f"family maximum attained uniquely by the folded graph at {len(cases)} cases")


def test_criterion_8_y_graph_feasibility(capfd):
    for r in (3, 4):
        for n in range(2 * r, 61):
            g = y_graph(r, n)
            for k in (1, 2, 3):
                assert not contains_generalized_book(g, r, k)[0], (r, n, k)
            if n > 2 * r:
                assert not is_r_colorable(g, r)[0], (r, n)
    announce(capfd, 8, True, "book-free for n in [2r,60]; non-r-colourable for n in [2r+1,60] "
                             "(the n=2r endpoint is an expected failure, see the xfail test)")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the folded graph on exactly 2r vertices is "
    "r-colourable (both special parts shrink to two vertices and the fold unwinds; "
    "explicit colourings exist for r=3, n=6 and r=4, n=8), so the colourability "
    "range cannot start at n=2r",
)
def test_criterion_8_endpoint_as_stated(capfd):
    announce(capfd, 8, False, "expected failure at n=2r: y_graph(r,2r) is r-colourable")
    for r in (3, 4):
        assert not is_r_colorable(y_graph(r, 2 * r), r)[0]


def test_criterion_9a_wilf_random_suite(capfd):
    rng = np.random.default_rng(0)
    for t in range(1000):
        r = (2, 3, 4)[t % 3]
        n = int(rng.integers(r + 1, 201))
        if t % 25 == 0:
            g = turan(r, n)
        else:
            g = random_multipartite(n, r, float(rng.uniform(0.2, 1.0)), rng)
        rho = spectral_radius(g).rho
        assert rho <= (1 - 1 / r) * n + 1e-9, (r, n)
    announce(capfd, "9a", True, "clique-free spectral bound on 1000 seeded r-partite graphs")


def test_criterion_9b_deletion_bound_suite(capfd):
    rng = np.random.default_rng(1)
    eq_seen = {True: 0, False: 0}
    for t in range(1000):
        if t % 10 == 0:
            n = int(rng.integers(2, 41))
            g, v = complete_graph(n), int(rng.integers(0, n))
        elif t % 10 == 1:
            n = int(rng.integers(2, 41))
            g = make_multipartite([1, n - 1]) if n > 2 else complete_graph(2)
            v = int(rng.integers(1, n)) if n > 2 else 1  # a leaf
        else:
            # equality is a connected-graph dichotomy (a star union an extra
            # edge component also attains it), so the random pool is connected
            while True:
                n = int(rng.integers(3, 41))
                g = random_connected_graph(n, float(rng.uniform(0.15, 0.9)), rng)
                v = int(rng.integers(0, n))
                if g.degree(v) >= 1:
                    break
        rep = deletion_bound(g, v)
        assert rep.holds, (g.rows, v)
        is_complete = g.edge_count == g.n * (g.n - 1) // 2
        deg = sorted(g.degree(u) for u in range(g.n))
        is_star_at_leaf = (
            g.edge_count == g.n - 1
            and deg[-1] == g.n - 1
            and all(d == 1 for d in deg[:-1])
            and g.degree(v) == 1
        )
        assert rep.equality == (is_complete or is_star_at_leaf), (g.rows, v)
        eq_seen[rep.equality] += 1
    assert eq_seen[True] > 100 and eq_seen[False] > 100
    announce(capfd, "9b", True, f"vertex-deletion bound on 1000 pairs "
                                f"({eq_seen[True]} equality cases detected exactly)")


def test_criterion_9c_rotation_suite(capfd):
    rng = np.random.default_rng(2)
    done = 0
    min_gain = math.inf
    while done < 500:
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, float(rng.uniform(0.15, 0.6)), rng)
        x = spectral_radius(g).vector
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v or x[u] < x[v]:
            continue
        s_mask = g.rows[v] & ~(g.rows[u] | (1 << u))
        if not s_mask:
            continue
        s = [w for w in range(n) if (s_mask >> w) & 1 and rng.random() < 0.7]
        if not s:
            continue
        gain = spectral_radius(rotate_edges(g, u, v, s)).rho - spectral_radius(g).rho
        min_gain = min(min_gain, gain)
        assert gain > 1e-9
        done += 1
    announce(capfd, "9c", True, f"500 rotations strictly increase rho (min gain {min_gain:.2e})")


def test_criterion_9d_rayleigh_suite(capfd):
    rng = np.random.default_rng(3)
    corpus = [turan(3, 9), turan(4, 14), y_graph(3, 12), y_graph(4, 17),
              u_graph(8), make_multipartite([2, 5]), complete_graph(7)]
    while len(corpus) < 50:
        corpus.append(random_graph(int(rng.integers(2, 25)), float(rng.uniform(0.1, 0.9)), rng))
    for g in corpus:
        rho = spectral_radius(g).rho
        for _ in range(100):
            x = list(rng.normal(size=g.n))
            assert rayleigh_quotient(g, x) <= rho + 1e-9
    announce(capfd, "9d", True, "Rayleigh quotient below rho for 100 vectors x 50 graphs")


def test_criterion_9e_graph6_roundtrip_census(capfd):
    total = 0
    for n in range(0, 8):
        for g in enumerate_graphs(n):
            assert graph6_decode(graph6_encode(g)).rows == g.rows
            total += 1
    assert total == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044
    announce(capfd, "9e", True, f"graph6 round trip over the full census of {total} graphs")


def test_criterion_9f_hill_climb_local_max(capfd):
    pred = PredicateSpec(forbid_book=(3, 2), require_non_r_partite=3)
    g, trace = hill_climb(y_graph(3, 30), pred, budget=3)
    assert trace == []
    assert g.rows == y_graph(3, 30).rows
    announce(capfd, "9f", True, "no predicate-preserving move improves y_graph(3,30)")


def test_criterion_10_probe_order8(capfd, shared_k4_free_order8):
    rep = spex_search(8, PredicateSpec(forbid_book=(3, 1), require_non_r_partite=3))
    assert rep.exhaustive and len(rep.champions) == 1
    champ_g6, champ_rho = rep.champions[0]
    assert champ_g6 == canonical_graph6(y_graph(3, 8))
    assert abs(champ_rho - 5.0) <= 1e-9
    assert rep.gap_to_runner_up > 0.15
    payload = {
        "n": 8,
        "champion_graph6": champ_g6,
        "champion_rho": champ_rho,
        "gap_to_runner_up": rep.gap_to_runner_up,
        "champion_is_y_graph": True,
        "feasible_count": rep.feasible_count,
    }
    announce(capfd, 10, True, "probe report " + json.dumps(payload))


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: with triangles allowed (pages k=2) the "
    "sqrt(m) bound needs many edges; the triangle (rho 2 > sqrt 3), the bowtie "
    "(rho 2.562 > sqrt 6), and the order-7 friendship graph (rho = 3 = sqrt 9 "
    "yet not complete bipartite) all lie inside the stated order <= 7 family",
)
def test_criterion_11_as_stated(capfd):
    rep = conjecture_scan("nosal_book", 7, k=2)
    announce(capfd, 11, False,
             f"expected failure: {len(rep.violations)} violations in the k=2 family, "
             f"witnesses_all_complete_bipartite={rep.witnesses_all_complete_bipartite}")
    assert rep.violations == ()
    assert rep.witnesses_all_complete_bipartite


def test_criterion_11_triangle_free_family(capfd):
    rep = conjecture_scan("nosal_book", 7, k=1)
    ok = rep.violations == () and rep.witnesses_all_complete_bipartite
    announce(capfd, 11, ok, f"sqrt(m) bound exact on the triangle-free census "
                            f"({rep.scanned} graphs, {len(rep.equality_witnesses)} equality witnesses, "
                            f"all complete bipartite)")
    assert ok
    for g6 in rep.equality_witnesses:
        g = graph6_decode(g6)
        assert abs(spectral_radius(g).rho - math.sqrt(g.edge_count)) <= 1e-9
