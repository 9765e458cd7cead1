"""Eigensolver accuracy against closed forms, and the classical bounds."""

import hashlib
import math

import numpy as np
import pytest

import spexlab.spectral as spectral_mod
from spexlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    make_multipartite,
    path_graph,
    turan,
    y_graph,
)
from spexlab.random_graphs import random_connected_graph, random_graph
from spexlab.search import _census, enumerate_graphs
from spexlab.spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DENSE_MAX_N,
    TIE_TOL,
    ConvergenceError,
    SpectralResult,
    _power_iterate_dense,
    adjacency_matrix,
    check_wilf,
    deletion_bound,
    rayleigh_quotient,
    rotate_edges,
    spectral_radius,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_closed_form_spectra():
    assert spectral_radius(complete_graph(3)).rho == pytest.approx(2, abs=1e-9)
    assert spectral_radius(make_multipartite([2, 3])).rho == pytest.approx(math.sqrt(6), abs=1e-9)
    assert spectral_radius(path_graph(4)).rho == pytest.approx(GOLDEN, abs=1e-9)
    assert spectral_radius(cycle_graph(5)).rho == pytest.approx(2, abs=1e-9)
    assert spectral_radius(empty_graph(3)).rho == 0.0
    assert spectral_radius(complete_graph(1)).rho == 0.0


def test_result_contract():
    res = spectral_radius(make_multipartite([2, 3]))
    assert res.residual <= 1e-10
    assert max(res.vector) == pytest.approx(1.0)
    assert all(x > 0 for x in res.vector)
    assert not res.disconnected
    # Perron entries of K_{2,3}: side ratio sqrt(3/2)
    assert res.vector[0] / res.vector[2] == pytest.approx(math.sqrt(3 / 2), abs=1e-8)


def test_disconnected_max_over_components():
    g = disjoint_union(complete_graph(3), cycle_graph(4))
    res = spectral_radius(g)
    assert res.disconnected
    assert res.rho == pytest.approx(2.0, abs=1e-9)
    # winner is the first component attaining the max; other side zeroed
    assert all(x > 0 for x in res.vector[:3])
    assert all(x == 0 for x in res.vector[3:])


def spectral_radius_via_induced(g):
    """Reference: solve each component as its own graph built with g.induced."""
    comps = g.components()
    best = None
    for comp in comps:
        res = spectral_radius(g.induced(comp))
        if best is None or res.rho > best[0].rho + TIE_TOL:
            best = (res, comp)
    res, comp = best
    full = [0.0] * g.n
    for v, x in zip(comp, res.vector):
        full[v] = x
    return SpectralResult(res.rho, tuple(full), res.residual, res.iterations, len(comps) > 1)


def test_disconnected_components_match_induced_reference():
    graphs = [g for g in _census(7, (None, None)) if not g.is_connected()]
    graphs.append(disjoint_union(y_graph(3, 200), empty_graph(1)))
    assert len(graphs) > 100
    for g in graphs:
        assert spectral_radius(g) == spectral_radius_via_induced(g), g.rows


def test_adjacency_matrix_matches_edge_list():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 130):
        g = random_graph(n, 0.4, rng)
        ref = np.zeros((n, n))
        for i, j in g.edges():
            ref[i, j] = ref[j, i] = 1.0
        assert np.array_equal(adjacency_matrix(g), ref)


def test_dense_solver_matches_power_iteration_on_census():
    for g in enumerate_graphs(7):
        comp_rhos = []
        for comp in g.components():
            h = g.induced(comp)
            rho = spectral_radius(h).rho
            power = _power_iterate_dense(adjacency_matrix(h), DEFAULT_TOL, DEFAULT_MAX_ITER, 0)
            assert abs(rho - power[0]) <= 1e-9
            comp_rhos.append(rho)
        assert spectral_radius(g).rho == max(comp_rhos)


@pytest.mark.parametrize("n", [DENSE_MAX_N, DENSE_MAX_N + 1])
def test_both_sides_of_dense_threshold_match_eigh(n):
    rng = np.random.default_rng(n)
    for p in (0.1, 0.3, 0.7):
        g = random_connected_graph(n, p, rng)
        res = spectral_radius(g)
        a = adjacency_matrix(g)
        assert abs(res.rho - np.linalg.eigvalsh(a)[-1]) <= 1e-9
        top = np.abs(np.linalg.eigh(a)[1][:, -1])
        perron = top / top.max()
        assert np.abs(np.array(res.vector) - perron).max() <= 1e-8
        assert res.residual <= 1e-10
        assert (res.iterations == 0) == (n <= DENSE_MAX_N)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_graph(int(rng.integers(2, 12)), 0.5, rng)
        perm = list(rng.permutation(g.n))
        assert spectral_radius(g.relabel(perm)).rho == pytest.approx(
            spectral_radius(g).rho, abs=1e-8
        )


def test_rayleigh_quotient_values():
    assert rayleigh_quotient(complete_graph(2), [1, 1]) == pytest.approx(1.0)
    assert rayleigh_quotient(turan(3, 9), [1] * 9) == pytest.approx(6.0)
    res = spectral_radius(make_multipartite([2, 3]))
    assert rayleigh_quotient(make_multipartite([2, 3]), res.vector) == pytest.approx(
        math.sqrt(6), abs=1e-8
    )
    with pytest.raises(ValueError):
        rayleigh_quotient(complete_graph(2), [0, 0])
    with pytest.raises(ValueError):
        rayleigh_quotient(complete_graph(2), [1])


def test_rayleigh_never_exceeds_rho():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.2, 0.9)), rng)
        rho = spectral_radius(g).rho
        for _ in range(20):
            x = list(rng.normal(size=g.n))
            assert rayleigh_quotient(g, x) <= rho + 1e-9


def test_wilf_bound():
    rep = check_wilf(turan(3, 9), 3)
    assert rep.bound == pytest.approx(6.0) and rep.holds
    assert rep.rho == pytest.approx(6.0, abs=1e-9)
    rep = check_wilf(cycle_graph(5), 2)
    assert rep.bound == pytest.approx(2.5) and rep.rho == pytest.approx(2, abs=1e-9)
    assert rep.holds
    rep = check_wilf(make_multipartite([2, 3]), 2)
    assert rep.holds
    with pytest.raises(ValueError, match="need r >= 1"):
        check_wilf(turan(3, 9), 0)


def test_deletion_bound_equality_cases():
    rep = deletion_bound(complete_graph(4), 0)
    assert rep.lhs == pytest.approx(3.0, abs=1e-9)
    assert rep.rhs == pytest.approx(3.0, abs=1e-9)
    assert rep.holds and rep.equality
    star = make_multipartite([1, 4])  # K_{1,4}, centre is vertex 0
    rep = deletion_bound(star, 3)  # a leaf
    assert rep.lhs == pytest.approx(2.0, abs=1e-9)
    assert rep.rhs == pytest.approx(2.0, abs=1e-9)
    assert rep.equality
    rep = deletion_bound(path_graph(4), 0)
    assert rep.lhs == pytest.approx(GOLDEN, abs=1e-9)
    assert rep.rhs == pytest.approx(math.sqrt(3), abs=1e-9)
    assert rep.holds and not rep.equality
    with pytest.raises(ValueError):
        deletion_bound(disjoint_union(complete_graph(2), empty_graph(1)), 2)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_check_wilf_tol_must_be_a_number(tol):
    # a nan tol reported holds=False for T_3(9), whose rho equals the bound
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        check_wilf(turan(3, 9), 3, tol=tol)
    assert check_wilf(turan(3, 9), 3, tol=0.0).rho == pytest.approx(6.0)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_deletion_bound_tol_must_be_a_number(tol):
    # an infinite tol flagged equality for P_4 at lhs 1.618 against rhs 2.0
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        deletion_bound(path_graph(4), 1, tol=tol)
    assert not deletion_bound(path_graph(4), 1, tol=0.0).equality


def test_rotation_example_star():
    # path 0-1-2-3; shift 3's edge from 2 onto 1: a star at 1
    g = path_graph(4)
    g2 = rotate_edges(g, 1, 2, [3])
    assert sorted(g2.edges()) == [(0, 1), (1, 2), (1, 3)]
    assert spectral_radius(g2).rho == pytest.approx(math.sqrt(3), abs=1e-9)
    assert spectral_radius(g2).rho > spectral_radius(g).rho


def test_rotation_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        rotate_edges(g, 1, 2, [])
    with pytest.raises(ValueError):
        rotate_edges(g, 1, 2, [0])  # 0 not a neighbour of 2
    with pytest.raises(ValueError):
        rotate_edges(g, 1, 2, [1])  # inside N[u]
    with pytest.raises(ValueError, match="not a neighbour of 2"):
        rotate_edges(g, 1, 2, [-1])
    with pytest.raises(ValueError, match="vertex 4 outside"):
        rotate_edges(g, 4, 2, [3])
    with pytest.raises(ValueError, match="vertex -1 outside"):
        rotate_edges(g, 1, -1, [3])


def test_rotation_matches_edge_by_edge_moves():
    # rotate_edges builds the result from one row list; it must agree with
    # moving the edges one at a time through remove_edge/add_edge
    rng = np.random.default_rng(31)
    done = 0
    while done < 200:
        n = int(rng.integers(3, 40))
        g = random_connected_graph(n, float(rng.uniform(0.05, 0.7)), rng)
        u, v = (int(t) for t in rng.choice(n, 2, replace=False))
        s_mask = g.rows[v] & ~(g.rows[u] | (1 << u))
        if not s_mask:
            continue
        s = [w for w in range(n) if (s_mask >> w) & 1 and rng.random() < 0.6] or [
            (s_mask & -s_mask).bit_length() - 1]
        chained = g
        for w in sorted(s):
            chained = chained.remove_edge(v, w).add_edge(u, w)
        assert rotate_edges(g, u, v, s).rows == chained.rows
        done += 1


def test_rotation_strictly_increases_rho():
    rng = np.random.default_rng(23)
    done = 0
    while done < 60:
        n = int(rng.integers(4, 11))
        g = random_connected_graph(n, float(rng.uniform(0.2, 0.6)), rng)
        x = spectral_radius(g).vector
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v or x[u] < x[v]:
            continue
        s_mask = g.rows[v] & ~(g.rows[u] | (1 << u))
        if not s_mask:
            continue
        s = [w for w in range(n) if (s_mask >> w) & 1]
        gain = spectral_radius(rotate_edges(g, u, v, s)).rho - spectral_radius(g).rho
        assert gain > 1e-9
        done += 1


def test_convergence_error_carries_residual():
    with pytest.raises(ConvergenceError) as ei:
        spectral_radius(path_graph(100), tol=1e-14, max_iter=3)
    assert ei.value.residual > 0
    assert ei.value.iterations == 3
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            spectral_radius(path_graph(100), max_iter=max_iter)
    # a nan tol used to run to max_iter and end in ConvergenceError
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            spectral_radius(path_graph(100), tol=tol)
    # a negative seed was refused by numpy only once power iteration ran; now
    # it is refused before solving, also on a graph that eigh alone solves
    for g in (path_graph(100), complete_graph(5)):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            spectral_radius(g, seed=-1)


def test_isolated_vertex_and_trivial_graphs():
    with pytest.raises(ValueError):
        spectral_radius(empty_graph(0))
    res = spectral_radius(from_edges(3, [(0, 1)]))
    assert res.rho == pytest.approx(1.0, abs=1e-10)
    assert res.disconnected


# -- the twin quotient path ---------------------------------------------


def blow_up(base, sizes):
    """Each vertex i of base replaced by sizes[i] pairwise non-adjacent twins."""
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    blocks = [((1 << k) - 1) << lo for k, lo in zip(sizes, starts)]
    rows = []
    for i, k in enumerate(sizes):
        row = sum(blocks[j] for j in range(base.n) if base.has_edge(i, j))
        rows += [row] * k
    return Graph(len(rows), tuple(rows))


def assert_matches_oracle(g, res, tol=DEFAULT_TOL):
    """rho against eigvalsh, the residual recomputed on the full matrix, the
    vector against eigh's on connected graphs and 0 off one component."""
    a = adjacency_matrix(g)
    rho = np.linalg.eigvalsh(a)[-1]
    assert abs(res.rho - rho) <= 1e-9 * max(1.0, rho)
    x = np.array(res.vector)
    assert np.abs(a @ x - res.rho * x).max() <= tol
    assert res.disconnected == (not g.is_connected())
    if not res.disconnected:
        top = np.abs(np.linalg.eigh(a)[1][:, -1])
        assert np.abs(x - top / top.max()).max() <= 1e-8
    else:
        support = [v for v in range(g.n) if x[v] != 0]
        assert any(set(support) == set(c) for c in g.components() if len(c) > 1)


def quotient_cases():
    for r in range(2, 6):
        for n in (65, 100, 201):
            yield f"y_graph({r},{n})", y_graph(r, n)
    yield "turan(4,1200)", turan(4, 1200)
    yield "turan(5,333)", turan(5, 333)
    yield "K_1,100", make_multipartite([1, 100])
    yield "K_3,30,70", make_multipartite([3, 30, 70])
    yield "K_1,2,5,60", make_multipartite([1, 2, 5, 60])
    rng = np.random.default_rng(3)
    for i in range(12):
        base = random_connected_graph(int(rng.integers(5, 21)), 0.4, rng)
        yield f"blow-up-{i}", blow_up(base, rng.integers(1, 16, base.n).tolist())


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in quotient_cases()])
def test_twin_quotient_matches_dense_oracle(g):
    res = spectral_radius(g)
    assert_matches_oracle(g, res)
    if g.n > DENSE_MAX_N and len(set(g.rows)) < g.n:
        assert res.iterations == 0  # solved by eigh on at most 64 classes


def test_star_quotient_closed_form():
    res = spectral_radius(make_multipartite([1, 100]))
    assert res.rho == pytest.approx(10.0, abs=1e-12)
    assert res.vector[0] == 1.0
    assert res.vector[1:] == pytest.approx([0.1] * 100, abs=1e-14)


def test_more_than_64_twin_classes_keep_the_dense_path():
    rng = np.random.default_rng(80)
    base = random_connected_graph(80, 0.1, rng)
    assert len(set(base.rows)) == base.n  # twin-free, so the blow-up has 80 classes
    sizes = rng.integers(1, 4, base.n).tolist()
    g = blow_up(base, sizes)
    assert g.n > base.n
    res = spectral_radius(g)
    assert res.iterations > 0
    assert_matches_oracle(g, res)
    rho, finish = spectral_mod._solve_dense(adjacency_matrix(g))
    x, resid, its = finish()
    assert (res.rho, res.vector, res.residual, res.iterations) == (rho, tuple(x), resid, its)
    with pytest.raises(ConvergenceError):
        spectral_radius(g, max_iter=2)


def test_disconnected_mixes_on_the_quotient_path():
    g = disjoint_union(disjoint_union(y_graph(3, 100), turan(3, 90)), empty_graph(2))
    res = spectral_radius(g)
    assert_matches_oracle(g, res)
    assert all(x > 0 for x in res.vector[:100]) and not any(res.vector[100:])
    k40 = make_multipartite([40, 40])
    twice = disjoint_union(k40, k40)
    res = spectral_radius(twice)
    assert res.rho == pytest.approx(40.0, abs=1e-12)  # a tie: the first copy wins
    assert_matches_oracle(twice, res)
    assert all(x > 0 for x in res.vector[:80]) and not any(res.vector[80:])


def test_rho_alone_is_the_reported_radius_bit_for_bit():
    # the searches and scans read rho alone: the same component split and the
    # same solves, on the dense, quotient and power-iteration paths, ties too
    k40 = make_multipartite([40, 40])
    graphs = list(_census(7, (None, None)))
    graphs += [path_graph(100), y_graph(3, 3200), disjoint_union(k40, k40),
               disjoint_union(disjoint_union(y_graph(3, 100), turan(3, 90)), empty_graph(2))]
    for g in graphs:
        assert spectral_mod._rho(g) == spectral_radius(g).rho
    assert spectral_mod._rho(empty_graph(0)) == 0.0


def test_stacked_rhos_are_rho_bit_for_bit():
    # the census judges a chunk at once: its 5,606 connected order-8 K4-free
    # classes by one stacked eigh, its 825 disconnected ones one at a time
    # (solved whole, 57 of them would move an ulp); mixed orders and the
    # order-0 graph too
    census = list(_census(8, (4, None)))
    assert sum(g.is_connected() for g in census) == 5606
    assert spectral_mod._rhos(census) == [spectral_mod._rho(g) for g in census]
    mixed = [empty_graph(0), empty_graph(1), path_graph(3), census[-1], path_graph(100),
             cycle_graph(5), disjoint_union(cycle_graph(3), cycle_graph(4)), census[0]]
    assert spectral_mod._rhos(mixed) == [spectral_mod._rho(g) for g in mixed]
    assert spectral_mod._rhos([empty_graph(0)]) == [0.0] and spectral_mod._rhos([]) == []


def test_twin_free_and_small_results_are_pinned():
    # sha256 of the reprs of these SpectralResults, taken before the twin
    # quotient path existed: twin-free graphs keep the dense matrix and solver
    rng = np.random.default_rng(65)
    graphs = [random_connected_graph(n, (0.1, 0.3, 0.6)[n % 3], rng) for n in range(65, 131)]
    graphs += [path_graph(100), cycle_graph(200)]
    h = hashlib.sha256()
    for g in graphs:
        assert len(set(g.rows)) == g.n
        h.update(repr(spectral_radius(g)).encode())
    assert h.hexdigest() == "28c42f3299ba2e4c40256e2bf49bf85492c85edbab8bc3be41ed708db7dd6638"


def test_large_family_member_builds_no_dense_matrix(monkeypatch):
    def refuse(g):
        raise AssertionError("n x n adjacency matrix built")

    monkeypatch.setattr(spectral_mod, "adjacency_matrix", refuse)
    res = spectral_radius(y_graph(3, 3200))
    assert 2132.75 < res.rho < 3200 * 2 / 3 and res.iterations == 0
    assert len(res.vector) == 3200 and max(res.vector) == 1.0
    with pytest.raises(AssertionError, match="built"):
        spectral_radius(path_graph(100))  # twin-free: the matrix path
