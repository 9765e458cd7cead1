"""Eigensolver accuracy against closed forms, and the classical bounds."""

import math

import numpy as np
import pytest

from spexlab.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    make_multipartite,
    path_graph,
    turan,
)
from spexlab.random_graphs import random_connected_graph, random_graph
from spexlab.search import enumerate_graphs
from spexlab.spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DENSE_MAX_N,
    ConvergenceError,
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


def test_isolated_vertex_and_trivial_graphs():
    with pytest.raises(ValueError):
        spectral_radius(empty_graph(0))
    res = spectral_radius(from_edges(3, [(0, 1)]))
    assert res.rho == pytest.approx(1.0, abs=1e-10)
    assert res.disconnected
