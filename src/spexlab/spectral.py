"""Spectral radius and Perron vector, plus the classical spectral bounds.

Each connected component is solved on its own, and the largest radius is
reported. A component of more than ``DENSE_MAX_N`` vertices is grouped into open
twin classes (vertices with equal neighbourhoods). If it has at most
``DENSE_MAX_N`` of them, it is solved on those classes, with no n x n matrix:
they form an equitable partition whose quotient B = C diag(s) (C the 0/1 class
pattern, s the class sizes) has A's largest eigenvalue, and A's Perron vector
is constant on each class (Brouwer & Haemers, *Spectra of Graphs*, 2012, §2.3);
``numpy.linalg.eigh`` solves it as the symmetric diag(√s) C diag(√s). Every
other component uses its float adjacency matrix: ``eigh`` up to
``DENSE_MAX_N`` vertices, and above that power iteration on A + I. Adding the
identity makes the top eigenvalue strictly dominant in magnitude even on
bipartite graphs (whose spectra are symmetric about 0), so the iteration
converges on every connected graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _bit_matrix, _twin_classes, mask_of

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
# Solver threshold, measured on a 2-vCPU VM with numpy 2.4: eigh takes ~0.04 ms
# at n = 8 and ~0.6 ms at n = 64. Power iteration pays ~10 us of Python overhead
# per step, so the 20-40 steps of a well-mixed graph take ~0.4 ms at any n <= 64,
# while a path needs ~n^2 steps (2,876 and 42 ms at n = 64). The two meet near
# n = 64 on well-mixed graphs; above it eigh's O(n^3) cost pulls away. Only
# components above this bound are grouped into twin classes, and only those
# with at most this many classes are solved on their quotient (by eigh).
DENSE_MAX_N = 64
# Radii closer than this are ties: eigh puts rho(C4) at 2.0000000000000004.
TIE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Power iteration ran out of budget; carries the last residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"power iteration did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with its Perron vector (unit max-norm)."""

    rho: float
    vector: tuple[float, ...]
    residual: float
    iterations: int
    disconnected: bool = False


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Float adjacency matrix of g.

    The bitset rows are unpacked straight into the preallocated matrix, 64 rows
    at a time, so peak memory stays at the float matrix itself.
    """
    n = g.n
    a = np.empty((n, n))
    for lo in range(0, n, 64):
        a[lo : lo + 64] = _bit_matrix(g.rows[lo : lo + 64], n)
    return a


def _eigh_dense(a: np.ndarray):
    """(rho, finish) of a connected graph's matrix a by ``eigh``; finish() gives
    the Perron vector (unit max-norm), the residual and 0 iterations."""
    w, v = np.linalg.eigh(a)
    rho = float(w[-1])

    def finish():
        x = np.abs(v[:, -1])  # the Perron vector of a connected graph, up to sign
        x /= x.max()
        return x, float(np.abs(a @ x - rho * x).max()), 0

    return rho, finish


def _power_iterate_dense(a: np.ndarray, tol: float, max_iter: int, seed: int):
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    x = 1.0 + 1e-8 * rng.random(n)
    x /= x.max()
    rho = 0.0
    res = math.inf
    for it in range(1, max_iter + 1):
        ax = a @ x
        rho = float(x @ ax) / float(x @ x)
        res = float(np.abs(ax - rho * x).max())
        if res <= tol:
            return rho, lambda: (x, res, it)
        y = ax + x  # one step of A + I
        x = y / y.max()
    raise ConvergenceError(res, max_iter)


def _solve_dense(
    a: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER, seed: int = 0
):
    """(rho, finish) of a connected graph's matrix a; finish() gives (x, residual, iterations)."""
    if len(a) <= DENSE_MAX_N:
        return _eigh_dense(a)
    return _power_iterate_dense(a, tol, max_iter, seed)


def _solve_quotient(rows: Sequence[int], n: int, classes: Sequence[Sequence[int]]):
    """(rho, finish) of a connected component from its at most ``DENSE_MAX_N``
    twin classes. finish() gives the vector on the vertices of the classes in
    turn, the blow-up of y (one value per class), with its residual
    |B y - rho y|_inf, which equals |A x - rho x|_inf, and 0 iterations."""
    reps = [c[0] for c in classes]
    c = _bit_matrix([rows[v] for v in reps], n)[:, reps].astype(float)
    s = np.array([len(m) for m in classes], dtype=float)
    w, v = np.linalg.eigh(c * np.sqrt(np.outer(s, s)))  # diag(√s) C diag(√s)
    rho = float(w[-1])

    def finish():
        y = np.abs(v[:, -1]) / np.sqrt(s)
        y /= y.max()
        res = float(np.abs((c * s) @ y - rho * y).max())  # B = C diag(s)
        return np.repeat(y, [len(m) for m in classes]), res, 0

    return rho, finish


def _top_component(g: Graph, tol: float, max_iter: int, seed: int):
    """(rho, vertices, finish, component count) for the component whose radius
    g reports: a later component wins only if its radius is larger by more than
    ``TIE_TOL``. finish() gives its vector on those vertices, the residual and
    the iteration count; nothing but the radius is computed before it is called."""
    comps = g.components()
    a = None  # the n x n matrix, built once a component needs it
    best = None
    for comp in comps:
        classes = _twin_classes(g.rows, comp) if len(comp) > DENSE_MAX_N else None
        if len(comp) == 1:
            rho, verts, finish = 0.0, comp, lambda: (np.ones(1), 0.0, 0)
        elif classes and len(classes) <= DENSE_MAX_N:
            rho, finish = _solve_quotient(g.rows, g.n, classes)
            verts = [v for m in classes for v in m]
        else:
            if a is None:
                a = adjacency_matrix(g)
            sub = a if len(comps) == 1 else a[np.ix_(comp, comp)]
            rho, finish = _solve_dense(sub, tol, max_iter, seed)
            verts = comp
        if best is None or rho > best[0] + TIE_TOL:
            best = (rho, verts, finish)
    return (*best, len(comps))


def spectral_radius(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> SpectralResult:
    """Largest adjacency eigenvalue of g with its Perron vector.

    A component of more than ``DENSE_MAX_N`` vertices but at most
    ``DENSE_MAX_N`` twin classes is solved by ``eigh`` on its twin quotient,
    and one of at most ``DENSE_MAX_N`` vertices by ``eigh`` on its matrix
    (``iterations`` is 0 for both); ``tol``, ``max_iter`` and ``seed`` drive
    the power iteration on the other components, which stops once
    |A x - rho x|_inf <= tol. ``residual`` is |A x - rho x|_inf either way. A
    later component wins only if its radius is larger by more than
    ``TIE_TOL``; the vector is 0 outside the winning component.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if not 0 < tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    rho, verts, finish, count = _top_component(g, tol, max_iter, seed)
    vec, res, its = finish()
    full = np.zeros(g.n)
    full[list(verts)] = vec
    return SpectralResult(
        rho=rho,
        vector=tuple(full.tolist()),
        residual=res,
        iterations=its,
        disconnected=count > 1,
    )


def _rho(g: Graph) -> float:
    """``spectral_radius(g).rho`` from the same component split and solves, with
    no vector, residual or result; 0.0 for the order-0 graph, which
    ``spectral_radius`` rejects. The searches and scans read only this."""
    return _top_component(g, DEFAULT_TOL, DEFAULT_MAX_ITER, 0)[0] if g.n else 0.0


def _rhos(graphs: Sequence[Graph]) -> list[float]:
    """``_rho`` of each graph, bit for bit. The connected graphs of each order
    from 2 to ``DENSE_MAX_N`` are solved together by one stacked ``eigh``,
    which runs the same LAPACK solve on each matrix as ``_rho``'s ``eigh`` does;
    the others go through ``_rho``. A disconnected graph stays there because
    its whole matrix can give a different last ulp than its components do."""
    rhos = [0.0] * len(graphs)
    stacks: dict[int, list[int]] = {}  # order: the indices of its connected graphs
    for t, g in enumerate(graphs):
        if 1 < g.n <= DENSE_MAX_N and g.is_connected():
            stacks.setdefault(g.n, []).append(t)
        else:
            rhos[t] = _rho(g)
    for n, ts in stacks.items():
        a = _bit_matrix([r for t in ts for r in graphs[t].rows], n).reshape(len(ts), n, n)
        for t, rho in zip(ts, np.linalg.eigh(a.astype(float))[0][:, -1].tolist()):
            rhos[t] = rho
    return rhos


def rayleigh_quotient(g: Graph, x: Sequence[float]) -> float:
    """(2 * sum_{uv in E} x_u x_v) / sum_v x_v^2; never exceeds rho(g)."""
    if len(x) != g.n:
        raise ValueError("vector length must equal the vertex count")
    den = math.fsum(t * t for t in x)
    if den == 0.0:
        raise ValueError("vector must not be all zeros")
    num = math.fsum(2.0 * x[i] * x[j] for i, j in g.edges())
    return num / den


@dataclass(frozen=True)
class WilfReport:
    bound: float
    rho: float
    holds: bool


def check_wilf(g: Graph, r: int, tol: float = 1e-9) -> WilfReport:
    """Compare rho(g) against (1 - 1/r) n; caller guarantees no (r+1)-clique."""
    if r < 1:
        raise ValueError("need r >= 1")
    if not 0 <= tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    bound = (1.0 - 1.0 / r) * g.n
    rho = _rho(g)
    return WilfReport(bound=bound, rho=rho, holds=rho <= bound + tol)


@dataclass(frozen=True)
class DeletionBoundReport:
    lhs: float
    rhs: float
    holds: bool
    equality: bool


def deletion_bound(g: Graph, v: int, tol: float = 1e-8) -> DeletionBoundReport:
    """rho(G) vs sqrt(rho(G - v)^2 + 2 d(v) - 1), with the equality cases flagged."""
    d = g.degree(v)
    if d < 1:
        raise ValueError("vertex must have degree at least 1")
    if not 0 <= tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    lhs = spectral_radius(g).rho
    rho_del = spectral_radius(g.delete_vertex(v)).rho  # d(v) >= 1, so n >= 2
    rhs = math.sqrt(rho_del * rho_del + 2.0 * d - 1.0)
    return DeletionBoundReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + tol,
        equality=abs(lhs - rhs) <= tol,
    )


def rotate_edges(g: Graph, u: int, v: int, s: Sequence[int]) -> Graph:
    """Move the edges from v into u: G - {vw : w in S} + {uw : w in S}.

    Requires S nonempty and S contained in N(v) minus the closed neighbourhood
    of u. When additionally x_u >= x_v for the Perron vector of a connected
    graph, the move strictly increases the spectral radius.
    """
    sset = set(s)
    if not sset:
        raise ValueError("S must be non-empty")
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    nv = g.rows[v]
    closed_u = g.rows[u] | (1 << u)
    for w in sset:
        if w < 0 or not (nv >> w) & 1:
            raise ValueError(f"vertex {w} is not a neighbour of {v}")
        if (closed_u >> w) & 1:
            raise ValueError(f"vertex {w} lies in the closed neighbourhood of {u}")
    rows = list(g.rows)
    moved = mask_of(sset)
    rows[v] &= ~moved
    rows[u] |= moved
    for w in sset:
        rows[w] = (rows[w] & ~(1 << v)) | (1 << u)
    return Graph._unchecked(g.n, tuple(rows))
