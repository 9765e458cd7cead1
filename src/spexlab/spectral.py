"""Spectral radius and Perron vector, plus the classical spectral bounds.

Each connected component is solved on its own float adjacency matrix, and the
largest radius is reported. Components of at most ``DENSE_MAX_N`` vertices go
to ``numpy.linalg.eigh``. Larger ones use power iteration on A + I: adding the
identity makes the top adjacency eigenvalue strictly dominant in magnitude even
on bipartite graphs (whose spectra are symmetric about 0), so the iteration
converges on every connected graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, _bit_matrix, mask_of

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
# Solver threshold, measured on a 2-vCPU VM with numpy 2.4: eigh takes ~0.04 ms
# at n = 8 and ~0.6 ms at n = 64. Power iteration pays ~10 us of Python overhead
# per step, so the 20-40 steps of a well-mixed graph take ~0.4 ms at any n <= 64,
# while a path needs ~n^2 steps (2,876 and 42 ms at n = 64). The two meet near
# n = 64 on well-mixed graphs; above it eigh's O(n^3) cost pulls away.
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
    w, v = np.linalg.eigh(a)
    rho = float(w[-1])
    x = np.abs(v[:, -1])  # the Perron vector of a connected graph, up to sign
    x /= x.max()
    res = float(np.abs(a @ x - rho * x).max())
    return rho, x, res, 0


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
            return rho, x, res, it
        y = ax + x  # one step of A + I
        x = y / y.max()
    raise ConvergenceError(res, max_iter)


def spectral_radius(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> SpectralResult:
    """Largest adjacency eigenvalue of g with its Perron vector.

    Components of at most ``DENSE_MAX_N`` vertices are solved by
    ``numpy.linalg.eigh`` (``iterations`` is 0); ``tol``, ``max_iter`` and
    ``seed`` drive the power iteration on larger ones, which stops once
    |A x - rho x|_inf <= tol. ``residual`` is |A x - rho x|_inf either way. A
    later component wins only if its radius is larger by more than
    ``TIE_TOL``; the vector is 0 outside the winning component.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if tol <= 0:
        raise ValueError("tol must be positive")
    comps = g.components()
    best: Optional[tuple[float, Sequence[int], np.ndarray, float, int]] = None
    for comp in comps:
        if len(comp) == 1:
            rho, vec, res, its = 0.0, np.ones(1), 0.0, 0
        else:
            a = adjacency_matrix(g if len(comps) == 1 else g.induced(comp))
            if len(comp) <= DENSE_MAX_N:
                rho, vec, res, its = _eigh_dense(a)
            else:
                rho, vec, res, its = _power_iterate_dense(a, tol, max_iter, seed)
        if best is None or rho > best[0] + TIE_TOL:
            best = (rho, comp, vec, res, its)
    rho, comp, vec, res, its = best
    full = np.zeros(g.n)
    full[list(comp)] = vec
    return SpectralResult(
        rho=rho,
        vector=tuple(full.tolist()),
        residual=res,
        iterations=its,
        disconnected=len(comps) > 1,
    )


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
    bound = (1.0 - 1.0 / r) * g.n
    rho = spectral_radius(g).rho
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
    lhs = spectral_radius(g).rho
    rho_del = spectral_radius(g.delete_vertex(v)).rho if g.n > 1 else 0.0
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
