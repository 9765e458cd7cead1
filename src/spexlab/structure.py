"""Exact structural predicates: colourability, clique/book containment,
colour-criticality, cross-edge-maximising partitions, and degree-class splits.

Everything here is exact (backtracking or exhaustive search); intended scale
is a few dozen vertices for the colouring solver and a few thousand for the
bitset clique machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import Graph, bits, mask_of


class FeasibilityError(ValueError):
    """An exact search was requested beyond its size guard."""


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint vertex cells covering 0..n-1."""

    cells: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(cells: Sequence[Sequence[int]]) -> "Partition":
        return Partition(tuple(tuple(sorted(c)) for c in cells))

    def validate(self, n: int, allow_empty: bool = False):
        seen = 0
        for c in self.cells:
            if not c and not allow_empty:
                raise ValueError("empty cell")
            m = mask_of(c)
            if m & seen:
                raise ValueError("cells are not disjoint")
            seen |= m
        if seen != (1 << n) - 1:
            raise ValueError("cells do not cover all vertices")

    @property
    def r(self) -> int:
        return len(self.cells)

    def masks(self) -> list[int]:
        return [mask_of(c) for c in self.cells]

    def cell_index(self, n: int) -> list[int]:
        out = [-1] * n
        for i, c in enumerate(self.cells):
            for v in c:
                out[v] = i
        return out


def color_refine(rows: Sequence[int], cells: Sequence[int]) -> list[int]:
    """Coarsest equitable refinement of an ordered partition given as vertex
    masks (colour refinement).

    Each round splits every cell by its vertices' vectors of neighbour counts
    into the current cells; the sub-cells take the cell's place in ascending
    vector order. The output order depends only on the graph and the input
    order, never on vertex labels, which makes it usable for canonical
    labelling as well as for quotients.
    """
    cells = list(cells)
    while True:
        out = []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            sig: dict[tuple[int, ...], int] = {}
            m = c
            while m:
                low = m & -m
                r = rows[low.bit_length() - 1]
                key = tuple([(r & x).bit_count() for x in cells])
                sig[key] = sig.get(key, 0) | low
                m ^= low
            if len(sig) == 1:
                out.append(c)
            else:
                out.extend([sig[k] for k in sorted(sig)])
        if len(out) == len(cells):
            return out
        cells = out


# ---------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------


def degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly remove a minimum-degree vertex; ties by index."""
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


def contains_clique(g: Graph, q: int) -> bool:
    """True iff g has a clique on q vertices (subgraph containment)."""
    if q <= 1:
        return q <= 0 or g.n >= 1
    rows = g.rows

    def rec(cand: int, depth: int) -> bool:
        if depth == q:
            return True
        while cand:
            if depth + cand.bit_count() < q:
                return False
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            if rec(cand & rows[v], depth + 1):
                return True
        return False

    return rec((1 << g.n) - 1, 0)


def greedy_clique(g: Graph) -> tuple[int, ...]:
    """A maximal clique grown greedily from the densest remaining vertex."""
    if g.n == 0:
        return ()
    clique = []
    cand = (1 << g.n) - 1
    while cand:
        v = max(bits(cand), key=lambda t: (g.rows[t] & cand).bit_count())
        clique.append(v)
        cand &= g.rows[v]
    return tuple(sorted(clique))


def contains_generalized_book(
    g: Graph, r: int, k: int
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does g contain an r-clique with >= k common outside neighbours?

    That is exactly subgraph containment of the generalized book (K_r joined
    to k independent vertices): any k common neighbours of an r-clique carry
    the required pages. The witness lists the clique then k pages.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if g.n < r + k:
        return False, None
    rows = g.rows
    order = degeneracy_order(g)
    rank = [0] * g.n
    for pos, v in enumerate(order):
        rank[v] = pos
    later = [mask_of(w for w in range(g.n) if rank[w] > rank[v]) for v in range(g.n)]
    found: Optional[tuple[int, ...]] = None

    def rec(clique: list[int], cand: int, common: int) -> bool:
        nonlocal found
        if len(clique) == r:
            if common.bit_count() >= k:
                pages = []
                for w in bits(common):
                    pages.append(w)
                    if len(pages) == k:
                        break
                found = tuple(clique) + tuple(pages)
                return True
            return False
        need = r - len(clique)
        while cand:
            if cand.bit_count() < need:
                return False
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            if rec(clique + [v], cand & rows[v], common & rows[v]):
                return True
        return False

    for v in order:
        if rec([v], rows[v] & later[v], rows[v]):
            return True, found
    return False, None


# ---------------------------------------------------------------------
# colouring
# ---------------------------------------------------------------------


def _contract_twins(g: Graph) -> tuple[Graph, list[list[int]]]:
    """Merge vertices with identical open neighbourhoods (colour-equivalent)."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.rows[v], []).append(v)
    reps = sorted(grp[0] for grp in groups.values())
    if len(reps) == g.n:
        return g, [[v] for v in range(g.n)]
    member_lists = [sorted(groups[g.rows[rep]]) for rep in reps]
    return g.induced(reps), member_lists


def is_r_colorable(g: Graph, r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact r-colourability with a verified witness colouring on success.

    DSATUR-ordered backtracking with first-colour symmetry breaking, after
    merging identical-neighbourhood twins (which never changes colourability).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if g.n == 0:
        return True, ()
    h, members = g, [[v] for v in range(g.n)]
    while True:
        h2, members2 = _contract_twins(h)
        if h2.n == h.n:
            break
        # members2 groups h-indices; compose with the previous grouping
        members = [sorted(x for hi in grp for x in members[hi]) for grp in members2]
        h = h2
    if len(greedy_clique(h)) > r:
        return False, None
    colors = _color_backtrack(h, r)
    if colors is None:
        return False, None
    full = [0] * g.n
    for rep_idx, grp in enumerate(members):
        for v in grp:
            full[v] = colors[rep_idx]
    for i, j in g.edges():
        if full[i] == full[j]:
            raise AssertionError("internal error: witness colouring is improper")
    return True, tuple(full)


def _color_backtrack(g: Graph, r: int) -> Optional[list[int]]:
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


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number (exponential worst case; fine to a few dozen vertices)."""
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    lo = len(greedy_clique(g))
    for r in range(max(lo, 2), g.n + 1):
        ok, _ = is_r_colorable(g, r)
        if ok:
            return r
    return g.n


def is_color_critical(g: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff removing some edge lowers the chromatic number; returns that edge."""
    if g.edge_count < 1:
        raise ValueError("colour-criticality needs at least one edge")
    chi = chromatic_number(g)
    for e in g.edges():
        ok, _ = is_r_colorable(g.remove_edge(*e), chi - 1)
        if ok:
            return True, e
    return False, None


# ---------------------------------------------------------------------
# cross-edge-maximising partitions
# ---------------------------------------------------------------------

_EXACT_GUARDS = {2: 16, 3: 12}


def _exact_guard(r: int, n: int):
    limit = _EXACT_GUARDS.get(r)
    if limit is None:
        limit = 1
        while r ** (limit + 1) <= 531_441:
            limit += 1
    if n > limit:
        raise FeasibilityError(
            f"exact max-cross partition guard: r={r} allows n <= {limit}, got n={n}"
        )


def max_cross_partition(
    g: Graph, r: int, mode: str = "exact"
) -> tuple[Partition, int, bool]:
    """Partition V into r cells (some possibly empty) maximising cross edges.

    mode="exact" enumerates assignments with canonical-cell symmetry breaking
    (restricted growth strings) under a hard size guard; mode="local" moves
    single vertices to a cell with strictly fewer internal neighbours until
    stable, scanning in index order.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if mode not in ("exact", "local"):
        raise ValueError("mode must be 'exact' or 'local'")
    m = g.edge_count
    if mode == "exact":
        _exact_guard(r, g.n)
        assign = _exact_min_internal(g, r)
        exact = True
    else:
        assign = _local_min_internal(g, r)
        exact = False
    cells = [[] for _ in range(r)]
    for v, c in enumerate(assign):
        cells[c].append(v)
    internal = sum(1 for i, j in g.edges() if assign[i] == assign[j])
    part = Partition(tuple(tuple(c) for c in cells))
    return part, m - internal, exact


def _exact_min_internal(g: Graph, r: int) -> list[int]:
    n = g.n
    if n == 0:
        return []
    best_internal = g.edge_count + 1
    best_assign: list[int] = [0] * n
    assign = [0] * n
    cell_masks = [0] * r

    def rec(v: int, used: int, internal: int):
        nonlocal best_internal, best_assign
        if internal >= best_internal:
            return
        if v == n:
            best_internal = internal
            best_assign = assign[:]
            return
        top = min(used + 1, r)
        for c in range(top):
            add = (g.rows[v] & cell_masks[c]).bit_count()
            assign[v] = c
            cell_masks[c] |= 1 << v
            rec(v + 1, max(used, c + 1), internal + add)
            cell_masks[c] &= ~(1 << v)
        assign[v] = 0

    rec(0, 0, 0)
    return best_assign


def _local_min_internal(g: Graph, r: int) -> list[int]:
    n = g.n
    assign = [v % r for v in range(n)]
    cell_masks = [0] * r
    for v, c in enumerate(assign):
        cell_masks[c] |= 1 << v
    moved = True
    while moved:
        moved = False
        for v in range(n):
            cur = assign[v]
            here = (g.rows[v] & cell_masks[cur]).bit_count()
            best_c, best_d = cur, here
            for c in range(r):
                if c == cur:
                    continue
                d = (g.rows[v] & cell_masks[c]).bit_count()
                if d < best_d:
                    best_c, best_d = c, d
            if best_c != cur:
                cell_masks[cur] &= ~(1 << v)
                cell_masks[best_c] |= 1 << v
                assign[v] = best_c
                moved = True
    return assign


# ---------------------------------------------------------------------
# degree classes
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeClasses:
    """High-internal-degree (W) and low-total-degree (L) vertices per cell."""

    w_cells: tuple[tuple[int, ...], ...]
    l_cells: tuple[tuple[int, ...], ...]
    eps: Union[float, Fraction]

    @property
    def w(self) -> frozenset:
        return frozenset(v for c in self.w_cells for v in c)

    @property
    def l(self) -> frozenset:
        return frozenset(v for c in self.l_cells for v in c)


def degree_classes(g: Graph, partition: Partition, eps) -> DegreeClasses:
    """Classify vertices against the thresholds 3 sqrt(eps) n (internal degree,
    class W) and (1 - 1/r - 5 sqrt(eps)) n (total degree, class L).

    Comparisons are inclusive. A Fraction eps is evaluated exactly (squared
    comparisons in rational arithmetic); a float eps uses float thresholds.
    """
    if isinstance(eps, Fraction):
        exact = True
        if not 0 < eps < 1:
            raise ValueError("eps must lie strictly between 0 and 1")
    else:
        exact = False
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie strictly between 0 and 1")
    partition.validate(g.n, allow_empty=True)
    r = partition.r
    n = g.n
    masks = partition.masks()
    w_cells, l_cells = [], []
    for i, cell in enumerate(partition.cells):
        w_i, l_i = [], []
        for v in cell:
            d_in = (g.rows[v] & masks[i]).bit_count()
            d = g.rows[v].bit_count()
            if exact:
                in_w = d_in * d_in >= 9 * eps * n * n
                slack = Fraction(n) - Fraction(n, r) - d  # (1 - 1/r) n - d
                in_l = slack >= 0 and slack * slack >= 25 * eps * n * n
            else:
                root = math.sqrt(eps)
                in_w = d_in >= 3.0 * root * n
                in_l = d <= (1.0 - 1.0 / r - 5.0 * root) * n
            if in_w:
                w_i.append(v)
            if in_l:
                l_i.append(v)
        w_cells.append(tuple(w_i))
        l_cells.append(tuple(l_i))
    return DegreeClasses(tuple(w_cells), tuple(l_cells), eps)


# ---------------------------------------------------------------------
# misc predicates used by the conjecture scans
# ---------------------------------------------------------------------


def strip_isolated(g: Graph) -> Graph:
    keep = [v for v in range(g.n) if g.rows[v]]
    return g.induced(keep)


def is_complete_bipartite(g: Graph, ignore_isolated: bool = True) -> bool:
    """Is g a complete bipartite graph (optionally up to isolated vertices)?"""
    h = strip_isolated(g) if ignore_isolated else g
    if h.n == 0:
        return True  # edgeless
    ok, colors = is_r_colorable(h, 2)
    if not ok:
        return False
    a = sum(1 for c in colors if c == 0)
    b = h.n - a
    return h.edge_count == a * b
