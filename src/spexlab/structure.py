"""Exact structural predicates: colourability, clique/book containment,
colour-criticality, cross-edge-maximising partitions, and degree-class splits.

Everything here is exact (backtracking or exhaustive search). The colouring
search keeps its own stack, so its depth is not bounded by recursion: paths
and cycles of thousands of vertices colour in well under a second, while its
worst case stays exponential (dense graphs of a few dozen vertices). Every
public predicate reads only g's bitset rows and its view ``_contract_twins``
(twins merged once, in degree order): no derived graph, no edge walk.
The clique/book search keeps its own stack too, so r is not bounded by
recursion; its bitset rows are meant for a few thousand vertices. The public
predicates add a root order, witnesses and their checks for users; callers
that need only yes or no (the census, ``chromatic_number``) call the kernels
``_find_clique`` and ``_colour`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Optional, Sequence, Union

import numpy as np

from .graphs import Graph, _bit_matrix, _reordered, _twin_classes, bits, mask_of


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
    labelling as well as for quotients. After the first round, a round counts
    only into the sub-cells that the round before made (``_refine``), with the
    same splits in the same order.
    """
    return _refine(rows, list(cells), list(cells))


def _refine(rows: Sequence[int], cells: list[int], signers: list[int]) -> list[int]:
    """``color_refine`` of ``cells`` whose first round counts neighbours only in
    ``signers``, some of the cells in cell order: the vertices of each cell
    must agree on their counts into every other cell.

    Every later round counts only into the sub-cells that the round before
    made, less the last sub-cell of each split. The vertices of a cell agreed
    on their counts into the cells before that round, so they still agree on
    every other cell, and a dropped sub-cell's count is its parent cell's
    count less those of its siblings: it ties whenever they tie, and comes
    after them. Splits and their order are therefore those of counting into
    every cell. A cell with no neighbour in the signers cannot split, and a
    partition into singletons is final. A vertex's counts are packed into one
    int, ``n.bit_length()`` bits each in cell order, which orders as the vector
    does."""
    n, width = len(rows), len(rows).bit_length()
    while signers and len(cells) < n:
        touched = 0
        for x in signers:
            while x:
                low = x & -x
                touched |= rows[low.bit_length() - 1]
                x ^= low
        out, new = [], []
        for c in cells:
            if not c & touched or not c & (c - 1):
                out.append(c)
                continue
            sig: dict[int, int] = {}
            m = c
            while m:
                low = m & -m
                r = rows[low.bit_length() - 1]
                key = 0
                for x in signers:
                    key = (key << width) | (r & x).bit_count()
                sig[key] = sig.get(key, 0) | low
                m ^= low
            if len(sig) == 1:
                out.append(c)
            else:
                parts = [sig[k] for k in sorted(sig)]
                out += parts
                new += parts[:-1]
        cells, signers = out, new
    return cells


# ---------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------


def degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly remove a minimum-degree vertex; ties by index."""
    n = g.n
    order = []
    a = _bit_matrix(g.rows, n)
    deg = a.sum(axis=1, dtype=np.int64)
    for _ in range(n):
        v = int(deg.argmin())  # the first minimum: ties by index
        order.append(v)
        deg -= a[v]
        deg[v] = 2 * n  # removed: at most n - 1 later decrements keep it above n - 1
    return order


def _find_clique(
    rows: Sequence[int], order: Sequence[int], r: int, k: int
) -> Optional[tuple[tuple[int, ...], int]]:
    """The first r-clique (r >= 2) inside ``order`` whose common neighbourhood
    has at least k vertices, as ``(clique, common mask)``, or None. Roots come
    in ``order``; a root's clique grows only from its neighbours later in
    ``order``, lowest index first. A branch stops once its candidates cannot
    fill the clique.
    """
    cand = [0] * r  # cand[d]: vertices that may extend clique[:d]
    common = [0] * r  # common[d]: common neighbours of clique[:d]
    clique = [0] * r
    later = mask_of(order)
    for i, v in enumerate(order):
        if len(order) - i < r:
            break
        later ^= 1 << v
        clique[0] = v
        common[1] = rows[v]
        cand[1] = common[1] & later
        d = 1
        while d:
            c = cand[d]
            if c.bit_count() < r - d:
                d -= 1
                continue
            b = c & -c
            w = b.bit_length() - 1
            cand[d] = c ^ b
            clique[d] = w
            shared = common[d] & rows[w]
            if d + 1 < r:
                d += 1
                cand[d], common[d] = c & shared, shared  # c lies inside common[d]
            elif shared.bit_count() >= k:
                return tuple(clique), shared
    return None


def contains_clique(g: Graph, q: int) -> bool:
    """True iff g has a clique on q vertices (subgraph containment)."""
    if q <= 1:
        return q <= 0 or g.n >= 1
    h = _contract_twins(g)[0]  # open twins are never adjacent: a clique meets a class once
    return _find_clique(h.rows, range(h.n), q, 0) is not None


@lru_cache(maxsize=1)
def greedy_clique(g: Graph) -> tuple[int, ...]:
    """A maximal clique grown greedily from the densest remaining vertex. The
    last graph's clique is kept: ``check`` asks for it up to three times."""
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
    the required pages. The witness lists the clique then k pages, ascending.
    A blow-up is decided on cliques among its twin-class heads, for any k: a
    clique meets a class at most once, and its heads share its common
    neighbours (pages are counted over all of g). A "yes" is named on g.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if g.n < r + k:
        return False, None
    heads = [grp[0] for grp in _contract_twins(g)[1]]
    if len(heads) < g.n and _find_clique(g.rows, heads, r, k) is None:
        return False, None
    found = _find_clique(g.rows, degeneracy_order(g), r, k)
    if found is None:
        return False, None
    return True, found[0] + tuple(islice(bits(found[1]), k))


# ---------------------------------------------------------------------
# colouring
# ---------------------------------------------------------------------


@lru_cache(maxsize=1)
def _contract_twins(g: Graph) -> tuple[Graph, list[list[int]]]:
    """g's view for every public predicate: its open-twin classes (members
    ascending) by (-degree when contracted, first member) and the contracted
    graph h, class k renamed k. One pass leaves no twins: deleting a twin never
    makes two non-twins equal. The last graph's view is kept for ``check``."""
    classes = _twin_classes(g.rows, range(g.n))
    heads = mask_of(c[0] for c in classes)
    classes.sort(key=lambda c: (-(g.rows[c[0]] & heads).bit_count(), c[0]))
    order = [c[0] for c in classes]
    if order == list(range(g.n)):
        return g, classes
    return Graph._unchecked(len(order), _reordered(g.rows, order)), classes


def is_r_colorable(g: Graph, r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exact r-colourability with a verified witness colouring on success.

    DSATUR-ordered backtracking with first-colour symmetry breaking on the
    twin-contracted graph (merging twins never changes colourability). Each
    vertex's row must miss its colour class: one AND per vertex checks it.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if g.n == 0:
        return True, ()
    h, members = _contract_twins(g)
    if len(greedy_clique(h)) > r:
        return False, None
    colors, _ = _colour(h.rows, r)
    if colors is None:
        return False, None
    full, colour_class = [0] * g.n, [0] * r
    for c, grp in zip(colors, members):
        colour_class[c] |= mask_of(grp)
        for v in grp:
            full[v] = c
    if any(row & colour_class[c] for row, c in zip(g.rows, full)):
        raise AssertionError("internal error: witness colouring is improper")
    return True, tuple(full)


def _colour(adj: Sequence[int], r: int) -> tuple[Optional[list[int]], int]:
    """DSATUR backtracking (Brelaz, CACM 22(4), 1979) on bitset rows, with an
    explicit stack, so depth is bounded by memory rather than recursion.

    Each node colours the uncoloured vertex of highest saturation, then
    lowest index, trying its colours in ascending order with at most one
    brand-new colour; the verdict is exact under any labelling. Returns
    ``(colours, 0)`` on success. On failure it returns ``(None, core)``: the
    mask of every vertex the search picked. The subgraph that ``core``
    induces is not r-colourable either, because every dead end was blocked
    by picked vertices only.
    """
    n = len(adj)
    uncoloured = (1 << n) - 1
    level = [0] * (r + 1)  # uncoloured vertices by saturation
    level[0] = uncoloured
    seen = [0] * r  # seen[c] & uncoloured: uncoloured vertices with a neighbour coloured c
    colour = [0] * n
    stack = []  # (vertex, its bit, its level, used before, colour, newly seen)
    picked = 0
    used = 0
    while uncoloured:
        s = r
        while not level[s]:
            s -= 1
        bit = level[s] & -level[s]
        v = bit.bit_length() - 1
        picked |= bit
        c = 0
        while True:
            limit = used + 1 if used < r else r
            while c < limit and seen[c] & bit:
                c += 1
            if c < limit:
                break
            if not stack:
                return None, picked
            v, bit, s, used, c, newly = stack.pop()
            seen[c] ^= newly
            t = 1
            while newly:  # each newly seen vertex drops back one level
                x = level[t] & newly
                level[t] ^= x
                level[t - 1] |= x
                newly ^= x
                t += 1
            uncoloured |= bit
            level[s] |= bit
            c += 1
        uncoloured ^= bit
        level[s] ^= bit
        newly = adj[v] & uncoloured & ~seen[c]
        stack.append((v, bit, s, used, c, newly))
        seen[c] |= newly
        t = r - 1
        while newly:  # each newly seen vertex climbs one level
            x = level[t] & newly
            level[t] ^= x
            level[t + 1] |= x
            newly ^= x
            t -= 1
        colour[v] = c
        if c == used:
            used += 1
    return colour, 0


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number (exponential worst case; fine to a few dozen vertices).
    The last graph's value is kept: ``is_color_critical`` after it colours once."""
    return _chromatic_number(g)


@lru_cache(maxsize=1)
def _chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    h = _contract_twins(g)[0]
    r = len(greedy_clique(h))
    while _colour(h.rows, r)[0] is None:
        r += 1
    return r


def is_color_critical(g: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff removing some edge lowers the chromatic number; returns the
    first such edge in ``edges()`` order.

    An edge at a vertex a with a twin is never critical: G - ab contains
    G - a, whose view is G's. For twinless a and b, G - ab is a blow-up of
    h - ab (h the view), so a try toggles ab in one copy of h's rows. Only
    edges inside a refutation core T are tried (h - e contains h[T] if e is
    not in T); each failed try shrinks T to its meet with the core of h - e.
    """
    if g.edge_count < 1:
        raise ValueError("colour-criticality needs at least one edge")
    k = chromatic_number(g) - 1
    h, members = _contract_twins(g)
    adj, clique = list(h.rows), greedy_clique(h)
    core = mask_of(clique) if len(clique) > k else _colour(adj, k)[1]  # a K_{k+1} is a core
    pos = {grp[0]: c for c, grp in enumerate(members) if len(grp) == 1}
    single = mask_of(pos)
    for i in bits(single):
        for j in bits(g.rows[i] & single & -(2 << i)):  # twinless neighbours j > i
            a, b = pos[i], pos[j]
            if not (core >> a) & (core >> b) & 1:
                continue
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            colours, sub = _colour(adj, k)
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            if colours is not None:
                return True, (i, j)
            core &= sub
    return False, None


# ---------------------------------------------------------------------
# cross-edge-maximising partitions
# ---------------------------------------------------------------------

_EXACT_GUARDS = {2: 16}


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
    part = Partition(tuple(tuple(c) for c in cells))
    masks = part.masks()  # each internal edge meets its cell from both ends
    internal = sum((row & masks[c]).bit_count() for row, c in zip(g.rows, assign)) // 2
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

    Comparisons are inclusive and exact, squared in rational arithmetic. A float
    eps is read as the decimal it prints as: 0.01 is 1/100, not its binary value
    just above. The result keeps ``eps`` as given, a Fraction or a float.
    """
    if not isinstance(eps, Fraction):
        eps = float(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    q = Fraction(str(eps))  # str of a float is its shortest round-trip decimal
    partition.validate(g.n, allow_empty=True)
    r = partition.r
    n = g.n
    w_min, l_min = 9 * q * n * n, 25 * q * n * n  # (3 sqrt(eps) n)^2, (5 sqrt(eps) n)^2
    masks = partition.masks()
    w_cells, l_cells = [], []
    for i, cell in enumerate(partition.cells):
        w_i, l_i = [], []
        for v in cell:
            d_in = (g.rows[v] & masks[i]).bit_count()
            slack = n - Fraction(n, r) - g.rows[v].bit_count()  # (1 - 1/r) n - d
            if d_in * d_in >= w_min:
                w_i.append(v)
            if slack >= 0 and slack * slack >= l_min:
                l_i.append(v)
        w_cells.append(tuple(w_i))
        l_cells.append(tuple(l_i))
    return DegreeClasses(tuple(w_cells), tuple(l_cells), eps)


# ---------------------------------------------------------------------
# misc predicates used by the conjecture scans
# ---------------------------------------------------------------------


def is_complete_bipartite(g: Graph, ignore_isolated: bool = True) -> bool:
    """Is g a complete bipartite graph (optionally up to isolated vertices)?
    Edgeless counts. Otherwise exactly two distinct rows remain once zero rows
    are dropped (under ``ignore_isolated``); equal rows are never adjacent."""
    rows = set(g.rows) - ({0} if ignore_isolated else set())
    return g.edge_count == 0 or len(rows) == 2
