"""Isomorph-free enumeration of small graphs and the exhaustive extremal
searches built on it: spectral/edge maximisation under predicates, the
construction-family scan, hill climbing, and the conjecture sweeps.

Two labellings serve different purposes. The canonical certificate decides
isomorphism: colour refinement plus individualisation (McKay & Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014), keeping the
smallest relabelled row tuple over the leaves of the search tree. The
canonical form is the published representative: the lexicographically minimal
upper-triangle bit string over all vertex orderings (read column by column, so
each new vertex appends its adjacency to the previous ones), found by a
branch-and-bound that prunes by prefix dominance against the best string found
and by twin-class symmetry. The enumeration dedupes candidates by certificate
and computes the lex-min form once per new class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, Optional

from .graphs import Graph, bits, graph6_encode, make_multipartite, u_graph, y_graph
from .spectral import TIE_TOL, rotate_edges, spectral_radius
from .structure import (
    FeasibilityError,
    color_refine,
    contains_clique,
    contains_generalized_book,
    is_complete_bipartite,
    is_r_colorable,
    strip_isolated,
)

ENUMERATION_HARD_GUARD = 10
FAMILY_CONFIG_GUARD = 20_000


# ---------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------


def _twin_keys(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """Per vertex, ids of its open and closed neighbourhoods: vertices sharing
    either id are twins, so swapping them is an automorphism."""
    open_ids: dict[int, int] = {}
    closed_ids: dict[int, int] = {}
    return [
        (
            open_ids.setdefault(r, len(open_ids)),
            closed_ids.setdefault(r | (1 << v), len(closed_ids)),
        )
        for v, r in enumerate(rows)
    ]


def canonical_certificate(g: Graph) -> tuple[int, ...]:
    """Isomorphism certificate: g and h are isomorphic iff their certificates
    are equal.

    Search tree of ordered partitions. The root is the colour refinement of
    the unit partition (its first round is the degree partition). A node
    branches on the vertices of its first non-singleton cell, individualising
    each and refining again; a vertex that is a twin of one already tried is
    skipped, because swapping the two is an automorphism fixing the node. A
    cell that is one twin class is split into singletons directly: branching
    and refinement would change nothing there. Every leaf is a vertex
    ordering, and the certificate is the smallest row tuple of g relabelled by
    a leaf ordering.
    """
    n = g.n
    rows = g.rows
    twin_keys = _twin_keys(rows)
    best: Optional[tuple[int, ...]] = None
    stack = [color_refine(rows, [(1 << n) - 1] if n else [])]
    while stack:
        cells = stack.pop()
        for idx, c in enumerate(cells):
            if c & (c - 1):
                break
        else:
            order = [cell.bit_length() - 1 for cell in cells]
            pos = [0] * n
            for p, v in enumerate(order):
                pos[v] = p
            leaf = []
            for v in order:
                r = rows[v]
                x = 0
                while r:
                    low = r & -r
                    x |= 1 << pos[low.bit_length() - 1]
                    r ^= low
                leaf.append(x)
            cert = tuple(leaf)
            if best is None or cert < best:
                best = cert
            continue
        members = list(bits(c))
        keys = [twin_keys[v] for v in members]
        if len({k[0] for k in keys}) == 1 or len({k[1] for k in keys}) == 1:
            stack.append(cells[:idx] + [1 << v for v in members] + cells[idx + 1:])
            continue
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        for v, (oid, cid) in zip(members, keys):
            if oid in seen_open or cid in seen_closed:
                continue
            seen_open.add(oid)
            seen_closed.add(cid)
            child = cells[:idx] + [1 << v, c ^ (1 << v)] + cells[idx + 1:]
            stack.append(color_refine(rows, child))
    return best


def canonical_perm(g: Graph) -> list[int]:
    """Ordering of the vertices (position -> vertex) whose column-block string
    is lexicographically minimal.

    Branch and bound over positions: candidates at each position are grouped
    by their adjacency block to the prefix, visited in ascending block order,
    pruned against the running best string (tracked with an equality flag so
    each comparison is O(1)) and deduplicated by twin classes (vertices with
    identical open or closed neighbourhoods are interchangeable).
    """
    n = g.n
    if n <= 1:
        return list(range(n))
    rows = g.rows
    twin_keys = _twin_keys(rows)
    best_blocks: list[int] = []
    best_perm: list[int] = []
    have_best = False
    perm: list[int] = []
    trail: list[int] = []

    def rec(used: int, cand_blocks: list[int], tight: bool) -> bool:
        # prefix is <= best throughout; returns True iff best was replaced
        nonlocal have_best
        j = len(perm)
        if j == n:
            if not have_best or not tight:
                best_perm[:] = perm
                best_blocks[:] = trail
                have_best = True
                return True
            return False
        # only the minimal block can start the minimum completion of this
        # subtree (a smaller block at position j dominates all later bits)
        members: list[int] = []
        bmin = -1
        for v in range(n):
            if not (used >> v) & 1:
                b = cand_blocks[v]
                if bmin < 0 or b < bmin:
                    bmin = b
                    members = [v]
                elif b == bmin:
                    members.append(v)
        if have_best and tight:
            if bmin > best_blocks[j]:
                return False
            child_tight = bmin == best_blocks[j]
        else:
            child_tight = False
        improved = False
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        for v in members:
            oid, cid = twin_keys[v]
            if oid in seen_open or cid in seen_closed:
                continue
            seen_open.add(oid)
            seen_closed.add(cid)
            new_cand = cand_blocks[:]
            for t in range(n):
                if not (used >> t) & 1 and t != v:
                    new_cand[t] = (cand_blocks[t] << 1) | ((rows[t] >> v) & 1)
            perm.append(v)
            trail.append(bmin)
            sub = rec(used | (1 << v), new_cand, child_tight)
            perm.pop()
            trail.pop()
            if sub:
                # best now runs through this prefix and block value
                improved = True
                child_tight = True
        return improved

    rec(0, [0] * n, False)
    return best_perm


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    perm = canonical_perm(g)
    inv = [0] * g.n
    for pos, v in enumerate(perm):
        inv[v] = pos
    return g.relabel(inv)


def canonical_graph6(g: Graph) -> str:
    return graph6_encode(canonical_form(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_certificate(g) == canonical_certificate(h)


# ---------------------------------------------------------------------
# orderly enumeration
# ---------------------------------------------------------------------


def _orderly_levels(n: int, keep: Optional[Callable[[Graph], bool]]) -> Iterator[Graph]:
    """Orderly generation by edge augmentation: every canonical graph with m
    edges arises from a canonical graph with m-1 edges plus one edge. The
    children are deduped by canonical certificate, and only a new certificate
    pays for the lex-min canonical form, once per class. ``keep`` must be
    closed under edge deletion; it prunes whole subtrees without losing any
    graph that satisfies it."""
    start = Graph._unchecked(n, tuple([0] * n))
    if keep is not None and not keep(start):
        return
    yield start
    level = {start.rows}
    pairs = list(combinations(range(n), 2))
    while level:
        candidates: set[tuple[int, ...]] = set()
        for rows in level:
            for i, j in pairs:
                if (rows[i] >> j) & 1:
                    continue
                cand_rows = list(rows)
                cand_rows[i] |= 1 << j
                cand_rows[j] |= 1 << i
                candidates.add(tuple(cand_rows))
        classes: dict[tuple[int, ...], tuple[int, ...]] = {}
        for cand_rows in candidates:
            cand = Graph._unchecked(n, cand_rows)
            if keep is not None and not keep(cand):
                continue
            cert = canonical_certificate(cand)
            if cert not in classes:
                classes[cert] = canonical_form(cand).rows
        level = set(classes.values())
        for rows in sorted(level, key=lambda rt: graph6_encode(Graph._unchecked(n, rt))):
            yield Graph._unchecked(n, rows)


@lru_cache(maxsize=64)
def _census_cached(n: int, prune_key) -> tuple[Graph, ...]:
    """The order-n census pruned by ``prune_key``; the one guarded entry to
    the enumeration (0 <= n <= ENUMERATION_HARD_GUARD)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > ENUMERATION_HARD_GUARD:
        raise FeasibilityError(
            f"enumeration guard: n <= {ENUMERATION_HARD_GUARD}, got {n}"
        )
    return tuple(_orderly_levels(n, _prune_fn(prune_key)))


def _prune_fn(prune_key) -> Optional[Callable[[Graph], bool]]:
    clique_bound, book = prune_key
    if clique_bound is None and book is None:
        return None

    def keep(g: Graph) -> bool:
        if clique_bound is not None and contains_clique(g, clique_bound):
            return False
        if book is not None and contains_generalized_book(g, book[0], book[1])[0]:
            return False
        return True

    return keep


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of order n,
    ascending by edge count then by canonical string. Guarded at n <= 10."""
    yield from _census_cached(n, (None, None))


# ---------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateSpec:
    """Feasible-set description for the searches.

    forbid_book=(r, k) and forbid_clique=q exclude graphs containing the
    named subgraph; require_non_r_partite=r keeps only graphs that are not
    r-colourable; require_connected keeps only connected graphs.
    """

    forbid_book: Optional[tuple[int, int]] = None
    require_non_r_partite: Optional[int] = None
    require_connected: bool = False
    forbid_clique: Optional[int] = None

    def __post_init__(self):
        if (
            self.forbid_book is None
            and self.require_non_r_partite is None
            and not self.require_connected
            and self.forbid_clique is None
        ):
            raise ValueError("at least one constraint must be set")
        if self.forbid_book is not None:
            r, k = self.forbid_book
            if r < 2 or k < 1:
                raise ValueError("forbid_book needs r >= 2 and k >= 1")
        if self.forbid_clique is not None and self.forbid_clique < 2:
            raise ValueError("forbid_clique needs a clique order >= 2")

    def prune_key(self) -> tuple:
        """Anti-monotone part, normalised: a (r,1) book is exactly K_{r+1}."""
        clique = self.forbid_clique
        book = self.forbid_book
        if book is not None and book[1] == 1:
            q = book[0] + 1
            clique = q if clique is None else min(clique, q)
            book = None
        return (clique, book)

    def satisfies(self, g: Graph) -> bool:
        if self.forbid_clique is not None and contains_clique(g, self.forbid_clique):
            return False
        if self.forbid_book is not None and contains_generalized_book(
            g, self.forbid_book[0], self.forbid_book[1]
        )[0]:
            return False
        if self.require_non_r_partite is not None and is_r_colorable(
            g, self.require_non_r_partite
        )[0]:
            return False
        if self.require_connected and not g.is_connected():
            return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "forbid_book": list(self.forbid_book) if self.forbid_book else None,
            "require_non_r_partite": self.require_non_r_partite,
            "require_connected": self.require_connected,
            "forbid_clique": self.forbid_clique,
        }


@dataclass(frozen=True)
class SearchReport:
    """Champions of one exhaustive search, with tie diagnostics."""

    n: int
    predicate: PredicateSpec
    objective: str  # "rho" | "edges"
    champions: tuple[tuple[str, float], ...]  # (canonical graph6, value)
    gap_to_runner_up: Optional[float]
    exhaustive: bool
    graphs_scanned: int
    feasible_count: int
    ties_within_tol: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "predicate": self.predicate.to_json_dict(),
            "objective": self.objective,
            "champions": [[g6, val] for g6, val in self.champions],
            "gap_to_runner_up": self.gap_to_runner_up,
            "exhaustive": self.exhaustive,
            "graphs_scanned": self.graphs_scanned,
            "feasible_count": self.feasible_count,
            "ties_within_tol": list(self.ties_within_tol),
        }

    def to_csv_rows(self) -> list[list]:
        return [
            [self.n, self.objective, g6, val, self.gap_to_runner_up, self.exhaustive]
            for g6, val in self.champions
        ]


def _extremal_search(
    n: int,
    pred: PredicateSpec,
    objective: str,
    value: Callable[[Graph], float],
    tie_tol: float,
) -> SearchReport:
    """Maximise ``value`` over the feasible classes of order n. Every class
    within ``tie_tol`` of the maximum is a champion, listed by its canonical
    graph6 string (census members are already canonical); the gap is measured
    to the best remaining class."""
    census = _census_cached(n, pred.prune_key())
    feasible = [g for g in census if pred.satisfies(g)]
    values = [value(g) for g in feasible]
    champions: tuple[tuple[str, float], ...] = ()
    gap = None
    if feasible:
        best = max(values)
        champions = tuple(sorted(
            (graph6_encode(g), v) for g, v in zip(feasible, values) if v >= best - tie_tol
        ))
        runner = max((v for v in values if v < best - tie_tol), default=None)
        gap = None if runner is None else best - runner
    return SearchReport(
        n=n,
        predicate=pred,
        objective=objective,
        champions=champions,
        gap_to_runner_up=gap,
        exhaustive=True,
        graphs_scanned=len(census),
        feasible_count=len(feasible),
        ties_within_tol=tuple(g6 for g6, _ in champions) if len(champions) > 1 else (),
    )


def spex_search(n: int, pred: PredicateSpec) -> SearchReport:
    """Exhaustive spectral-radius maximisation over the feasible classes; ties
    within ``TIE_TOL`` are all reported rather than forced unique."""
    return _extremal_search(n, pred, "rho", lambda g: spectral_radius(g).rho, TIE_TOL)


def ex_search(n: int, pred: PredicateSpec) -> SearchReport:
    """Exhaustive edge-count maximisation; ties are exact."""
    return _extremal_search(n, pred, "edges", lambda g: g.edge_count, 0)


# ---------------------------------------------------------------------
# construction-family scan
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyScanReport:
    r: int
    n: int
    max_rho: float
    argmax_is_y: bool
    configs_scanned: int
    gap_to_non_isomorphic: Optional[float]  # None: every configuration is y_graph
    unique: bool

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "max_rho": self.max_rho,
            "argmax_is_y": self.argmax_is_y,
            "configs_scanned": self.configs_scanned,
            "gap_to_non_isomorphic": self.gap_to_non_isomorphic,
            "unique": self.unique,
        }


def _partitions_into(total: int, parts: int, max_part: Optional[int] = None):
    """Non-increasing positive integer tuples with the given length and sum."""
    if max_part is None:
        max_part = total
    if parts == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    for first in range(min(total - parts + 1, max_part), 0, -1):
        for rest in _partitions_into(total - first, parts - 1, first):
            yield (first,) + rest


def _family_config_graph(sizes: tuple[int, ...], slot_v: int, slot_w: int) -> Graph:
    """Complete multipartite on sizes, a removed cross edge vw, and a new
    vertex adjacent to v, w, and every part not hosting v or w."""
    base = make_multipartite(sizes)
    rows = list(base.rows)
    v = sum(sizes[:slot_v])
    w = sum(sizes[:slot_w])
    # v and w share exactly the parts hosting neither of them
    umask = (rows[v] & rows[w]) | (1 << v) | (1 << w)
    rows[v] &= ~(1 << w)
    rows[w] &= ~(1 << v)
    u = base.n
    for t in bits(umask):
        rows[t] |= 1 << u
    rows.append(umask)
    return Graph._unchecked(u + 1, tuple(rows))


def lemma27_scan(r: int, n: int, unique_margin: float = 1e-9) -> FamilyScanReport:
    """Scan every construction-family configuration (positive part sizes of
    n-1, one vertex in each of two chosen parts losing their shared edge, a
    new vertex joined to both and to all the other parts) and check that the
    spectral maximum is attained exactly by the configuration isomorphic to
    y_graph(r, n)."""
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 2 * r:
        raise ValueError("need n >= 2r")
    configs = []
    seen = set()
    for sizes in _partitions_into(n - 1, r):
        for ia, ib in combinations(range(r), 2):
            key = (sizes, tuple(sorted((sizes[ia], sizes[ib]))))
            if key in seen:
                continue
            seen.add(key)
            configs.append((sizes, ia, ib))
    if len(configs) > FAMILY_CONFIG_GUARD:
        raise FeasibilityError(
            f"family scan guard: {len(configs)} configurations exceed {FAMILY_CONFIG_GUARD}"
        )
    y = y_graph(r, n)
    best_rho = -math.inf
    best_is_y = False
    best_other = -math.inf
    for sizes, ia, ib in configs:
        g = _family_config_graph(sizes, ia, ib)
        rho = spectral_radius(g).rho
        is_y = are_isomorphic(g, y)
        if rho > best_rho:
            best_rho = rho
            best_is_y = is_y
        if not is_y and rho > best_other:
            best_other = rho
    gap = None if best_other == -math.inf else best_rho - best_other
    return FamilyScanReport(
        r=r,
        n=n,
        max_rho=best_rho,
        argmax_is_y=best_is_y,
        configs_scanned=len(configs),
        gap_to_non_isomorphic=gap,
        unique=best_is_y and (gap is None or gap > unique_margin),
    )


# ---------------------------------------------------------------------
# hill climbing
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClimbStep:
    move: str
    rho: float


def hill_climb(
    g0: Graph,
    pred: PredicateSpec,
    budget: int = 100,
    accept_tol: float = 1e-9,
) -> tuple[Graph, list[ClimbStep]]:
    """Steepest-ascent local search over predicate-preserving single moves.

    Moves: add one edge, remove one edge, or shift all of one vertex's
    private neighbours onto a heavier vertex (the rotation move, applied with
    its hypothesis x_u >= x_v). Every candidate is re-verified against the
    predicate from scratch; a move is taken only if it raises the spectral
    radius by more than ``accept_tol``.
    """
    if not pred.satisfies(g0):
        raise ValueError("start graph violates the predicate")
    g = g0
    trace: list[ClimbStep] = []
    for _ in range(budget):
        base = spectral_radius(g)
        best_rho = base.rho + accept_tol
        best_move: Optional[tuple[str, Graph]] = None
        for i, j in combinations(range(g.n), 2):
            if g.has_edge(i, j):
                cand = g.remove_edge(i, j)
                label = f"remove {i}-{j}"
            else:
                cand = g.add_edge(i, j)
                label = f"add {i}-{j}"
            if not pred.satisfies(cand):
                continue
            rho = spectral_radius(cand).rho
            if rho > best_rho:
                best_rho = rho
                best_move = (label, cand)
        x = base.vector
        for u in range(g.n):
            for v in range(g.n):
                if u == v or x[u] < x[v]:
                    continue
                s_mask = g.rows[v] & ~(g.rows[u] | (1 << u))
                if not s_mask:
                    continue
                s = list(bits(s_mask))
                cand = rotate_edges(g, u, v, s)
                if not pred.satisfies(cand):
                    continue
                rho = spectral_radius(cand).rho
                if rho > best_rho:
                    best_rho = rho
                    best_move = (f"rotate {v}->{u} ({len(s)} edges)", cand)
        if best_move is None:
            break
        g = best_move[1]
        trace.append(ClimbStep(best_move[0], best_rho))
    return g, trace


# ---------------------------------------------------------------------
# conjecture scans
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureScanReport:
    kind: str
    params: dict
    scanned: int
    violations: tuple[dict, ...]
    equality_witnesses: tuple[str, ...] = ()
    witnesses_all_complete_bipartite: Optional[bool] = None
    per_edge_champions: tuple[dict, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "scanned": self.scanned,
            "violations": list(self.violations),
            "equality_witnesses": list(self.equality_witnesses),
            "witnesses_all_complete_bipartite": self.witnesses_all_complete_bipartite,
            "per_edge_champions": list(self.per_edge_champions),
        }


def conjecture_scan(
    kind: str,
    max_n: int,
    r: int = 3,
    k: int = 2,
    tol: float = 1e-9,
) -> ConjectureScanReport:
    """Desk-scale sweeps of the edge-count spectral bounds.

    nosal_book: over B_{2,k}-free graphs of order <= max_n, check
    rho <= sqrt(m) and that every equality witness is complete bipartite (up
    to isolated vertices). liu_miao_U: over non-bipartite B_{2,2}-free graphs
    grouped by edge count m, compare the champion against the triangle with
    m-3 pendant edges. sqrt_2m_bound: over B_{r,k}-free graphs, check
    rho <= sqrt((1 - 1/r) 2m).
    """
    if max_n > ENUMERATION_HARD_GUARD:
        raise FeasibilityError(
            f"enumeration guard: max_n <= {ENUMERATION_HARD_GUARD}, got {max_n}"
        )
    if kind == "nosal_book":
        return _scan_nosal(max_n, k, tol)
    if kind == "liu_miao_U":
        return _scan_liu_miao(max_n, tol)
    if kind == "sqrt_2m_bound":
        return _scan_sqrt_2m(max_n, r, k, tol)
    raise ValueError(f"unknown scan kind {kind!r}")


def census_rows(n: int) -> Iterator[dict]:
    """Full-census dump rows: one dict per isomorphism class of order n with
    its graph6 string, order, size, spectral radius, chromatic number, and
    connectivity/bipartiteness flags."""
    from .structure import chromatic_number

    for g in enumerate_graphs(n):
        chi = chromatic_number(g)
        yield {
            "graph6": graph6_encode(g),
            "n": g.n,
            "m": g.edge_count,
            "rho": spectral_radius(g).rho if g.n else 0.0,
            "chi": chi,
            "connected": g.is_connected(),
            "bipartite": chi <= 2,
        }


def write_census(n: int, g6_path, csv_path) -> int:
    """Write the order-n census as graph6 lines plus a CSV of invariants."""
    import csv as _csv

    count = 0
    with open(g6_path, "w", encoding="ascii") as g6f, open(
        csv_path, "w", newline="", encoding="ascii"
    ) as csvf:
        writer = _csv.writer(csvf)
        writer.writerow(["graph6", "n", "m", "rho", "chi", "connected", "bipartite"])
        for row in census_rows(n):
            g6f.write(row["graph6"] + "\n")
            writer.writerow([row["graph6"], row["n"], row["m"], row["rho"],
                             row["chi"], row["connected"], row["bipartite"]])
            count += 1
    return count


def _scan_nosal(max_n: int, k: int, tol: float) -> ConjectureScanReport:
    violations = []
    witnesses = []
    all_cb = True
    scanned = 0
    prune = PredicateSpec(forbid_book=(2, k)).prune_key()
    for n in range(1, max_n + 1):
        for g in _census_cached(n, prune):
            scanned += 1
            m = g.edge_count
            rho = spectral_radius(g).rho
            bound = math.sqrt(m)
            if rho > bound + tol:
                violations.append(
                    {"graph6": graph6_encode(g), "rho": rho, "bound": bound}
                )
            elif abs(rho - bound) <= tol:
                witnesses.append(graph6_encode(g))
                if not is_complete_bipartite(g, ignore_isolated=True):
                    all_cb = False
    return ConjectureScanReport(
        kind="nosal_book",
        params={"max_n": max_n, "k": k},
        scanned=scanned,
        violations=tuple(violations),
        equality_witnesses=tuple(witnesses),
        witnesses_all_complete_bipartite=all_cb,
    )


def _scan_liu_miao(max_n: int, tol: float) -> ConjectureScanReport:
    by_m: dict[int, tuple[float, Graph]] = {}
    scanned = 0
    prune = PredicateSpec(forbid_book=(2, 2)).prune_key()
    for n in range(3, max_n + 1):
        for g in _census_cached(n, prune):
            if is_r_colorable(g, 2)[0]:
                continue
            scanned += 1
            rho = spectral_radius(g).rho
            m = g.edge_count
            cur = by_m.get(m)
            if cur is None or rho > cur[0]:
                by_m[m] = (rho, g)
    champions = []
    violations = []
    for m in sorted(by_m):
        rho, g = by_m[m]
        u = u_graph(m)
        rho_u = spectral_radius(u).rho
        is_u = are_isomorphic(strip_isolated(g), u)
        entry = {
            "m": m,
            "champion_graph6": graph6_encode(g),
            "champion_rho": rho,
            "u_rho": rho_u,
            "champion_is_u": is_u,
        }
        champions.append(entry)
        if rho > rho_u + tol:
            violations.append(entry)
    return ConjectureScanReport(
        kind="liu_miao_U",
        params={"max_n": max_n},
        scanned=scanned,
        violations=tuple(violations),
        per_edge_champions=tuple(champions),
    )


def _scan_sqrt_2m(max_n: int, r: int, k: int, tol: float) -> ConjectureScanReport:
    violations = []
    scanned = 0
    prune = PredicateSpec(forbid_book=(r, k)).prune_key()
    for n in range(1, max_n + 1):
        for g in _census_cached(n, prune):
            scanned += 1
            m = g.edge_count
            rho = spectral_radius(g).rho
            bound = math.sqrt((1.0 - 1.0 / r) * 2.0 * m)
            if rho > bound + tol:
                violations.append(
                    {"graph6": graph6_encode(g), "rho": rho, "bound": bound, "m": m}
                )
    return ConjectureScanReport(
        kind="sqrt_2m_bound",
        params={"max_n": max_n, "r": r, "k": k},
        scanned=scanned,
        violations=tuple(violations),
    )
