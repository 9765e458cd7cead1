"""Isomorph-free enumeration of small graphs and the exhaustive extremal
searches built on it: spectral/edge maximisation under predicates, the
construction-family scan, hill climbing, and the conjecture sweeps.

One labelling names a class. The canonical certificate decides isomorphism:
colour refinement plus individualisation (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014), keeping the smallest
relabelled row tuple over the leaves of the search tree. Those rows are a graph
of the class and a fixed point of the certificate. They represent the class
inside the enumeration, every value the searches and scans compute is computed
on them, and their graph6 string is the printed name, so a printed value is the
value of the printed graph. Unlike a lex-min string, the name depends on this
refinement and its cell order, as nauty's labels depend on nauty.

The certificate search skips a sibling that an automorphism known to fix its
node maps to one already tried (McKay, "Practical graph isomorphism", Congr.
Numer. 30, 1981). Two leaves with equal relabelled rows give such an
automorphism, and with the twin swaps the ones found generate the whole group.

The enumeration adds one edge at a time and certifies a child only when the
added edge maximises an isomorphism-invariant edge key (degree sum, smaller
degree, common neighbours) among the child's edges. Every class still arises
this way, from the deletion of one of its maximising edges. A class keeps the
automorphisms that its certificates found, and as a parent it tries one
non-edge per orbit of the group they and its twin swaps generate; both checks
on a child read only the new edge's ends. At order 8 about 1.24 children per
class are certified instead of 12. Each class is a parent once, so the searches
and scans judge a class (feasibility, spectral radius) where it is expanded, a
chunk of classes at a time: in-process, or, for a large level, in a pool of
forked workers, one per usable CPU.

The construction-family scan needs neither labelling: it works from part sizes
alone, taking each radius from a weighted (r+3)-cell graph, and builds no graph.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate, chain, combinations, repeat
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphs import Graph, _reordered, bits, graph6_encode, u_graph
from .graphs import _family_pattern, _y_graph_cells
from .spectral import TIE_TOL, _rho, _rhos, rotate_edges, spectral_radius
from .structure import (
    FeasibilityError,
    _colour,
    _find_clique,
    _refine,
    chromatic_number,
    color_refine,
    is_complete_bipartite,
)

ENUMERATION_HARD_GUARD = 10
FAMILY_CONFIG_GUARD = 20_000


# ---------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------


def _twin_heads(rows: Sequence[int], members: Sequence[int]) -> list[int]:
    """Each member's first open or closed twin among ``members``, itself if none
    comes earlier (swapping two twins is an automorphism). One dict holds both
    kinds of neighbourhood: N(u) = N[v] would put v in N(u), so u in N[v] = N(u)."""
    first: dict[int, int] = {}
    heads = []
    for v in members:
        closed = rows[v] | (1 << v)
        h = first.get(rows[v], first.get(closed, v))
        first[rows[v]] = first[closed] = h
        heads.append(h)
    return heads


def canonical_certificate(g: Graph) -> tuple[int, ...]:
    """Isomorphism certificate: g and h are isomorphic iff their certificates
    are equal.

    Search tree of ordered partitions. The root is the colour refinement of
    the unit partition (its first round is the degree partition). A node
    branches on the vertices of its first non-singleton cell, individualising
    each and refining again; a vertex is skipped when an automorphism known
    to fix the node's individualised vertices maps it to one already tried:
    a twin swap, or one found from two leaves. A cell that is one twin class
    is split into singletons directly: branching and refinement would change
    nothing there. Every leaf is a vertex ordering, and the certificate is the
    smallest row tuple of g relabelled by a leaf ordering.
    """
    return _certificate(g.rows)[0]


def _certificate(rows: Sequence[int]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """``canonical_certificate`` of rows, with the automorphisms its search
    found, relabelled to act on the certificate rows: two leaves whose
    relabelled rows are equal give one. With the twin swaps of the
    certificate rows they generate its automorphism group, because each child
    of a node on the first path is either searched, and then holds a leaf equal
    to the first leaf if an automorphism fixing the node maps the first path's
    child to it, or skipped by a found automorphism (McKay, "Practical graph
    isomorphism", Congr. Numer. 30, 1981)."""
    n = len(rows)
    leaves: dict[tuple[int, ...], list[int]] = {}  # relabelled rows: their first leaf
    found: list[list[int]] = []  # automorphisms of rows, as vertex images
    best: Optional[tuple[int, ...]] = None
    stack = [iter([(color_refine(rows, [(1 << n) - 1] if n else []), ())])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        cells, prefix = node
        for idx, c in enumerate(cells):
            if c & (c - 1):
                break
        else:
            order = [cell.bit_length() - 1 for cell in cells]
            cert = _reordered(rows, order)
            first = leaves.setdefault(cert, order)
            if first is not order:
                image = list(range(n))
                for u, v in zip(first, order):
                    image[u] = v
                found.append(image)
            elif best is None or cert < best:
                best, best_order = cert, order
            continue
        vertices = list(bits(c))
        heads = _twin_heads(rows, vertices)
        if heads.count(vertices[0]) == len(vertices):  # one twin class (a vertex
            # has open or closed twins, never both)
            stack.append(iter([(cells[:idx] + [1 << v for v in vertices] + cells[idx + 1:], prefix)]))
        else:
            stack.append(_branches(rows, cells, idx, dict(zip(vertices, heads)), prefix, found))
    position = [0] * n
    for k, v in enumerate(best_order):
        position[v] = k
    return best, [tuple([position[image[v]] for v in best_order]) for image in found]


def _branches(rows, cells, idx, heads, prefix, found):
    """The children of a node, made one at a time, as (cells, individualised
    vertices): one per vertex of the target cell ``cells[idx]`` that no known
    automorphism fixing ``prefix`` maps to a vertex already tried. ``found``
    grows while the children's subtrees are searched. Skipping is sound even
    where a twin class was split directly: an automorphism fixing the prefix
    maps the node to one that differs from it only by twin swaps."""
    c = cells[idx]
    tried: list[int] = []
    known, orbit = 0, None
    for v, h in heads.items():
        if v != h:
            continue
        if found and tried:
            if known < len(found):  # orbits of the twin swaps and the found automorphisms
                known = len(found)
                orbit = _orbits(len(rows), [g for g in found if all(g[p] == p for p in prefix)],
                                heads.items())
            if orbit[v] in {orbit[t] for t in tried}:
                continue
        tried.append(v)
        # cells is equitable, so refinement's first round splits each cell by
        # adjacency to v alone
        child = cells[:idx] + [1 << v, c ^ (1 << v)] + cells[idx + 1:]
        yield _refine(rows, child, [1 << v]), prefix + (v,)


def _orbits(n: int, generators: Iterable[Sequence[int]], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Each vertex's orbit, named by one of its vertices, under the group
    generated by ``generators`` and the transpositions ``pairs``."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in chain(pairs, *(enumerate(g) for g in generators)):
        parent[root(u)] = root(v)
    return [root(v) for v in range(n)]


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class: the graph on its
    certificate rows, which is its own canonical form."""
    return Graph._unchecked(g.n, canonical_certificate(g))


def canonical_graph6(g: Graph) -> str:
    return graph6_encode(canonical_form(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_certificate(g) == canonical_certificate(h)


# ---------------------------------------------------------------------
# orderly enumeration
# ---------------------------------------------------------------------


def _edge_key(rows: Sequence[int], deg: list[int], u: int, v: int) -> tuple[int, int, int]:
    """(deg u + deg v, min degree, common neighbours): isomorphism-invariant."""
    return (deg[u] + deg[v], min(deg[u], deg[v]), (rows[u] & rows[v]).bit_count())


def _max_edge_children(rows: Sequence[int], generators: Sequence[Sequence[int]]
                       ) -> Iterator[tuple[int, int]]:
    """The non-edges ij that maximise ``_edge_key`` in rows + ij, one per orbit
    of the group generated by ``generators`` (automorphisms of rows, as vertex
    images) and the twin swaps of rows. A pair is named by the unordered pair
    of its ends' twin heads, which every twin swap fixes and every
    automorphism maps to another such name; an orbit's first non-edge decides
    it, as the key is invariant.

    Adding ij raises no key: it adds one to the degrees of i and j and to the
    common neighbours of an edge iu exactly when u is adjacent to j. So a key
    of rows above ij's (``top``) rules ij out, the keys of the edges that avoid
    i and j stay at or below ``top``, and only the edges at i and j need their
    new keys. An edge au, a an end of ij and b the other, has degree sum
    deg a + 1 + deg u against ij's deg a + deg b + 2: it outranks ij when
    deg u > deg b + 1, and at deg u = deg b + 1 their smaller degrees are equal
    too, so the common neighbours decide."""
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    pairs = list(combinations(range(n), 2))
    top = (0, 0, 0)
    for u, v in pairs:
        if (rows[u] >> v) & 1 and deg[u] + deg[v] >= top[0]:
            key = _edge_key(rows, deg, u, v)
            if key > top:
                top = key
    heads = _twin_heads(rows, range(n))
    of_degree = [0] * (n + 2)  # of_degree[d], at_least[d]: the vertices of degree d, >= d
    for v, d in enumerate(deg):
        of_degree[d] |= 1 << v
    at_least = list(accumulate(reversed(of_degree), or_))[::-1]
    tried = set()
    for i, j in pairs:
        if (rows[i] >> j) & 1 or deg[i] + deg[j] + 2 < top[0]:
            continue
        orbit = (1 << heads[i]) | (1 << heads[j])
        if orbit in tried:
            continue
        tried.add(orbit)
        images = [(i, j)]
        while images:  # name the rest of the orbit
            a, b = images.pop()
            for g in generators:
                name = (1 << heads[g[a]]) | (1 << heads[g[b]])
                if name not in tried:
                    tried.add(name)
                    images.append((g[a], g[b]))
        common = (rows[i] & rows[j]).bit_count()
        if (deg[i] + deg[j] + 2, min(deg[i], deg[j]) + 1, common) < top:
            continue
        if rows[i] & at_least[deg[j] + 2] or rows[j] & at_least[deg[i] + 2]:
            continue
        if not any((rows[a] & rows[u]).bit_count() + ((rows[u] >> b) & 1) > common
                   for a, b in ((i, j), (j, i)) for u in bits(rows[a] & of_degree[deg[b] + 1])):
            yield i, j


def _clique_within(rows: Sequence[int], within: int, pages: int, s: int, k: int) -> bool:
    """Whether an s-clique inside ``within`` has at least k common neighbours
    inside ``pages``. The kernel runs on the rows masked to ``pages``: its
    roots and its growth stay inside ``within``, its page count inside ``pages``."""
    if s == 0:
        return pages.bit_count() >= k
    masked = [r & pages for r in rows]
    if s == 1:
        return any(masked[v].bit_count() >= k for v in bits(within))
    return _find_clique(masked, list(bits(within)), s, k) is not None


def _free_with_new_edge(prune_key, rows: Sequence[int], i: int, j: int) -> bool:
    """Whether rows + ij has no K_q and no B(r,k), for prune_key (q, (r, k)),
    given that rows has neither. A new copy must use ij, whose ends share the
    neighbours C = N(i) & N(j). A new K_q is a K_{q-2} in C. A new B(r,k) holds
    ij inside its r-clique, which is then an (r-2)-clique in C with k pages in C,
    or as a clique-page edge, where an (r-1)-clique in C and one end form the
    clique and the other end is a page beside k-1 common neighbours of that
    clique inside the first end's neighbourhood."""
    clique, book = prune_key
    common = rows[i] & rows[j]
    if clique is not None and _clique_within(rows, common, common, clique - 2, 0):
        return False
    if book is None:
        return True
    r, k = book
    return not (
        _clique_within(rows, common, common, r - 2, k)
        or _clique_within(rows, common, rows[i], r - 1, k - 1)
        or _clique_within(rows, common, rows[j], r - 1, k - 1)
    )


def _expand(job, task) -> tuple[int, dict, Optional[list], int]:
    """Expand one chunk of a census level. ``job`` is the census's (n,
    prune_key, judge) and ``task`` is (index, parents), each parent as its
    rows and the automorphisms known for them. Returns the index, the
    certified children with the automorphisms their certificates found
    (``_merge``), the judge's verdicts on the parents (None without a judge)
    and the number of certificates made.

    Each parent tries one non-edge per orbit of the group its automorphisms
    and twin swaps generate: the children of one orbit are isomorphic. Both
    checks on a child look only at the new edge's ends and their
    neighbourhoods (``_max_edge_children``, ``_free_with_new_edge``)."""
    n, prune_key, judge = job
    index, parents = task
    children: dict[tuple[int, ...], tuple] = {}
    certified = 0
    for rows, generators in parents:
        for i, j in _max_edge_children(rows, generators):
            if _free_with_new_edge(prune_key, rows, i, j):
                child = list(rows)
                child[i] |= 1 << j
                child[j] |= 1 << i
                _merge(children, *_certificate(child))
                certified += 1
    verdicts = None if judge is None else judge([Graph._unchecked(n, rows) for rows, _ in parents])
    return index, children, verdicts, certified


def _merge(level: dict, rows: tuple[int, ...], generators: Sequence[tuple[int, ...]]) -> None:
    """Add a class to a level with automorphisms of its rows. A class certified
    more than once keeps the union of their automorphisms, so what a level
    holds depends neither on the chunking nor on the order of the chunks."""
    known = level.get(rows)
    if not known:
        level[rows] = tuple(generators)
    elif generators:
        level[rows] = tuple(set(known).union(generators))


# A level of at least this many parents is expanded by a pool of forked workers,
# one per usable CPU. On 2 vCPUs (in-process, 8 alternating runs each) the
# order-8 K4-free spex search took a median 0.92 s unpooled and 0.77, 0.76 and
# 0.68 s pooled from 256, 128 and 64 parents; another 10 runs gave 0.66 s from
# both 256 and 64. The order-7 connected search, whose largest level has 148
# classes, took a median 0.11 s unpooled and 0.16 s pooled from 64 or 128 (10
# runs): starting a pool costs about 45 ms, and orders <= 7 have no level of 256.
_POOL_MIN_LEVEL = 256
# Chunks per level and worker, and at most _MAX_CHUNK parents per chunk. Each
# chunk is a round trip through the pool: on that order-8 search 8 per worker
# took 0.85-1.16 s, 2 per worker 0.80-1.02 s (8 alternating runs), and the
# order-9 B(3,1) search 11.3-12.4 s with 2, 4 or 8. Capping the chunks of the
# order-10 B(3,1) search's large levels took its parent's peak RSS from 464 to
# 407 MiB and each worker's from 137-139 to 37 MiB (332 and 322 s, one run each).
_CHUNKS_PER_WORKER = 2
_MAX_CHUNK = 8192
_job = None  # in a pool worker: the (n, prune_key, judge) of the census that forked it


def _install(job) -> None:
    """Pool worker initialiser: the job arrives through the fork, unpickled, so
    a judge may be any callable. ^C is left to the parent, which ends the pool."""
    import signal

    global _job
    _job = job
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _expand_installed(task):
    """``_expand`` in a pool worker. An exception that would not unpickle in the
    parent would stop the pool's result thread and hang the census, so it is
    sent as a RuntimeError naming it."""
    try:
        return _expand(_job, task)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__name__}: {exc}") from None
        raise


def _pool_workers() -> int:
    """The worker count of a census pool: one per usable CPU where processes
    can be forked, else 1, which makes no pool."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class _Census:
    """The streamed, certificate-labelled order-n census pruned by ``prune_key``,
    each class with ``judge``'s verdict on it (None without a judge), which
    takes a list of classes and returns one verdict for each; the one
    entry to the enumeration, which checks 0 <= n <= ENUMERATION_HARD_GUARD
    first. ``certified`` counts the certificates made so far, in whichever
    process made them.

    Orderly generation by edge augmentation: every class with m edges arises
    from a class with m-1 edges plus one edge. A child G + ij is a candidate
    only if ij maximises ``_edge_key`` among its edges (the cheap half of
    McKay's canonical deletion, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998). Candidates free of the prune key's K_q and B(r,k)
    are certified; the certificate rows dedupe and represent the next level's
    classes and parent the level after. Levels come in ascending edge count,
    the classes of one level in no fixed order. The prune key needs q >= 2 and
    r >= 2, which the edgeless start meets.

    Every class is a parent exactly once, so a level is expanded and judged in
    one pass (``_expand``). A level of ``_POOL_MIN_LEVEL`` parents or more is
    split into chunks for a pool of forked workers, made at the first such
    level and ended before the census returns, also on an exception or an early
    close; smaller levels, and every level on one CPU, are expanded in-process
    by the same code. The children of the chunks are united, so neither the
    chunking nor the workers' timing changes a level.

    The prune is hereditary, so it cuts whole subtrees without losing any kept
    graph. No class is lost to the edge-key filter either: take a kept H with
    m >= 1 edges and an edge e maximising the key in H. H - e is kept, so level
    m-1 holds its representative P = s(H - e) for a relabelling s, and the
    child P + s(e) = s(H) passes the filter because the key is
    isomorphism-invariant."""

    def __init__(self, n: int, prune_key, judge: Optional[Callable[[list[Graph]], list]] = None):
        if n < 0:
            raise ValueError("order must be nonnegative")
        if n > ENUMERATION_HARD_GUARD:
            raise FeasibilityError(
                f"enumeration guard: n <= {ENUMERATION_HARD_GUARD}, got {n}"
            )
        self.job = (n, prune_key, judge)
        self.certified = 0

    def __iter__(self) -> Iterator[tuple[Graph, object]]:
        n = self.job[0]
        level = {tuple([0] * n): ()}
        pool, workers = None, _pool_workers()
        try:
            while level:
                pooled = workers > 1 and len(level) >= _POOL_MIN_LEVEL
                if pooled and pool is None:
                    import multiprocessing  # about 22 ms: only a census with a large level pays it

                    context = multiprocessing.get_context("fork")
                    pool = context.Pool(workers, initializer=_install, initargs=(self.job,))
                chunks = _chunks(level, workers if pooled else 1)
                if pooled:
                    results = pool.imap_unordered(_expand_installed, enumerate(chunks))
                else:
                    results = map(partial(_expand, self.job), enumerate(chunks))
                level = {}
                for index, children, verdicts, certified in results:
                    for rows, generators in children.items():
                        _merge(level, rows, generators)
                    self.certified += certified
                    for (rows, _), verdict in zip(chunks[index], verdicts or repeat(None)):
                        yield Graph._unchecked(n, rows), verdict
        except BaseException:  # an error, here or in a worker, or an early close
            if pool is not None:
                pool.terminate()
            raise
        finally:
            if pool is not None:
                pool.close()
                pool.join()


def _chunks(level: dict, workers: int) -> list[list[tuple[tuple[int, ...], tuple]]]:
    """The (rows, automorphisms) of ``level`` in near-equal chunks,
    ``_CHUNKS_PER_WORKER`` per worker or more, of at most ``_MAX_CHUNK`` parents."""
    members = list(level.items())
    size = min(-(-len(members) // (_CHUNKS_PER_WORKER * workers)), _MAX_CHUNK)
    return [members[t : t + size] for t in range(0, len(members), size)]


def _free_of(prune_key, g: Graph) -> bool:
    """g has no K_q and no B(r,k), for prune_key (q, (r, k)); either may be None."""
    clique, book = prune_key
    # the kernel's yes/no needs no root order: every clique has a first vertex in any order
    if clique is not None and _find_clique(g.rows, range(g.n), clique, 0) is not None:
        return False
    return book is None or _find_clique(g.rows, range(g.n), *book) is None


def _colorable(g: Graph, r: int) -> bool:
    """r-colourability without a witness: the kernel on g's own rows, as
    ``_free_of`` runs the clique kernel; the twin view is ``check``'s."""
    return _colour(g.rows, r)[0] is not None


def _census(n: int, prune_key) -> Iterator[Graph]:
    """The classes of ``_Census(n, prune_key)`` without verdicts; the guard is
    checked on the call."""
    return (g for g, _ in _Census(n, prune_key))


def _column_code(g: Graph) -> int:
    """The column-major upper-triangle bits of g, first bit highest: graph6
    writes the same bits, six to a character, so for one order the codes sort
    as the strings do."""
    code = 0
    for j, row in enumerate(g.rows):
        for i in range(j):
            code = (code << 1) | ((row >> i) & 1)
    return code


def _published(graphs: Iterable[Graph]) -> list[Graph]:
    """Certificate-labelled ``graphs`` in published order: (order, edges, graph6)."""
    return sorted(graphs, key=lambda g: (g.n, g.edge_count, _column_code(g)))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One canonical (certificate-labelled) representative per isomorphism class
    of order n, ascending by edge count then by graph6 string. Guarded at n <= 10."""
    yield from _published(_census(n, (None, None)))


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
        if self.require_non_r_partite is not None and self.require_non_r_partite < 1:
            raise ValueError("require_non_r_partite needs r >= 1")

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
        return _free_of(self.prune_key(), g) and self._beyond_census(g)

    def _beyond_census(self, g: Graph) -> bool:
        """The non-hereditary constraints, which the pruned census does not enforce."""
        if self.require_non_r_partite is not None and _colorable(g, self.require_non_r_partite):
            return False
        return not self.require_connected or g.is_connected()

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchReport:
    """Champions of one exhaustive search, with tie diagnostics; champions are
    named by their canonical (certificate) graph6 string, in string order, and
    each value is that of the named graph."""

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
        return asdict(self)

    def to_csv_rows(self) -> list[list]:
        return [
            [self.n, self.objective, g6, val, self.gap_to_runner_up, self.exhaustive]
            for g6, val in self.champions
        ]


def _judge(keep: Callable[[Graph], bool], values: Callable[[list[Graph]], list]):
    """A census judge: the ``values`` of the classes that ``keep`` admits, taken
    together, and None for the others."""
    def judge(graphs: list[Graph]) -> list:
        kept = [keep(g) for g in graphs]
        found = iter(values([g for g, k in zip(graphs, kept) if k]))
        return [next(found) if k else None for k in kept]

    return judge


def _extremal_search(
    n: int,
    pred: PredicateSpec,
    objective: str,
    values: Callable[[list[Graph]], list[float]],
    tie_tol: float,
) -> SearchReport:
    """Maximise the value over the feasible classes of order n in one pass over
    the streamed, certificate-labelled census, holding a class only while it is
    within ``tie_tol`` of the running maximum: those left are the champions, named
    by their graph6 string. The gap is to the best remaining class. ``values``
    gives the values of a list of classes."""
    scanned, feasible, near, best, runner = 0, 0, [], -math.inf, -math.inf
    for g, v in _Census(n, pred.prune_key(), _judge(pred._beyond_census, values)):
        scanned += 1
        if v is None:
            continue
        feasible += 1
        if v > best:
            best = v
            runner = max([runner] + [w for _, w in near if w < best - tie_tol])
            near = [(h, w) for h, w in near if w >= best - tie_tol]
        if v >= best - tie_tol:
            near.append((g, v))
        else:
            runner = max(runner, v)
    champions = tuple(sorted((graph6_encode(g), v) for g, v in near))
    return SearchReport(
        n=n,
        predicate=pred,
        objective=objective,
        champions=champions,
        gap_to_runner_up=None if runner == -math.inf else best - runner,
        exhaustive=True,
        graphs_scanned=scanned,
        feasible_count=feasible,
        ties_within_tol=tuple(g6 for g6, _ in champions) if len(champions) > 1 else (),
    )


def spex_search(n: int, pred: PredicateSpec) -> SearchReport:
    """Exhaustive spectral-radius maximisation over the feasible classes; ties
    within ``TIE_TOL`` are all reported rather than forced unique."""
    return _extremal_search(n, pred, "rho", _rhos, TIE_TOL)


def ex_search(n: int, pred: PredicateSpec) -> SearchReport:
    """Exhaustive edge-count maximisation; ties are exact."""
    return _extremal_search(n, pred, "edges", lambda graphs: [g.edge_count for g in graphs], 0)


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
        return asdict(self)


def _partitions_into(total: int, parts: int, top: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The partitions of total into parts positive parts of at most top, as runs
    ((size, multiplicity), ...) with sizes descending, in decreasing lexicographic
    order of the sorted parts. Each multiplicity c of a size v leaves a remainder
    that fits parts - c sizes below v, so every call yields something."""
    if not 1 <= parts <= total:
        return
    for v in range(min(top, total - parts + 1), (total - 1) // parts, -1):  # to ceil(total/parts)
        c_max = parts if v == 1 else min(parts, (total - parts) // (v - 1))
        for c in range(c_max, max(1, total - parts * (v - 1)) - 1, -1):
            for rest in _partitions_into(total - c * v, parts - c, v - 1) if c < parts else [()]:
                yield ((v, c),) + rest


def _family_configs(r: int, n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each construction-family configuration once, as (part sizes, slot a,
    slot b) with a < b. Its class is fixed by the sizes and the pair of slot
    sizes, so slot a is the first slot of a run of equal sizes and slot b the
    next slot of that run or the first of a later one, in slot-pair order.
    Raises FeasibilityError once there are more than FAMILY_CONFIG_GUARD."""
    count = 0
    for runs in _partitions_into(n - 1, r, n - 1):
        sizes = tuple(chain.from_iterable(repeat(v, c) for v, c in runs))
        heads = list(accumulate((c for _, c in runs[:-1]), initial=0))
        for k, (ia, (_, c)) in enumerate(zip(heads, runs)):
            for ib in ([ia + 1] if c > 1 else []) + heads[k + 1 :]:
                count += 1
                if count > FAMILY_CONFIG_GUARD:
                    raise FeasibilityError(
                        f"family scan guard: more than {FAMILY_CONFIG_GUARD} configurations"
                    )
                yield sizes, ia, ib


def _family_cell_sizes(sizes: tuple[int, ...], ia: int, ib: int) -> np.ndarray:
    """The cell sizes s: the configuration is C = ``_family_pattern`` blown up
    by s, with equitable quotient C diag(s). A size 0 only adds the eigenvalue 0."""
    rest = sizes[:ia] + sizes[ia + 1 : ib] + sizes[ib + 1 :]
    return np.array((1, 1, 1, sizes[ia] - 1, sizes[ib] - 1) + rest)


def _cell_graph_rho(c: np.ndarray, s: np.ndarray) -> float:
    """Spectral radius of the blow-up of c by s: the largest eigenvalue of
    diag(sqrt s) c diag(sqrt s), whose entries sqrt(s_i s_j) are rounded once."""
    # not eigh: its top eigenvalue differs in the last ulps on most of these, moving the output
    return float(np.linalg.eigvalsh(c * np.sqrt(np.outer(s, s)))[-1])


def _family_y_key(r: int, n: int) -> tuple[tuple[int, ...], tuple[int, int]]:
    """(part sizes, sorted slot sizes) of the configuration isomorphic to
    y_graph(r, n): its new vertex is u, its slot parts T1 = {v} + A' and
    T2 - u = {w} + B' (``_y_graph_cells``)."""
    sizes = [len(cell) for cell in _y_graph_cells(r, n)]
    slots = (sizes[1] + sizes[3], sizes[2] + sizes[4])
    return tuple(sorted(slots + tuple(sizes[5:]), reverse=True)), tuple(sorted(slots))


def lemma27_scan(r: int, n: int, unique_margin: float = 1e-9) -> FamilyScanReport:
    """Scan every construction-family configuration (positive part sizes of
    n-1, one vertex in each of two chosen parts losing their shared edge, a
    new vertex joined to both and to all the other parts) and check that the
    spectral maximum is attained exactly by the configuration isomorphic to
    y_graph(r, n). Works from the part sizes alone: each radius is that of the
    weighted cell graph, and no graph is built."""
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 2 * r:
        raise ValueError("need n >= 2r")
    if not 0 <= unique_margin < math.inf:  # nan fails too
        raise ValueError(f"unique_margin must be nonnegative and finite, got {unique_margin}")
    configs = list(_family_configs(r, n))  # meets the guard before any eigensolve
    y_key = _family_y_key(r, n)
    c = _family_pattern(r)
    radii = []
    for sizes, ia, ib in configs:
        is_y = (sizes, (sizes[ib], sizes[ia])) == y_key
        radii.append((_cell_graph_rho(c, _family_cell_sizes(sizes, ia, ib)), is_y))
    best_rho, best_is_y = max(radii, key=lambda t: t[0])  # ties go to the first configuration
    others = [rho for rho, is_y in radii if not is_y]
    gap = best_rho - max(others) if others else None
    unique = best_is_y and (gap is None or gap > unique_margin)
    return FamilyScanReport(r, n, best_rho, best_is_y, len(configs), gap, unique)


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
    if not 0 <= accept_tol < math.inf:  # nan fails too
        raise ValueError(f"accept_tol must be nonnegative and finite, got {accept_tol}")
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
            rho = _rho(cand)
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
                rho = _rho(cand)
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
        return asdict(self)


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
    first = 3 if kind == "liu_miao_U" else 1  # the order each sweep starts at
    if max_n < first:
        raise ValueError(f"the {kind} scan needs max_n >= {first}, got {max_n}")
    if not 0 <= tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
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
    connectivity/bipartiteness flags. The census is read, and its guard
    checked, on the call."""
    return map(_census_row, _published(_census(n, (None, None))))


def _census_row(g: Graph) -> dict:
    chi = chromatic_number(g)
    return {
        "graph6": graph6_encode(g),
        "n": g.n,
        "m": g.edge_count,
        "rho": _rho(g),
        "chi": chi,
        "connected": g.is_connected(),
        "bipartite": chi <= 2,
    }


def write_census(n: int, g6_path, csv_path) -> int:
    """Write the order-n census as graph6 lines plus a CSV of invariants. A
    refused order leaves both files as they were."""
    import csv as _csv

    count = 0
    rows = census_rows(n)
    with open(g6_path, "w", encoding="ascii") as g6f, open(
        csv_path, "w", newline="", encoding="ascii"
    ) as csvf:
        writer = _csv.writer(csvf)
        writer.writerow(["graph6", "n", "m", "rho", "chi", "connected", "bipartite"])
        for row in rows:
            g6f.write(row["graph6"] + "\n")
            writer.writerow([row["graph6"], row["n"], row["m"], row["rho"],
                             row["chi"], row["connected"], row["bipartite"]])
            count += 1
    return count


def _book_bound(r: int, m: int) -> float:
    """sqrt((1 - 1/r) 2m), the edge-count bound of both book scans (sqrt(m) at r = 2)."""
    return math.sqrt((1.0 - 1.0 / r) * 2.0 * m)


def _bound_sweep(max_n: int, book: tuple[int, int],
                 tol: float) -> tuple[int, dict[Graph, float], list[Graph]]:
    """The B(book)-free classes of order 1..max_n against rho <= _book_bound: their
    count, violations with their rho, and equality witnesses (|rho - bound| <= tol)."""
    key = PredicateSpec(forbid_book=book).prune_key()  # refuses r < 2 before 1 / r
    scanned, violations, witnesses = 0, {}, []
    for g, rho in chain.from_iterable(_Census(n, key, _rhos) for n in range(1, max_n + 1)):
        scanned += 1
        bound = _book_bound(book[0], g.edge_count)
        if rho > bound + tol:
            violations[g] = rho
        elif abs(rho - bound) <= tol:
            witnesses.append(g)
    return scanned, violations, witnesses


def _scan_nosal(max_n: int, k: int, tol: float) -> ConjectureScanReport:
    scanned, violations, witnesses = _bound_sweep(max_n, (2, k), tol)
    return ConjectureScanReport(
        kind="nosal_book",
        params={"max_n": max_n, "k": k},
        scanned=scanned,
        violations=tuple({"graph6": graph6_encode(g), "rho": violations[g],
                          "bound": math.sqrt(g.edge_count)} for g in _published(violations)),
        equality_witnesses=tuple(graph6_encode(g) for g in _published(witnesses)),
        witnesses_all_complete_bipartite=all(is_complete_bipartite(g) for g in witnesses),
    )


def _scan_liu_miao(max_n: int, tol: float) -> ConjectureScanReport:
    key = PredicateSpec(forbid_book=(2, 2)).prune_key()
    by_m: dict[int, list[tuple[float, Graph]]] = {}
    judge = _judge(lambda g: not _colorable(g, 2), _rhos)  # None: bipartite
    for g, rho in chain.from_iterable(_Census(n, key, judge) for n in range(3, max_n + 1)):
        if rho is not None:
            by_m.setdefault(g.edge_count, []).append((rho, g))
    champions, violations = [], []
    for m in sorted(by_m):
        top = max(rho for rho, _ in by_m[m])
        g, u = _published(h for rho, h in by_m[m] if rho == top)[0], u_graph(m)
        core = g.induced([v for v in range(g.n) if g.rows[v]])  # isolated vertices dropped
        entry = {"m": m, "champion_graph6": graph6_encode(g), "champion_rho": top,
                 "u_rho": _rho(u), "champion_is_u": are_isomorphic(core, u)}
        champions.append(entry)
        if top > entry["u_rho"] + tol:
            violations.append(entry)
    return ConjectureScanReport(
        kind="liu_miao_U",
        params={"max_n": max_n},
        scanned=sum(map(len, by_m.values())),
        violations=tuple(violations),
        per_edge_champions=tuple(champions),
    )


def _scan_sqrt_2m(max_n: int, r: int, k: int, tol: float) -> ConjectureScanReport:
    scanned, violations, _ = _bound_sweep(max_n, (r, k), tol)
    return ConjectureScanReport(
        kind="sqrt_2m_bound",
        params={"max_n": max_n, "r": r, "k": k},
        scanned=scanned,
        violations=tuple({"graph6": graph6_encode(g), "rho": violations[g],
                          "bound": _book_bound(r, g.edge_count), "m": g.edge_count}
                         for g in _published(violations)),
    )
