"""Immutable bit-packed simple graphs, the extremal family constructors, and graph6 I/O.

Vertices are 0..n-1. Adjacency is stored as one Python int per row, bit j of
``rows[i]`` set iff ij is an edge. All constructors return new values; nothing
mutates a Graph after creation, so graphs are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bit-packed symmetric adjacency rows, validated
    here; graphs derived in this module are valid by construction (``_unchecked``)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError("adjacency must have exactly n rows")
        full = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if not isinstance(r, int):
                raise ValueError(f"row {i} is not an int")
            if r & ~full:
                raise ValueError(f"row {i} has bits outside 0..n-1")
        a = _bit_matrix(self.rows, self.n)
        if a.diagonal().any():
            raise ValueError(f"loop at vertex {a.diagonal().argmax()}")
        bad = a != a.T  # symmetric: its first marked row holds the first pair i < j
        if bad.any():
            i = bad.any(axis=1).argmax()
            raise ValueError(f"adjacency not symmetric at ({i},{bad[i].argmax()})")

    @classmethod
    def _unchecked(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Graph from rows that are symmetric, loop-free and in range by construction."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, rows=rows)
        return g

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            r = self.rows[i] >> (i + 1)
            j = i + 1
            while r:
                if r & 1:
                    yield (i, j)
                r >>= 1
                j += 1

    # -- derived graphs ------------------------------------------------

    def add_edge(self, i: int, j: int) -> "Graph":
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside 0..{self.n - 1}")
        if i == j:
            raise ValueError("cannot add a loop")
        rows = list(self.rows)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        return Graph._unchecked(self.n, tuple(rows))

    def remove_edge(self, i: int, j: int) -> "Graph":
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside 0..{self.n - 1}")
        rows = list(self.rows)
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
        return Graph._unchecked(self.n, tuple(rows))

    def delete_vertex(self, v: int) -> "Graph":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        keep = [u for u in range(self.n) if u != v]
        return self.induced(keep)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        idx = {u: k for k, u in enumerate(vertices)}
        if len(idx) != len(vertices) or (idx and not (0 <= min(idx) and max(idx) < self.n)):
            raise ValueError(f"induced vertices must be distinct and lie in 0..{self.n - 1}")
        rows = [0] * len(vertices)
        for k, u in enumerate(vertices):
            r = self.rows[u]
            for w in bits(r):
                if w in idx:
                    rows[k] |= 1 << idx[w]
        return Graph._unchecked(len(vertices), tuple(rows))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        p = [int(t) for t in perm]
        if sorted(p) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of range({self.n})")
        rows = [0] * self.n
        for v in range(self.n):
            nr = 0
            for w in bits(self.rows[v]):
                nr |= 1 << p[w]
            rows[p[v]] = nr
        return Graph._unchecked(self.n, tuple(rows))

    # -- connectivity --------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        seen = 0
        comps = []
        for s in range(self.n):
            if (seen >> s) & 1:
                continue
            comp = 1 << s
            frontier = 1 << s
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.rows[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            comps.append(tuple(bits(comp)))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bit_matrix(rows: Sequence[int], n: int) -> np.ndarray:
    """Rows in 0..2^n - 1 as a len(rows) x n 0/1 uint8 matrix, via their bytes."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(nbytes, "little") for r in rows]), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(rows), nbytes), axis=1, count=n, bitorder="little")


# ---------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    return Graph._unchecked(n, tuple([0] * n))


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    full = (1 << n) - 1
    return Graph._unchecked(n, tuple((full & ~(1 << i)) for i in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on 0..n-1 with the given edges; repeated edges are merged."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        if i == j:
            raise ValueError(f"cannot add a loop at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph._unchecked(n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph._unchecked(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    n = g.n + h.n
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows]
    rows += [(r << g.n) | gmask for r in h.rows]
    return Graph._unchecked(n, tuple(rows))


def make_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; block i occupies the next parts[i] indices."""
    if not parts:
        raise ValueError("parts must be non-empty")
    if any(p < 1 for p in parts):
        raise ValueError("every part size must be at least 1")
    n = sum(parts)
    full = (1 << n) - 1
    rows = []
    start = 0
    for p in parts:
        block = ((1 << p) - 1) << start
        rows.extend([full & ~block] * p)
        start += p
    return Graph._unchecked(n, tuple(rows))


def turan_part_sizes(r: int, n: int) -> tuple[int, ...]:
    """Balanced part sizes, the n mod r larger parts first."""
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    q, rem = divmod(n, r)
    return tuple([q + 1] * rem + [q] * (r - rem))


def turan(r: int, n: int) -> Graph:
    """Complete r-partite graph on n vertices with near-equal parts."""
    return make_multipartite(turan_part_sizes(r, n))


def generalized_book(r: int, k: int) -> Graph:
    """K_r joined to k independent page vertices; C(r,2) + r*k edges."""
    if r < 2:
        raise ValueError("spine clique needs r >= 2")
    if k < 1:
        raise ValueError("need at least one page vertex")
    return join(complete_graph(r), empty_graph(k))


@dataclass(frozen=True)
class YGraphLayout:
    """Fixed vertex layout of y_graph(r, n).

    parts: consecutive vertex blocks of the underlying balanced multipartite
    graph; t1/t2: indices of the thinned small part and the host large part;
    u, w: the two adjacent vertices inside part t2; v: u's unique neighbour
    inside part t1.
    """

    r: int
    n: int
    parts: tuple[tuple[int, ...], ...]
    t1: int
    t2: int
    u: int
    w: int
    v: int


def y_graph_layout(r: int, n: int) -> YGraphLayout:
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 2 * r:
        raise ValueError("need n >= 2r so both special parts have >= 2 vertices")
    sizes = turan_part_sizes(r, n)
    blocks = []
    start = 0
    for p in sizes:
        blocks.append(tuple(range(start, start + p)))
        start += p
    rem = n % r
    # t1: first part of the smaller size; t2: first larger part distinct from it
    t1, t2 = (0, 1) if rem == 0 else (rem, 0)
    u, w = blocks[t2][0], blocks[t2][1]
    v = blocks[t1][0]
    return YGraphLayout(r, n, tuple(blocks), t1, t2, u, w, v)


def y_graph(r: int, n: int) -> Graph:
    """Balanced multipartite graph with one edge folded inside a largest part.

    Starting from turan(r, n): add the edge uw inside part t2, keep u adjacent
    in part t1 only to its first vertex v, and keep w adjacent to all of part
    t1 except v. Afterwards u and w share no neighbour in part t1 and the edge
    count equals e(turan(r, n)) - floor(n/r) + 1.
    """
    lay = y_graph_layout(r, n)
    rows = list(make_multipartite(tuple(len(b) for b in lay.parts)).rows)
    u, w, v = lay.u, lay.w, lay.v
    rows[u] |= 1 << w
    rows[w] |= 1 << u
    for x in lay.parts[lay.t1]:
        if x != v:
            rows[u] &= ~(1 << x)
            rows[x] &= ~(1 << u)
    rows[w] &= ~(1 << v)
    rows[v] &= ~(1 << w)
    return Graph._unchecked(n, tuple(rows))


def u_graph(m: int) -> Graph:
    """Triangle with m - 3 pendant edges at one vertex; order m, size m."""
    if m < 3:
        raise ValueError("need m >= 3")
    return from_edges(m, [(1, 2)] + [(0, p) for p in range(1, m)])


@dataclass(frozen=True)
class FamilySpec:
    """Named constructor call: which family plus its integer parameters."""

    family: str
    r: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None
    parts: Optional[tuple[int, ...]] = None
    left: Optional["FamilySpec"] = None
    right: Optional["FamilySpec"] = None

    _FAMILIES = ("complete", "multipartite", "turan", "book", "ygraph", "ugraph", "join", "union")

    def build(self) -> Graph:
        f = self.family
        if f not in self._FAMILIES:
            raise ValueError(f"unknown family {f!r}")
        if f == "complete":
            self._need("n")
            return complete_graph(self.n)
        if f == "multipartite":
            self._need("parts")
            return make_multipartite(self.parts)
        if f == "turan":
            self._need("r", "n")
            return turan(self.r, self.n)
        if f == "book":
            self._need("r", "k")
            return generalized_book(self.r, self.k)
        if f == "ygraph":
            self._need("r", "n")
            return y_graph(self.r, self.n)
        if f == "ugraph":
            self._need("m")
            return u_graph(self.m)
        self._need("left", "right")
        op = join if f == "join" else disjoint_union
        return op(self.left.build(), self.right.build())

    def _need(self, *names: str):
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"family {self.family!r} requires parameter {name!r}")


# ---------------------------------------------------------------------
# graph6 text format
# ---------------------------------------------------------------------
# Standard layout: length header N(n), then the upper triangle read column by
# column -- bit (i, j) for j = 1..n-1, i = 0..j-1 -- packed big-endian into
# 6-bit groups, each stored as one printable byte value 63..126.


# the six payload bits of every byte value, most significant first
_G6_BITS = np.unpackbits((np.arange(256) - 63).astype(np.uint8)[:, None] << 2, axis=1, count=6)


def _six_bit_chars(x: int, k: int) -> str:
    """x as k printable 6-bit groups, most significant first."""
    return "".join(chr(63 + ((x >> (6 * t)) & 63)) for t in reversed(range(k)))


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = chr(126) + _six_bit_chars(n, 3)
    elif n <= 68719476735:
        head = chr(126) + chr(126) + _six_bit_chars(n, 6)
    else:
        raise ValueError("graph too large for graph6")
    # the column-major upper triangle is the row-major strict lower triangle
    lower = _bit_matrix(g.rows, n)[np.tri(n, k=-1, dtype=bool)]
    body = np.append(lower, np.zeros(-lower.size % 6, dtype=np.uint8)).reshape(-1, 6)
    groups = body @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + np.uint8(63)
    return head + groups.tobytes().decode()


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    # a non-ASCII character becomes "&#...;", whose "&" fails the range scan
    raw = s.encode("ascii", "xmlcharrefreplace")
    codes = np.frombuffer(raw, dtype=np.uint8)
    if codes.min() < 63 or codes.max() > 126:
        off = int(np.argmax((codes < 63) | (codes > 126)))
        raise Graph6ParseError(f"byte {ord(s[off])} outside graph6 range 63..126", off)
    head = [c - 63 for c in raw[:8]]
    if head[0] != 63:
        n, pos = head[0], 1
    elif len(head) >= 3 and head[1] == 63:  # chr(126) chr(126): 36-bit length
        if len(head) < 8:
            raise Graph6ParseError("truncated 36-bit length header", len(s))
        n, pos = int("".join(f"{v:06b}" for v in head[2:8]), 2), 8
    else:  # chr(126): 18-bit length
        if len(head) < 4:
            raise Graph6ParseError("truncated 18-bit length header", len(s))
        n, pos = int("".join(f"{v:06b}" for v in head[1:4]), 2), 4
        if n < 63:
            raise Graph6ParseError(f"long-form header used for small order {n}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(codes) - pos != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} edge bytes for order {n}, got {len(codes) - pos}", pos
        )
    # padding fills the low bits of the last byte
    if nbytes and (raw[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6ParseError("nonzero padding bits", pos + nbytes - 1)
    stream = _G6_BITS[codes[pos:]].reshape(-1)
    # column j of the upper triangle is row j of the lower one; filling and packing
    # row by row keep the large temporaries (freed ones stay resident) to a and a.T
    a = np.zeros((n, n), dtype=np.uint8)
    start = 0
    for j in range(1, n):
        a[j, :j] = stream[start : start + j]
        start += j
    a |= a.T
    rows = (int.from_bytes(np.packbits(r, bitorder="little"), "little") for r in a)
    return Graph._unchecked(n, tuple(rows))
