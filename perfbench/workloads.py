"""The benchmark's workloads: the CLI commands each runs, the inputs made from
the seed, and the checks every command's output must pass.

A check raises ``CheckFailed``. Expected values are fixed numbers from the
paper's cases, or references computed here without spexlab: the ``check``
graphs are drawn with numpy and written with networkx's graph6 writer, and
their chromatic numbers, colour-criticality and book containment are
recomputed by the small exact routines below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import networkx as nx
import numpy as np


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Command:
    key: str  # unique within the workload; later commands read outputs by key
    metric: str  # per-command time metric; commands sharing one are summed
    argv: list[str]
    check: Callable[[str], None]
    stdin: Optional[Callable[[dict], str]] = None


def _json_lines(out: str, count: int) -> list[dict]:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    expect(len(lines) == count, f"expected {count} output lines, got {len(lines)}")
    return [json.loads(ln) for ln in lines]


# ---------------------------------------------------------------------
# census-n8
# ---------------------------------------------------------------------

CENSUS_CHAMPION = "GFzf~w"
CENSUS_RHO = 5.274917217635375
CENSUS_FEASIBLE = 6431


def _check_census(out: str) -> None:
    (rep,) = _json_lines(out, 1)
    champs = rep["champions"]
    expect(len(champs) == 1 and champs[0][0] == CENSUS_CHAMPION, f"champions {champs}")
    expect(abs(champs[0][1] - CENSUS_RHO) <= 1e-9, f"rho {champs[0][1]}")
    expect(rep["feasible_count"] == CENSUS_FEASIBLE, f"feasible {rep['feasible_count']}")
    gap = rep["gap_to_runner_up"]
    expect(gap is not None and gap > 1e-6, f"gap {gap}")
    expect(rep["exhaustive"] is True, "search not exhaustive")


def census_n8(seed: int) -> list[Command]:
    return [
        Command("search", "cmd.search_spex_s",
                ["search", "spex", "--n", "8", "--forbid-clique", "4"], _check_census),
    ]


# ---------------------------------------------------------------------
# family-large
# ---------------------------------------------------------------------


def turan_edges(r: int, n: int) -> int:
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    return (n * n - sum(s * s for s in sizes)) // 2


def graph6_order_edges(line: str) -> tuple[int, int]:
    """Order and edge count of one graph6 line, decoded with numpy."""
    b = np.frombuffer(line.strip().encode("ascii"), dtype=np.uint8).astype(np.int64) - 63
    expect(b.size > 0 and bool(((b >= 0) & (b <= 63)).all()), "graph6 byte out of range")
    if b[0] == 63:
        expect(b.size >= 4 and b[1] != 63, "unsupported graph6 header")
        n = int((b[1] << 12) | (b[2] << 6) | b[3])
        body = b[4:]
    else:
        n = int(b[0])
        body = b[1:]
    nbits = n * (n - 1) // 2
    expect(body.size == (nbits + 5) // 6, f"graph6 body length {body.size} for order {n}")
    bitvec = np.unpackbits(body.astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    expect(not bitvec[nbits:].any(), "nonzero graph6 padding")
    return n, int(bitvec[:nbits].sum())


Y_N, TURAN_R, TURAN_N = 3200, 4, 1200
Y_EDGES = turan_edges(3, Y_N) - Y_N // 3 + 1


def _check_graph6(n: int, edges: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = [ln for ln in out.splitlines() if ln.strip()]
        expect(len(lines) == 1, f"expected 1 graph6 line, got {len(lines)}")
        got = graph6_order_edges(lines[0])
        expect(got == (n, edges), f"order/edges {got}, want {(n, edges)}")

    return check


def _check_spectrum(out: str) -> None:
    y, t = _json_lines(out, 2)
    expect((y["order"], y["size"]) == (Y_N, Y_EDGES), f"y_graph order/size {y['order']}, {y['size']}")
    expect(2132.75 < y["rho"] <= Y_N * 2 / 3, f"y_graph rho {y['rho']}")
    expect(len(y["vector"]) == Y_N, "y_graph vector length")
    expect((t["order"], t["size"]) == (TURAN_N, turan_edges(TURAN_R, TURAN_N)),
           f"turan order/size {t['order']}, {t['size']}")
    expect(abs(t["rho"] - 900.0) <= 1e-6, f"turan rho {t['rho']}")


def _check_pass(extra: Optional[dict] = None) -> Callable[[str], None]:
    def check(out: str) -> None:
        (rep,) = _json_lines(out, 1)
        expect(rep.get("pass") is True, "pipeline did not pass")
        for k, v in (extra or {}).items():
            expect(rep.get(k) == v, f"{k} = {rep.get(k)!r}, want {v!r}")

    return check


def family_large(seed: int) -> list[Command]:
    return [
        Command("ygraph", "cmd.construct_s",
                ["construct", "--family", "ygraph", "--r", "3", "--n", str(Y_N)],
                _check_graph6(Y_N, Y_EDGES)),
        Command("turan", "cmd.construct_s",
                ["construct", "--family", "turan", "--r", str(TURAN_R), "--n", str(TURAN_N)],
                _check_graph6(TURAN_N, turan_edges(TURAN_R, TURAN_N))),
        Command("spectrum", "cmd.spectrum_s", ["spectrum", "--in", "-"], _check_spectrum,
                stdin=lambda outs: outs["ygraph"] + outs["turan"]),
        Command("lemma32", "cmd.verify_lemma32_s", ["verify", "lemma32", "--n", "1500"],
                _check_pass({"n": 1500})),
        Command("lemma27", "cmd.verify_lemma27_s", ["verify", "lemma27", "--r", "4", "--n", "30"],
                _check_pass({"configs_scanned": 910})),
    ]


# ---------------------------------------------------------------------
# random-suites
# ---------------------------------------------------------------------

CHECK_GRAPHS = 120
CHECK_ARGS = ["check", "--in", "-", "--book", "3,2", "--rpartite", "3", "--chromatic",
              "--color-critical"]


def random_graph_rows(seed: int) -> list[list[int]]:
    """Seeded G(n, p) graphs as bitmask rows; only the edges depend on the seed.

    The (n, p) pairs are fixed: n climbs from 24 to 40 while p falls from 0.5
    to 0.1 (slowly at first), so the graphs sweep from small and dense to
    large and sparse.
    Exact colouring cost grows steeply with n and p together; with n and p
    drawn independently per seed, the few large dense graphs a seed happened
    to get decided most of the workload's time.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(CHECK_GRAPHS):
        n = 24 + (17 * i) // CHECK_GRAPHS
        p = 0.5 - 0.4 * ((i + 0.5) / CHECK_GRAPHS) ** 1.5
        upper = np.triu(rng.random((n, n)) < p, 1)
        rows = [0] * n
        for a, b in zip(*np.nonzero(upper)):
            rows[a] |= 1 << int(b)
            rows[b] |= 1 << int(a)
        graphs.append(rows)
    return graphs


def to_graph6(rows: list[int]) -> str:
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((i, j) for i, r in enumerate(rows) for j in _bits(r) if i < j)
    return nx.to_graph6_bytes(g, header=False).decode("ascii")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def colouring(rows: list[int], k: int) -> Optional[list[int]]:
    """An exact proper k-colouring of the bitmask graph, or None if none exists.

    DSATUR order with backtracking; a vertex may open at most one new colour.
    """
    n = len(rows)
    colour = [-1] * n
    seen = [0] * n  # colours already on each vertex's neighbours
    degree = [r.bit_count() for r in rows]

    def rec(used: int, left: int) -> bool:
        if not left:
            return True
        v, key = -1, (-1, -1)
        for u in range(n):
            if colour[u] < 0 and (seen[u].bit_count(), degree[u]) > key:
                v, key = u, (seen[u].bit_count(), degree[u])
        for c in range(min(used + 1, k)):
            if (seen[v] >> c) & 1:
                continue
            colour[v] = c
            touched = [w for w in _bits(rows[v]) if colour[w] < 0 and not (seen[w] >> c) & 1]
            for w in touched:
                seen[w] |= 1 << c
            if rec(max(used, c + 1), left - 1):
                return True
            for w in touched:
                seen[w] &= ~(1 << c)
            colour[v] = -1
        return False

    return colour if rec(0, n) else None


def _without_edge(rows: list[int], i: int, j: int) -> list[int]:
    out = list(rows)
    out[i] &= ~(1 << j)
    out[j] &= ~(1 << i)
    return out


def contains_triangle_book(rows: list[int], k: int) -> bool:
    """Is there a triangle whose vertices have >= k common neighbours?"""
    n = len(rows)
    for a in range(n):
        for b in _bits(rows[a] >> (a + 1) << (a + 1)):
            common = rows[a] & rows[b]
            for c in _bits(common >> (b + 1) << (b + 1)):
                if (common & rows[c]).bit_count() >= k:
                    return True
    return False


def _proper(rows: list[int], colours, k: int) -> bool:
    if colours is None or len(colours) != len(rows):
        return False
    if any(not (isinstance(c, int) and 0 <= c < k) for c in colours):
        return False
    return all(colours[i] != colours[j] for i, r in enumerate(rows) for j in _bits(r))


def check_graph_line(rows: list[int], rep: dict) -> None:
    """Validate one ``check`` output line against independent computation."""
    n = len(rows)
    m = sum(r.bit_count() for r in rows) // 2
    expect((rep["order"], rep["size"]) == (n, m), f"order/size {rep['order']}, {rep['size']}")
    # book (3, 2): witness is a triangle plus 2 common neighbours
    expect(rep["book"] == [3, 2], "book parameters")
    has = contains_triangle_book(rows, 2)
    expect(rep["contains_book"] is has, f"contains_book {rep['contains_book']}, want {has}")
    w = rep["book_witness"]
    if has:
        expect(w is not None and len(w) == 5 and len(set(w)) == 5, f"book witness {w}")
        tri, pages = w[:3], w[3:]
        expect(all((rows[a] >> b) & 1 for a in tri for b in tri if a != b), "witness spine not a triangle")
        expect(all((rows[p] >> a) & 1 for p in pages for a in tri), "witness page misses the spine")
    else:
        expect(w is None, "witness without a book")
    # chromatic number k: k-colourable and not (k-1)-colourable
    k = rep["chromatic"]
    expect(isinstance(k, int) and 1 <= k <= n, f"chromatic {k}")
    expect(colouring(rows, k) is not None, f"not {k}-colourable")
    expect(k == 1 or colouring(rows, k - 1) is None, f"chromatic < {k}")
    # 3-partiteness agrees with k and carries a proper colouring
    expect(rep["rpartite"] == 3, "rpartite parameter")
    expect(rep["is_r_partite"] is (k <= 3), f"is_r_partite {rep['is_r_partite']} with chromatic {k}")
    if k <= 3:
        expect(_proper(rows, rep["coloring"], 3), "3-colouring is not proper")
    else:
        expect(rep["coloring"] is None, "colouring without 3-partiteness")
    # colour-criticality: some edge whose removal lowers the chromatic number
    edge = rep["critical_edge"]
    if rep["color_critical"] is True:
        expect(edge is not None and len(edge) == 2 and (rows[edge[0]] >> edge[1]) & 1,
               f"critical edge {edge} is not an edge")
        expect(colouring(_without_edge(rows, *edge), k - 1) is not None,
               f"removing {edge} keeps chromatic {k}")
    else:
        expect(rep["color_critical"] is False and edge is None, "color_critical field")
        for i, r in enumerate(rows):
            for j in _bits(r >> (i + 1) << (i + 1)):
                expect(colouring(_without_edge(rows, i, j), k - 1) is None,
                       f"removing ({i}, {j}) lowers chromatic {k}")


def _check_graphs(graphs: list[list[int]]) -> Callable[[str], None]:
    def check(out: str) -> None:
        reps = _json_lines(out, len(graphs))
        for idx, (rows, rep) in enumerate(zip(graphs, reps)):
            try:
                check_graph_line(rows, rep)
            except (CheckFailed, KeyError, TypeError, IndexError) as exc:
                raise CheckFailed(f"graph {idx}: {exc!r}") from exc

    return check


def random_suites(seed: int) -> list[Command]:
    graphs = random_graph_rows(seed)
    g6 = "".join(to_graph6(rows) for rows in graphs)
    s = str(seed)
    return [
        Command("wilf", "cmd.verify_wilf_s",
                ["verify", "wilf", "--r", "3", "--n-max", "200", "--trials", "200", "--seed", s],
                _check_pass({"failures": [], "trials": 200, "seed": seed})),
        Command("rotation", "cmd.verify_rotation_s",
                ["verify", "rotation", "--trials", "500", "--seed", s],
                _check_pass({"failures": [], "trials": 500, "seed": seed})),
        Command("check", "cmd.check_s", CHECK_ARGS, _check_graphs(graphs),
                stdin=lambda outs: g6),
    ]


WORKLOADS = {
    "census-n8": census_n8,
    "family-large": family_large,
    "random-suites": random_suites,
}
