"""Command-line front end.

Subcommands: construct, spectrum, check, search, verify, scan. Graphs travel
between commands as graph6 lines, so invocations compose through pipes, e.g.

    spexlab construct --family ygraph --r 3 --n 9 | spexlab spectrum --in -

Exit codes: 0 success, 1 a verification subcommand found a failure, 2 usage
or input error (bad flags, missing file, malformed graph6 line), 3 internal
failure (power iteration on a component above 64 vertices did not converge, a
recursion ran too deep, an arithmetic fault or any other unexpected exception),
reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .graphs import (
    FamilySpec,
    Graph6ParseError,
    graph6_decode,
    graph6_encode,
    turan,
    y_graph,
)
from .quotient import verify_lemma32
from .random_graphs import random_connected_graph, random_multipartite
from .search import PredicateSpec, conjecture_scan, ex_search, lemma27_scan, spex_search
from .spectral import check_wilf, rotate_edges, spectral_radius
from .structure import chromatic_number, contains_generalized_book, is_color_critical, is_r_colorable


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected R,K")
    return int(parts[0]), int(parts[1])


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spexlab", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"spexlab {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("--family", required=True,
                   choices=["turan", "book", "ygraph", "ugraph", "multipartite", "complete"])
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--parts", type=_int_list)
    p.add_argument("--format", default="g6", choices=["g6", "json"])

    p = sub.add_parser("spectrum", help="spectral radius of each input graph")
    p.add_argument("--in", dest="infile", required=True, help="graph6 file or - for stdin")
    # components of at most 64 vertices are solved by eigh; these three flags
    # drive the power iteration on larger ones
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--maxiter", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check", help="structural predicates for each input graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--book", type=_int_pair, metavar="R,K")
    p.add_argument("--rpartite", type=int, metavar="R")
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("--color-critical", action="store_true")

    p = sub.add_parser("search", help="exhaustive extremal search over small orders")
    p.add_argument("mode", choices=["spex", "ex"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid-book", type=_int_pair, metavar="R,K")
    p.add_argument("--forbid-clique", type=int, metavar="Q")
    p.add_argument("--non-r-partite", type=int, metavar="R")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    p = sub.add_parser("verify", help="run one verification pipeline; exit 1 on failure")
    vsub = p.add_subparsers(dest="pipeline", required=True)
    v = vsub.add_parser("lemma32", help="six-cell quotient polynomial identity")
    v.add_argument("--n", type=int, required=True)
    v = vsub.add_parser("lemma27", help="construction-family spectral maximum")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--n", type=int, required=True)
    v = vsub.add_parser("lemma28", help="edge-count identity and lower bound")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--n-max", type=int, required=True)
    v = vsub.add_parser("wilf", help="clique-free spectral bound on random r-partite graphs")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--n-max", type=int, required=True)
    v.add_argument("--trials", type=_positive_int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v = vsub.add_parser("rotation", help="strict spectral increase of valid rotations")
    v.add_argument("--trials", type=_positive_int, required=True)
    v.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="conjecture sweep over the small-order census")
    p.add_argument("--kind", required=True,
                   choices=["nosal_book", "liu_miao_U", "sqrt_2m_bound"])
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-9)
    return ap


def _read_graph_lines(infile: str):
    """Yield (line_number, Graph); malformed lines abort with their number."""
    if infile == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(infile, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise _InputError(f"cannot read {infile}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield lineno, graph6_decode(line)
        except Graph6ParseError as exc:
            raise _InputError(f"line {lineno}: {exc}") from exc


class _InputError(Exception):
    pass


def _emit(doc: dict) -> None:
    """One strict JSON line on stdout (no NaN or Infinity)."""
    print(json.dumps(doc, allow_nan=False))


def _cmd_construct(args) -> int:
    family = args.family
    spec = FamilySpec(
        family=family,
        r=args.r,
        k=args.k,
        n=args.n,
        m=args.m,
        parts=args.parts,
    )
    g = spec.build()
    if args.format == "json":
        _emit({"family": family, "order": g.n, "size": g.edge_count,
               "graph6": graph6_encode(g)})
    else:
        print(graph6_encode(g))
    return 0


def _cmd_spectrum(args) -> int:
    for _, g in _read_graph_lines(args.infile):
        res = spectral_radius(g, tol=args.tol, max_iter=args.maxiter, seed=args.seed)
        _emit({
            "order": g.n,
            "size": g.edge_count,
            "rho": res.rho,
            "vector": list(res.vector),
            "residual": res.residual,
            "iterations": res.iterations,
            "disconnected": res.disconnected,
        })
    return 0


def _cmd_check(args) -> int:
    for _, g in _read_graph_lines(args.infile):
        out = {"order": g.n, "size": g.edge_count}
        if args.book is not None:
            r, k = args.book
            has, witness = contains_generalized_book(g, r, k)
            out["book"] = [r, k]
            out["contains_book"] = has
            out["book_witness"] = list(witness) if witness else None
        if args.rpartite is not None:
            ok, coloring = is_r_colorable(g, args.rpartite)
            out["rpartite"] = args.rpartite
            out["is_r_partite"] = ok
            out["coloring"] = list(coloring) if coloring else None
        if args.chromatic:
            out["chromatic"] = chromatic_number(g)
        if args.color_critical:
            has, edge = is_color_critical(g)
            out["color_critical"] = has
            out["critical_edge"] = list(edge) if edge else None
        _emit(out)
    return 0


def _cmd_search(args) -> int:
    pred = PredicateSpec(
        forbid_book=args.forbid_book,
        require_non_r_partite=args.non_r_partite,
        require_connected=args.connected,
        forbid_clique=args.forbid_clique,
    )
    search = spex_search if args.mode == "spex" else ex_search
    report = search(args.n, pred)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "objective", "graph6", "value", "gap_to_runner_up", "exhaustive"])
        writer.writerows(report.to_csv_rows())
        sys.stdout.write(buf.getvalue())
    else:
        _emit(report.to_json_dict())
    return 0


def _cmd_verify(args) -> int:
    if args.pipeline == "lemma32":
        rep = verify_lemma32(args.n)
        _emit(rep.to_json_dict())
        return 0 if rep.ok else 1
    if args.pipeline == "lemma27":
        rep = lemma27_scan(args.r, args.n)
        out = rep.to_json_dict()
        out["pass"] = rep.argmax_is_y and rep.unique
        _emit(out)
        return 0 if out["pass"] else 1
    if args.pipeline == "lemma28":
        return _verify_lemma28(args.r, args.n_max)
    if args.pipeline == "wilf":
        return _verify_wilf(args.r, args.n_max, args.trials, args.seed)
    return _verify_rotation(args.trials, args.seed)


def _verify_lemma28(r: int, n_max: int) -> int:
    if r < 2 or n_max < 2 * r:
        raise _InputError("need r >= 2 and n-max >= 2r")
    bad = []
    for n in range(2 * r, n_max + 1):
        e_y = y_graph(r, n).edge_count
        e_t = turan(r, n).edge_count
        identity = e_y == e_t - n // r + 1
        lower = Fraction(e_y) >= (
            (1 - Fraction(1, r)) * Fraction(n * n, 2) - Fraction(n, r) - Fraction(r, 8) + 1
        )
        if not (identity and lower):
            bad.append({"n": n, "identity": identity, "lower_bound": lower})
    ok = not bad
    _emit({"pipeline": "lemma28", "r": r, "n_max": n_max,
           "checked": n_max - 2 * r + 1, "failures": bad, "pass": ok})
    return 0 if ok else 1


def _verify_wilf(r: int, n_max: int, trials: int, seed: int) -> int:
    if r < 1 or n_max < r + 1:
        raise _InputError("need r >= 1 and n-max > r")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    failures = []
    for t in range(trials):
        n = int(rng.integers(r + 1, n_max + 1))
        if t % 10 == 0:
            g = turan(r, n)  # tight member of the family
        else:
            g = random_multipartite(n, r, float(rng.uniform(0.2, 1.0)), rng)
        rep = check_wilf(g, r)
        worst = max(worst, rep.rho - rep.bound)
        if not rep.holds:
            failures.append({"n": n, "rho": rep.rho, "bound": rep.bound})
    ok = not failures
    _emit({"pipeline": "wilf", "r": r, "n_max": n_max, "trials": trials,
           "seed": seed, "worst_margin": worst, "failures": failures,
           "pass": ok})
    return 0 if ok else 1


def _verify_rotation(trials: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    done = 0
    min_gain = math.inf
    failures = []
    while done < trials:
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, float(rng.uniform(0.15, 0.6)), rng)
        res = spectral_radius(g)
        x = res.vector
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or x[u] < x[v]:
            continue
        s_mask = g.rows[v] & ~(g.rows[u] | (1 << u))
        if not s_mask:
            continue
        s = [w for w in range(n) if (s_mask >> w) & 1 and rng.random() < 0.7]
        if not s:
            continue
        g2 = rotate_edges(g, u, v, s)
        gain = spectral_radius(g2).rho - res.rho
        min_gain = min(min_gain, gain)
        if gain <= 1e-9:
            failures.append({"gain": gain, "graph6": graph6_encode(g)})
        done += 1
    ok = not failures
    _emit({"pipeline": "rotation", "trials": trials, "seed": seed,
           "min_gain": min_gain, "failures": failures, "pass": ok})
    return 0 if ok else 1


def _cmd_scan(args) -> int:
    rep = conjecture_scan(args.kind, args.max_n, r=args.r, k=args.k, tol=args.tol)
    _emit(rep.to_json_dict())
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "construct": _cmd_construct,
        "spectrum": _cmd_spectrum,
        "check": _cmd_check,
        "search": _cmd_search,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
    }[args.subcommand]
    try:
        return handler(args)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # ConvergenceError, RecursionError, ArithmeticError, bugs
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
