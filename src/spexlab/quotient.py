"""Equitable partitions, exact integer quotient matrices and characteristic
polynomials, the certified largest real root, and the six-cell verification
pipeline for the folded-Turán family.

All polynomial work is exact (big integers / rationals): the largest root is
isolated by a Sturm chain and bisection, and floats appear only as its
correctly rounded value and in cross-checks against the dense eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence, Union

from .graphs import Graph, _y_graph_cells, bits, y_graph
from .spectral import _solve_dense, adjacency_matrix
from .structure import Partition, color_refine


class EquitabilityError(ValueError):
    """A quotient was requested for a non-equitable partition."""

    def __init__(self, cell_i: int, cell_j: int, u: int, v: int, du: int, dv: int):
        super().__init__(
            f"partition not equitable: vertices {u} and {v} of cell {cell_i} "
            f"have {du} vs {dv} neighbours in cell {cell_j}"
        )
        self.cells = (cell_i, cell_j)
        self.vertices = (u, v)


class NoRealRootError(ArithmeticError):
    """largest_root found no real root inside the Cauchy bound."""


# ---------------------------------------------------------------------
# exact integer matrices and polynomials
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ell = len(self.entries)
        for row in self.entries:
            if len(row) != ell:
                raise ValueError("matrix must be square")

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    @staticmethod
    def of(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial, big-integer coefficients ascending (c0..cd)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("coefficient list must be non-empty")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @staticmethod
    def of(coeffs: Sequence[int]) -> "IntPoly":
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Union[int, Fraction]) -> Union[int, Fraction]:
        acc: Union[int, Fraction] = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Sign of p(x) at a rational point, by pure integer arithmetic."""
        acc, scale = 0, 1  # Horner on den**degree * p(num / den)
        for c in reversed(self.coeffs):
            acc, scale = acc * x.numerator + c * scale, scale * x.denominator
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly((0,))
        return IntPoly.of([k * c for k, c in enumerate(self.coeffs)][1:])

    def scale(self, factor: int) -> "IntPoly":
        return IntPoly.of([factor * c for c in self.coeffs])

    def to_json_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}


def char_poly(m: IntMatrix) -> IntPoly:
    """Exact characteristic polynomial det(xI - M), monic, via the
    Faddeev-LeVerrier recurrence (every division is exact over the integers)."""
    ell = m.order
    if ell == 0:
        return IntPoly((1,))
    a = [list(row) for row in m.entries]
    coeffs = [0] * (ell + 1)
    coeffs[ell] = 1
    mk = [row[:] for row in a]
    for k in range(1, ell + 1):
        if k > 1:
            t = [row[:] for row in mk]
            c = coeffs[ell - k + 1]
            for i in range(ell):
                t[i][i] += c
            mk = [
                [sum(a[i][s] * t[s][j] for s in range(ell)) for j in range(ell)]
                for i in range(ell)
            ]
        tr = sum(mk[i][i] for i in range(ell))
        assert tr % k == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[ell - k] = -tr // k
    return IntPoly(tuple(coeffs))


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    ell = m.order
    if ell == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(ell - 1):
        if a[k][k] == 0:
            for s in range(k + 1, ell):
                if a[s][k] != 0:
                    a[k], a[s] = a[s], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, ell):
            for j in range(k + 1, ell):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[ell - 1][ell - 1]


# ---------------------------------------------------------------------
# the largest real root
# ---------------------------------------------------------------------


def _divmod(a: IntPoly, b: IntPoly) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b over the rationals, coefficients ascending."""
    r = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * (a.degree - b.degree + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + b.degree] / b.coeffs[-1]
        for i, c in enumerate(b.coeffs):
            r[k + i] -= q[k] * c
    return q, r[: b.degree]


def _primitive(cs: Sequence[Fraction]) -> Optional[IntPoly]:
    """``cs`` times the positive rational making it primitive integral; None if all zero."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    content = math.gcd(*ints)
    return IntPoly.of([c // content for c in ints]) if content else None


def _sturm_chain(p: IntPoly) -> list[IntPoly]:
    """p, p', then each negated remainder of the two before it, until the
    remainder vanishes; the last member is gcd(p, p') up to a constant."""
    chain = [p, p.derivative()]
    while (rem := _primitive([-c for c in _divmod(chain[-2], chain[-1])[1]])) is not None:
        chain.append(rem)
    return chain


def _variations(chain: Sequence[IntPoly], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def largest_root(p: IntPoly) -> float:
    """Largest real root of p, correctly rounded to a float. Sturm's theorem
    on the square-free part (Knuth, TAOCP vol. 2, 4.6.1) counts the roots in
    (x, B], B the Cauchy bound; bisection keeps lo < root <= hi until both
    ends round to one float, or to adjacent ones, split by their rounding tie.
    Raises OverflowError if the root rounds past the float range."""
    if p.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    chain = _sturm_chain(p)
    if chain[-1].degree > 0:  # repeated roots: divide out gcd(p, p')
        chain = _sturm_chain(_primitive(_divmod(p, chain[-1])[0]))
    hi = 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.coeffs[-1]))
    lo, top = -hi, _variations(chain, hi)
    if _variations(chain, lo) == top:
        raise NoRealRootError("no real root inside the Cauchy bound")
    big = Fraction(2**1024 - 2**971)  # the largest float; its tie with inf is big + 2**970
    if hi > big:  # a root past big short of that tie rounds to big: stop the ends there
        edge = big + 2**970
        if _variations(chain, -edge) == top or _variations(chain, edge) > top or p(edge) == 0:
            raise OverflowError("the largest root rounds past the float range")
        lo, hi = -big, big
    while (f := float(lo)) != (g := float(hi)):
        if math.nextafter(f, math.inf) == g:
            tie = (Fraction(f) + Fraction(g)) / 2
            if _variations(chain, tie) > top:
                return g
            return f if chain[0].sign_at(tie) else float(tie)
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _variations(chain, mid) > top else (lo, mid)
    return g


# ---------------------------------------------------------------------
# equitable refinement and quotient matrices
# ---------------------------------------------------------------------


def equitable_refine(g: Graph, initial: Partition) -> Partition:
    """Coarsest equitable partition refining ``initial`` (colour refinement).

    Cells split by their vector of neighbour counts into the current cells;
    sub-cells are ordered by signature, so the result is deterministic (see
    ``structure.color_refine``, shared with canonical labelling). The output
    is re-verified equitable by a direct row-sum check.
    """
    initial.validate(g.n, allow_empty=False)
    cells = color_refine(g.rows, initial.masks())
    out = Partition(tuple(tuple(bits(c)) for c in cells))
    quotient_matrix(g, out)  # direct verification; raises if refinement failed
    return out


def quotient_matrix(g: Graph, partition: Partition) -> IntMatrix:
    """Cell-by-cell neighbour counts; raises EquitabilityError if any count
    varies inside a cell, naming the offending cells and vertices."""
    partition.validate(g.n, allow_empty=False)
    masks = partition.masks()
    ell = partition.r
    rows = []
    for i, cell in enumerate(partition.cells):
        row = []
        for j in range(ell):
            first = cell[0]
            d0 = (g.rows[first] & masks[j]).bit_count()
            for v in cell[1:]:
                dv = (g.rows[v] & masks[j]).bit_count()
                if dv != d0:
                    raise EquitabilityError(i, j, first, v, d0, dv)
            row.append(d0)
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


# ---------------------------------------------------------------------
# the six-cell pipeline for the folded-Turán family
# ---------------------------------------------------------------------


def y_graph_quotient_partition(r: int, n: int) -> Partition:
    """The (r+3)-cell partition of y_graph(r, n):
    {v}, {u}, {w}, T1-{v}, T2-{u,w}, then each remaining part.

    These are ``graphs._y_graph_cells`` with u and v swapped. For r = 3 this
    needs n >= 9 so that every cell is non-empty; for r >= 4 the large part
    must have at least three vertices.
    """
    u, v, w, t1_rest, t2_rest, *others = _y_graph_cells(r, n)
    if r == 3 and n < 9:
        raise ValueError("six-cell partition needs n >= 9 for r = 3")
    if not t2_rest or not t1_rest:
        raise ValueError("quotient partition needs a large part of size >= 3")
    return Partition((v, u, w, t1_rest, t2_rest, *others))


def _scaled_coeffs_mod0(n: int) -> list[int]:
    return [
        -135 * n**3 + 1215 * n**2 - 2430 * n,
        162 * n**3 - 1296 * n**2 + 2916 * n - 2916,
        27 * n**3 + 324 * n**2 - 2673 * n + 2187,
        -54 * n**3 + 162 * n**2 - 486 * n,
        -243 * n**2 + 243 * n - 729,
        0,
        729,
    ]


def _scaled_coeffs_mod1(n: int) -> list[int]:
    return [
        -135 * n**3 + 1215 * n**2 - 3240 * n + 2160,
        162 * n**3 - 1296 * n**2 + 3564 * n - 3888,
        27 * n**3 + 324 * n**2 - 2430 * n + 2808,
        -54 * n**3 + 162 * n**2 - 648 * n + 540,
        -243 * n**2 + 243 * n - 729,
        0,
        729,
    ]


def _scaled_coeffs_mod2(n: int) -> list[int]:
    return [
        -135 * n**3 + 1215 * n**2 - 2025 * n - 3375,
        162 * n**3 - 1296 * n**2 + 2754 * n - 1620,
        27 * n**3 + 324 * n**2 - 2835 * n + 2700,
        -54 * n**3 + 162 * n**2 - 486 * n - 702,
        -243 * n**2 + 243 * n - 972,
        0,
        729,
    ]


def lemma32_polynomial(n: int) -> IntPoly:
    """729-scaled closed-form characteristic polynomial of the six-cell
    quotient of y_graph(3, n); the branch is selected by n mod 3."""
    if n < 6:
        raise ValueError("need n >= 6")
    branch = {0: _scaled_coeffs_mod0, 1: _scaled_coeffs_mod1, 2: _scaled_coeffs_mod2}
    return IntPoly(tuple(branch[n % 3](n)))


def y_spectral_lower_bound(r: int, n: int) -> float:
    """The closed-form strict lower bound claimed for rho(y_graph(r, n))."""
    if r == 3:
        return 2.0 * n / 3.0 - 7.0 / 12.0
    return (1.0 - 1.0 / r) * n - 2.0 / r - r / (4.0 * n)


@dataclass(frozen=True)
class Lemma32Report:
    n: int
    poly_match: bool
    mismatch_index: Optional[int]
    sign_ok: bool
    rho_quotient: float
    rho_dense: float
    rho_agree: bool
    above_lower_bound: bool
    scaled_polynomial: IntPoly

    @property
    def ok(self) -> bool:
        return self.poly_match and self.sign_ok and self.rho_agree and self.above_lower_bound

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["scaled_polynomial"] = self.scaled_polynomial.to_json_dict()
        out["pass"] = self.ok
        return out


def _y_pipeline(r: int, n: int, tol: float):
    """The quotient characteristic polynomial of y_graph(r, n), and the report
    fields both pipelines share. The dense radius is taken on the full
    matrix: spectral_radius would solve y_graph on its twin classes, which are
    these cells, and so not check them independently."""
    g = y_graph(r, n)
    p = char_poly(quotient_matrix(g, y_graph_quotient_partition(r, n)))
    rho_q = largest_root(p)
    rho_d = _solve_dense(adjacency_matrix(g))[0]
    return p, dict(
        rho_quotient=rho_q,
        rho_dense=rho_d,
        rho_agree=abs(rho_q - rho_d) <= tol,
        above_lower_bound=rho_d > y_spectral_lower_bound(r, n),
    )


def verify_lemma32(n: int, tol: float = 1e-8) -> Lemma32Report:
    """Full cross-check at one n: exact coefficient match of the six-cell
    quotient characteristic polynomial against the closed form, integer-exact
    negativity at x = 2n/3 - 7/12, and agreement of the largest quotient root
    with the dense spectral radius of y_graph(3, n)."""
    if n < 9:
        raise ValueError("need n >= 9")
    closed = lemma32_polynomial(n)
    computed, shared = _y_pipeline(3, n, tol)
    pairs = enumerate(zip_longest(computed.scale(729).coeffs, closed.coeffs))
    mismatch = next((idx for idx, (a, b) in pairs if a != b), None)  # None pads the shorter
    return Lemma32Report(
        n=n,
        poly_match=mismatch is None,
        mismatch_index=mismatch,
        sign_ok=closed.sign_at(Fraction(2 * n, 3) - Fraction(7, 12)) < 0,
        scaled_polynomial=closed,
        **shared,
    )


@dataclass(frozen=True)
class QuotientCrossCheck:
    r: int
    n: int
    rho_quotient: float
    rho_dense: float
    rho_agree: bool
    above_lower_bound: bool


def y_quotient_cross_check(r: int, n: int, tol: float = 1e-8) -> QuotientCrossCheck:
    """Generic pipeline for any r: quotient largest root vs dense radius of
    y_graph(r, n), plus the closed-form lower bound (no coefficient oracle)."""
    return QuotientCrossCheck(r=r, n=n, **_y_pipeline(r, n, tol)[1])
