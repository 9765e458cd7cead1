"""Exact algebra: refinement, quotient matrices, characteristic polynomials
(cross-checked against Bareiss determinants), root isolation, and the
six-cell verification pipeline with its closed-form coefficients."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spexlab.graphs import cycle_graph, graph6_encode, make_multipartite, turan, y_graph
from spexlab.quotient import (
    EquitabilityError,
    IntMatrix,
    IntPoly,
    NoRealRootError,
    char_poly,
    det_exact,
    equitable_refine,
    largest_root,
    lemma32_polynomial,
    quotient_matrix,
    verify_lemma32,
    y_graph_quotient_partition,
    y_quotient_cross_check,
    y_spectral_lower_bound,
)
from spexlab.random_graphs import random_graph
from spexlab.spectral import spectral_radius
from spexlab.structure import Partition


def test_equitable_refine_regular_graph_stays_single_cell():
    g = turan(3, 9)
    out = equitable_refine(g, Partition.of([range(9)]))
    assert out.cells == (tuple(range(9)),)


def test_equitable_refine_splits_by_degree():
    g = make_multipartite([2, 3])
    out = equitable_refine(g, Partition.of([range(5)]))
    assert sorted(len(c) for c in out.cells) == [2, 3]


def test_equitable_refine_idempotent_on_six_cell_partition():
    for n in (9, 10, 11):
        part = y_graph_quotient_partition(3, n)
        out = equitable_refine(y_graph(3, n), part)
        assert out.cells == part.cells


def test_quotient_matrix_small():
    g = make_multipartite([2, 3])
    m = quotient_matrix(g, Partition.of([range(0, 2), range(2, 5)]))
    assert m.entries == ((0, 3), (2, 0))
    m = quotient_matrix(turan(3, 9), Partition.of([range(0, 3), range(3, 6), range(6, 9)]))
    assert m.entries == ((0, 3, 3), (3, 0, 3), (3, 3, 0))


def test_quotient_matrix_y_graph_9():
    m = quotient_matrix(y_graph(3, 9), y_graph_quotient_partition(3, 9))
    assert m.entries == (
        (0, 1, 0, 0, 1, 3),
        (1, 0, 1, 0, 0, 3),
        (0, 1, 0, 2, 0, 3),
        (0, 0, 1, 0, 1, 3),
        (1, 0, 0, 2, 0, 3),
        (1, 1, 1, 2, 1, 0),
    )


def test_quotient_matrix_rejects_non_equitable():
    g = cycle_graph(5)
    with pytest.raises(EquitabilityError) as ei:
        quotient_matrix(g, Partition.of([[0, 1], [2, 3, 4]]))
    assert ei.value.cells[0] in (0, 1)


def test_char_poly_small():
    assert char_poly(IntMatrix.of([[0, 1], [1, 0]])).coeffs == (-1, 0, 1)
    assert char_poly(IntMatrix.of([[0, 3], [2, 0]])).coeffs == (-6, 0, 1)
    assert char_poly(IntMatrix.of([[0, 1, 1], [1, 0, 1], [1, 1, 0]])).coeffs == (-2, -3, 0, 1)
    with pytest.raises(ValueError, match="matrix must be square"):
        IntMatrix.of([[0, 1], [1]])


def test_char_poly_matches_determinant_evaluations():
    rng = np.random.default_rng(6)
    for _ in range(25):
        ell = int(rng.integers(1, 7))
        m = IntMatrix.of([[int(rng.integers(-5, 6)) for _ in range(ell)] for _ in range(ell)])
        p = char_poly(m)
        for t in range(ell + 2):
            shifted = IntMatrix.of(
                [
                    [(t if i == j else 0) - m[i, j] for j in range(ell)]
                    for i in range(ell)
                ]
            )
            assert p(t) == det_exact(shifted), (m.entries, t)


def test_char_poly_constant_term_is_determinant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ell = int(rng.integers(1, 7))
        m = IntMatrix.of([[int(rng.integers(-4, 5)) for _ in range(ell)] for _ in range(ell)])
        assert char_poly(m)(0) == (-1) ** ell * det_exact(m)


def test_int_poly_arithmetic():
    p = IntPoly.of([-6, 0, 1])
    assert p.degree == 2
    assert p(3) == 3
    assert p(Fraction(1, 2)) == Fraction(-23, 4)
    assert p.sign_at(Fraction(5, 2)) == 1
    assert p.sign_at(Fraction(2)) == -1
    assert p.derivative().coeffs == (0, 2)
    assert p.to_json_dict() == {"coeffs": ["-6", "0", "1"]}
    with pytest.raises(ValueError, match="coefficient list must be non-empty"):
        IntPoly(())
    assert IntPoly.of([1, 2, 0, 0]).coeffs == (1, 2)


def test_largest_root_knowns():
    assert largest_root(IntPoly.of([-6, 0, 1])) == pytest.approx(6 ** 0.5, abs=1e-10)
    assert largest_root(IntPoly.of([-1, 0, 1])) == pytest.approx(1.0, abs=1e-12)
    assert largest_root(IntPoly.of([1, 1])) == pytest.approx(-1.0, abs=1e-12)
    # double root at the maximum: (x-2)^2 (x+1)
    assert largest_root(IntPoly.of([4, 0, -3, 1])) == 2.0
    with pytest.raises(NoRealRootError):
        largest_root(IntPoly.of([1, 0, 1]))
    with pytest.raises(ValueError):
        largest_root(IntPoly.of([3]))


def test_largest_root_repeated_roots():
    # (3x-1)^2 (x+2): a root finder blind to multiplicity answers -2
    assert largest_root(IntPoly.of([2, -11, 12, 9])) == 1 / 3
    # x^2 (x-3): the double root 0 is the first midpoint of [-B, B]
    assert largest_root(IntPoly.of([0, 0, -3, 1])) == 3.0
    assert largest_root(IntPoly.of([0, 0, 0, 1])) == 0.0
    with pytest.raises(NoRealRootError):
        largest_root(IntPoly.of([1, 0, 2, 0, 1]))  # (x^2+1)^2


def test_largest_root_at_and_near_rounding_ties():
    # floats are 2 apart above 2**53; odd integers there are ties, rounded to even
    big = 2**53
    for root, expect in [(big + 1, big), (big + 3, big + 4),
                         (Fraction(4 * big + 11, 4), big + 2), (Fraction(4 * big + 13, 4), big + 4)]:
        root = Fraction(root)
        assert largest_root(IntPoly.of([-root.numerator, root.denominator])) == expect


def test_largest_root_beyond_the_float_range():
    # Cauchy bounds of about 1e400 used to overflow float() at a bisection end
    assert largest_root(IntPoly.of([-10**400, 0, 1])) == 1e200
    assert largest_root(IntPoly.of(poly_mul([-1, 1], [10**400, 1]))) == 1.0
    with pytest.raises(OverflowError, match="rounds past the float range"):
        largest_root(IntPoly.of([-10**400, 1]))
    # 2**1024 - 2**970 is the rounding tie between the largest float and inf
    tie = 2**1024 - 2**970
    assert largest_root(IntPoly.of([-(tie - 1), 1])) == 1.7976931348623157e308
    assert largest_root(IntPoly.of([tie - 1, 1])) == -1.7976931348623157e308
    for c in (-tie, tie):
        with pytest.raises(OverflowError, match="rounds past the float range"):
            largest_root(IntPoly.of([c, 1]))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-40, 40), st.integers(1, 12), st.integers(1, 3)),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
)
def test_largest_root_of_rational_factors(factors, times_x2_plus_1):
    # prod (den x - num)^mult, sometimes times x^2 + 1, which adds no real root
    coeffs = [1, 0, 1] if times_x2_plus_1 else [1]
    for num, den, mult in factors:
        for _ in range(mult):
            coeffs = poly_mul(coeffs, [-num, den])
    expect = float(max(Fraction(num, den) for num, den, _ in factors))
    assert largest_root(IntPoly.of(coeffs)) == expect


def y_quotient_poly(r, n):
    return char_poly(quotient_matrix(y_graph(r, n), y_graph_quotient_partition(r, n)))


ROUNDING_CASES = {f"lemma32-{n}": lemma32_polynomial(n) for n in (10, 1500, 6000)} | {
    f"y{r}-{n}": y_quotient_poly(r, n) for r, n in [(4, 12), (4, 21), (4, 200), (5, 18)]
}


@pytest.mark.parametrize("p", ROUNDING_CASES.values(), ids=ROUNDING_CASES.keys())
def test_largest_root_is_correctly_rounded(p):
    # the root lies within half an ulp of the returned float: p changes sign
    # between f - ulp/2 and f + ulp/2, or vanishes at one end
    f = largest_root(p)
    half = Fraction(math.ulp(f)) / 2
    below, above = p.sign_at(Fraction(f) - half), p.sign_at(Fraction(f) + half)
    assert below * above <= 0, (f, below, above)
    assert largest_root(p.scale(729)) == f


def test_lemma32_polynomial_branches():
    p9 = lemma32_polynomial(9)
    assert p9.degree == 6
    assert p9.coeffs[6] == 729
    assert p9.coeffs[5] == 0
    assert p9.coeffs[4] == -243 * 81 + 243 * 9 - 729
    # branch picks by residue
    assert lemma32_polynomial(10).coeffs != lemma32_polynomial(13).coeffs
    assert lemma32_polynomial(9).coeffs[0] == -135 * 729 + 1215 * 81 - 2430 * 9
    with pytest.raises(ValueError):
        lemma32_polynomial(5)


def test_lemma32_sign_values_match_closed_forms():
    # frozen closed forms of 4096 * p((8n-7)/12) per residue class
    def n1(n):
        return -73728 * n**5 + 519168 * n**4 - 8313728 * n**3 + 26451216 * n**2 - 34291872 * n + 9787393

    def n2(n):
        return -(96 * n**2 - 316 * n + 353) * (768 * n**3 - 832 * n**2 + 64228 * n - 60577)

    def n3(n):
        return -9 * (32 * n**2 - 116 * n + 143) * (256 * n**3 - 192 * n**2 + 28620 * n + 4633)

    forms = {0: n1, 1: n2, 2: n3}
    for n in range(9, 31):
        p = lemma32_polynomial(n)
        x = Fraction(2 * n, 3) - Fraction(7, 12)
        assert p(x) == Fraction(forms[n % 3](n), 4096)
        assert p.sign_at(x) == -1


def test_verify_lemma32_sample_points():
    for n in (9, 10, 11, 100):
        rep = verify_lemma32(n)
        assert rep.poly_match, n
        assert rep.sign_ok, n
        assert rep.rho_agree, n
        assert rep.above_lower_bound, n
        assert abs(rep.rho_quotient - rep.rho_dense) <= 1e-8
    with pytest.raises(ValueError):
        verify_lemma32(8)


def test_quotient_largest_root_equals_dense_radius():
    # top quotient eigenvalue equals the graph's spectral radius (connected case)
    cases = [
        (make_multipartite([2, 3]), Partition.of([range(0, 2), range(2, 5)])),
        (turan(3, 9), Partition.of([range(0, 3), range(3, 6), range(6, 9)])),
        (y_graph(3, 12), y_graph_quotient_partition(3, 12)),
    ]
    for g, part in cases:
        p = char_poly(quotient_matrix(g, part))
        assert largest_root(p) == pytest.approx(spectral_radius(g).rho, abs=1e-8)


def test_y_quotient_cross_check_higher_r():
    for r, n in [(4, 12), (4, 21), (5, 18)]:
        rep = y_quotient_cross_check(r, n)
        assert rep.rho_agree and rep.above_lower_bound


def test_dense_cross_checks_read_the_full_matrix():
    # values from power iteration on the n x n matrix; spectral_radius solves
    # y_graph on its twin classes, the cells being checked, and differs in the
    # last digits at these n, so the oracle must not go through it
    assert verify_lemma32(1500).rho_dense == 999.499864714346
    assert y_quotient_cross_check(4, 200).rho_dense == 149.58636491303753
    assert y_quotient_cross_check(5, 101).rho_dense == 80.45923364618069


def test_quotient_partition_guards():
    with pytest.raises(ValueError):
        y_graph_quotient_partition(3, 8)
    with pytest.raises(ValueError):
        y_graph_quotient_partition(4, 8)  # large part too small
    part = y_graph_quotient_partition(4, 12)
    assert len(part.cells) == 7


def test_y_graph_and_its_partition_are_pinned():
    # rows of y_graph and its quotient cells (or the guard's message) over a grid,
    # plus one large member; the digest was taken before y_graph was rebuilt as
    # the blow-up of the construction-family cell pattern
    h = hashlib.sha256()
    for r in range(2, 9):
        for n in range(2 * r, 90):
            h.update(repr(y_graph(r, n).rows).encode())
            try:
                h.update(repr(y_graph_quotient_partition(r, n).cells).encode())
            except ValueError as exc:
                h.update(str(exc).encode())
    h.update(graph6_encode(y_graph(3, 3200)).encode())
    assert h.hexdigest() == "abf60add356392729222047528303e3949f9a5b58cee777763d6eda4a3549bcf"


def test_equitable_refine_random_graphs_are_verified():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_graph(int(rng.integers(1, 12)), float(rng.uniform(0.1, 0.9)), rng)
        part = equitable_refine(g, Partition.of([range(g.n)]))
        # re-refining an equitable partition is the identity
        assert equitable_refine(g, part).cells == part.cells
        quotient_matrix(g, part)  # must not raise


def test_y_spectral_lower_bound_values():
    assert y_spectral_lower_bound(3, 9) == pytest.approx(2 * 9 / 3 - 7 / 12)
    assert y_spectral_lower_bound(4, 12) == pytest.approx(0.75 * 12 - 0.5 - 4 / 48)
