"""Dimension oracles, Riemann-Roch spaces, and the two residual identities."""

import itertools

import pytest

from adeles2d import cohomology
from adeles2d.cli import FIXTURES
from adeles2d.cohomology import (
    cech_h_vector,
    class_range,
    h_vector,
    rr_dimension,
    rr_space,
)
from adeles2d.linalg import mat_rref
from adeles2d.multipoly import MPoly
from adeles2d.surface import (
    Divisor,
    RationalFunction,
    class_monomials,
    curve_make,
    divisor_class,
    ord_on_curve,
    surface_make,
)
from reference_cohomology import walk_h_vector


def p2(q=3):
    return surface_make("P2", q)


def quadric(q=2):
    return surface_make("P1xP1", q)


def test_h_vector_golden_p2():
    S = p2()
    assert h_vector(S, (2,)).as_tuple() == (6, 0, 0)
    assert h_vector(S, (2,)).chi == 6
    assert h_vector(S, (-4,)).as_tuple() == (0, 0, 3)
    assert h_vector(S, (-4,)).chi == 3
    assert h_vector(S, (0,)).as_tuple() == (1, 0, 0)
    assert h_vector(S, (-3,)).as_tuple() == (0, 0, 1)
    assert h_vector(S, (-1,)).as_tuple() == (0, 0, 0)
    assert h_vector(S, (-2,)).as_tuple() == (0, 0, 0)
    assert h_vector(S, (1,)).as_tuple() == (3, 0, 0)


def test_h_vector_golden_p1xp1():
    S = quadric()
    assert h_vector(S, (1, -2)).as_tuple() == (0, 2, 0)
    assert h_vector(S, (1, -2)).chi == -2
    assert h_vector(S, (0, 0)).as_tuple() == (1, 0, 0)
    assert h_vector(S, (1, 1)).as_tuple() == (4, 0, 0)
    assert h_vector(S, (-2, -2)).as_tuple() == (0, 0, 1)
    assert h_vector(S, (-1, 5)).as_tuple() == (0, 0, 0)
    assert h_vector(S, (1, 0)).as_tuple() == (2, 0, 0)


def test_cech_count_agrees_with_closed_form():
    S = p2()
    for n in list(range(-9, 10)) + [-500, 500]:
        assert cech_h_vector(S, (n,)) == h_vector(S, (n,)), n
    T = quadric()
    for a, b in list(itertools.product(range(-5, 6), repeat=2)) + [
            (300, -300), (-300, 300)]:
        assert cech_h_vector(T, (a, b)) == h_vector(T, (a, b)), (a, b)


def test_cech_count_equals_the_walk_over_exponent_tuples():
    # d >= 0, -size < d < 0 and d <= -size in each group
    S = p2()
    for c in class_range(S, -40, 40):
        assert cech_h_vector(S, c) == walk_h_vector(S, c), c
    T = quadric()
    for c in class_range(T, -8, 8):
        assert cech_h_vector(T, c) == walk_h_vector(T, c), c


def test_chi_is_the_riemann_roch_polynomial():
    S = p2()
    for n in range(-9, 10):
        assert h_vector(S, (n,)).chi == (n + 1) * (n + 2) // 2, n
    T = quadric()
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert h_vector(T, (a, b)).chi == (a + 1) * (b + 1), (a, b)


def test_rr_space_of_twice_a_line():
    S = p2(3)
    LZ = curve_make(S, "Z")
    basis = rr_space(Divisor(S, {LZ: 2}))
    assert len(basis) == 6
    for f in basis:
        assert f.den == LZ.poly * LZ.poly
        assert ord_on_curve(f, LZ) >= -2


def test_rr_space_of_negative_divisor_is_empty():
    S = p2(3)
    LY = curve_make(S, "Y")
    assert rr_space(Divisor(S, {LY: -1})) == []


def test_rr_space_of_zero_divisor_is_constants():
    S = p2(3)
    basis = rr_space(Divisor(S, {}))
    assert len(basis) == 1
    for P in (basis[0].num, basis[0].den):
        assert all(not any(e) for e in P.terms), P


def test_rr_space_of_principal_class_zero_divisor():
    S = p2(3)
    C = curve_make(S, "YZ-X^2")
    L = curve_make(S, "Y")
    basis = rr_space(Divisor(S, {C: 1, L: -2}))
    assert len(basis) == 1
    expected = RationalFunction(S, [(L.poly, 2), (C.poly, -1)])
    assert basis[0] == expected


def test_rr_space_dimension_matches_h0_p2():
    S = p2(3)
    LZ = curve_make(S, "Z")
    LY = curve_make(S, "Y")
    conic = curve_make(S, "YZ-X^2")
    fixtures = [
        {LZ: 1}, {LZ: 3}, {conic: 2}, {conic: 1, LY: 1},
        {LZ: 2, LY: -1}, {conic: 2, LZ: -2}, {LZ: 4, conic: -1},
        {LY: -2, LZ: 1}, {conic: 3, LY: -3, LZ: 1},
    ]
    for comp in fixtures:
        D = Divisor(S, comp)
        cls = divisor_class(D)
        assert all(-6 <= v <= 6 for v in cls)
        assert len(rr_space(D)) == h_vector(S, cls).h0, comp


def test_rr_space_dimension_matches_h0_p1xp1():
    S = quadric(2)
    F1 = curve_make(S, "X1")
    F2 = curve_make(S, "Y1")
    diag = curve_make(S, "X0Y1 - X1Y0")
    fixtures = [
        {F1: 1}, {F2: 2}, {F1: 1, F2: 1}, {diag: 1},
        {diag: 1, F1: -1}, {diag: 2, F1: -1, F2: -1},
        {F1: 2, F2: 1, diag: -1}, {F1: -1, F2: 3},
    ]
    for comp in fixtures:
        D = Divisor(S, comp)
        cls = divisor_class(D)
        assert all(-4 <= v <= 4 for v in cls)
        assert len(rr_space(D)) == h_vector(S, cls).h0, comp


def test_rr_space_members_satisfy_divisor_bound():
    S = p2(3)
    conic = curve_make(S, "YZ-X^2")
    LY = curve_make(S, "Y")
    D = Divisor(S, {conic: 1, LY: -1})
    basis = rr_space(D)
    assert len(basis) == h_vector(S, (1,)).h0
    for f in basis:
        assert ord_on_curve(f, conic) >= -1
        assert ord_on_curve(f, LY) >= 1


@pytest.mark.parametrize("model, q", [("P2", 3), ("P1xP1", 4)])
def test_rr_space_on_the_windows_box_is_an_rref_basis_of_multiples(model, q):
    # every divisor that `verify --suites windows` asks for: multiplicities
    # -2..2 on each of the suite's lines
    S = surface_make(model, q)
    lines = [S.lines[n] for n in FIXTURES[model].lines]
    for rep in itertools.product(range(-2, 3), repeat=len(lines)):
        D = Divisor(S, dict(zip(lines, rep)))
        pos = {C: m for C, m in D.items() if m > 0}
        Q = MPoly.const(S.base, S.nvars, 1)
        for C, m in pos.items():
            Q = Q * C.poly ** m
        monos = class_monomials(S, divisor_class(Divisor(S, pos)))
        basis = rr_space(D)
        assert len(basis) == h_vector(S, divisor_class(D)).h0, rep
        vecs = []
        for f in basis:
            assert f.den == Q, rep
            assert all(f.num.terms.values()), rep
            assert set(f.num.terms) <= set(monos), rep
            for C, m in D.items():
                if m < 0:
                    assert f.num.exact_div(C.poly ** -m) is not None, (rep, C)
            vecs.append({j: f.num.terms[e] for j, e in enumerate(monos)
                         if e in f.num.terms})
        if vecs:
            rref, pivots = mat_rref(vecs, S.base)
            assert (rref, len(pivots)) == (vecs, len(vecs)), rep


@pytest.mark.parametrize("q", [2, 4, 9])
@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_rr_dimension_counts_the_rr_space_on_the_windows_box(model, q):
    # q = 2, 4 and 9 reach the xor, table and extension-field kernels
    S = surface_make(model, q)
    lines = [S.lines[n] for n in FIXTURES[model].lines]
    for rep in itertools.product(range(-2, 3), repeat=len(lines)):
        D = Divisor(S, dict(zip(lines, rep)))
        dim = rr_dimension(D)
        assert dim == len(rr_space(D)), rep
        assert dim == h_vector(S, divisor_class(D)).h0, rep


def test_rr_dimension_off_the_coordinate_lines():
    # negative parts whose product has several terms, so the rows overlap
    S = p2(5)
    conic = curve_make(S, "YZ-X^2")
    line = curve_make(S, "X+Y+Z")
    LZ = curve_make(S, "Z")
    for D in (Divisor(S, {LZ: 4, conic: -1}),
              Divisor(S, {LZ: 5, conic: -1, line: -2}),
              Divisor(S, {conic: 2, line: -1}),
              Divisor(S, {LZ: 1, conic: -1})):
        dim = rr_dimension(D)
        assert dim == len(rr_space(D)), D
        assert dim == h_vector(S, divisor_class(D)).h0, D


def test_section_rows_follow_the_negative_part_not_the_class_alone():
    # divisors of one class whose negative parts differ, asked in turn on
    # one surface: each row must be its own P shifted by a monomial of the
    # class.  The rank cannot tell them apart (it is the number of
    # monomials of the class for every nonzero P), so the rows are read.
    S = p2(5)
    X, Y, Z = (S.lines[n] for n in ("X", "Y", "Z"))
    conic = curve_make(S, "YZ-X^2")
    cases = [
        (Divisor(S, {Z: 2, X: -1}), X.poly),
        (Divisor(S, {Z: 2, Y: -1}), Y.poly),
        (Divisor(S, {Z: 3, conic: -1}), conic.poly),
        (Divisor(S, {Z: 3, X: -2}), X.poly ** 2),
        (Divisor(S, {Z: 3, X: -1, Y: -1}), X.poly * Y.poly),
        (Divisor(S, {conic: 1, X: -1}), X.poly),
        (Divisor(S, {Z: 2, Y: -1}), Y.poly),
    ]
    for D, P in cases + cases[::-1]:
        assert divisor_class(D) == (1,), D
        rows, monos = cohomology._section_rows(D)
        got = [MPoly._make(S.base, S.nvars, {monos[j]: c
                                             for j, c in row.items()})
               for row in rows]
        want = [MPoly._make(S.base, S.nvars, {a: 1}) * P
                for a in class_monomials(S, (1,))]
        assert got == want, D
        assert rr_dimension(D) == len(want), D


def test_chi_ignores_principal_shifts():
    # moving a divisor inside its class must not change dim L(D)
    S = p2(3)
    LZ = curve_make(S, "Z")
    LY = curve_make(S, "Y")
    conic = curve_make(S, "YZ-X^2")
    pairs = [
        (Divisor(S, {LZ: 2}), Divisor(S, {LY: 1, LZ: 1})),
        (Divisor(S, {conic: 1}), Divisor(S, {LZ: 2})),
        (Divisor(S, {conic: 1, LY: -1}), Divisor(S, {LZ: 1})),
    ]
    for a, b in pairs:
        assert divisor_class(a) == divisor_class(b)
        assert len(rr_space(a)) == len(rr_space(b))


def _dual(S, w, c):
    return S.class_add(w, S.class_scale(-1, c))


def test_serre_residual_golden():
    S = p2()
    assert h_vector(S, (2,)).h0 - h_vector(S, (0,)).h0 == 5
    assert h_vector(S, (-5,)).h2 - h_vector(S, (-3,)).h2 == 5
    assert h_vector(S, (4,)).h0 - h_vector(S, (4,)).h0 == \
        h_vector(S, (-7,)).h2 - h_vector(S, (-7,)).h2
    T = quadric()
    assert h_vector(T, (1, 1)).h0 - h_vector(T, (0, 0)).h0 == 3
    assert h_vector(T, (-3, -3)).h2 - h_vector(T, (-2, -2)).h2 == 3


def test_serre_residual_full_range():
    # h0(C) - h0(H) = h2(w - C) - h2(w - H)
    for S, w, lo, hi in ((p2(), (-3,), -6, 6), (quadric(), (-2, -2), -3, 3)):
        rng = class_range(S, lo, hi)
        for c in rng:
            for h in rng:
                assert (h_vector(S, c).h0 - h_vector(S, h).h0
                        == h_vector(S, _dual(S, w, c)).h2
                        - h_vector(S, _dual(S, w, h)).h2), (c, h)


def test_chi_symmetry_golden():
    S = p2()
    assert h_vector(S, (0,)).chi == 1 and h_vector(S, (-3,)).chi == 1
    assert h_vector(S, (-1,)).chi == 0 and h_vector(S, (-2,)).chi == 0
    T = quadric()
    # (-1, -1) is self-dual
    assert (h_vector(T, (-1, -1)).chi
            == h_vector(T, _dual(T, (-2, -2), (-1, -1))).chi)


def test_chi_symmetry_full_range():
    # chi(C) = chi(w - C)
    for S, w, lo, hi in ((p2(), (-3,), -8, 8), (quadric(), (-2, -2), -4, 4)):
        for c in class_range(S, lo, hi):
            assert h_vector(S, c).chi == h_vector(S, _dual(S, w, c)).chi, c
