"""Internal exact-algebra helpers: F_q linear algebra and sparse polynomials."""

import random

from adeles2d.fields import (
    field_make,
    padd,
    pdivmod,
    pmul,
    psub,
    ptrim,
)
from adeles2d.linalg import mat_nullspace, mat_rank, mat_rref, span_intersection
from adeles2d.multipoly import MPoly, det_bareiss, resultant_elim
from adeles2d.series import LaurentSeries2


def peval(f, x):
    """f(x) by Horner's rule, for a coefficient list f."""
    acc = x.desc.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def rand_mpoly(desc, nvars, rng, max_deg=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        c = desc.from_coeffs([rng.randrange(desc.p) for _ in range(desc.d)])
        terms[e] = terms[e] + c if e in terms else c
    return MPoly(desc, nvars, terms)


def test_rank_and_nullspace():
    f5 = field_make(5, 1)
    e = f5.from_int
    rows = [
        [e(1), e(2), e(3)],
        [e(2), e(4), e(6)],  # 2x the first row
        [e(0), e(1), e(1)],
    ]
    assert mat_rank(rows, f5) == 2
    ns = mat_nullspace(rows, 3, f5)
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        s = f5.zero()
        for a, x in zip(row, v):
            s = s + a * x
        assert s.is_zero()


def test_rref_pivots_and_solve():
    f3 = field_make(3, 1)
    e = f3.from_int
    rows = [[e(1), e(1)], [e(1), e(2)]]
    _, pivots = mat_rref(rows, f3)
    assert pivots == [0, 1]
    # the reduced augmented matrix [A | b] carries the solution in its last
    # column
    rhs = [e(0), e(1)]
    rref, pivots = mat_rref([row + [b] for row, b in zip(rows, rhs)], f3)
    assert pivots == [0, 1]
    x = [rref[0][2], rref[1][2]]
    for row, b in zip(rows, rhs):
        assert row[0] * x[0] + row[1] * x[1] == b
    # an inconsistent system has a pivot in the appended column
    _, pivots = mat_rref([[e(1), e(1), e(0)], [e(2), e(2), e(1)]], f3)
    assert pivots == [0, 2]


# rank-based span predicates, the oracle for span_intersection


def span_contains(vectors, v, desc):
    if not vectors:
        return all(c.is_zero() for c in v)
    return mat_rank(vectors, desc) == mat_rank(vectors + [v], desc)


def spans_equal(a, b, desc):
    ra = mat_rank(a, desc)
    rb = mat_rank(b, desc)
    return ra == rb and mat_rank(a + b, desc) == ra


def span_intersection_dim(a, b, desc):
    """dim(U cap V) = dim U + dim V - dim(U + V)."""
    return mat_rank(a, desc) + mat_rank(b, desc) - mat_rank(a + b, desc)


def test_span_predicates():
    f2 = field_make(2, 1)
    e = f2.from_int
    u = [[e(1), e(0), e(1)], [e(0), e(1), e(1)]]
    v = [[e(1), e(1), e(0)], [e(0), e(1), e(1)]]
    assert spans_equal(u, v, f2)
    assert span_contains(u, [e(1), e(1), e(0)], f2)
    assert not span_contains(u, [e(1), e(0), e(0)], f2)
    w = [[e(1), e(0), e(0)]]
    assert span_intersection_dim(u, w, f2) == 0
    assert span_intersection_dim(u, u, f2) == 2
    assert span_intersection(u, w, 3, f2) == []
    assert spans_equal(span_intersection(u, v, 3, f2), u, f2)
    rng = random.Random(73)
    for q in (2, 3, 5):
        F = field_make(q, 1)
        for _ in range(30):
            a, b = ([[F.from_int(rng.randrange(q)) for _ in range(5)]
                     for _ in range(rng.randrange(1, 5))] for _ in range(2))
            got = span_intersection(a, b, 5, F)
            assert mat_rank(got, F) == len(got) == span_intersection_dim(a, b, F)
            assert all(span_contains(a, r, F) and span_contains(b, r, F)
                       for r in got)


def test_mpoly_ring_identities():
    f5 = field_make(5, 1)
    x = MPoly.var(f5, 2, 0)
    y = MPoly.var(f5, 2, 1)
    lhs = (x + y) ** 2
    rhs = x * x + x * y.scale(f5.from_int(2)) + y * y
    assert lhs == rhs
    assert (x + y - x - y).is_zero()
    assert (x * y).degree_in(0) == 1


def test_mpoly_exact_division():
    rng = random.Random(55)
    f3 = field_make(3, 1)
    for _ in range(40):
        f = rand_mpoly(f3, 3, rng)
        g = rand_mpoly(f3, 3, rng)
        if g.is_zero():
            continue
        q = (f * g).exact_div(g)
        assert q == f, (f, g)
    x = MPoly.var(f3, 2, 0)
    y = MPoly.var(f3, 2, 1)
    one = MPoly.const(f3, 2, f3.one())
    assert (x * y + one).exact_div(x) is None


def test_mpoly_constructor_drops_zero_coefficients():
    f3 = field_make(3, 1)
    empty = MPoly(f3, 2, {(1, 0): f3.zero()})
    assert empty.terms == {}
    assert empty.is_zero()
    g = MPoly.var(f3, 2, 0)
    f = MPoly(f3, 2, {(2, 0): f3.one(), (1, 1): f3.zero()})
    assert f.terms == {(2, 0): f3.one()}
    assert f.exact_div(g) == g


def _raises_value_error(fn):
    try:
        fn()
    except ValueError:
        return True
    return False


def test_mixed_fields_raise_in_containers():
    f3, f5 = field_make(3, 1), field_make(5, 1)
    a, b = f3.from_int(2), f5.from_int(4)
    # series
    sa = LaurentSeries2.monomial(f3, a, 0, 0)
    sb = LaurentSeries2.monomial(f5, b, 0, 0)
    assert _raises_value_error(lambda: sa + sb)
    assert _raises_value_error(lambda: sa * sb)
    # sparse polynomials
    ma, mb = MPoly.const(f3, 2, a), MPoly.var(f5, 2, 0)
    for op in (lambda: ma + mb, lambda: ma - mb, lambda: ma * mb,
               lambda: ma.exact_div(mb)):
        assert _raises_value_error(op)
    # univariate helpers, whichever operand or descriptor is foreign
    pa, pb = [f3.one(), a], [b, f5.one()]
    for fn in (padd, psub, pmul, pdivmod):
        assert _raises_value_error(lambda: fn(pa, pb, f3))
        assert _raises_value_error(lambda: fn(pb, pa, f3))
        assert _raises_value_error(lambda: fn(pa, pa, f5))
    # one field throughout still works
    assert padd(pa, pa, f3) == [f3.from_int(2), f3.one()]


def test_mpoly_substitution_is_homomorphism():
    rng = random.Random(9)
    f5 = field_make(5, 1)
    images = [rand_mpoly(f5, 2, rng), rand_mpoly(f5, 2, rng), rand_mpoly(f5, 2, rng)]
    for _ in range(20):
        f = rand_mpoly(f5, 3, rng)
        g = rand_mpoly(f5, 3, rng)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


def test_resultant_golden_line_parabola():
    f5 = field_make(5, 1)
    x = MPoly.var(f5, 2, 0)
    y = MPoly.var(f5, 2, 1)
    one = MPoly.const(f5, 2, f5.one())
    # Res_y(y^2 - x, y - 1) = 1 - x
    r = resultant_elim(y * y - x, y - one, elim=1, keep=0)
    expected = ptrim([f5.one(), -f5.one()])
    assert r == expected, [c.coeffs for c in r]


def test_resultant_vanishes_iff_common_root():
    f5 = field_make(5, 1)
    x = MPoly.var(f5, 2, 0)
    y = MPoly.var(f5, 2, 1)
    one = MPoly.const(f5, 2, f5.one())
    # common root at (x, y) = (1, 1)
    f = y - x
    g = y * y - one
    r = resultant_elim(f, g, elim=1, keep=0)
    assert peval(r, f5.one()).is_zero()
    assert not peval(r, f5.from_int(3)).is_zero()


def test_resultant_multiplicative_in_second_arg():
    rng = random.Random(31)
    f5 = field_make(5, 1)
    for _ in range(15):
        f = rand_mpoly(f5, 2, rng, max_deg=2, nterms=4)
        g = rand_mpoly(f5, 2, rng, max_deg=1, nterms=3)
        h = rand_mpoly(f5, 2, rng, max_deg=1, nterms=3)
        if f.degree_in(1) < 1 or g.degree_in(1) < 1 or h.degree_in(1) < 1:
            continue
        lhs = resultant_elim(f, g * h, elim=1, keep=0)
        rhs = pmul(resultant_elim(f, g, elim=1, keep=0),
                   resultant_elim(f, h, elim=1, keep=0), f5)
        assert lhs == rhs


def test_det_bareiss_matches_cofactor_2x2():
    f3 = field_make(3, 1)
    rng = random.Random(2)
    for _ in range(20):
        a = [[ptrim([f3.from_int(rng.randrange(3)) for _ in range(3)])
              for _ in range(2)] for _ in range(2)]
        det = det_bareiss(a, f3)
        from adeles2d.fields import psub
        ref = psub(pmul(a[0][0], a[1][1], f3), pmul(a[0][1], a[1][0], f3), f3)
        assert det == ref
