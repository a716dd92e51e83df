"""Internal exact-algebra helpers: F_q linear algebra and sparse polynomials."""

import itertools
import random
from types import SimpleNamespace

import pytest

from reference_poly import (
    binomial_moved,
    binomial_u_columns,
    degree0_resultant,
    horner_shift,
    square_and_multiply,
)
from reference_series import column_inverse

from adeles2d.cohomology import rr_space
from adeles2d.fields import (
    FieldElem,
    field_make,
    padd,
    pmod,
    pmul,
    power,
    ppow_mod,
    pshift,
    psub,
    ptrim,
)
from adeles2d.linalg import mat_rank, mat_rref
from adeles2d.multipoly import MPoly, det_bareiss, factor2, resultant_elim
from adeles2d.series import LaurentSeries2
from adeles2d.surface import (
    Divisor,
    _u_columns,
    class_monomials,
    curve_make,
    divisor_class,
    surface_make,
)
from adeles2d.symbols import _moved


def peval(f, x, desc):
    """f(x) by Horner's rule, for a list f of codes and a code x."""
    acc = 0
    for c in reversed(f):
        acc = desc.add(desc.mul(acc, x), c)
    return acc


def rand_mpoly(desc, nvars, rng, max_deg=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        c = desc.from_coeffs([rng.randrange(desc.p) for _ in range(desc.d)])
        terms[e] = terms[e] + c if e in terms else c
    return MPoly(desc, nvars, terms)


def sparse(rows):
    """Dense rows of codes as the sparse rows linalg takes: column -> code,
    nonzero codes only."""
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def dense(rows, width):
    """Sparse rows back to dense rows of the given width."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def test_rank_of_a_dependent_system():
    f5 = field_make(5, 1)

    def e(n):  # the code of n mod 5
        return f5.from_int(n).n

    rows = [
        [e(1), e(2), e(3)],
        [e(2), e(4), e(6)],  # 2x the first row
        [e(0), e(1), e(1)],
    ]
    assert mat_rank(sparse(rows), f5) == 2


def test_rref_pivots_and_solve():
    f3 = field_make(3, 1)

    def e(n):  # the code of n mod 3
        return f3.from_int(n).n

    rows = [[e(1), e(1)], [e(1), e(2)]]
    _, pivots = mat_rref(sparse(rows), f3)
    assert pivots == [0, 1]
    # the reduced augmented matrix [A | b] carries the solution in its last
    # column
    rhs = [e(0), e(1)]
    rref, pivots = mat_rref(
        sparse([row + [b] for row, b in zip(rows, rhs)]), f3)
    assert pivots == [0, 1]
    x = [row[2] for row in dense(rref, 3)]
    for row, b in zip(rows, rhs):
        assert f3.add(f3.mul(row[0], x[0]), f3.mul(row[1], x[1])) == b
    # an inconsistent system has a pivot in the appended column
    _, pivots = mat_rref(sparse([[e(1), e(1), e(0)], [e(2), e(2), e(1)]]),
                         f3)
    assert pivots == [0, 2]


def _planted_matrix(desc, rng, nrows, ncols, rank):
    """nrows rows of width ncols spanning at most `rank` dimensions: random
    combinations of `rank` random rows, with a zero row and a repeated row
    mixed in once there are enough rows."""
    def code():
        return desc.from_coeffs([rng.randrange(desc.p)
                                 for _ in range(desc.d)]).n

    base = [[code() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for b in base:
            row = desc.axpy(code(), b, row)
        rows.append(row)
    if nrows >= 3:
        rows[rng.randrange(nrows)] = [0] * ncols
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


def test_rank_by_forward_elimination_counts_the_rref_pivots():
    rng = random.Random(2024)
    shapes = [(0, 0), (1, 1), (4, 1), (1, 6), (6, 1), (3, 9), (9, 3),
              (12, 5), (5, 12), (15, 21), (21, 15), (8, 8)]
    for q in (2, 5, 4, 9):
        desc = field_make(*{2: (2, 1), 5: (5, 1), 4: (2, 2), 9: (3, 2)}[q])
        for nrows, ncols in shapes:
            for rank in range(min(nrows, ncols) + 1):
                rows = sparse(_planted_matrix(desc, rng, nrows, ncols, rank))
                before = [dict(row) for row in rows]
                got = mat_rank(rows, desc)
                assert got == len(mat_rref(rows, desc)[1]), (q, rows)
                assert got <= rank
                assert rows == before  # the input is left unchanged
        # rows of width zero, and all-zero matrices
        assert mat_rank(sparse([[], []]), desc) == 0
        assert mat_rank(sparse([[0] * 4] * 3), desc) == 0
        # a full-rank square matrix and the same matrix with a row repeated
        eye = sparse([[int(i == j) for j in range(5)] for i in range(5)])
        assert mat_rank(eye, desc) == 5
        assert mat_rank(eye + eye[2:3], desc) == 5


def _reference_rref(rows, width, desc):
    """Dense Gauss-Jordan elimination with pivots taken in column order: the
    nonzero rows of the reduced row-echelon form and the pivot columns."""
    mat = [list(row) for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        s = desc.inv(mat[r][c])
        mat[r] = [desc.mul(v, s) for v in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                f = row[c]
                mat[i] = [desc.sub(a, desc.mul(f, b))
                          for a, b in zip(row, mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _reference_cases(desc, rng):
    """(dense rows, width) pairs: empty input, zero matrices, random
    matrices of three densities with a zero row and a repeated row mixed
    in, planted low ranks, and matrices with one nonzero per row, in
    distinct columns (permutations) and in columns drawn with repeats."""
    def code():
        return desc.from_coeffs([rng.randrange(desc.p)
                                 for _ in range(desc.d)]).n

    def nonzero():
        c = code()
        return c or 1

    out = [([], 0), ([], 5), ([[], []], 0), ([[0] * 4] * 3, 4)]
    for _ in range(30):
        nrows, width = rng.randrange(1, 13), rng.randrange(1, 13)
        density = rng.choice((0.1, 0.3, 1.0))
        rows = [[code() if rng.random() < density else 0
                 for _ in range(width)] for _ in range(nrows)]
        if nrows >= 3:
            rows[rng.randrange(nrows)] = [0] * width
            rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
        out.append((rows, width))
    for nrows, width in ((6, 9), (9, 6), (10, 10)):
        for rank in (1, 2, 4):
            out.append((_planted_matrix(desc, rng, nrows, width, rank),
                        width))
    for n in (1, 5, 12, 28):
        perm = list(range(n))
        rng.shuffle(perm)
        drawn = [rng.randrange(n) for _ in range(n + 3)]
        for cols in (perm, drawn):
            out.append(([[nonzero() if j == c else 0 for j in range(n)]
                         for c in cols], n))
    return out


def test_sparse_elimination_matches_a_dense_reference():
    rng = random.Random(1990)
    for p, d in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 6)):
        desc = field_make(p, d)
        for rows, width in _reference_cases(desc, rng):
            want, want_pivots = _reference_rref(rows, width, desc)
            given = sparse(rows)
            before = [dict(row) for row in given]
            rref, pivots = mat_rref(given, desc)
            assert pivots == want_pivots, (desc, rows)
            assert dense(rref, width) == want, (desc, rows)
            assert all(all(row.values()) for row in rref), (desc, rows)
            assert mat_rank(given, desc) == len(want_pivots), (desc, rows)
            assert given == before, (desc, rows)  # the input is unchanged


def test_rr_space_on_the_p2_windows_box_is_the_reference_basis():
    # the 125 divisors of `verify --suites windows` on P2 (multiplicities
    # -2..2 on X, Y and Z), and the same box with a conic for Z, whose
    # shifts have several terms.  The reference spans the numerators by
    # polynomial products, P times each monomial of the class of D, and
    # reduces them densely.
    for q, names in ((13, ("X", "Y", "Z")), (4, ("X", "Y", "YZ-X^2"))):
        S = surface_make("P2", q)
        curves = [curve_make(S, n) for n in names]
        for rep in itertools.product(range(-2, 3), repeat=3):
            D = Divisor(S, dict(zip(curves, rep)))
            P = Q = MPoly.const(S.base, S.nvars, 1)
            for C, m in D.items():
                if m < 0:
                    P = P * C.poly ** -m
                else:
                    Q = Q * C.poly ** m
            monos = class_monomials(S, divisor_class(
                Divisor(S, {C: m for C, m in D.items() if m > 0})))
            rows = [[(P * MPoly(S.base, S.nvars, {a: 1})).terms.get(e, 0)
                     for e in monos]
                    for a in class_monomials(S, divisor_class(D))]
            want, _pivots = _reference_rref(rows, len(monos), S.base)
            got = rr_space(D)
            assert [f.den for f in got] == [Q] * len(want), (q, rep)
            assert [[f.num.terms.get(e, 0) for e in monos]
                    for f in got] == want, (q, rep)


# rank-based span predicates


def span_contains(vectors, v, desc):
    if not vectors:
        return not any(v)
    return (mat_rank(sparse(vectors), desc)
            == mat_rank(sparse(vectors + [v]), desc))


def spans_equal(a, b, desc):
    ra = mat_rank(sparse(a), desc)
    rb = mat_rank(sparse(b), desc)
    return ra == rb and mat_rank(sparse(a + b), desc) == ra


def span_intersection_dim(a, b, desc):
    """dim(U cap V) = dim U + dim V - dim(U + V)."""
    return (mat_rank(sparse(a), desc) + mat_rank(sparse(b), desc)
            - mat_rank(sparse(a + b), desc))


def test_span_predicates():
    f2 = field_make(2, 1)

    def e(n):  # the code of n mod 2
        return f2.from_int(n).n

    u = [[e(1), e(0), e(1)], [e(0), e(1), e(1)]]
    v = [[e(1), e(1), e(0)], [e(0), e(1), e(1)]]
    assert spans_equal(u, v, f2)
    assert span_contains(u, [e(1), e(1), e(0)], f2)
    assert not span_contains(u, [e(1), e(0), e(0)], f2)
    w = [[e(1), e(0), e(0)]]
    assert span_intersection_dim(u, w, f2) == 0
    assert span_intersection_dim(u, u, f2) == 2


def test_mpoly_ring_identities():
    f5 = field_make(5, 1)
    x = MPoly.var(f5, 2, 0)
    y = MPoly.var(f5, 2, 1)
    lhs = (x + y) ** 2
    rhs = x * x + x * y.scale(f5.from_int(2)) + y * y
    assert lhs == rhs
    assert (x + y - x - y).is_zero()
    assert (x * y).degree_in(0) == 1


def test_mpoly_powers_equal_repeated_products():
    rng = random.Random(17)
    for desc in (field_make(3, 1), field_make(2, 2)):
        for _ in range(5):
            f = rand_mpoly(desc, 3, rng)
            acc = MPoly.const(desc, 3, desc.one())
            for n in range(6):
                assert f ** n == acc, (f, n)
                acc = acc * f


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
    assert f.terms == {(2, 0): f3.one().n}
    assert f.exact_div(g) == g


def test_mpoly_hash_is_kept_and_equal_polynomials_hash_equal():
    rng = random.Random(23)
    for desc in (field_make(3, 1), field_make(2, 3)):
        for _ in range(50):
            f = rand_mpoly(desc, 3, rng)
            first = hash(f)
            # the same polynomial built again, by the public constructor
            # with its terms in reverse order, and by arithmetic
            again = MPoly(desc, 3, dict(reversed(list(f.terms.items()))))
            assert again == f and hash(again) == first
            assert hash(f + MPoly.zero(desc, 3)) == first
            f * f
            assert hash(f) == first
    x = MPoly.var(field_make(3, 1), 2, 0)
    assert len({x, x * MPoly.const(x.desc, 2, 1), x + x - x}) == 1


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
    # coefficients enter a container as elements or codes of its field
    assert _raises_value_error(lambda: MPoly.const(f5, 2, a))
    assert _raises_value_error(lambda: LaurentSeries2.monomial(f5, a, 0, 0))
    assert _raises_value_error(lambda: MPoly.const(f3, 2, 4))
    # univariate helpers take code lists, which carry no field: the
    # polynomials a resultant starts from are checked instead
    assert _raises_value_error(lambda: resultant_elim(ma, mb, elim=1, keep=0))
    assert _raises_value_error(lambda: resultant_elim(mb, ma, elim=1, keep=0))
    # one field throughout still works
    pa = [f3.one().n, a.n]
    assert padd(pa, pa, f3) == [f3.from_int(2).n, f3.one().n]


def _monic(f):
    """f scaled so its lex-leading coefficient is 1."""
    return f.scale(f.desc.inv(f.terms[max(f.terms)]))


def test_factor2_finds_every_factor_with_its_multiplicity():
    # over fields of characteristic 2 and 3: y^p - x and x^p - y have
    # derivative 0 in y and in x, x^2 + x + 2 (p = 2: x^2 + x + 1) has no
    # y, and (y + 1)^p is a p-th power; each appears with multiplicity
    for p, d in ((2, 1), (3, 1), (2, 2), (3, 2)):
        F = field_make(p, d)
        x, y = MPoly.var(F, 2, 0), MPoly.var(F, 2, 1)
        one = MPoly.const(F, 2, 1)
        quadratic = x * x + x + (one if p == 2 else one.scale(2))
        want = {(y ** p - x): 2, (x ** p - y): 1, (x * y + one): 3,
                quadratic: 1, (y + one): p}
        if d == 2:  # x^2 + x + c has roots in F_(p^2)
            del want[quadratic]
        f = one
        for g, m in want.items():
            f = f * g ** m
        got = factor2(f)
        assert {_monic(g): m for g, m in got} == {
            _monic(g): m for g, m in want.items()}, (p, d)
        assert len(got) == len(want), (p, d, got)


def test_resultant_golden_line_parabola():
    f5 = field_make(5, 1)
    x = MPoly.var(f5, 2, 0)
    y = MPoly.var(f5, 2, 1)
    one = MPoly.const(f5, 2, f5.one())
    # Res_y(y^2 - x, y - 1) = 1 - x
    r = resultant_elim(y * y - x, y - one, elim=1, keep=0)
    expected = ptrim([1, f5.neg(1)])
    assert r == expected, r


def test_resultant_vanishes_iff_common_root():
    f5 = field_make(5, 1)
    x = MPoly.var(f5, 2, 0)
    y = MPoly.var(f5, 2, 1)
    one = MPoly.const(f5, 2, f5.one())
    # common root at (x, y) = (1, 1)
    f = y - x
    g = y * y - one
    r = resultant_elim(f, g, elim=1, keep=0)
    assert peval(r, 1, f5) == 0
    assert peval(r, 3, f5) != 0


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
        a = [[ptrim([rng.randrange(3) for _ in range(3)])
              for _ in range(2)] for _ in range(2)]
        det = det_bareiss(a, f3)
        from adeles2d.fields import psub
        ref = psub(pmul(a[0][0], a[1][1], f3), pmul(a[0][1], a[1][0], f3), f3)
        assert det == ref


def test_mpoly_results_store_no_zero_code():
    f5 = field_make(5, 1)
    x, y = MPoly.var(f5, 2, 0), MPoly.var(f5, 2, 1)
    # (x + y)(x - y) cancels xy; x + y - x cancels x
    prod = (x + y) * (x - y)
    assert prod.terms == {(2, 0): 1, (0, 2): f5.neg(1)}
    assert (x + y + (-x)).terms == {(0, 1): 1}
    assert (x + y - x - y).terms == {}
    assert 0 not in (prod * prod + prod.scale(f5.from_int(3))).terms.values()


def test_kernels_build_no_field_elements(monkeypatch):
    """Polynomial products, exact division, resultants, series products and
    inverses, and elimination compute on codes: with FieldElem construction
    refused they still give the results they give normally."""
    fields = [field_make(5, 1), field_make(3, 2), field_make(7, 6)]

    def work(F):
        x, y, z = (MPoly.var(F, 3, i) for i in range(3))
        f = (x + y.scale(2) + z) ** 3 + x * y * z
        g = (x - z) ** 2 + y.scale(F.q - 1)
        u, v = MPoly.var(F, 2, 0), MPoly.var(F, 2, 1)
        s = LaurentSeries2(F, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 2): 4},
                           6, 6)
        rows = sparse([[(i * j + i + 2 * j) % F.q for j in range(7)]
                       for i in range(5)])
        return (f * g, (f * g).exact_div(g), (f * g).exact_div(g + x),
                resultant_elim(u * u - v, u * v - u - v, elim=1, keep=0),
                s * s, column_inverse(s), mat_rref(rows, F))

    want = [work(F) for F in fields]

    def refused(self, desc, n):
        raise AssertionError("a FieldElem was built")

    monkeypatch.setattr(FieldElem, "__init__", refused)
    assert [work(F) for F in fields] == want


def test_poly_kernel_matches_its_references():
    """pshift, power and the degree-0 resultants against the routes they
    replaced (tests/reference_poly.py) on seeded random input over F_2,
    F_3, F_4, F_9 and the packed F_(7^6): degrees 0 to 8, the empty
    polynomial and a zero shift, n = 1, and n = 0 where a caller defines
    it."""
    rng = random.Random(39)
    for F in [field_make(p, d) for p, d in
              ((2, 1), (3, 1), (2, 2), (3, 2), (7, 6))]:
        def poly(deg):
            """A random polynomial of degree deg, [] for deg -1."""
            return [rng.randrange(F.q) for _ in range(deg)] + \
                [rng.randrange(1, F.q)] * (deg >= 0)

        def shifts():
            return (0, rng.randrange(F.q), rng.randrange(1, F.q))

        for deg in range(-1, 9):
            f = poly(deg)
            for a in shifts():
                assert pshift(f, a, F) == horner_shift(f, a, F), (F, f, a)
        # powers of codes, of polynomials mod m, of MPolys and of series
        for n in list(range(1, 18)) + [F.q + 1, F.q ** 2, 1000]:
            for x in (0, 1, rng.randrange(1, F.q)):
                want = square_and_multiply(x, n, F.mul, 1)
                assert power(x, n, F.mul) == want == F.pow(x, n), (F, x, n)
        assert F.pow(rng.randrange(F.q), 0) == 1
        with pytest.raises(ValueError, match="n >= 1"):
            power(rng.randrange(F.q), 0, F.mul)
        m = poly(rng.randrange(1, 6))
        for e in range(0, 12):
            f = poly(rng.randrange(0, 8))
            assert ppow_mod(f, e, m, F) == square_and_multiply(
                pmod(f, m, F), e, lambda a, b: pmod(pmul(a, b, F), m, F),
                [1]), (F, f, e, m)
        one2 = MPoly.const(F, 2, 1)
        g = rand_mpoly(F, 2, rng, max_deg=2, nterms=3)
        s = LaurentSeries2(F, {(0, 0): 1, (1, -1): rng.randrange(F.q),
                               (0, 2): rng.randrange(F.q)}, 5, 6)
        for n in range(0, 5):
            assert g ** n == square_and_multiply(g, n, MPoly.__mul__, one2)
            assert s ** n == square_and_multiply(
                s, n, LaurentSeries2.__mul__, LaurentSeries2.one(F)), (F, n)
        # the two-variable shifts: _u_columns (a flag reads only u_index,
        # u_value and the residue field) and _moved
        for _ in range(4):
            f = rand_mpoly(F, 2, rng, max_deg=rng.randrange(0, 7), nterms=8)
            for ui, (a, b) in itertools.product((0, 1), zip(shifts(),
                                                            shifts())):
                fl = SimpleNamespace(u_index=ui, u_value=FieldElem(F, a),
                                     point=SimpleNamespace(residue_field=F))
                assert _u_columns(f, fl) == [ptrim(col) for col in
                                             binomial_u_columns(f, F, ui, a)]
                assert _moved(f, a, b) == binomial_moved(f, a, b), (F, f)
        # degree 0 in the eliminated variable, on either side or both
        for elim in (0, 1):
            keep = 1 - elim
            for _ in range(3):
                const, g = (MPoly(F, 2, {
                    tuple(d if v == keep else 0 for v in (0, 1)): c
                    for d, c in enumerate(poly(rng.randrange(0, 4)))})
                    for _ in range(2))
                g = g + rand_mpoly(F, 2, rng, max_deg=3, nterms=5)
                for a, b in ((const, g), (g, const), (const, const)):
                    if a.is_zero() or b.is_zero():
                        continue
                    assert resultant_elim(a, b, elim, keep) == \
                        degree0_resultant(a.columns(elim), b.columns(elim),
                                          F), (F, a, b, elim)
