"""Two-variable truncated Laurent series: golden examples and ring properties."""

import itertools
import random
import re

import pytest

from adeles2d.fields import field_make
from adeles2d.series import (
    DEFAULT_PREC,
    INF,
    LONG,
    LaurentSeries2,
    PrecisionError,
    ls2_to_text,
    ps_horner,
    ps_inverse,
    ps_mac,
    ps_mul,
    res2,
)
from reference_series import (neumann_inverse, pairs_add, pairs_mul,
                              pairs_truncate)


def ls2_valuation(f):
    """(vt, vu): the least t-exponent of f and the u-valuation of that
    column."""
    vt = f.t_valuation()
    return vt, min(u for (t, u) in f.terms if t == vt)


_TERM_RE = re.compile(r"t\^(-?\d+)\*u\^(-?\d+):\s*(\[[-\d,]+\]|-?\d+)")


def ls2_from_text(text, desc, t_prec=INF, u_prec=INF):
    """Parse the text form of ls2_to_text back into a series."""
    terms = {}
    text = text.strip()
    if text == "0":
        return LaurentSeries2(desc, {}, t_prec, u_prec)
    for part in text.split(";"):
        m = _TERM_RE.fullmatch(part.strip())
        if not m:
            raise ValueError(f"unparseable series term {part!r}")
        raw = m.group(3)
        if raw.startswith("["):
            c = desc.from_coeffs([int(v) for v in raw[1:-1].split(",")])
        else:
            c = desc.from_int(int(raw))
        terms[(int(m.group(1)), int(m.group(2)))] = c
    return LaurentSeries2(desc, terms, t_prec, u_prec)


def mk(desc, terms, t_prec=INF, u_prec=INF):
    return LaurentSeries2(desc, {k: desc.from_int(v) for k, v in terms.items()},
                          t_prec, u_prec)


def derive(f, var):
    """Termwise formal derivative in var ("u" or "t"); the window shrinks
    by one in var."""
    idx = 0 if var == "t" else 1
    mul, p = f.desc.mul, f.desc.p
    out = {}
    for (t, u), c in f.terms.items():
        e = (t, u)[idx] % p
        if e:
            out[(t - 1, u) if idx == 0 else (t, u - 1)] = mul(c, e)
    return LaurentSeries2(f.desc, out, f.t_prec - (idx == 0),
                          f.u_prec - idx)


def agree(a, b):
    """Equal coefficients inside the common window of a and b."""
    t_prec = min(a.t_prec, b.t_prec)
    u_prec = min(a.u_prec, b.u_prec)
    return a.truncate(t_prec, u_prec).terms == b.truncate(t_prec, u_prec).terms


def compose(f, U, T, t_cap):
    """f(U, T) below t^t_cap, by ring operations alone.  Negative powers
    invert the image and truncate the inverse below t^(t_cap + 4) before
    raising it, so its triangular tail does not erode the u-window."""
    def power(base, n):
        if n >= 0:
            return base ** n
        return base.inverse().truncate(t_to=t_cap + 4) ** -n

    acc = LaurentSeries2.zero(f.desc)
    for (b, a), c in f.terms.items():
        acc = acc + power(U, a) * power(T, b) * LaurentSeries2.const(f.desc, c)
    return acc.truncate(t_to=t_cap)


def rand_series(desc, rng, span=3, nterms=5, t_prec=INF, u_prec=INF):
    terms = {}
    for _ in range(nterms):
        k = (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        terms[k] = desc.from_coeffs([rng.randrange(desc.p) for _ in range(desc.d)])
    return LaurentSeries2(desc, terms, t_prec, u_prec)


def test_default_precision():
    assert DEFAULT_PREC == 16


def test_inverse_geometric_series():
    f5 = field_make(5, 1)
    a = mk(f5, {(0, 0): 1, (1, 0): -1})  # 1 - t
    inv = a.inverse(t_window=4)
    assert inv.terms == mk(f5, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1}).terms
    assert inv.t_prec == 4


def test_monomial_cancellation():
    f3 = field_make(3, 1)
    a = mk(f3, {(-1, 1): 1})  # u t^-1
    b = mk(f3, {(1, -1): 1})  # u^-1 t
    prod = a * b
    assert prod == LaurentSeries2.one(f3)
    assert prod.is_exact()


def test_inverse_single_column_unit():
    f5 = field_make(5, 1)
    a = mk(f5, {(1, 0): 1, (1, 1): 1})  # t(1+u)
    inv = a.inverse(u_window=3)
    assert inv.terms == mk(f5, {(-1, 0): 1, (-1, 1): -1, (-1, 2): 1}).terms
    assert inv.u_prec == 3
    assert inv.t_prec == INF  # the true inverse lives on one t-column


def test_inverse_of_exact_input_with_a_column_past_its_t_window():
    # 1 + t^20 is not one column: its inverse 1 - t^20 + ... is known only
    # below the t-window, not exactly
    f5 = field_make(5, 1)
    inv = mk(f5, {(0, 0): 1, (20, 0): 1}).inverse()
    assert inv.t_prec == DEFAULT_PREC and inv.terms == {(0, 0): 1}, inv


def test_inverse_multiplies_back_to_one():
    rng = random.Random(12)
    for q in (2, 3, 5):
        desc = field_make(q, 1)
        for _ in range(25):
            a = rand_series(desc, rng)
            if not a.terms:
                continue
            inv = a.inverse()
            prod = a * inv
            one = LaurentSeries2.one(desc)
            assert agree(prod, one), (q, a, inv, prod)
            assert prod.terms[(0, 0)] == 1, (q, a, inv, prod)


def test_inverse_of_zero_window_raises():
    f2 = field_make(2, 1)
    z = LaurentSeries2.zero(f2, t_prec=5, u_prec=5)
    try:
        z.inverse()
    except PrecisionError:
        pass
    else:
        raise AssertionError("inverting a zero-window series did not raise")
    try:
        LaurentSeries2.zero(f2).inverse()
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("inverting exact zero did not raise")


def test_valuation_examples():
    f5 = field_make(5, 1)
    f = mk(f5, {(-3, 2): 1, (-2, 0): 3, (0, -5): 1})
    assert ls2_valuation(f) == (-3, 2)
    assert ls2_valuation(LaurentSeries2.one(f5)) == (0, 0)
    g = mk(f5, {(1, -1): 1, (1, 0): 1})
    assert ls2_valuation(g) == (1, -1)
    try:
        ls2_valuation(LaurentSeries2.zero(f5, t_prec=2, u_prec=2))
    except PrecisionError:
        pass
    else:
        raise AssertionError("valuation of zero window did not raise")


def test_res2_golden():
    f3 = field_make(3, 1)
    assert res2(mk(f3, {(-1, -1): 1})) == f3.one()
    for (b, a) in [(-1, 0), (0, -1), (2, 3), (-2, -2)]:
        assert res2(mk(f3, {(b, a): 1})).is_zero()
    # (1+u)^-1 u^-1 t^-1
    geom = mk(f3, {(0, 0): 1, (0, 1): 1}).inverse()
    assert res2(geom * mk(f3, {(-1, -1): 1})) == f3.one()


def test_res2_window_exclusion_raises():
    f3 = field_make(3, 1)
    try:
        res2(LaurentSeries2.zero(f3, t_prec=-1, u_prec=4))
    except PrecisionError:
        pass
    else:
        raise AssertionError("res2 outside window did not raise")


def test_ring_axioms_random():
    rng = random.Random(77)
    for q in (2, 3, 5):
        desc = field_make(q, 1)
        for _ in range(67):
            a = rand_series(desc, rng, t_prec=rng.choice([INF, 6]),
                            u_prec=rng.choice([INF, 6]))
            b = rand_series(desc, rng)
            c = rand_series(desc, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert agree((a * b) * c, a * (b * c))
            assert agree(a * (b + c), a * b + a * c)


def test_res2_kills_derivatives():
    rng = random.Random(13)
    f5 = field_make(5, 1)
    for _ in range(40):
        g = rand_series(f5, rng)
        assert res2(derive(g, "u")).is_zero()
        assert res2(derive(g, "t")).is_zero()


def test_res2_invariant_under_coordinate_change():
    """res is independent of the choice of local parameters (u,t)."""
    rng = random.Random(99)
    for q in (3, 5):
        desc = field_make(q, 1)
        for _ in range(15):
            f = rand_series(desc, rng, span=2, nterms=4)
            if not f.terms:
                continue
            # old parameters as polynomials in the new ones: unit Jacobian
            u_img = mk(desc, {(0, 1): 1,
                              (0, 2): rng.randrange(q),
                              (1, 1): rng.randrange(q),
                              (1, 0): rng.randrange(q)})
            t_img = mk(desc, {(1, 0): 1,
                              (2, 0): rng.randrange(q),
                              (1, 1): rng.randrange(q),
                              (2, 1): rng.randrange(q)})
            jac = (derive(u_img, "u") * derive(t_img, "t")
                   - derive(u_img, "t") * derive(t_img, "u"))
            # a tight t-cap keeps the u-window healthy around the residue slot
            pushed = compose(f, u_img, t_img, t_cap=2) * jac
            assert res2(pushed) == res2(f), (q, f)


def test_precision_monotonicity():
    rng = random.Random(21)
    f3 = field_make(3, 1)
    for _ in range(30):
        a = rand_series(f3, rng)
        b = rand_series(f3, rng)
        small = (a.truncate(4, 4) * b.truncate(4, 4))
        large = (a.truncate(9, 9) * b.truncate(9, 9))
        assert agree(small, large)
        if a.terms:
            inv_small = a.truncate(5, 5).inverse()
            inv_large = a.truncate(10, 10).inverse()
            assert agree(inv_small, inv_large)


def test_text_round_trip():
    f5 = field_make(5, 1)
    f = mk(f5, {(-1, 2): 3, (0, 0): 1, (2, -4): 4})
    text = ls2_to_text(f)
    assert text == "t^-1*u^2: 3; t^0*u^0: 1; t^2*u^-4: 4"
    back = ls2_from_text(text, f5)
    assert back == f
    f4 = field_make(2, 2)
    g = LaurentSeries2(f4, {(0, 1): f4.gen()}, t_prec=7, u_prec=7)
    assert ls2_from_text(ls2_to_text(g), f4, 7, 7) == g
    assert ls2_from_text("0", f5) == LaurentSeries2.zero(f5)


def test_mismatched_fields_raise():
    a = LaurentSeries2.one(field_make(3, 1))
    b = LaurentSeries2.one(field_make(5, 1))
    try:
        a + b
    except ValueError:
        pass
    else:
        raise AssertionError("mixed coefficient fields did not raise")


def stored_outside_or_zero(f):
    """Keys of f at or beyond its window, and keys that store code 0."""
    return [(k, c) for k, c in f.terms.items()
            if k[0] >= f.t_prec or k[1] >= f.u_prec or c == 0]


def test_results_store_no_key_outside_their_window_and_no_zero():
    # results are built without a second filter, so each operation must
    # apply its own window and drop what cancels
    rng = random.Random(404)
    for desc in (field_make(5, 1), field_make(3, 2), field_make(2, 1)):
        for _ in range(60):
            a, b = (rand_series(desc, rng, nterms=6,
                                t_prec=rng.choice([INF, -1, 0, 1, 2, 3]),
                                u_prec=rng.choice([INF, -1, 0, 1, 2, 3]))
                    for _ in range(2))
            for f in (a * b, a + b, a - b, -a, a.truncate(1, 0),
                      a.truncate(u_to=-1)):
                assert stored_outside_or_zero(f) == [], (a, b, f)
            assert (a + (-a)).terms == {} and (a - a).terms == {}
    # a product whose cross terms cancel: (1 + t)^2 = 1 + t^2 in char 2
    g = mk(field_make(2, 1), {(0, 0): 1, (1, 0): 1})
    assert (g * g).terms == {(0, 0): 1, (2, 0): 1}


# ---------------------------------------------------------------------------
# the one-variable kernel against schoolbook references

KERNEL_SIZES = (1, 2, 7, 33)
KERNEL_FIELDS = pytest.mark.parametrize("p, d", [(2, 1), (2, 2), (5, 1),
                                                 (3, 2)])


def kernel_columns(k, rng, n):
    """Columns of codes with a nonzero constant term, dense and at 20 %
    density, of length n, shorter than n and longer than n; then series in
    u^2, u^3 and u^4 of at least LONG codes."""
    out = []
    for length, density in itertools.product(
            (n, max(1, n // 2), 1, n + 3), (1.0, 0.2)):
        col = [rng.randrange(k.q) if rng.random() < density else 0
               for _ in range(length)]
        col[0] = rng.randrange(1, k.q)
        out.append(col)
    for g in (2, 3, 4):
        col = [rng.randrange(k.q) if i % g == 0 else 0
               for i in range(max(n, LONG))]
        col[0] = rng.randrange(1, k.q)
        out.append(col)
    return out


def schoolbook_mul(a, b, n, k):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = k.add(out[i + j], k.mul(x, y))
    return out


def newton_inverse(a, n, k):
    """1/a below u^n by Newton's doubling e <- e (2 - a e)."""
    e = [k.inv(a[0])]
    while len(e) < n:
        m = min(2 * len(e), n)
        r = [k.neg(c) for c in schoolbook_mul(a, e, m, k)]
        r[0] = k.add(r[0], k.add(1, 1))
        e = schoolbook_mul(e, r, m, k)
    return e


def by_powers(cols, y, n, k):
    """sum_j cols[j] y^j below u^n, each power of y formed in turn."""
    out, power = [0] * n, [1] + [0] * (n - 1)
    for col in cols:
        out = [k.add(a, b) for a, b in zip(out, schoolbook_mul(
            col, power, n, k))]
        power = schoolbook_mul(power, y, n, k)
    return out


@KERNEL_FIELDS
def test_kernel_sum_and_product_equal_the_schoolbook_ones(p, d):
    # ps_mac adds u^lo * a * b to what out holds; two long series in u^g
    # (the last three columns, and them times u^g) are multiplied deflated
    k = field_make(p, d)
    rng = random.Random(10 * p + d)
    for n in KERNEL_SIZES:
        cols = kernel_columns(k, rng, n)
        cols += [[0] * g + col for g, col in zip((2, 3, 4), cols[-3:])]
        for a, b in itertools.product(cols, repeat=2):
            assert ps_mul(a, b, n, k) == schoolbook_mul(a, b, n, k), (a, b)
            lo = rng.randrange(5)
            out = [rng.randrange(k.q) for _ in range(n)]
            want = [k.add(x, y) for x, y in zip(
                out, [0] * lo + schoolbook_mul(a, b, n, k))]
            ps_mac(out, lo, a, b, k)
            assert out == want, (a, b, lo)


@KERNEL_FIELDS
def test_kernel_inverse_multiplies_back_to_one_and_equals_newton(p, d):
    k = field_make(p, d)
    rng = random.Random(10 * p + d)
    for n in KERNEL_SIZES:
        for a in kernel_columns(k, rng, n):
            inv = ps_inverse(a, n, k)
            assert schoolbook_mul(a, inv, n, k) == [1] + [0] * (n - 1), a
            assert inv == newton_inverse(a, n, k), a


@KERNEL_FIELDS
def test_kernel_horner_equals_evaluation_by_powers(p, d):
    k = field_make(p, d)
    rng = random.Random(10 * p + d)
    for n in KERNEL_SIZES:
        pool = kernel_columns(k, rng, n)
        for y in pool:
            cols = rng.sample(pool, rng.randrange(1, 5))
            y = [rng.randrange(k.q)] + y[1:]  # a constant term of 0 too
            assert ps_horner(cols, y, n, k) == by_powers(cols, y, n, k)



def test_column_inverse_matches_the_neumann_series_on_exact_input():
    # the column recurrence against the Neumann loop it replaced
    # (tests/reference_series.py), on exact series whose later columns dip
    # below the leading one: every coefficient of the common box agrees
    rng = random.Random(38)
    compared = 0
    for q in (2, 3, 5):
        desc = field_make(q, 1)
        for _ in range(40):
            a = rand_series(desc, rng)
            if not a.terms:
                continue
            got, want = a.inverse(6, 6), neumann_inverse(a, 6, 6)
            t_to, u_to = min(got.t_prec, want.t_prec), min(got.u_prec, want.u_prec)
            assert got.truncate(t_to, u_to).terms, (q, a)
            assert (got.truncate(t_to, u_to).terms
                    == want.truncate(t_to, u_to).terms), (q, a)
            compared += 1
    assert compared >= 100, compared


def test_column_inverse_claims_only_what_its_input_determines():
    # a truncated series says nothing past its box, so each coefficient in
    # its inverse's box must be the same for every completion that keeps
    # the leading column (the package's convention): the input with random
    # terms added past its box and above its t-valuation, inverted exactly
    # on a wide box.
    # The Neumann loop failed this: it stopped at the first power of r
    # that its u-box left empty, as if every later power were 0.
    rng = random.Random(39)
    checked = 0
    for q in (2, 3, 5):
        desc = field_make(q, 1)
        for _ in range(30):
            t_prec, u_prec = rng.choice([(INF, 9), (7, 8), (6, INF)])
            a = rand_series(desc, rng, t_prec=t_prec, u_prec=u_prec)
            if not a.terms:
                continue
            try:
                got = a.inverse(6, 6)
            except PrecisionError:
                continue
            for _ in range(3):
                terms = dict(a.terms)
                for _ in range(3):
                    if u_prec == INF or t_prec != INF and rng.randrange(2):
                        t, u = t_prec + rng.randrange(3), rng.randrange(-3, 12)
                    else:
                        t = rng.randrange(a.t_valuation(), 8)
                        u = u_prec + rng.randrange(3)
                    terms[t, u] = rng.randrange(1, q)
                wide = LaurentSeries2(desc, terms).inverse(t_window=12,
                                                           u_window=80)
                assert agree(got, wide), (q, a, terms)
            checked += bool(got.terms)
    assert checked >= 40, checked


def pairs_series(k, rng):
    """A random series for the pairs reference: negative exponents in t and
    u, columns of one code or several, exact or truncated in either
    variable."""
    terms = {(rng.randrange(-3, 4), rng.randrange(-4, 5)): k.from_int(
        rng.randrange(1, k.q)) if k.d == 1 else k.from_coeffs(
        [rng.randrange(k.p) for _ in range(k.d)])
        for _ in range(rng.choice((0, 1, 1, 2, 4, 8)))}
    return LaurentSeries2(k, terms, rng.choice((INF, INF, -1, 0, 2, 4)),
                          rng.choice((INF, INF, -2, 0, 3, 6)))


@pytest.mark.parametrize("p, d", [(2, 1), (7, 1), (3, 2), (7, 2)])
def test_column_product_sum_and_truncation_equal_the_pairs_reference(p, d):
    # the column routes against the dict-of-pairs routes they replaced
    # (tests/reference_series.py): equal columns and equal boxes, on random
    # series and on products whose terms cancel, down to the zero series
    k = field_make(p, d)
    rng = random.Random(100 * p + d)

    def mono(t, u):
        return LaurentSeries2.monomial(k, k.one(), t, u)

    x, y = mono(1, 1), mono(1, 2)
    cases = [(x + y, x - y), (x + y, x + y), (mono(0, 0) + mono(1, 0),) * 2,
             (x, y - y), (x.truncate(3, 2), (x - y).truncate(2, 5))]
    cases += [(pairs_series(k, rng), pairs_series(k, rng)) for _ in range(150)]
    nonzero = 0
    for a, b in cases:
        assert a * b == pairs_mul(a, b), (a, b)
        assert a + b == pairs_add(a, b), (a, b)
        assert a - a == pairs_add(a, -a) and not (a - a).cols, a
        for t_to, u_to in ((INF, INF), (1, 2), (-1, INF), (INF, -3)):
            assert a.truncate(t_to, u_to) == pairs_truncate(a, t_to, u_to)
            assert a.mul(b, t_to, u_to) == pairs_truncate(
                pairs_mul(a, b), t_to, u_to), (a, b, t_to, u_to)
        nonzero += bool((a * b).cols)
    assert nonzero >= 40, nonzero
