"""Finite-field arithmetic: golden values and algebraic properties.

Golden values below were frozen from exhaustive searches (inverse tables,
root enumeration over all field elements) independent of the library code.
"""

import itertools
import operator
import random

import pytest

from adeles2d import fields
from adeles2d.fields import (
    FieldElem,
    coerce_down,
    embed,
    field_make,
    is_prime,
    pdeg,
    pmul,
    poly_factor,
    power,
    pscale,
    ptrim,
    rel_trace,
    subfield_embedding,
)
from adeles2d.surface import _one_root


def mkpoly(desc, *ints):
    return ptrim([desc.from_int(c).n for c in ints])


def peval(f, x, desc):
    """f(x) by Horner's rule, for a list f of codes and a code x."""
    acc = 0
    for c in reversed(f):
        acc = desc.add(desc.mul(acc, x), c)
    return acc


def poly_roots(f, desc):
    """Roots of f in its field with multiplicities, sorted: the linear
    factors of its full factorization, for a reference."""
    _, factors = poly_factor(f, desc)
    return sorted(((desc.neg(g[0]), m) for g, m in factors if pdeg(g) == 1),
                  key=lambda rm: desc.digits(rm[0]))


def ff_trace(a):
    """The absolute trace, to the prime field."""
    return rel_trace(a, field_make(a.desc.p, 1))


def test_field_make_basic():
    f2 = field_make(2, 1)
    assert (f2.p, f2.d, f2.q) == (2, 1, 2)
    f5 = field_make(5, 1)
    assert f5.q == 5
    # least monic irreducible quadratic over F_2 is 1 + x + x^2
    f4 = field_make(2, 2)
    assert f4.modulus == (1, 1, 1), f4.modulus
    f9 = field_make(3, 2)
    # 1 + x^2 is irreducible over F_3 (-1 is not a square mod 3)
    assert f9.modulus == (1, 0, 1), f9.modulus


def test_a_quadratic_field_over_a_large_prime_packs_by_digits():
    # 4099^1 > TABLE_MAX: the packing tables hold single digits
    k = field_make(4099, 2)
    a, b = 5000, 7000
    assert k.mul(k.mul(a, b), k.inv(b)) == a
    assert k.mul(a, k.inv(a)) == 1
    assert k.pow(a, k.q - 1) == 1


def test_field_make_rejects_bad_args():
    for bad_p in (1, 4, 6):
        try:
            field_make(bad_p, 1)
        except ValueError:
            pass
        else:
            raise AssertionError(f"field_make accepted p={bad_p}")
    try:
        field_make(2, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("field_make accepted d=0")


def test_f5_division_golden():
    f5 = field_make(5, 1)
    two = f5.from_int(2)
    one = f5.one()
    assert two / one == two
    # frozen from inverse table: 2 * 3 = 6 = 1 mod 5
    assert one / two == f5.from_int(3)


def test_f4_generator_square():
    f4 = field_make(2, 2)
    a = f4.gen()
    # modulo x^2 + x + 1: a^2 = a + 1
    assert (a * a).coeffs == (1, 1), (a * a).coeffs
    assert a * a == a + f4.one()


def test_division_by_zero_raises():
    f5 = field_make(5, 1)
    try:
        f5.one() / f5.zero()
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("division by zero did not raise")


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_elements_of_two_fields_do_not_mix(op):
    # F_4's and F_3's codes are also codes of F_9, so without the check the
    # operation would read them as F_9's elements
    f9 = field_make(3, 2)
    a = f9.gen()
    for other in (field_make(2, 2).gen(), field_make(3, 1).from_int(2)):
        for x, y in ((a, other), (other, a)):
            with pytest.raises(ValueError, match="mismatched fields"):
                op(x, y)
    # an equal field that is another object is the same field
    twin = fields.FieldDesc(f9.p, f9.d, f9.modulus)
    assert op(a, FieldElem(twin, f9.one().n)) == op(a, f9.one())


def test_trace_golden():
    f4 = field_make(2, 2)
    f2 = field_make(2, 1)
    assert ff_trace(f4.one()) == f2.zero()
    # tr(a) = a + a^2 = a + (a + 1) = 1
    assert ff_trace(f4.gen()) == f2.one()
    f5 = field_make(5, 1)
    assert ff_trace(f5.from_int(3)) == f5.from_int(3)


def test_frobenius_is_additive():
    rng = random.Random(4)
    for p, d in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
        desc = field_make(p, d)
        for _ in range(40):
            a = desc.from_coeffs([rng.randrange(p) for _ in range(d)])
            b = desc.from_coeffs([rng.randrange(p) for _ in range(d)])
            assert (a + b) ** p == a ** p + b ** p


def test_trace_is_linear_and_surjective():
    for p, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (5, 4)]:
        desc = field_make(p, d)
        prime = field_make(p, 1)
        rng = random.Random(100 * p + d)
        for _ in range(25):
            a = desc.from_coeffs([rng.randrange(p) for _ in range(d)])
            b = desc.from_coeffs([rng.randrange(p) for _ in range(d)])
            c = rng.randrange(p)
            lhs = ff_trace(desc.from_int(c) * a + b)
            rhs = prime.from_int(c) * ff_trace(a) + ff_trace(b)
            assert lhs == rhs, (p, d, c, a.coeffs, b.coeffs)
        image = {ff_trace(a).coeffs[0] for a in desc.elems()}
        assert image == set(range(p)), (p, d, image)


def test_every_nonzero_element_inverts():
    for p, d in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2)]:
        desc = field_make(p, d)
        for a in desc.elems():
            if a.is_zero():
                continue
            assert a * a.inverse() == desc.one(), (p, d, a.coeffs)


def test_euclidean_inverse_matches_fermat_above_the_table_limit():
    """Fields without log tables invert by the extended Euclidean algorithm
    on the coefficient vector; Fermat's a^(q-2) is the reference."""
    rng = random.Random(2026)
    for p, d in [(5, 6), (7, 6), (2, 13), (3, 9)]:
        desc = field_make(p, d)
        assert desc._log is None, (p, d)
        for _ in range(2000):
            n = rng.randrange(1, desc.q)
            assert desc.inv(n) == power(n, desc.q - 2, desc._vec_mul), \
                (p, d, n)
        # the constants invert inside the prime field
        assert desc.inv(1) == 1 and desc.mul(desc.inv(p - 1), p - 1) == 1


def test_poly_factor_golden():
    f5 = field_make(5, 1)
    unit, factors = poly_factor(mkpoly(f5, 1, 0, 1), f5)  # x^2 + 1
    assert unit == f5.one().n
    assert [(pdeg(g), [f5.digits(c)[0] for c in g], m) for g, m in factors] == [
        (1, [2, 1], 1),  # x + 2
        (1, [3, 1], 1),  # x + 3
    ]

    f2 = field_make(2, 1)
    unit, factors = poly_factor(mkpoly(f2, 1, 1, 1), f2)  # x^2 + x + 1
    assert len(factors) == 1 and factors[0][1] == 1
    assert pdeg(factors[0][0]) == 2

    f3 = field_make(3, 1)
    unit, factors = poly_factor(mkpoly(f3, 0, 0, 1), f3)  # x^2
    assert len(factors) == 1
    g, m = factors[0]
    assert (pdeg(g), m) == (1, 2)
    assert g[0] == 0  # the factor is x itself


def test_poly_factor_roundtrip_random():
    """unit * prod(factor^mult) reproduces the input exactly."""
    cases = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
    rng = random.Random(2024)
    per_field = 40  # 5 fields x 40 = 200 polynomials
    for p, d in cases:
        desc = field_make(p, d)
        for _ in range(per_field):
            deg = rng.randrange(1, 9)
            coeffs = [desc.from_coeffs([rng.randrange(p) for _ in range(d)]).n
                      for _ in range(deg + 1)]
            f = ptrim(coeffs)
            if pdeg(f) < 1:
                continue
            unit, factors = poly_factor(f, desc)
            prod = [1]
            for g, m in factors:
                for _ in range(m):
                    prod = pmul(prod, g, desc)
            prod = pscale(prod, unit, desc)
            assert prod == f, (p, d, f)


def _rootless(desc, deg):
    """The first monic polynomial of degree deg (2 or 3) in code order with
    no root in the field, hence irreducible."""
    for low in itertools.product(range(desc.q), repeat=deg):
        f = list(low) + [1]
        if all(peval(f, x, desc) for x in range(desc.q)):
            return f
    raise AssertionError(f"no irreducible of degree {deg} over {desc}")


@pytest.mark.parametrize("q", [5, 9])
def test_poly_factor_draws_only_to_split(q, monkeypatch):
    # only the equal-degree split of a part with two or more factors draws,
    # so a linear, an irreducible and a distinct-degree-only polynomial
    # factor with no generator, to the factors found with one
    desc = field_make(*{5: (5, 1), 9: (3, 2)}[q])
    linear = [1, 1]
    quad, cubic = _rootless(desc, 2), _rootless(desc, 3)
    distinct = pmul(pmul(linear, quad, desc), cubic, desc)
    cases = [(linear, [1]), (quad, [2]), (cubic, [3]),
             (distinct, [1, 2, 3])]
    want = [poly_factor(f, desc) for f, _degrees in cases]

    class Drawn(Exception):
        pass

    def no_generator(*_args):
        raise Drawn

    monkeypatch.setattr(fields.random, "Random", no_generator)
    for (f, degrees), before in zip(cases, want):
        unit, factors = poly_factor(f, desc)
        assert [(pdeg(g), m) for g, m in factors] == [(d, 1) for d in degrees]
        assert (unit, factors) == before
    with pytest.raises(Drawn):  # two linear factors: a split draws
        poly_factor(pmul(linear, [2, 1], desc), desc)


def test_split_draws_are_bounded():
    # a generator whose every draw is the zero polynomial splits nothing:
    # _split stops after _SPLIT_DRAWS draws with BudgetExceeded, naming
    # the polynomial, the degree of its factors and the field
    desc = field_make(3, 2)
    f = pmul([1, 1], [2, 1], desc)
    draws = []

    class Useless:
        def randrange(self, n):
            draws.append(n)
            return 0

    with pytest.raises(fields.BudgetExceeded) as err:
        fields._split(f, 1, desc, [Useless()])
    # one randrange per digit of each code of a draw
    assert len(draws) == fields._SPLIT_DRAWS * pdeg(f) * desc.d
    text = str(err.value)
    for part in (f"{fields._SPLIT_DRAWS} Cantor-Zassenhaus draws",
                 f"degree 1 off {f}", repr(desc)):
        assert part in text, (part, text)


def test_poly_factor_is_deterministic():
    f5 = field_make(5, 1)
    f = mkpoly(f5, 2, 0, 3, 0, 0, 1, 1)
    first = poly_factor(f, f5)
    second = poly_factor(f, f5)
    assert [(tuple(g), m) for g, m in first[1]] == [
        (tuple(g), m) for g, m in second[1]
    ]


def test_poly_roots_match_evaluation():
    rng = random.Random(7)
    for p, d in [(3, 1), (5, 1), (2, 2)]:
        desc = field_make(p, d)
        for _ in range(20):
            deg = rng.randrange(1, 6)
            f = ptrim([desc.from_coeffs([rng.randrange(p) for _ in range(d)]).n
                       for _ in range(deg + 1)])
            if pdeg(f) < 1:
                continue
            roots = {desc.digits(r) for r, _ in poly_roots(f, desc)}
            brute = {a.coeffs for a in desc.elems() if peval(f, a.n, desc) == 0}
            assert roots == brute, (p, d, f)


def test_embedding_is_ring_homomorphism():
    sub = field_make(2, 2)
    sup = field_make(2, 4)
    rng = random.Random(11)
    for _ in range(30):
        a = sub.from_coeffs([rng.randrange(2) for _ in range(2)])
        b = sub.from_coeffs([rng.randrange(2) for _ in range(2)])
        assert embed(a + b, sup) == embed(a, sup) + embed(b, sup)
        assert embed(a * b, sup) == embed(a, sup) * embed(b, sup)
        assert coerce_down(embed(a, sup), sub) == a


def test_code_lists_move_up_a_tower_through_the_embedding():
    # code lists carry no field, so a polynomial over F_{p^2} is embedded
    # code by code before it is solved in F_{p^4}
    for p in (2, 3):
        sub, sup = field_make(p, 2), field_make(p, 4)
        g = subfield_embedding(sub, sup)
        assert peval(list(sub.modulus), g, sup) == 0
        for c in range(1, sub.q):
            irr = [c, 0, 1]  # x^2 + c
            if poly_roots(irr, sub):
                continue
            root = _one_root(irr, sub)
            assert root.desc == sup
            assert peval([embed(FieldElem(sub, n), sup).n for n in irr],
                         root.n, sup) == 0


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_one_root_finds_a_root_by_splitting_alone(p, d, monkeypatch):
    # irreducibles of degree 2 to 6 over F_2, F_3, F_4 and F_9: _one_root
    # splits each in its splitting field and keeps one part each time,
    # never factoring it outright
    from adeles2d import surface

    sub = field_make(p, d)
    rng = random.Random(p * 10 + d)
    cases = []
    for deg in range(2, 7):
        while len(cases) < 3 * (deg - 1):
            irr = [rng.randrange(sub.q) for _ in range(deg)] + [1]
            if fields._is_irreducible(irr, sub):
                cases.append((irr, field_make(p, d * deg)))
    for irr, _sup in cases:  # the embeddings factor moduli, once per field
        _one_root(irr, sub)

    def refused(*_args):
        raise AssertionError("factored outright")

    for module in (fields, surface):
        for name in ("poly_factor", "poly_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    for irr, sup in cases:
        root = _one_root(irr, sub)
        assert root.desc == sup
        assert peval([embed(FieldElem(sub, n), sup).n for n in irr],
                     root.n, sup) == 0, (irr, root)


def test_relative_trace_tower():
    # trace is transitive: tr_{F16/F2} = tr_{F4/F2} o tr_{F16/F4}
    mid = field_make(2, 2)
    top = field_make(2, 4)
    for a in top.elems():
        via_mid = ff_trace(rel_trace(a, mid))
        assert ff_trace(a) == via_mid, a.coeffs


# ---------------------------------------------------------------------------
# the element kernel against schoolbook arithmetic on coefficient tuples


def ref_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def ref_neg(a, p):
    return tuple((-x) % p for x in a)


def ref_mul(a, b, modulus, p):
    """Schoolbook product, then long division by the monic modulus."""
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k] % p
        for j in range(d + 1):
            prod[k - d + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:d])


def ref_pow(a, e, modulus, p):
    result = (1,) + (0,) * (len(a) - 1)
    for _ in range(e):
        result = ref_mul(result, a, modulus, p)
    return result


def check_elements(desc, pairs, exponents):
    p, m = desc.p, desc.modulus
    one = desc.one().coeffs
    for a, b in pairs:
        x, y = a.coeffs, b.coeffs
        assert (a + b).coeffs == ref_add(x, y, p), (desc, x, y)
        assert (a - b).coeffs == ref_add(x, ref_neg(y, p), p), (desc, x, y)
        assert (-a).coeffs == ref_neg(x, p), (desc, x)
        assert (a * b).coeffs == ref_mul(x, y, m, p), (desc, x, y)
        if a:
            assert ref_mul(x, a.inverse().coeffs, m, p) == one, (desc, x)
        for e in exponents:
            assert (a ** e).coeffs == ref_pow(x, e, m, p), (desc, x, e)
        if a:
            assert a ** -2 == (a * a).inverse(), (desc, x)


def test_kernel_matches_schoolbook_on_small_fields():
    """Every pair of elements of every field with at most 81 elements."""
    for q in range(2, 82):
        p = next(r for r in range(2, q + 1) if q % r == 0)
        d = 1
        while p ** d < q:
            d += 1
        if p ** d != q:
            continue
        desc = field_make(p, d)
        elems = list(desc.elems())
        pairs = [(a, b) for a in elems for b in elems]
        check_elements(desc, pairs, ())
        check_elements(desc, [(a, a) for a in elems], (0, 1, 2, q - 1, q))


def test_kernel_matches_schoolbook_on_large_fields():
    """Random pairs in fields with log tables (2^12, 3^7) and without."""
    rng = random.Random(1990)
    for p, d in [(2, 12), (3, 7), (5, 6), (7, 6)]:
        desc = field_make(p, d)
        rand = lambda: desc.from_coeffs([rng.randrange(p) for _ in range(d)])
        pairs = [(rand(), rand()) for _ in range(2000)]
        pairs[0] = (desc.zero(), pairs[0][1])
        pairs[1] = (pairs[1][0], desc.zero())
        check_elements(desc, pairs, (rng.randrange(8),))
        for a, _ in pairs[2:50]:
            assert a ** (desc.q - 1) == desc.one()


def test_elements_keep_their_coefficient_tuples():
    f9 = field_make(3, 2)
    # elems() runs through the codes: the constant digit varies fastest
    assert [a.coeffs for a in f9.elems()][:5] == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    a = f9.from_coeffs([2, 1])
    assert a.coeffs == (2, 1) and a.sort_key() == (2, 1)
    assert repr(a) == "[2,1]" and repr(f9.from_int(5)) == "[2,0]"
    assert f9.gen().coeffs == (0, 1)
    f7 = field_make(7, 1)
    assert f7.from_int(10).coeffs == (3,) and repr(f7.from_int(10)) == "3"
    f64 = field_make(2, 6)
    for a in f64.elems():
        assert f64.from_coeffs(a.coeffs) == a
    keys = [a.sort_key() for a in f64.elems()]
    assert sorted(keys) == sorted(set(keys)) and len(keys) == 64
    # coefficient tuples order lexicographically, constant term first
    assert sorted(f9.elems(), key=lambda a: a.sort_key())[:3] == [
        f9.zero(), f9.gen(), f9.from_coeffs([0, 2])]


def _towers(limit=10 ** 7):
    """Every tower (p, a, b, c): F_p^a < F_p^b < F_p^c, p^c <= limit."""
    out = []
    for p in (n for n in range(2, 60) if is_prime(n)):
        for c in range(4, 64):
            if p ** c > limit:
                break
            out += [(p, a, b, c) for b in range(2, c) if c % b == 0
                    for a in range(1, b) if b % a == 0]
    return out


def _tower_codes(towers, descending):
    """For each tower (p, a, b, c), the codes in F_p^c of F_p^a's generator
    embedded directly and through F_p^b; the generator fixes a whole
    embedding.  The towers, the fields of each and the two embeddings are
    taken in order of degree, ascending or descending."""
    out = {}
    for p, a, b, c in sorted(towers, key=lambda t: t[::-1],
                             reverse=descending):
        degrees = (c, b, a) if descending else (a, b, c)
        built = {d: field_make(p, d) for d in degrees}
        sub, mid, sup = built[a], built[b], built[c]
        g = sub.gen()
        if descending:
            direct = embed(g, sup).n
            via = embed(embed(g, mid), sup).n
        else:
            via = embed(embed(g, mid), sup).n
            direct = embed(g, sup).n
        out[p, a, b, c] = (direct, via)
    return out


def test_embeddings_compose_on_every_tower_in_any_build_order(monkeypatch):
    towers = _towers()
    assert len(towers) == 93 and max(p for p, *_ in towers) == 53
    # a fresh field cache gives each order new descriptors, whose
    # embedding caches it fills
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    up = _tower_codes(towers, descending=False)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    down = _tower_codes(towers, descending=True)
    assert up == down
    for tower, (direct, via) in up.items():
        assert via == direct, tower


@pytest.mark.parametrize("p, a, b, c", [
    (3, 2, 4, 8), (2, 2, 4, 8), (2, 3, 6, 12), (2, 2, 6, 12), (5, 1, 2, 4)])
def test_elements_move_up_and_down_a_tower(p, a, b, c):
    sub, mid, sup = (field_make(p, d) for d in (a, b, c))
    for x in sub.elems():
        y = embed(embed(x, mid), sup)
        assert y == embed(x, sup), x
        assert coerce_down(y, mid) == embed(x, mid), x
        assert coerce_down(y, sub) == x, x


@pytest.mark.parametrize("q", [4, 8, 9])
def test_a_field_of_prime_degree_embeds_by_the_least_root(q):
    # F_4, F_8 and F_9 have no intermediate field, so nothing constrains
    # their embeddings: they stay the least roots, which fix printed codes
    sub = field_make(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}[q])
    for k in (2, 3, 4):
        sup = field_make(sub.p, sub.d * k)
        least = poly_roots(list(sub.modulus), sup)[0][0]
        assert subfield_embedding(sub, sup) == least, (q, k)
