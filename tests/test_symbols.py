"""Symbols at flags, ideles, and the two intersection-number routes."""

import itertools
import random

import pytest

from adeles2d.fields import field_make, pmul, poly_roots, ptrim
from adeles2d.multipoly import MPoly
from adeles2d import surface, symbols
from adeles2d.cli import CUBIC_BY_P, CUBIC_DEFAULT, FIXTURES
from adeles2d.series import INF, LaurentSeries2
from adeles2d.surface import (
    Divisor,
    RationalFunction,
    curve_make,
    divisor_class,
    expand_at_flag,
    flag_make,
    intersection_support,
    ord_on_curve,
    point_from_coords,
    surface_make,
)
from adeles2d.symbols import (
    IdeleRule,
    QPower,
    class_intersection,
    commutator_pairing,
    intersection_flags,
    intersection_number,
    intersection_oracle,
    symbol_at_flag,
    _root_order,
)
from test_series import ls2_valuation


def mk(desc, terms, t_prec=INF, u_prec=INF):
    return LaurentSeries2(desc, {k: desc.from_int(v) for k, v in terms.items()},
                          t_prec, u_prec)


def rand_invertible(desc, rng):
    """unit * t^a u^b with a known-invertible unit part."""
    terms = {(0, 0): desc.one()}
    for _ in range(4):
        i = rng.randrange(0, 3)
        j = rng.randrange(0, 3)
        if (i, j) == (0, 0):
            continue
        terms[(i, j)] = desc.from_coeffs(
            [rng.randrange(desc.p) for _ in range(desc.d)])
    f = LaurentSeries2(desc, terms, INF, INF)
    return f * LaurentSeries2.monomial(desc, desc.one(), rng.randrange(-3, 4),
                                       rng.randrange(-3, 4))


# ---------------------------------------------------------------------------
# the rank-2 valuation and the symbol built on it


def test_ls2_valuation_is_a_homomorphism():
    # (v_t, w) adds over products, which makes the determinant
    # b w(f) - a w(g) of symbol_at_flag antisymmetric and bimultiplicative
    rng = random.Random(71)
    f3 = field_make(3, 1)
    f5 = field_make(5, 1)
    for trial in range(100):
        desc = f3 if trial % 2 else f5
        f = rand_invertible(desc, rng)
        g = rand_invertible(desc, rng)
        (ft, fu), (gt, gu) = ls2_valuation(f), ls2_valuation(g)
        assert ls2_valuation(f * g) == (ft + gt, fu + gu), (trial, f, g)
    t = mk(f5, {(1, 0): 1})
    u = mk(f5, {(0, 1): 1})
    assert (ls2_valuation(t), ls2_valuation(u)) == ((1, 0), (0, 1))


def _origin_on_y():
    """The flag ((0:0:1), Y) on P2 over F_5, where t = Y/Z and u = X/Z,
    and a factor list for each polynomial text over Z^n."""
    S = surface_make("P2", 5)
    fl = flag_make(point_from_coords(
        S, (S.base.zero(), S.base.zero(), S.base.one())), S.lines["Y"])
    Z = S.lines["Z"].poly

    def over_z(text, n=1):
        return [(surface.parse_poly(S, text), 1), (Z, -n)]
    return fl, over_z


def test_tame_symbol_parameter_against_unit_coordinate():
    # (t, u) is u^-1 mod t up to sign, of u-valuation -1
    fl, over_z = _origin_on_y()
    t, u = over_z("Y"), over_z("X")
    assert (fl.u_index, symbol_at_flag(t, u, fl)) == (0, -1)
    assert symbol_at_flag(u, t, fl) == 1


def test_tame_symbol_of_parameter_with_itself():
    # (t, t) is -1, a unit
    fl, over_z = _origin_on_y()
    t = over_z("Y")
    assert symbol_at_flag(t, t, fl) == 0
    assert symbol_at_flag(t + t, t, fl) == 0


def test_tame_symbol_of_two_units():
    # 1 + 2t + 3u and 4 + tu are units of k[[u]][[t]]; u^2 + t is a t-unit
    # of u-valuation 2
    fl, over_z = _origin_on_y()
    f = over_z("Z+2Y+3X")
    g = over_z("4Z^2+XY", 2)
    assert symbol_at_flag(f, g, fl) == 0
    assert symbol_at_flag(over_z("Y"), over_z("X^2+YZ", 2), fl) == -2


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_symbol_at_flag_antisymmetric_and_bimultiplicative(model):
    rng = random.Random(73)
    S = surface_make(model, 5)
    names = [n for n in FIXTURES[model].bezout if n != "cubic"]
    curves = [curve_make(S, t) for t in names]
    seen = 0
    for C, H in itertools.combinations(curves, 2):
        for fl in intersection_flags(Divisor(S, {C: 1}), Divisor(S, {H: 1})):
            f, g, h = ([(D.poly, rng.randrange(-2, 3)) for D in curves]
                       for _ in range(3))
            fg = symbol_at_flag(f, g, fl)
            assert fg == -symbol_at_flag(g, f, fl), (names, fl, f, g)
            assert symbol_at_flag(f + h, g, fl) == \
                fg + symbol_at_flag(h, g, fl), (names, fl, f, g, h)
            seen += 1
    assert seen >= 10


# ---------------------------------------------------------------------------
# idele choosers


def as_function(S, factors):
    """The factors (P, e) multiplied out into one numerator and one
    denominator polynomial."""
    num = den = S.var(0) ** 0
    for P, e in factors:
        if e > 0:
            num = num * P ** e
        else:
            den = den * P ** -e
    return RationalFunction(S, num, den)


def origin_flag(S, curve):
    return flag_make(point_from_coords(
        S, (S.base.zero(), S.base.zero(), S.base.one())), curve)


def test_idele_chooser_along_a_line():
    S = surface_make("P2", 5)
    Y = curve_make(S, "Y")
    Z = curve_make(S, "Z")
    rule = IdeleRule("along_curves", Divisor(S, {Y: 1}))
    chosen = rule.local(origin_flag(S, Y))
    assert chosen == [(Y.poly, 1), (Z.poly, -1)]
    assert as_function(S, chosen) == RationalFunction(S, Y.poly, Z.poly)


def test_idele_chooser_of_zero_divisor_is_one():
    S = surface_make("P2", 5)
    Y = curve_make(S, "Y")
    rule = IdeleRule("along_curves", Divisor(S, {}))
    chosen = rule.local(origin_flag(S, Y))
    one = RationalFunction(S, S.var(2) ** 0, S.var(2) ** 0)
    assert chosen == []
    assert as_function(S, chosen) == one


def test_idele_chooser_is_multiplicative():
    S = surface_make("P2", 5)
    Y = curve_make(S, "Y")
    X = curve_make(S, "X")
    fl = origin_flag(S, Y)
    single = IdeleRule("along_curves", Divisor(S, {Y: 1})).local(fl)
    double = IdeleRule("along_curves", Divisor(S, {Y: 2})).local(fl)
    assert as_function(S, double) == as_function(S, single + single)
    combined = IdeleRule("along_curves", Divisor(S, {Y: 1, X: 1}))
    assert combined.local(fl) == single


def test_idele_point_chooser_collects_components_through_the_point():
    S = surface_make("P2", 5)
    X = curve_make(S, "X")
    Y = curve_make(S, "Y")
    Z = curve_make(S, "Z")
    rule = IdeleRule("at_points", Divisor(S, {X: 1, Y: 1}))
    chosen = rule.local(origin_flag(S, Y))
    expected = RationalFunction(S, X.poly * Y.poly, Z.poly * Z.poly)
    assert as_function(S, chosen) == expected
    away = flag_make(point_from_coords(
        S, (S.base.one(), S.base.one(), S.base.zero())), Z)
    assert rule.local(away) == []


# ---------------------------------------------------------------------------
# commutator pairing


def test_commutator_pairing_of_two_lines():
    S = surface_make("P2", 5)
    X = Divisor(S, {curve_make(S, "X"): 1})
    Y = Divisor(S, {curve_make(S, "Y"): 1})
    g1 = IdeleRule("at_points", X)
    g2 = IdeleRule("along_curves", Y)
    flags = intersection_flags(X, Y)
    assert len(flags) == 1
    assert commutator_pairing(g1, g2, flags) == QPower(-1)


def test_commutator_pairing_with_zero_divisor():
    S = surface_make("P2", 5)
    X = Divisor(S, {curve_make(S, "X"): 1})
    Y = Divisor(S, {curve_make(S, "Y"): 1})
    flags = intersection_flags(X, Y)
    g1 = IdeleRule("at_points", X)
    g2 = IdeleRule("along_curves", Divisor(S, {}))
    assert commutator_pairing(g1, g2, flags) == QPower(0)


def test_commutator_pairing_conic_against_lines():
    S = surface_make("P2", 5)
    conic = Divisor(S, {curve_make(S, "YZ-X^2"): 1})
    transversal = Divisor(S, {curve_make(S, "X"): 1})
    tangent = Divisor(S, {curve_make(S, "Y"): 1})
    g1 = IdeleRule("at_points", conic)
    crossing = commutator_pairing(
        g1, IdeleRule("along_curves", transversal),
        intersection_flags(conic, transversal))
    touching = commutator_pairing(
        g1, IdeleRule("along_curves", tangent),
        intersection_flags(conic, tangent))
    assert len(intersection_flags(conic, transversal)) == 2
    assert len(intersection_flags(conic, tangent)) == 1
    assert crossing == QPower(-2)
    assert touching == QPower(-2)


def test_commutator_pairing_of_a_rule_with_itself():
    S = surface_make("P2", 5)
    X = Divisor(S, {curve_make(S, "X"): 1})
    Y = Divisor(S, {curve_make(S, "Y"): 1})
    flags = intersection_flags(X, Y)
    g = IdeleRule("at_points", X)
    assert commutator_pairing(g, g, flags) == QPower(0)


def test_the_commutator_pairing_forms_no_polynomial_power(monkeypatch):
    S = surface_make("P2", 5)
    names = [CUBIC_BY_P.get(5, CUBIC_DEFAULT) if n == "cubic" else n
             for n in FIXTURES["P2"].bezout]
    pairs = []
    for C, H in itertools.combinations([curve_make(S, t) for t in names], 2):
        C, H = Divisor(S, {C: 1}), Divisor(S, {H: 1})
        pairs.append((C, H, intersection_oracle(C, H)))

    def no_power(self, n):
        raise AssertionError("a polynomial power was formed")

    monkeypatch.setattr(MPoly, "__pow__", no_power)
    for C, H, want in pairs:
        got = commutator_pairing(IdeleRule("at_points", C),
                                 IdeleRule("along_curves", H),
                                 intersection_flags(C, H))
        assert got == QPower(-want), (C, H)
    assert len(pairs) == 15


# ---------------------------------------------------------------------------
# the symbol at a flag of two rational functions


def power_product_symbol(f, g, fl, window=8):
    """The symbol read the long way: multiply the factors of h = f^b g^-a
    out into one numerator and one denominator, with a = v_t(f) and
    b = v_t(g) read off the same products, expand h at the flag, and take
    the u-valuation of its t^0 column (min() raises if the window hides
    it)."""
    S = fl.curve.surface
    a = ord_on_curve(as_function(S, f), fl.curve)
    b = ord_on_curve(as_function(S, g), fl.curve)
    h = as_function(S, [(P, b * e) for P, e in f]
                    + [(P, -a * e) for P, e in g])
    return min(u for t, u in expand_at_flag(h, fl, window).terms if t == 0)


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [3, 5])
def test_symbol_at_flag_matches_the_power_product(model, q):
    S = surface_make(model, q)
    cubic = CUBIC_BY_P.get(q, CUBIC_DEFAULT)
    names = [cubic if n == "cubic" else n for n in FIXTURES[model].bezout]
    curves = [curve_make(S, t) for t in names]
    seen = 0
    for C, H in itertools.combinations(curves, 2):
        C, H = Divisor(S, {C: 1}), Divisor(S, {H: 1})
        for fl in intersection_flags(C, H):
            f = IdeleRule("at_points", C).local(fl)
            g = IdeleRule("along_curves", H).local(fl)
            # (f g, g^2) has both t-valuations nonzero
            for x, y in ((f, g), (f + g, g + g)):
                want = power_product_symbol(x, y, fl)
                assert symbol_at_flag(x, y, fl) == want, (names, fl, x, y)
                assert symbol_at_flag(y, x, fl) == -want, (names, fl, x, y)
                seen += 1
    assert seen >= 20


def test_symbol_of_a_unit_with_itself_and_of_zero():
    S = surface_make("P2", 3)
    fl = flag_make(point_from_coords(
        S, (S.base.zero(), S.base.zero(), S.base.one())), curve_make(S, "Y"))
    f = [(S.var(0), 1), (S.var(2), -1)]
    assert symbol_at_flag(f, f, fl) == 0
    zero = [(S.zero_poly(), 1), (S.var(2), -1)]
    with pytest.raises(ValueError, match="zero polynomial"):
        symbol_at_flag(zero, f, fl)


def test_symbol_at_flag_reuses_the_flag_cache(monkeypatch):
    S = surface_make("P2", 5)
    conic = Divisor(S, {curve_make(S, "YZ-X^2"): 1})
    tangent = Divisor(S, {curve_make(S, "Y"): 1})
    fl, = intersection_flags(conic, tangent)
    f = IdeleRule("at_points", conic).local(fl)
    g = IdeleRule("along_curves", tangent).local(fl)
    assert symbol_at_flag(f, g, fl) == 2
    before = dict(fl._cache)

    def recomputed(*args):
        raise AssertionError(f"recomputed {args!r}")

    monkeypatch.setattr(surface, "expand_poly_at_flag", recomputed)
    monkeypatch.setattr(surface, "_poly_ord", recomputed)
    monkeypatch.setattr(surface, "_branch", recomputed)
    assert symbol_at_flag(f, g, fl) == 2
    assert symbol_at_flag(g, f, fl) == -2
    assert fl._cache.keys() == before.keys()


# ---------------------------------------------------------------------------
# intersection numbers, symbol route vs classical route


def test_intersection_number_of_two_lines():
    S = surface_make("P2", 5)
    X = Divisor(S, {curve_make(S, "X"): 1})
    Y = Divisor(S, {curve_make(S, "Y"): 1})
    assert intersection_number(X, Y) == 1
    assert intersection_oracle(X, Y) == 1


def test_intersection_number_line_conic():
    S = surface_make("P2", 5)
    conic = Divisor(S, {curve_make(S, "YZ-X^2"): 1})
    transversal = Divisor(S, {curve_make(S, "X"): 1})
    tangent = Divisor(S, {curve_make(S, "Y"): 1})
    assert intersection_number(conic, transversal) == 2
    assert intersection_number(conic, tangent) == 2
    assert intersection_oracle(conic, transversal) == 2
    assert intersection_oracle(conic, tangent) == 2


def test_intersection_number_weights_higher_degree_points():
    # the conic meets this line in a single closed point of degree two
    S = surface_make("P2", 3)
    conic = curve_make(S, "YZ-X^2")
    line = curve_make(S, "Z-2Y")
    pts = intersection_support(conic, line)
    assert [p.degree for p in pts] == [2]
    C = Divisor(S, {conic: 1})
    H = Divisor(S, {line: 1})
    assert intersection_number(C, H) == 2
    assert intersection_oracle(C, H) == 2


CUBIC_BY_Q = {2: "X^3+Y^2Z+YZ^2", 3: "Y^2Z-X^3+XZ^2", 5: "Y^2Z-X^3-XZ^2"}


def test_symbol_route_matches_oracle_on_plane_fixtures():
    for q in (2, 3, 5):
        S = surface_make("P2", q)
        names = ["X", "Y", "X+Y+Z", "YZ-X^2", "XY-Z^2", CUBIC_BY_Q[q]]
        curves = [curve_make(S, t) for t in names]
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                C = Divisor(S, {curves[i]: 1})
                H = Divisor(S, {curves[j]: 1})
                got = intersection_number(C, H)
                want = intersection_oracle(C, H)
                assert got == want, (q, names[i], names[j], got, want)
                assert want == class_intersection(
                    S, divisor_class(C), divisor_class(H)), \
                    (q, names[i], names[j])


def test_symbol_route_matches_oracle_on_quadric_fixtures():
    for q in (2, 3, 5):
        S = surface_make("P1xP1", q)
        names = ["X1", "X0", "Y1", "X0Y1-X1Y0", "X0Y0-X1Y1"]
        curves = [curve_make(S, t) for t in names]
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                C = Divisor(S, {curves[i]: 1})
                H = Divisor(S, {curves[j]: 1})
                want = intersection_oracle(C, H)
                assert want == class_intersection(
                    S, divisor_class(C), divisor_class(H)), \
                    (q, names[i], names[j])
                if not intersection_support(curves[i], curves[j]):
                    assert want == 0, (q, names[i], names[j])
                    continue
                got = intersection_number(C, H)
                assert got == want, (q, names[i], names[j], got, want)


def test_intersection_bilinear_in_each_divisor():
    S = surface_make("P2", 3)
    X = curve_make(S, "X")
    conic = curve_make(S, "YZ-X^2")
    H = Divisor(S, {curve_make(S, "X+Y+Z"): 1})
    both = Divisor(S, {X: 2, conic: 1})
    total = intersection_number(both, H)
    parts = (2 * intersection_number(Divisor(S, {X: 1}), H)
             + intersection_number(Divisor(S, {conic: 1}), H))
    assert total == parts == intersection_oracle(both, H)
    a = divisor_class(both)
    b = divisor_class(H)
    assert class_intersection(S, a, b) == total


def test_class_intersection_values():
    P2 = surface_make("P2", 5)
    assert class_intersection(P2, (2,), (3,)) == 6
    Q = surface_make("P1xP1", 5)
    assert class_intersection(Q, (1, 0), (0, 1)) == 1
    assert class_intersection(Q, (1, 0), (1, 0)) == 0
    assert class_intersection(Q, (2, 1), (1, 3)) == 7


# pairs of plane curves where the second is singular at a point they share
SINGULAR_SECOND_CURVES = [
    (4, "X^2+XY+Z^2", "X^2Y+XZ^2+Z^3"),
    (5, "4XY+2XZ+Y^2+4YZ+4Z^2",
     "2X^3+X^2Y+X^2Z+2XY^2+4XZ^2+4Y^2Z+YZ^2+2Z^3"),
]


@pytest.mark.parametrize("q, first, second", SINGULAR_SECOND_CURVES)
def test_intersection_number_takes_a_singular_second_curve(q, first, second):
    S = surface_make("P2", q)
    C = Divisor(S, {curve_make(S, first): 1})
    H = Divisor(S, {curve_make(S, second): 1})
    with pytest.raises(ValueError, match="singular"):
        intersection_flags(C, H)
    want = intersection_oracle(C, H)
    assert want == 6
    assert intersection_number(C, H) == want
    assert intersection_number(H, C) == want


def test_intersection_number_names_a_point_singular_on_both_sides():
    S = surface_make("P2", 5)
    C = Divisor(S, {curve_make(S, "Y^2Z - X^3 - X^2Z"): 1})
    H = Divisor(S, {curve_make(S, "Y^2Z - X^3 - 2X^2Z"): 1})
    with pytest.raises(ValueError, match=r"singular at \(0:0:1\)"):
        intersection_number(C, H)


def test_intersection_number_rejects_shared_components():
    S = surface_make("P2", 5)
    X = curve_make(S, "X")
    Y = curve_make(S, "Y")
    C = Divisor(S, {X: 1, Y: 1})
    H = Divisor(S, {Y: 1})
    try:
        intersection_number(C, H)
    except ValueError as err:
        assert "class" in str(err)
    else:
        raise AssertionError("shared component was not rejected")


def test_oracle_falls_back_to_classes_on_shared_components():
    S = surface_make("P2", 5)
    X = curve_make(S, "X")
    Y = curve_make(S, "Y")
    C = Divisor(S, {X: 1, Y: 1})
    H = Divisor(S, {Y: 1})
    assert intersection_oracle(C, H) == 2
    Q = surface_make("P1xP1", 3)
    F1 = curve_make(Q, "X1")
    assert intersection_oracle(
        Divisor(Q, {F1: 1}), Divisor(Q, {F1: 1})) == 0


def test_oracle_reads_each_chart_off_one_resultant(monkeypatch):
    # over F_5 the conic and the cubic meet in (0:0:1) and a point of
    # degree 3 in the first chart, and in (0:1:0), of multiplicity 2
    S = surface_make("P2", 5)
    C, H = curve_make(S, "YZ-X^2"), curve_make(S, "Y^2Z-X^3-XZ^2")
    pts = intersection_support(C, H)
    groups = [[pt for pt in pts if next(
        ch for ch in S.charts if ch.contains(pt.coords)) is chart]
        for chart in S.charts]
    assert [[pt.degree for pt in g] for g in groups] == [[1, 3], [1], []]
    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    real = symbols.resultant_elim
    monkeypatch.setattr(symbols, "resultant_elim", counted)
    got = intersection_oracle(Divisor(S, {C: 1}), Divisor(S, {H: 1}))
    assert got == class_intersection(S, C.degree(), H.degree()) == 6
    assert len(made) <= 2


def test_qpower_arithmetic():
    assert QPower(2) * QPower(3) == QPower(5)
    assert QPower(2) / QPower(3) == QPower(-1)
    assert QPower(2) ** 3 == QPower(6)
    assert QPower(4).inverse() == QPower(-4)



# ---------------------------------------------------------------------------
# root orders for the classical route


@pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (3, 2), (7, 2)])
def test_root_order_matches_the_factored_multiplicity(p, d):
    F = field_make(p, d)
    rng = random.Random(p * 100 + d)
    elems = list(range(F.q))  # the codes of the elements
    for _ in range(50):
        root = rng.choice(elems)
        f = [1]
        for _ in range(rng.randrange(5)):
            f = pmul(f, [F.neg(root), 1], F)
        cofactor = ptrim([rng.choice(elems) for _ in range(rng.randrange(4))]
                         + [rng.choice(elems[1:])])
        f = pmul(f, cofactor, F)
        want = dict(poly_roots(f, F)).get(root, 0) if len(f) > 1 else 0
        assert _root_order(f, root, F) == want, (f, root)
