"""Symbols at flags, ideles, and the two intersection-number routes."""

import itertools
import random

import pytest

from adeles2d.fields import field_make
from adeles2d.multipoly import MPoly
from adeles2d import fields, measures, multipoly, surface, symbols
from adeles2d.cli import CUBIC_BY_P, CUBIC_DEFAULT, FIXTURES
from adeles2d.cohomology import class_range
from adeles2d.series import INF, LaurentSeries2
from adeles2d.surface import (
    Divisor,
    RationalFunction,
    class_monomials,
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
    BudgetExceeded,
    IdeleRule,
    class_intersection,
    commutator_pairing,
    intersection_flags,
    intersection_number,
    intersection_oracle,
    symbol_at_flag,
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
    return RationalFunction(S, [(num, 1), (den, -1)])


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
    assert as_function(S, chosen) == RationalFunction(
        S, [(Y.poly, 1), (Z.poly, -1)])


def test_idele_chooser_of_zero_divisor_is_one():
    S = surface_make("P2", 5)
    Y = curve_make(S, "Y")
    rule = IdeleRule("along_curves", Divisor(S, {}))
    chosen = rule.local(origin_flag(S, Y))
    one = RationalFunction(S, [])
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
    expected = RationalFunction(S, [(X.poly, 1), (Y.poly, 1), (Z.poly, -2)])
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
    assert commutator_pairing(g1, g2, flags) == -1


def test_commutator_pairing_with_zero_divisor():
    S = surface_make("P2", 5)
    X = Divisor(S, {curve_make(S, "X"): 1})
    Y = Divisor(S, {curve_make(S, "Y"): 1})
    flags = intersection_flags(X, Y)
    g1 = IdeleRule("at_points", X)
    g2 = IdeleRule("along_curves", Divisor(S, {}))
    assert commutator_pairing(g1, g2, flags) == 0


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
    assert crossing == -2
    assert touching == -2


def test_commutator_pairing_of_a_rule_with_itself():
    S = surface_make("P2", 5)
    X = Divisor(S, {curve_make(S, "X"): 1})
    Y = Divisor(S, {curve_make(S, "Y"): 1})
    flags = intersection_flags(X, Y)
    g = IdeleRule("at_points", X)
    assert commutator_pairing(g, g, flags) == 0


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
        assert got == -want, (C, H)
    assert len(pairs) == 15


def reference_local(rule, fl):
    """The idele component at the flag as factors, chosen afresh as it was
    before germs were kept: per component D of multiplicity m, D^m over
    the m-th power of a form of D's class in coordinate lines other than
    D, none through the flag's point for a point rule."""
    S = fl.curve.surface

    def germ(D, m, avoid):
        def ok(L):
            return L != D and (
                avoid is None or not L.poly.evaluate(avoid).is_zero())

        return [(D.poly, m)] + [(L.poly, -m * n) for L, n in
                                surface.coordinate_lines(S, D.degree(), ok)]

    if rule.kind == "along_curves":
        m = rule.divisor.components.get(fl.curve, 0)
        return germ(fl.curve, m, None) if m else []
    x = list(fl.point.coords)
    return [fac for D, m in rule.divisor.items()
            if D.poly.evaluate(x).is_zero() for fac in germ(D, m, x)]


def reference_exponent(g1, g2, C, H):
    """The pairing exponent of two rules over the flags of C and H,
    composed the long way: every component and every symbol computed
    afresh at every flag, from the polynomials' own valuations."""
    return -sum(x.degree * symbol_at_flag(reference_local(g1, fl),
                                          reference_local(g2, fl), fl)
                for x in symbols._meeting_points(C, H)
                for fl in surface.flags_through(x, [D for D, _m in H.items()]))


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_the_kept_germs_and_flags_give_the_reference_pairing(model, q):
    # the reference runs on a surface of its own, so that it reads none of
    # the germs, valuations and flag lists the pairing keeps.  The
    # class pairing is the truth of the commutator; the second pair of
    # rules shares H, so that the lines of H's germs along its curves
    # enter the symbol
    S, ref = surface_make(model, q), surface_make(model, q)
    wdiv = measures.canonical_divisor(S)
    # every divisor here lies on coordinate lines; the same lines of ref
    on_ref = {L: L for L in ref.lines.values()}
    for cls in class_range(S, -2, 2):
        C = measures.class_representative(S, cls)
        H = measures._reflect(wdiv, C)
        H = measures._disjoint_representative(S, divisor_class(H),
                                              set(C.components))
        C2, H2 = (Divisor(ref, {on_ref[L]: m
                                for L, m in D.components.items()})
                  for D in (C, H))
        flags = intersection_flags(C, H)
        for A, A2 in ((C, C2), (H, H2)):
            want = reference_exponent(IdeleRule("at_points", A2),
                                      IdeleRule("along_curves", H2), C2, H2)
            got = commutator_pairing(IdeleRule("at_points", A),
                                     IdeleRule("along_curves", H), flags)
            assert got == want, (cls, A, got, want)
        check = measures.central_commutator(C, wdiv)
        want = -class_intersection(S, cls, divisor_class(H))
        assert check.rhs == check.lhs == want, cls
        assert reference_exponent(IdeleRule("at_points", C2),
                                  IdeleRule("along_curves", H2),
                                  C2, H2) == want, cls


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_intersection_number_gives_the_reference_on_the_fixtures(model, q):
    # as above, with the rules of H against each other as the second pair:
    # a line of H's germ along a fixture curve may pass through the point
    S, ref = surface_make(model, q), surface_make(model, q)
    cubic = CUBIC_BY_P.get(S.base.p, CUBIC_DEFAULT)
    names = [cubic if n == "cubic" else n for n in FIXTURES[model].bezout]
    assert len(names) == {"P2": 6, "P1xP1": 5}[model]
    for a, b in itertools.combinations(names, 2):
        C, H = (Divisor(S, {curve_make(S, t): 1}) for t in (a, b))
        C2, H2 = (Divisor(ref, {curve_make(ref, t): 1}) for t in (a, b))
        want = intersection_oracle(C, H)
        assert want == class_intersection(S, divisor_class(C),
                                          divisor_class(H))
        got = -reference_exponent(IdeleRule("at_points", C2),
                                  IdeleRule("along_curves", H2), C2, H2)
        assert got == intersection_number(C, H) == want, (a, b)
        got = commutator_pairing(IdeleRule("at_points", H),
                                 IdeleRule("along_curves", H),
                                 intersection_flags(C, H))
        assert got == reference_exponent(
            IdeleRule("at_points", H2), IdeleRule("along_curves", H2),
            C2, H2), (a, b)


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_divisors_sharing_a_component_pair_to_its_self_intersection(model, q):
    # mD's point idele against nD's curve idele, at the flags of D where
    # the lines of D's germ meet it: v_t of the point idele is m there, so
    # the lines' exponents (-n times their multiplicity in the germ) give
    # the symbol, and the pairing exponent is -m n D.D.  A sign slip in
    # the germ lines flips it; disjoint divisors never see those lines
    S = surface_make(model, q)
    cubic = CUBIC_BY_P.get(S.base.p, CUBIC_DEFAULT)
    for text in FIXTURES[model].bezout:
        D = curve_make(S, cubic if text == "cubic" else text)
        lines = surface.coordinate_lines(S, D.degree(), lambda L: L != D)
        points = surface.meeting_points((D, L) for L, _n in lines)
        flags = [surface.flag_make(x, D) for x in points]
        self_int = class_intersection(S, D.degree(), D.degree())
        for m, n in ((1, 1), (2, 1), (1, 3)):
            got = commutator_pairing(IdeleRule("at_points", Divisor(S, {D: m})),
                                     IdeleRule("along_curves",
                                               Divisor(S, {D: n})), flags)
            assert got == -m * n * self_int, (text, m, n, got)


def _recomputed(*_args):
    raise AssertionError("recomputed")


def test_germs_and_intersection_flags_are_kept_per_surface(monkeypatch):
    def pairing_on(S):
        C, H = (Divisor(S, {curve_make(S, t): 1}) for t in ("YZ-X^2", "X"))
        return C, H, IdeleRule("at_points", C), IdeleRule("along_curves", H)

    S = surface_make("P2", 5)
    C, H, g1, g2 = pairing_on(S)
    want = commutator_pairing(g1, g2, intersection_flags(C, H))
    assert want == -2
    # the flags keep the polynomials' valuations, and no germ's
    kinds = {key[0] if isinstance(key, tuple) else key
             for fl in S.flags.values() for key in fl._cache}
    assert "val" in kinds and "germ" not in kinds, kinds
    monkeypatch.setattr(symbols, "coordinate_lines", _recomputed)
    monkeypatch.setattr(symbols, "_meeting_points", _recomputed)
    # the surface keeps both; a new pairing there chooses no line again
    C, H, g1, g2 = pairing_on(S)
    assert commutator_pairing(g1, g2, intersection_flags(C, H)) == want
    # an equal but new surface keeps nothing of S's
    T = surface_make("P2", 5)
    assert T == S and T.memo == {} and T.flags == {}
    C, H, g1, g2 = pairing_on(T)
    with pytest.raises(AssertionError, match="recomputed"):
        intersection_flags(C, H)
    (A, _m), = C.items()
    (D, _n), = H.items()
    fl = flag_make(intersection_support(A, D)[0], D)
    with pytest.raises(AssertionError, match="recomputed"):
        commutator_pairing(g1, g2, [fl])


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
    return min(u for t, u in expand_at_flag(h, fl, window, window).terms
               if t == 0)


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


def test_oracle_makes_no_resultant_and_no_field_above_a_point(monkeypatch):
    # over F_5 the conic and the cubic meet in (0:0:1), (0:1:0) and a point
    # of degree 3; over F_2 the quintic and the quartic meet in points of
    # degree 1, 1, 4 and 11, where a common field would be F_2^44
    cases = [(5, "YZ-X^2", "Y^2Z-X^3-XZ^2", 6),
             (2, "X^5+Y^5+Z^5+X^2Y^3", "X^4+Y^3Z+Z^4", 20)]
    for q, first, second, want in cases:
        S = surface_make("P2", q)
        C, H = curve_make(S, first), curve_make(S, second)
        largest = max(pt.degree for pt in intersection_support(C, H))

        def no_resultant(*args, **kwargs):
            raise AssertionError("the oracle formed a resultant")

        def checked(p, d):
            assert d <= S.base.d * largest, (q, d, largest)
            return real(p, d)

        real = fields.field_make
        for mod in (fields, surface, symbols):
            if hasattr(mod, "field_make"):
                monkeypatch.setattr(mod, "field_make", checked)
        for mod in (multipoly, surface, symbols):
            if hasattr(mod, "resultant_elim"):
                monkeypatch.setattr(mod, "resultant_elim", no_resultant)
        got = intersection_oracle(Divisor(S, {C: 1}), Divisor(S, {H: 1}))
        assert got == class_intersection(S, C.degree(), H.degree()) == want
        monkeypatch.undo()
    assert largest == 11


def _one_point(q, first, second):
    """The two curves on P2 over F_q and the one point where they meet."""
    S = surface_make("P2", q)
    D, E = curve_make(S, first), curve_make(S, second)
    pt, = intersection_support(D, E)
    return D, E, pt


@pytest.mark.parametrize("q, first, second, degree, want", [
    (5, "X", "Y", 1, 1),                  # transversal lines
    (5, "YZ-X^2", "Y", 1, 2),             # a tangent line to a conic
    (5, "Y^2Z-X^3", "Y", 1, 3),           # a line through a cusp
    (3, "YZ-X^2", "Z-2Y", 2, 1),          # a point of degree 2
])
def test_fulton_loop_by_hand(q, first, second, degree, want):
    D, E, pt = _one_point(q, first, second)
    assert pt.degree == degree
    for A, B in ((D, E), (E, D)):
        assert symbols._multiplicity(A, B, pt, want) == want
    assert intersection_oracle(Divisor(D.surface, {D: 1}),
                               Divisor(D.surface, {E: 1})) == degree * want


def test_fulton_loop_shifts_before_it_subtracts():
    # y - x^2 and y - x^2 - xy: after g - f = -xy and the step that splits
    # off y, the loop pairs x (r = 1) with y - x^2 (s = 2), which takes the
    # x^(s - r) shift
    S = surface_make("P2", 5)
    D, E = curve_make(S, "YZ-X^2"), curve_make(S, "YZ-X^2-XY")
    pts = intersection_support(D, E)
    origin = point_from_coords(S, (S.base.zero(), S.base.zero(),
                                   S.base.one()))
    assert origin in pts
    assert symbols._multiplicity(D, E, origin, 4) == 3
    assert intersection_oracle(Divisor(S, {D: 1}), Divisor(S, {E: 1})) == 4


def test_fulton_loop_leaves_the_chart_equations_at_the_origin():
    # at the origin over the base field `_moved` returns the memoized chart
    # polynomial's own terms; the loop's swaps, subtractions and y-splits
    # must leave them as they were
    S = surface_make("P2", 5)
    D, E = curve_make(S, "YZ-X^2"), curve_make(S, "YZ-X^2-XY")
    origin = point_from_coords(S, (S.base.zero(), S.base.zero(),
                                   S.base.one()))
    chart = next(ch for ch in S.charts if ch.contains(origin.coords))
    before = [dict(S.dehomogenize(C.poly, chart).terms) for C in (D, E)]
    for A, B in ((D, E), (E, D)):
        assert symbols._multiplicity(A, B, origin, 4) == 3
    assert intersection_oracle(Divisor(S, {D: 1}), Divisor(S, {E: 1})) == 4
    assert [S.dehomogenize(C.poly, chart).terms for C in (D, E)] == before


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_fulton_loop_shifts_on_the_quadric(q):
    # x - y and x^2 - y in the first chart of P1xP1: at the origin
    # (0:1)x(0:1), f(x, 0) = x (r = 1) and g(x, 0) = x^2 (s = 2), so the
    # first step takes the x^(s - r) shift
    S = surface_make("P1xP1", q)
    D, E = curve_make(S, "X0Y1-X1Y0"), curve_make(S, "X0^2Y1-X1^2Y0")
    origin = point_from_coords(S, [S.base.zero(), S.base.one()] * 2)
    assert origin in intersection_support(D, E)
    assert symbols._multiplicity(D, E, origin, 3) == 1
    C, H = Divisor(S, {D: 1}), Divisor(S, {E: 1})
    assert intersection_oracle(C, H) == intersection_number(C, H) == 3
    assert class_intersection(S, D.degree(), E.degree()) == 3


def test_fulton_budget_names_the_curves_and_the_point(monkeypatch):
    D, E, pt = _one_point(5, "Y^2Z-X^3", "Y")
    monkeypatch.setattr(symbols, "FULTON_STEPS", 0)
    with pytest.raises(BudgetExceeded) as err:
        intersection_oracle(Divisor(D.surface, {D: 1}),
                            Divisor(D.surface, {E: 1}))
    text = str(err.value)
    assert "ran out of its 0 steps" in text
    for name in (repr(D), repr(E), repr(pt)):
        assert name in text, (name, text)


def test_fulton_multiplicity_may_not_pass_the_class_pairing():
    D, E, pt = _one_point(5, "Y^2Z-X^3", "Y")
    with pytest.raises(BudgetExceeded, match=r"passed 2, the class pairing"):
        symbols._multiplicity(D, E, pt, 2)


# Curve pairs drawn at random (seed 5; P2 classes (1)-(3), P1xP1 classes
# (1,1)-(2,2); q in 2, 3, 4, 5, 7, 8, 9; every code from all of F_q) on
# which the former oracle, read off resultants over one common field,
# raised or ran past 5 s, and the P2/F_9 pair XY+[0,1]XZ+Y^2 and
# X^3+[2,0]X^2Y+[1,1]X^2Z+[0,1]Y^3+[1,2]Z^3.  Each curve is its class and
# the codes of its coefficients in class_monomials order.
HARD_PAIRS = [
    ("P1xP1", 9, (2, 2), [5, 3, 2, 2, 6, 1, 2, 6, 5],
     (1, 2), [0, 6, 4, 2, 7, 2]),
    ("P1xP1", 9, (2, 1), [6, 5, 2, 2, 8, 1],
     (2, 2), [3, 1, 6, 3, 4, 0, 7, 3, 0]),
    ("P2", 4, (2,), [1, 3, 3, 1, 3, 0],
     (3,), [1, 3, 3, 0, 0, 1, 3, 0, 1, 0]),
    ("P1xP1", 9, (2, 2), [4, 7, 8, 8, 4, 4, 2, 4, 7],
     (2, 2), [6, 1, 2, 3, 7, 1, 7, 3, 2]),
    ("P2", 8, (2,), [6, 7, 5, 5, 0, 2],
     (3,), [7, 0, 7, 7, 5, 0, 3, 0, 7, 1]),
    ("P1xP1", 8, (2, 2), [5, 2, 4, 2, 0, 2, 6, 1, 0],
     (2, 2), [5, 1, 7, 2, 5, 0, 0, 5, 7]),
    ("P1xP1", 9, (2, 2), [3, 1, 5, 1, 1, 5, 6, 2, 5],
     (2, 1), [0, 4, 1, 8, 1, 1]),
    ("P2", 4, (2,), [1, 0, 3, 3, 2, 1],
     (3,), [2, 3, 3, 3, 0, 1, 2, 3, 2, 0]),
    ("P2", 7, (3,), [6, 0, 6, 5, 1, 0, 3, 5, 4, 5],
     (3,), [1, 0, 6, 0, 6, 6, 0, 6, 3, 3]),
    ("P1xP1", 8, (1, 2), [5, 4, 3, 6, 2, 2],
     (2, 2), [4, 6, 7, 5, 4, 5, 5, 0, 4]),
    ("P1xP1", 9, (1, 2), [2, 1, 3, 4, 2, 8],
     (2, 1), [6, 4, 0, 7, 2, 2]),
    ("P2", 8, (3,), [5, 1, 7, 3, 2, 0, 2, 7, 4, 6],
     (3,), [7, 6, 6, 5, 2, 5, 3, 3, 7, 3]),
    ("P2", 5, (3,), [1, 3, 0, 0, 0, 4, 2, 0, 2, 3],
     (3,), [4, 3, 0, 4, 4, 2, 4, 0, 0, 3]),
    ("P2", 8, (3,), [0, 4, 6, 5, 2, 3, 5, 3, 5, 6],
     (3,), [4, 7, 1, 1, 4, 2, 1, 7, 1, 1]),
    ("P2", 9, (3,), [5, 7, 8, 0, 0, 3, 3, 8, 7, 3],
     (2,), [7, 3, 1, 4, 3, 6]),
    ("P1xP1", 8, (2, 2), [2, 6, 6, 7, 4, 2, 0, 2, 5],
     (2, 1), [3, 3, 7, 3, 6, 2]),
    ("P2", 7, (3,), [1, 2, 3, 0, 3, 6, 6, 3, 2, 2],
     (3,), [6, 0, 3, 5, 6, 2, 2, 2, 1, 2]),
    ("P1xP1", 8, (2, 2), [3, 0, 7, 6, 1, 2, 5, 3, 4],
     (2, 2), [5, 5, 0, 0, 3, 6, 6, 2, 1]),
    ("P2", 4, (2,), [3, 0, 1, 0, 0, 3],
     (3,), [3, 0, 0, 1, 2, 1, 2, 0, 0, 1]),
    ("P2", 9, (2,), [0, 1, 3, 1, 0, 0],
     (3,), [1, 2, 4, 0, 0, 0, 3, 0, 0, 7]),
]


@pytest.mark.parametrize(
    "model, q, first, first_codes, second, second_codes", HARD_PAIRS,
    ids=[f"{pair[0]}-q{pair[1]}-{i}" for i, pair in enumerate(HARD_PAIRS)])
def test_hard_pairs_give_the_class_form_by_all_three_routes(
        model, q, first, first_codes, second, second_codes):
    S = surface_make(model, q)
    D, E = (curve_make(S, MPoly(S.base, S.nvars, dict(
        zip(class_monomials(S, cls), codes))))
        for cls, codes in ((first, first_codes), (second, second_codes)))
    C, H = Divisor(S, {D: 1}), Divisor(S, {E: 1})
    want = class_intersection(S, D.degree(), E.degree())
    assert intersection_oracle(C, H) == want
    assert intersection_number(C, H) == want
