"""Local residues and both reciprocity laws, exactly."""

import itertools
import random
import time
from collections import Counter

import pytest

from adeles2d import residues as residues_mod
from adeles2d import surface as surface_mod
from adeles2d.fields import rel_trace
from adeles2d.residues import (
    AdeleFragment,
    GlobalForm,
    _local_residue,
    _random_form_of_class,
    adelic_pairing,
    check_reciprocity_along_curves,
    check_reciprocity_around_points,
    form_make,
    local_residue,
    polar_components,
    reciprocity_corpus,
)
from adeles2d.series import LaurentSeries2, PrecisionError, res2
from adeles2d.surface import (
    Flag,
    RationalFunction,
    canonical_local_form,
    curve_make,
    expand_at_flag,
    flag_make,
    form_order_on_curve,
    form_polynomial,
    meeting_points,
    ord_on_curve,
    point_from_coords,
    surface_make,
)
from test_surface import box_contract_cases


def p2(q):
    return surface_make("P2", q)


def residue_sum_around_point(w, x, curves):
    """Sum of residues over the given curves through x; zero when the list
    exhausts the polar components there."""
    for C in polar_components(w):
        if C.poly.evaluate(list(x.coords)).is_zero() and C not in curves:
            raise ValueError(f"polar component {C!r} passes through {x!r} "
                             f"but is not in the curve list")
    total = x.residue_field.zero()
    for C in curves:
        total = total + local_residue(w, flag_make(x, C))
    return total


def origin(S):
    return point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))


def coordinate_lines(S):
    return {t: curve_make(S, t) for t in ("X", "Y", "Z")}


def test_local_residue_golden_pole():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^2", [(L["X"], 1), (L["Y"], 1)])
    fl = flag_make(origin(S), L["Y"])
    assert local_residue(w, fl) == S.base.one()


def test_a_succeeding_residue_never_formats_its_flag(monkeypatch):
    def unformattable(self):
        raise AssertionError("flag formatted on the success path")

    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^2", [(L["X"], 1), (L["Y"], 1)])
    fl = flag_make(origin(S), L["Y"])
    monkeypatch.setattr(Flag, "__repr__", unformattable)
    assert local_residue(w, fl) == S.base.one()


def test_local_residue_of_regular_form_is_zero():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Y", [(L["Y"], 1)])  # coefficient 1: omega itself
    fl = flag_make(origin(S), L["Y"])
    assert local_residue(w, fl).is_zero()


def test_local_residue_single_pole_direction():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z", [(L["X"], 1)])
    fl = flag_make(origin(S), L["Y"])
    assert local_residue(w, fl).is_zero()


def test_jacobian_sign_cancels_around_origin():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^2", [(L["X"], 1), (L["Y"], 1)])
    x = origin(S)
    on_y = local_residue(w, flag_make(x, L["Y"]))
    on_x = local_residue(w, flag_make(x, L["X"]))
    assert on_y == S.base.one()
    assert on_x == -S.base.one()
    assert residue_sum_around_point(w, x, [L["X"], L["Y"]]).is_zero()


def test_around_point_with_higher_order_pole():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^3", [(L["X"], 2), (L["Y"], 1)])
    x = origin(S)
    assert residue_sum_around_point(w, x, [L["X"], L["Y"]]).is_zero()


def test_around_point_rejects_incomplete_curve_list():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^2", [(L["X"], 1), (L["Y"], 1)])
    try:
        residue_sum_around_point(w, origin(S), [L["Y"]])
    except ValueError as e:
        assert "polar component" in str(e)
    else:
        raise AssertionError("missing polar component accepted")


def residue_sum_along_curve(w, D):
    """The trace-weighted sum of w's residues at the points where D meets
    another component of w, where alone a residue can be nonzero."""
    base = w.surface.base
    total = base.zero()
    for pt in meeting_points((D, C) for C in w.components if C != D):
        total = total + rel_trace(local_residue(w, flag_make(pt, D)), base)
    return total


def test_along_curve_contributions_cancel():
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^2", [(L["X"], 1), (L["Y"], 1)])
    assert residue_sum_along_curve(w, L["Y"]).is_zero()
    assert residue_sum_along_curve(w, L["X"]).is_zero()
    assert residue_sum_along_curve(w, L["Z"]).is_zero()


def test_along_curve_with_trace_weighted_point():
    # the pole curve meets Y = 0 in a conjugate pair over GF(3); the sum
    # vanishes only after the trace weighting of the degree-2 point
    S = p2(3)
    L = coordinate_lines(S)
    pair = curve_make(S, "X^2 - 2Z^2")
    w = form_make(S, "X^3", [(L["Y"], 1), (pair, 1)])
    assert residue_sum_along_curve(w, L["Y"]).is_zero()


def test_both_laws_close_at_a_crossing_off_the_coordinate_lines():
    # the conic's local equation at (1:1:0) on Z is 2u + t plus higher
    # terms, so the coefficient's t^n column dips to u^(-n-1); only the
    # columns that reach t^-1 may be multiplied
    S = p2(3)
    conic = curve_make(S, "X^2+XZ+2Y^2")
    w = form_make(S, "Y^2", [(conic, 1)])
    assert polar_components(w) == [conic, curve_make(S, "Z")]
    around = check_reciprocity_around_points(w)
    assert [repr(x) for x, _total in around] == ["(1:1:0)", "(1:2:0)"]
    assert all(total.is_zero() for _x, total in around), around
    along = check_reciprocity_along_curves(w)
    assert len(along) == 2
    assert all(total.is_zero() for _D, total in along), along


def test_a_double_pole_on_a_conic_makes_it_polar():
    # ω has order 0 along this conic, so a double pole of the coefficient
    # there is a double pole of the form
    S = surface_make("P1xP1", 2)
    conic = curve_make(S, "X0Y1^2+X1Y0^2+X1Y0Y1+X1Y1^2")
    assert form_order_on_curve(conic) == 0
    w = form_make(S, "X0^2Y0^4", [(conic, 2)])
    assert conic in polar_components(w)


def test_reciprocity_corpus_p2():
    S = p2(3)
    for w in reciprocity_corpus(S, 6, seed=101):
        for x, total in check_reciprocity_around_points(w):
            assert total.is_zero(), (w, x)
        for D, total in check_reciprocity_along_curves(w):
            assert total.is_zero(), (w, D)


def test_reciprocity_corpus_p1xp1():
    S = surface_make("P1xP1", 2)
    for w in reciprocity_corpus(S, 6, seed=202):
        for x, total in check_reciprocity_around_points(w):
            assert total.is_zero(), (w, x)
        for D, total in check_reciprocity_along_curves(w):
            assert total.is_zero(), (w, D)


def test_polar_components_include_omega_poles():
    S = p2(3)
    L = coordinate_lines(S)
    w = form_make(S, "Z", [(L["X"], 1)])
    polar = polar_components(w)
    assert L["X"] in polar
    assert L["Z"] in polar  # pole of omega, partially cancelled but present


def test_adelic_pairing_golden():
    S = p2(2)
    L = coordinate_lines(S)
    fl = flag_make(origin(S), L["Y"])
    k = fl.point.residue_field
    a = AdeleFragment({fl: LaurentSeries2.monomial(k, k.one(), -1, 0)})
    b = AdeleFragment({fl: LaurentSeries2.monomial(k, k.one(), 0, -1)})
    assert adelic_pairing(a, b) == S.base.one()
    assert adelic_pairing(b, a) == adelic_pairing(a, b)


def test_adelic_pairing_meets_flags_made_separately():
    # fragments are keyed by flag; two flag_make calls at one (point, curve)
    # give the same flag, so the common flag is not missed
    S = p2(5)
    fl_a = flag_make(origin(S), curve_make(S, "Y"))
    fl_b = flag_make(origin(S), curve_make(S, "Y"))
    k = fl_a.point.residue_field
    a = AdeleFragment({fl_a: LaurentSeries2.monomial(k, k.one(), -1, 0)})
    b = AdeleFragment({fl_b: LaurentSeries2.monomial(k, k.one(), 0, -1)})
    assert adelic_pairing(a, b) == S.base.one()


def test_adelic_pairing_disjoint_supports():
    S = p2(3)
    L = coordinate_lines(S)
    fl1 = flag_make(origin(S), L["Y"])
    fl2 = flag_make(origin(S), L["X"])
    k = fl1.point.residue_field
    a = AdeleFragment({fl1: LaurentSeries2.one(k)})
    b = AdeleFragment({fl2: LaurentSeries2.one(k)})
    assert adelic_pairing(a, b).is_zero()


def test_adelic_pairing_bilinear():
    S = p2(3)
    L = coordinate_lines(S)
    fl = flag_make(origin(S), L["Y"])
    k = fl.point.residue_field
    one = k.one()
    two = S.base.from_int(2)

    def frag(*monomials):
        acc = LaurentSeries2.zero(k)
        for c, t, u in monomials:
            acc = acc + LaurentSeries2.monomial(k, c, t, u)
        return AdeleFragment({fl: acc})

    a = frag((one, -1, 2), (two, 0, -1))
    b = frag((one, 0, -3), (one, -1, 1))
    c = frag((two, -2, 0), (one, 1, -1))
    ab = adelic_pairing(a, b)
    ac = adelic_pairing(a, c)
    summed = AdeleFragment({fl: a.entries[fl]})
    bc = AdeleFragment({fl: b.entries[fl] + c.entries[fl]})
    assert adelic_pairing(summed, bc) == ab + ac
    assert adelic_pairing(b, a) == ab


def test_pairing_and_residue_are_linear_over_f4():
    # every scalar of F_4 = F_2(g), g outside F_2, comes out as a factor;
    # a map like r -> r^2 that keeps every sum of residues zero does not
    S = p2(4)
    L = coordinate_lines(S)
    fl = flag_make(origin(S), L["Y"])
    k = fl.point.residue_field
    a = LaurentSeries2.monomial(k, k.one(), -1, 0)
    b = AdeleFragment({fl: LaurentSeries2.monomial(k, k.one(), 0, -1)
                       + LaurentSeries2.monomial(k, k.gen(), -1, -1)})
    poles = [(L["X"], 1), (L["Y"], 1)]
    w = form_make(S, "Z^2", poles)
    pairing = adelic_pairing(AdeleFragment({fl: a}), b)
    residue = local_residue(w, fl)
    assert not pairing.is_zero() and not residue.is_zero()
    for c in S.base.elems():
        scaled = AdeleFragment({fl: a * LaurentSeries2.const(k, c)})
        assert adelic_pairing(scaled, b) == c * pairing, c
        assert adelic_pairing(b, scaled) == c * pairing, c
        if not c.is_zero():
            cw = form_make(S, w.coefficient.num.scale(c), poles)
            assert local_residue(cw, fl) == c * residue, c


def _f4_conics():
    """Two conics over F_4 = F_2(w); the first is singular at (1:w:1)."""
    S = surface_make("P2", 4)
    w = S.base.gen()
    one = S.base.one()
    X, Y, Z = (S.var(i) for i in range(3))
    first = curve_make(S, X * X + (X * Y).scale(w) + (X * Z).scale(w + one)
                       + Y * Y + (Y * Z).scale(w) + Z * Z)
    second = curve_make(S, X * X + (X * Z).scale(w + one)
                        + (Y * Y).scale(w + one) + (Y * Z).scale(w)
                        + (Z * Z).scale(w + one))
    return S, first, second


def test_both_laws_skip_a_component_singular_where_it_meets_another():
    S, first, second = _f4_conics()
    w = S.base.gen()
    singular = point_from_coords(S, (S.base.one(), w, S.base.one()))
    with pytest.raises(ValueError, match="singular"):
        flag_make(singular, first)
    form = form_make(S, "X^4", [(first, 1), (second, 1)])
    assert first in polar_components(form)
    around = check_reciprocity_around_points(form)
    assert singular not in [x for x, _total in around]
    assert all(total.is_zero() for _x, total in around), around
    along = check_reciprocity_along_curves(form)
    assert [D for D, _total in along] == [second, curve_make(S, "Z")]
    assert all(total.is_zero() for _D, total in along), along


# forms with poles off the coordinate lines: (surface, q, numerator,
# [(pole curve, multiplicity)])
OFF_THE_LINES = [
    # a double pole on a cubic, and on a conic through (1:0)x(1:0)
    ("P2", 2, "X^6+Y^6+Z^6", [("X^2Z+Y^3+YZ^2+Z^3", 2)]),
    ("P1xP1", 2, "X0^2Y0^4", [("X0Y1^2+X1Y0^2+X1Y0Y1+X1Y1^2", 2)]),
    ("P2", 3, "X^2+2XY+YZ+Z^2", [("XY+2XZ+Y^2+YZ+2Z^2", 1)]),
    ("P2", 3, "2X^2Y+X^2Z+2XZ^2+2Y^2Z+2Z^3",
     [("X^2Y+2XYZ+2XZ^2+2Y^3+YZ^2", 1)]),
    ("P2", 4, "X^3+Y^2Z", [("X^2Z+Y^3+YZ^2+Z^3", 1)]),
    ("P2", 5, "3X^2+3XY+3XZ+2Y^2+4YZ+3Z^2", [("X^2+2XY+XZ+3Y^2+3YZ+3Z^2", 1)]),
    ("P2", 7, "4X^2+XZ+Y^2+2YZ", [("X^2+5XY+5XZ+5Y^2+2YZ+4Z^2", 1)]),
    ("P1xP1", 3, "X0Y0^2+X1Y1^2", [("X0Y0^2+X0Y1^2+X1Y0Y1", 1)]),
    ("P1xP1", 4, "X0^2Y1+X1^2Y0", [("X0^2Y0+X1^2Y1+X0X1Y1", 1)]),
    ("P1xP1", 5, "4X0^2Y0^4+2X0^2Y0^2Y1^2+4X0^2Y0Y1^3+4X0^2Y1^4+X0X1Y0^4"
     "+3X0X1Y0^3Y1+3X0X1Y0^2Y1^2+X0X1Y0Y1^3+3X0X1Y1^4+3X1^2Y0^4"
     "+X1^2Y0^2Y1^2+3X1^2Y0Y1^3+2X1^2Y1^4",
     [("X0Y0^2+X0Y0Y1+2X0Y1^2+3X1Y0^2+3X1Y1^2", 2)]),
    ("P1xP1", 7, "6X0^2Y0^2+5X0^2Y0Y1+X0^2Y1^2+4X0X1Y0^2+6X0X1Y0Y1"
     "+4X0X1Y1^2+3X1^2Y0^2+5X1^2Y0Y1+2X1^2Y1^2", [("X0Y0+X1Y0+4X1Y1", 2)]),
]


def _off_the_lines_forms():
    forms = []
    for model, q, num, poles in OFF_THE_LINES:
        S = surface_make(model, q)
        forms.append(form_make(S, num, [(curve_make(S, text), m)
                                        for text, m in poles]))
    S, first, second = _f4_conics()
    forms.append(form_make(S, "X^4", [(first, 1), (second, 1)]))
    return forms


def test_reciprocity_off_the_coordinate_lines():
    for w in _off_the_lines_forms():
        start = time.perf_counter()
        around = check_reciprocity_around_points(w)
        along = check_reciprocity_along_curves(w)
        assert time.perf_counter() - start < 2.0, w
        assert around and along, w
        assert all(total.is_zero() for _x, total in around), (w, around)
        assert all(total.is_zero() for _D, total in along), (w, along)


def test_both_laws_close_over_a_squared_cubic_times_a_cubic():
    # P2 over F_7: a random numerator of class 9 over C1^2 * C2 for two
    # cubics.  Its residues expand the coefficient only on the columns they
    # read; on the full window both laws took over twice as long.
    S = p2(7)
    C1 = curve_make(S, "X^2Y+4XY^2+5XYZ+3XZ^2+3Y^3+3Y^2Z+3YZ^2+6Z^3")
    C2 = curve_make(S, "X^3+5X^2Y+2X^2Z+2XY^2+3XYZ+5XZ^2+2Y^3+4Y^2Z"
                       "+6YZ^2+2Z^3")
    num = _random_form_of_class(S, (9,), random.Random(1))
    w = form_make(S, num, [(C1, 2), (C2, 1)])
    around = check_reciprocity_around_points(w)
    along = check_reciprocity_along_curves(w)
    assert around and along, w
    assert all(total.is_zero() for _x, total in around), (w, around)
    assert all(total.is_zero() for _D, total in along), (w, along)


def two_factor_residue(w, fl, u_to=32):
    """The residue the way it was read before one quotient took it: the
    coefficient's columns below t^-j times J's below t^-v, for v the order
    of the coefficient and j of the form along the curve, each on the
    u-box u_to, with the (-1, -1) slot of the product."""
    f = w.coefficient
    v = ord_on_curve(f, fl.curve)
    j = form_order_on_curve(fl.curve)
    if v + j >= 0:
        return fl.point.residue_field.zero()
    return res2(expand_at_flag(f, fl, -j, u_to)
                * canonical_local_form(fl, -v, u_to))


def test_local_residue_equals_the_two_factor_route():
    # the one quotient on t < 0, u < 1 against the product of the
    # coefficient and the fixed form on wide boxes, at every flag of the
    # reciprocity corpus at q = 2, 3, 4 on both surfaces, of the forms off
    # the coordinate lines, and of the box contract's quotients
    forms = _off_the_lines_forms() + [
        w for model, q in itertools.product(("P2", "P1xP1"), (2, 3, 4))
        for w in reciprocity_corpus(surface_make(model, q), 9, 0)]
    for w in forms:
        check_reciprocity_around_points(w)
        check_reciprocity_along_curves(w)
    pairs = [(w, fl) for w in forms for fl in w._residues]
    pairs += [(GlobalForm(RationalFunction(fl.curve.surface, f), [fl.curve]),
               fl) for fl, f in box_contract_cases()]
    nonzero = 0
    for w, fl in pairs:
        got = _local_residue(w, fl)
        assert got == two_factor_residue(w, fl), (w, fl)
        nonzero += not got.is_zero()
    assert len(pairs) >= 250 and nonzero >= 80, (len(pairs), nonzero)


def test_one_residue_per_form_and_flag_and_one_order_per_curve(monkeypatch):
    # in one reciprocity cell, the along-curve law reads the residues the
    # around-point law computed, and every flag on a curve shares one chain
    # of exact divisions per polynomial
    S = surface_make("P2", 5)
    asked, computed, divided = Counter(), Counter(), Counter()
    residue, compute = residues_mod.local_residue, residues_mod._local_residue
    divide = surface_mod._poly_ord

    def counted(counter, fn, key):
        def run(*args):
            counter[key(*args)] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(residues_mod, "local_residue",
                        counted(asked, residue, lambda w, fl: (w, fl)))
    monkeypatch.setattr(residues_mod, "_local_residue",
                        counted(computed, compute, lambda w, fl: (w, fl)))
    monkeypatch.setattr(surface_mod, "_poly_ord",
                        counted(divided, divide, lambda P, D: (P, D)))
    for w in reciprocity_corpus(S, 9, 0):
        around = check_reciprocity_around_points(w)
        along = check_reciprocity_along_curves(w)
        assert all(total.is_zero() for _x, total in around + along), w
    assert set(computed) == set(asked) and set(computed.values()) == {1}
    assert sum(asked.values()) > len(asked)
    assert divided and set(divided.values()) == {1}, divided


def test_residues_value_only_factors(monkeypatch):
    # a residue's orders are sums over the factors of its quotient: every
    # polynomial divided by a curve while the residues of a corpus are
    # computed is a numerator, a component's equation or a form
    # polynomial, never a product of them
    valued = []
    divide = surface_mod._poly_ord

    def recorded(P, D):
        valued.append(P)
        return divide(P, D)

    monkeypatch.setattr(surface_mod, "_poly_ord", recorded)
    factors = set()
    for model, q in (("P2", 3), ("P1xP1", 4)):
        for w in reciprocity_corpus(surface_make(model, q), 9, 0):
            check_reciprocity_around_points(w)
            check_reciprocity_along_curves(w)
            factors |= {w.coefficient.num} | {C.poly for C in w.components}
            factors |= {form_polynomial(fl) for fl in w._residues}
    assert len(valued) >= 50, len(valued)
    assert [P for P in valued if P not in factors] == []


def test_local_residue_names_the_flag_when_the_resize_falls_short(
        monkeypatch):
    # a quotient whose box is cut below the (-1, -1) slot
    S = p2(5)
    L = coordinate_lines(S)
    w = form_make(S, "Z^2", [(L["X"], 1), (L["Y"], 1)])
    fl = flag_make(origin(S), L["Y"])
    ratio = residues_mod.ratio_at_flag
    monkeypatch.setattr(
        residues_mod, "ratio_at_flag",
        lambda *args: ratio(*args).truncate(u_to=-5))
    with pytest.raises(PrecisionError, match="residue at flag") as err:
        local_residue(w, fl)
    assert repr(fl) in str(err.value) and "u < -5" in str(err.value)


def test_adelic_pairing_reads_the_fixed_form_past_the_floor():
    # paired with 1, t^b u^a gives the (-1-b, -1-a) coefficient of J, the
    # fixed form's local coefficient; J's column -1-b needs a box past
    # t^-b, up to t^11 here
    S = p2(7)
    D = curve_make(S, "YZ-X^2-XZ")
    fl = flag_make(point_from_coords(S, [S.base.from_int(i)
                                         for i in (0, 1, 0)]), D)
    k = fl.point.residue_field
    J = canonical_local_form(fl, 24, 24)
    one = AdeleFragment({fl: LaurentSeries2.one(k)})
    nonzero = 0
    for b in range(-12, 0):
        for a in range(-2 * b + 1, -2 * b + 6):
            got = adelic_pairing(AdeleFragment(
                {fl: LaurentSeries2.monomial(k, k.one(), b, a)}), one)
            assert got.n == J.terms.get((-1 - b, -1 - a), 0), (b, a)
            nonzero += not got.is_zero()
    assert nonzero >= 15


def test_adelic_pairing_names_the_flag_when_an_entry_hides_the_slot():
    S = p2(3)
    fl = flag_make(origin(S), coordinate_lines(S)["Y"])
    k = fl.point.residue_field
    hidden = AdeleFragment({fl: LaurentSeries2.zero(k, u_prec=-2)})
    one = AdeleFragment({fl: LaurentSeries2.one(k)})
    with pytest.raises(PrecisionError, match="pairing at flag") as err:
        adelic_pairing(hidden, one)
    assert repr(fl) in str(err.value)

