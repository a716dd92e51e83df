"""Geometry layer: curves, closed points, flags, local expansions."""

import ast
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from adeles2d.cohomology import class_range
from adeles2d import fields as fields_mod
from adeles2d import surface as surface_mod
from adeles2d.fields import FieldElem, embed, field_make, poly_factor
from adeles2d.multipoly import MPoly, resultant_elim
from adeles2d.residues import (check_reciprocity_along_curves,
                               check_reciprocity_around_points,
                               reciprocity_corpus)
from adeles2d.series import INF, LaurentSeries2, PrecisionError, ps_horner
from adeles2d.surface import (
    ClosedPoint,
    Curve,
    Divisor,
    RationalFunction,
    _collect_fiber_points,
    _one_root,
    canonical_divisor,
    canonical_local_form,
    class_intersection,
    class_monomials,
    coordinate_lines,
    curve_make,
    divisor_class,
    expand_at_flag,
    expand_poly_at_flag,
    flag_coordinate_series,
    flag_make,
    form_order_on_curve,
    form_polynomial,
    intersection_support,
    ord_on_curve,
    parse_poly,
    point_from_coords,
    poly_text,
    poly_valuation_at_flag,
    ratio_at_flag,
    smooth_flag,
    surface_make,
)
from adeles2d.symbols import intersection_oracle
from reference_curves import class_halves, search_outcome
from reference_points import scan_points
from reference_series import (chart_series, inverse_ratio, mp_eval_series,
                              reference_expansion, widening_inverse)
from test_series import derive


def p2(q):
    return surface_make("P2", q)


def quadric(q):
    return surface_make("P1xP1", q)


def ratfn(S, num_text, den_text):
    return RationalFunction(S, [(parse_poly(S, num_text), 1),
                                (parse_poly(S, den_text), -1)])


def coeff(f, t, u):
    """The t^t u^u coefficient of the series f, read inside its window."""
    if t >= f.t_prec or u >= f.u_prec:
        raise PrecisionError(f"({t},{u}) lies outside the window of {f!r}")
    return FieldElem(f.desc, f.terms.get((t, u), 0))


def is_one(x):
    return x == x.desc.one()


def agree(a, b):
    """Equal coefficients inside the common window of a and b."""
    t_prec = min(a.t_prec, b.t_prec)
    u_prec = min(a.u_prec, b.u_prec)
    return a.truncate(t_prec, u_prec).terms == b.truncate(t_prec, u_prec).terms


# ---------------------------------------------------------------------------
# parsing and curve construction


def test_parse_poly_golden():
    S = p2(5)
    f = parse_poly(S, "YZ-X^2")
    X, Y, Z = S.var(0), S.var(1), S.var(2)
    assert f == Y * Z - X * X
    assert parse_poly(S, "3X^2Y + Z^3 - YZ^2") == \
        (X * X * Y).scale(S.base.from_int(3)) + Z * Z * Z - Y * Z * Z
    T = quadric(3)
    g = parse_poly(T, "X0Y1-X1Y0")
    assert g == T.var(0) * T.var(3) - T.var(1) * T.var(2)


def test_parse_poly_rejects_bad_input():
    S = p2(3)
    try:
        parse_poly(S, "X + Y^2")
    except ValueError as e:
        assert "homogeneous" in str(e)
    else:
        raise AssertionError("inhomogeneous input accepted")
    try:
        parse_poly(S, "W^2")
    except ValueError as e:
        assert "unknown variable" in str(e)
    else:
        raise AssertionError("unknown variable accepted")
    try:
        parse_poly(quadric(3), "X0^2Y0 - X1^2Y1^2")
    except ValueError:
        pass
    else:
        raise AssertionError("bihomogeneity not enforced")


def test_curve_make_accepts_irreducibles():
    S = p2(3)
    for text in ("Y", "YZ-X^2", "X^2+Y^2"):
        C = curve_make(S, text)
        assert isinstance(C, Curve)
    # a smooth plane cubic
    E = curve_make(p2(5), "Y^2Z - X^3 - XZ^2")
    assert E.degree() == (3,)
    D = curve_make(quadric(2), "X0Y1 - X1Y0")
    assert D.degree() == (1, 1)


def test_curve_make_rejects_reducibles():
    S = p2(5)
    try:
        curve_make(S, "X^2 + XY")
    except ValueError as e:
        assert "reducible" in str(e) and "X + Y" in str(e) and "X" in str(e)
    else:
        raise AssertionError("X^2+XY accepted")
    # -1 is a square mod 5, so X^2+Y^2 splits
    try:
        curve_make(S, "X^2 + Y^2")
    except ValueError as e:
        assert "reducible" in str(e)
    else:
        raise AssertionError("X^2+Y^2 accepted over GF(5)")
    try:
        curve_make(S, "0")
    except ValueError:
        pass
    else:
        raise AssertionError("zero polynomial accepted")
    try:
        curve_make(quadric(2), "X0X1 - X0X1")
    except ValueError:
        pass
    else:
        raise AssertionError("zero polynomial accepted on P1xP1")


def test_curve_make_names_the_factor_the_search_meets_first():
    # the least class of half the degree or less, then the earliest
    # leading monomial, then the least coefficients from the last monomial
    # back; coordinate lines, repeated factors and P1xP1 classes included
    cases = [
        ("P2", 5, "X^2+XY", "(X) * (X + Y)"),
        ("P2", 3, "X^2", "(X) * (X)"),
        ("P2", 3, "X^3+Y^3", "(X + Y) * (X^2 + 2XY + Y^2)"),
        ("P2", 7, "X^6+X^4YZ+X^3Y^3+X^3Y^2Z+5X^3Z^3+XY^3Z^2+3XYZ^4+Y^5Z"
         "+3Y^3Z^3+2Y^2Z^4+6Z^6", "(X^3 + XYZ + Y^3 + 2Z^3) * (X^3 + Y^2Z"
         " + 3Z^3)"),
        ("P1xP1", 2, "X0X1Y0+X0X1Y1", "(Y0 + Y1) * (X0X1)"),
        ("P1xP1", 2, "X0^2+X1^2", "(X0 + X1) * (X0 + X1)"),
    ]
    for model, q, text, named in cases:
        S = surface_make(model, q)
        with pytest.raises(ValueError) as err:
            curve_make(S, text)
        assert str(err.value) == f"reducible curve: factors {named}"
        if text != cases[3][2]:  # the search never ends on the sextic
            assert search_outcome(S, parse_poly(S, text)) == str(err.value)


def test_curve_make_names_the_factors_over_a_prime_above_the_tables():
    # the line certificate fails over F_4099 and draws lines over F_4099^2
    S = surface_make("P2", 4099)
    with pytest.raises(ValueError) as err:
        curve_make(S, "X^2-Y^2")
    assert str(err.value) == "reducible curve: factors (X + Y) * (X + 4098Y)"
    assert search_outcome(S, parse_poly(S, "X^2-Y^2")) == str(err.value)


def test_a_degree_seven_pair_is_accepted():
    # the curves of the degree-7 intersect over F_7, where the search over
    # the polynomials of half the class never ended
    S = p2(7)
    got = [curve_make(S, t).degree() for t in (
        "X^7+Y^7+Z^7+3X^2Y^5+X^6Z", "X^6+2Y^5Z+Z^6+XY^4Z+5X^3Y^3")]
    assert got == [(7,), (6,)]


def test_no_library_module_but_surface_compares_the_model():
    # surface.SURFACES is the only per-model data of the library: the other
    # modules read the groups and lines derived from it, and the command
    # line looks its verify fixtures up by model (cli.FIXTURES)
    package = Path(surface_mod.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "surface.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and any(
                      isinstance(side, ast.Attribute) and side.attr == "model"
                      for side in [node.left, *node.comparators])]
    assert found == [], found


def test_curve_equality_ignores_scaling():
    S = p2(5)
    f = parse_poly(S, "YZ-X^2")
    a = curve_make(S, f)
    b = curve_make(S, f.scale(S.base.from_int(3)))
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# closed points


def test_point_from_coords_degree():
    S = p2(2)
    F4 = field_make(2, 2)
    alpha = F4.gen()
    pt = point_from_coords(S, (F4.one(), alpha, F4.zero()))
    assert pt.degree == 2
    assert pt.residue_field.q == 4
    rational = point_from_coords(S, (F4.one(), F4.one(), F4.zero()))
    assert rational.degree == 1
    assert rational.residue_field.q == 2


def test_the_orbit_walk_ends_within_the_field_degree(monkeypatch):
    # a point with coordinates in F_(2^4) over F_2 has an orbit of at most
    # [F_16 : F_2] = 4 members; a normalizer that never returns to the
    # start ends the walk after 4 steps with BudgetExceeded, naming the
    # coordinates and the bound
    S = p2(2)
    F16 = field_make(2, 4)
    coords = (F16.one(), F16.gen(), F16.zero())
    assert surface_mod._orbit_representative(S, coords)[1] == 4
    steps = []
    away = (F16.one(), F16.one(), F16.zero())

    def never_back(surface, cs):
        steps.append(cs)
        return away

    monkeypatch.setattr(surface_mod, "_normalize_proj", never_back)
    with pytest.raises(fields_mod.BudgetExceeded) as err:
        surface_mod._orbit_representative(S, coords)
    assert len(steps) == 4
    text = str(err.value)
    assert repr(coords) in text and "[k : F_q] = 4 steps" in text, text
    assert surface_mod.BudgetExceeded is fields_mod.BudgetExceeded


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_a_point_given_in_a_larger_field_lands_on_its_curve(q):
    # the conic X^2 + gYZ + Z^2, g the generator of F_q: its points
    # (x : -(x^2 + 1)/g : 1), with g embedded directly, over F_(q^2) and
    # F_(q^4); point_from_coords moves the F_(q^4) coordinates down to
    # F_(q^2), whose embedding into F_(q^4) composes with the one of F_q
    S = p2(q)
    g = S.base.gen()
    D = curve_make(S, S.var(0) ** 2 + (S.var(1) * S.var(2)).scale(g)
                   + S.var(2) ** 2)

    def degree_two(m):
        F = field_make(S.base.p, S.base.d * m)
        gF, one = embed(g, F), F.one()
        # the point has degree at most 2 where x lies in F_(q^2)
        pts = [point_from_coords(S, (x, -(x * x + one) / gF, one))
               for x in F.elems() if x ** (q * q) == x]
        return [pt for pt in pts if pt.degree == 2]

    want = set(degree_two(2))
    got = degree_two(4)
    assert len(got) == 2 * len(want) > 0, (len(got), len(want))
    for pt in got:
        assert pt.residue_field == field_make(S.base.p, 2 * S.base.d)
        assert D.poly.evaluate(list(pt.coords)).is_zero(), pt
    assert set(got) == want


# ---------------------------------------------------------------------------
# intersections (support)


def test_two_lines_meet_at_origin():
    S = p2(5)
    A = curve_make(S, "X")
    B = curve_make(S, "Y")
    pts = intersection_support(A, B)
    assert len(pts) == 1
    x, y, z = pts[0].coords
    assert x.is_zero() and y.is_zero() and is_one(z)


def test_line_meets_conic_twice():
    S = p2(5)
    C = curve_make(S, "YZ-X^2")
    H = curve_make(S, "Y-Z")
    pts = intersection_support(C, H)
    assert len(pts) == 2
    for p in pts:
        assert C.poly.evaluate(list(p.coords)).is_zero()
        assert H.poly.evaluate(list(p.coords)).is_zero()
        assert p.degree == 1


def test_tangent_line_meets_conic_once():
    S = p2(5)
    C = curve_make(S, "YZ-X^2")
    H = curve_make(S, "Y")
    pts = intersection_support(C, H)
    assert len(pts) == 1
    assert pts[0].degree == 1
    x, y, z = pts[0].coords
    assert x.is_zero() and y.is_zero() and is_one(z)


def test_intersection_point_of_higher_degree():
    # X^2 = 2Y^2 has no rational solution mod 3: one conjugate pair
    S = p2(3)
    C = curve_make(S, "YZ-X^2")
    H = curve_make(S, "Z-2Y")
    pts = intersection_support(C, H)
    assert len(pts) == 1
    assert pts[0].degree == 2
    assert C.poly.evaluate(list(pts[0].coords)).is_zero()


def test_support_reached_through_an_intermediate_field():
    # two conics over F_4, given by codes since parse_poly reads only
    # prime-field coefficients, meet in one point of degree 4; the fibre
    # walk reaches it over F_16, whose embedding into F_256 must compose
    # with the one of F_4
    S = p2(4)
    C = curve_make(S, MPoly(S.base, 3, {(2, 0, 0): 1, (1, 0, 1): 3,
                                        (0, 0, 2): 1}))
    H = curve_make(S, MPoly(S.base, 3, {(2, 0, 0): 1, (1, 0, 1): 1,
                                        (0, 2, 0): 1, (0, 1, 1): 2,
                                        (0, 0, 2): 2}))
    on_h = set(scan_points(H, 4))
    want = [pt for pt in scan_points(C, 4) if pt in on_h]
    assert [pt.degree for pt in want] == [4]
    assert intersection_support(C, H) == want


def test_intersection_rejects_equal_curves():
    S = p2(3)
    C = curve_make(S, "YZ-X^2")
    scaled = curve_make(S, C.poly.scale(S.base.from_int(2)))
    try:
        intersection_support(C, scaled)
    except ValueError as e:
        assert "component" in str(e)
    else:
        raise AssertionError("equal curves accepted")


def test_fiber_lines_meet_on_p1xp1():
    S = quadric(3)
    F1 = curve_make(S, "X1")
    F2 = curve_make(S, "Y1")
    pts = intersection_support(F1, F2)
    assert len(pts) == 1
    c = pts[0].coords
    assert is_one(c[0]) and c[1].is_zero() and is_one(c[2]) and c[3].is_zero()
    # two fibers of the same ruling never meet
    G1 = curve_make(S, "X0")
    assert intersection_support(F1, G1) == []


def test_diagonal_meets_fiber_once():
    S = quadric(2)
    D = curve_make(S, "X0Y1 - X1Y0")
    F = curve_make(S, "X1")
    pts = intersection_support(D, F)
    assert len(pts) == 1


def _chartwise_support(C, H):
    """The support as found before the fibre rule: one resultant in every
    chart, each factored, for a reference."""
    S = C.surface
    found = []
    for chart in S.charts:
        f, g = (S.dehomogenize(D.poly, chart) for D in (C, H))
        for irr, _m in poly_factor(resultant_elim(f, g, elim=1, keep=0),
                                   S.base)[1]:
            _collect_fiber_points(S, chart, [f.columns(1), g.columns(1)], 1,
                                  _one_root(irr, S.base), found)
    return sorted(found, key=ClosedPoint.sort_key)


def _first_chart(pt):
    return next(ch.name for ch in pt.surface.charts
                if ch.contains(pt.coords))


def _check_support(C, H):
    """The support equals the reference in both orders, lies on both
    curves, and carries the whole class-form intersection number."""
    S = C.surface
    pts = intersection_support(C, H)
    assert pts == _chartwise_support(C, H), (C, H)
    assert intersection_support(H, C) == _chartwise_support(H, C) == pts
    for pt in pts:
        for D in (C, H):
            assert D.poly.evaluate(list(pt.coords)).is_zero(), (D, pt)
    assert (intersection_oracle(Divisor(S, {C: 1}), Divisor(S, {H: 1}))
            == class_intersection(S, C.degree(), H.degree())), (C, H)
    return pts


def test_points_on_curve_takes_one_fibre_in_each_later_chart(monkeypatch):
    # per pair, the first chart takes one fibre per factor of the resultant
    # in its second variable, and each later chart the one fibre where a
    # unit variable of the first chart is 0
    charts = []
    collect = surface_mod._collect_fiber_points

    def counting(S, chart, *args, **kwargs):
        charts.append(chart.name)
        return collect(S, chart, *args, **kwargs)

    factors = []
    for model, q, pairs in (
            ("P2", 5, [("Y^2Z-X^3-XZ^2", "YZ-X^2"), ("Z", "XY-Z^2"),
                       ("X^3+Y^3+XYZ", "X+Y+Z")]),
            ("P1xP1", 9, [("X0Y0+X1Y1", "X0^2Y1+X1^2Y0+X0X1Y0"),
                          ("X1", "X0Y1-X1Y0")])):
        S = surface_make(model, q)
        first = S.charts[0]
        for C, H in ([curve_make(S, t) for t in pair] for pair in pairs):
            f, g = (S.dehomogenize(D.poly, first) for D in (C, H))
            n = len(poly_factor(resultant_elim(f, g, elim=1, keep=0),
                                S.base)[1])
            factors.append(n)
            charts.clear()
            with monkeypatch.context() as m:
                m.setattr(surface_mod, "_collect_fiber_points", counting)
                pts = intersection_support(C, H)
            assert charts == [first.name] * n + [
                ch.name for ch in S.charts[1:]], (C, H)
            assert pts == _chartwise_support(C, H), (C, H)
    assert 0 in factors and max(factors) > 1, factors


@pytest.mark.parametrize("model, q, line, texts, charts", [
    # Z is the unit line of P2's first chart, where every point lies at
    # infinity; X1 and Y1 are those of P1xP1
    ("P2", 5, "Z", ("XY-Z^2", "YZ-X^2", "X^3+Y^3+XYZ", "Y^2Z-X^3-XZ^2"),
     (["Y", "X"], ["Y"], ["Y", "Y"], ["Y"])),
    ("P2", 2, "Z", ("X^2+XY+Y^2+XZ", "X^3+X^2Y+Y^3+Z^3"), (["Y"], ["Y"])),
    ("P1xP1", 3, "X1", ("X0Y0+X1Y1", "X0Y1-X1Y0", "X0^2Y1+X1^2Y0+X0X1Y0"),
     (["X0Y1"], ["X0Y0"], ["X0Y0"])),
    ("P1xP1", 3, "Y1", ("X0Y0+X1Y1", "X0Y1^2+X1Y0^2+X0Y0Y1"),
     (["X1Y0"], ["X0Y0"])),
])
def test_a_unit_line_of_the_first_chart_meets_conics_and_cubics(
        model, q, line, texts, charts):
    S = surface_make(model, q)
    L = curve_make(S, line)
    for text, want in zip(texts, charts):
        pts = _check_support(L, curve_make(S, text))
        assert [_first_chart(pt) for pt in pts] == want, text


@pytest.mark.parametrize("model, C, H, at", [
    # two conics through (0:1:0), both tangent to Z there: one point of
    # multiplicity 4
    ("P2", "YZ-X^2", "YZ-X^2+Z^2", ["Y"]),
    # v = u^2 and v = u^2 + uv near X1 = Y1 = 0, in the last chart only,
    # plus a transverse point (0:1)x(0:1)
    ("P1xP1", "Y1X0^2-X1^2Y0", "Y1X0^2-X1^2Y0-X1X0Y1", ["X1Y1", "X0Y0"]),
])
def test_curves_tangent_at_a_point_at_infinity(model, C, H, at):
    S = surface_make(model, 3 if model == "P1xP1" else 5)
    pts = _check_support(curve_make(S, C), curve_make(S, H))
    assert [_first_chart(pt) for pt in pts] == at
    assert [pt.degree for pt in pts] == [1] * len(at)


@pytest.mark.parametrize("C, H, at", [
    # X0^2 + X1^2 has no root over F_3: the curves meet in one point of
    # degree 2 on the fibre Y1 = 0, and by symmetry on X1 = 0
    ("X0^2+X1^2", "X0^2Y0+X1^2Y0+X0X1Y1", "X1Y0"),
    ("Y0^2+Y1^2", "Y0^2X0+Y1^2X0+Y0Y1X1", "X0Y1"),
])
def test_points_of_degree_two_on_a_later_chart_of_p1xp1(C, H, at):
    S = quadric(3)
    pts = _check_support(curve_make(S, C), curve_make(S, H))
    assert [(pt.degree, _first_chart(pt)) for pt in pts] == [(2, at)]


def _bench_workloads():
    """bench/workloads.py, loaded read-only for its seeded query pairs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_support_matches_the_chartwise_reference_on_the_query_pairs():
    inputs = _bench_workloads().query_inputs({"surface": surface_mod}, 0)
    assert len(inputs) == 256
    surfaces = {}
    for model, q, a, b in inputs:
        S = surfaces.setdefault((model, q), surface_make(model, q))
        C, H = curve_make(S, a), curve_make(S, b)
        got, want = intersection_support(C, H), _chartwise_support(C, H)
        assert got == want, (model, q, a, b)
        assert ([p.residue_field for p in got]
                == [p.residue_field for p in want])


# ---------------------------------------------------------------------------
# values computed once: curve hashes, divisor classes, the surface memo


def test_separately_made_curves_of_one_text_hash_equal():
    for S, texts in ((p2(5), ("YZ-X^2", "X+Y+Z", "Y^2Z-X^3-XZ^2")),
                     (quadric(3), ("X0Y1-X1Y0", "X1", "X0Y0-X1Y1"))):
        for text in texts:
            a, b = curve_make(S, text), curve_make(S, text)
            assert a is not b and a == b and hash(a) == hash(b), text
            assert {a: 1}[b] == 1


def test_closed_points_are_equal_by_surface_degree_and_codes():
    # the key, hash and sort key are kept on the point: equal points made
    # apart still meet in a dict, and a point of another base field with
    # the same codes does not
    S, T = p2(3), p2(3)
    a = point_from_coords(S, [S.base.from_int(c) for c in (1, 2, 0)])
    b = point_from_coords(T, [T.base.from_int(c) for c in (1, 2, 0)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and a.sort_key() == b.sort_key()
    F9 = p2(9)
    c = point_from_coords(F9, [F9.base.from_int(c) for c in (1, 2, 0)])
    assert [x.n for x in c.coords] == [x.n for x in a.coords]
    assert c != a and a != c and {a: 1}.get(c) is None
    assert a != "a point" and a != a.coords


def _recount(D):
    acc = [0] * len(D.surface.groups)
    for c, m in D.components.items():
        for i, d in enumerate(c.degree()):
            acc[i] += m * d
    return tuple(acc)


@pytest.mark.parametrize("model, texts", [
    ("P2", ("X", "Y", "Z", "X+Y+Z", "YZ-X^2", "XY-Z^2")),
    ("P1xP1", ("X0", "X1", "Y0", "Y1", "X0Y1-X1Y0", "X0Y0-X1Y1")),
])
def test_divisor_class_of_derived_divisors_matches_a_recount(model, texts):
    S = surface_make(model, 3)
    curves = [curve_make(S, t) for t in texts]
    rng = random.Random(17)
    for _ in range(40):
        D, E = (Divisor(S, {C: rng.randrange(-3, 4)
                            for C in rng.sample(curves, rng.randrange(4))})
                for _side in range(2))
        for made in (D, E, D + E, -D, D - E):
            assert divisor_class(made) == _recount(made), made


def _no_resultants(*_args, **_kwargs):
    raise AssertionError("resultant computed")


def test_intersection_support_is_computed_once_per_pair(monkeypatch):
    S = p2(5)
    C, H = curve_make(S, "YZ-X^2"), curve_make(S, "XY-Z^2")
    first = intersection_support(C, H)
    want = list(first)
    assert want
    monkeypatch.setattr(surface_mod, "resultant_elim", _no_resultants)
    again = intersection_support(curve_make(S, "YZ-X^2"), H)
    assert again == want and again is not first
    # the list a call returns is the caller's own
    again.clear()
    first.append(first[0])
    assert intersection_support(C, H) == want


@pytest.mark.parametrize("model, texts", [
    ("P2", ("YZ-X^2", "Y^2Z-X^3-XZ^2")),
    ("P1xP1", ("X0Y1-X1Y0", "X0^2Y0+X1^2Y1"))])
def test_intersection_support_is_computed_once_per_unordered_pair(
        monkeypatch, model, texts):
    S = surface_make(model, 5)
    C, H = (curve_make(S, t) for t in texts)
    calls = []
    real = surface_mod._support
    monkeypatch.setattr(surface_mod, "_support",
                        lambda *ch: calls.append(ch) or real(*ch))
    there = intersection_support(C, H)
    back = intersection_support(H, C)
    assert there == back and there and back is not there
    assert calls == [(C, H)]
    # the reverse order finds the same sorted points on its own
    assert real(H, C) == there


def test_an_equal_new_surface_recomputes_the_support(monkeypatch):
    S = p2(5)
    intersection_support(curve_make(S, "X"), curve_make(S, "YZ-X^2"))
    T = p2(5)
    assert T == S and T.memo == {}
    monkeypatch.setattr(surface_mod, "resultant_elim", _no_resultants)
    with pytest.raises(AssertionError, match="resultant computed"):
        intersection_support(curve_make(T, "X"), curve_make(T, "YZ-X^2"))


# ---------------------------------------------------------------------------
# flags


def test_flag_at_affine_point_on_line():
    S = p2(2)
    L = curve_make(S, "Y")
    pt = [p for p in scan_points(L, 1)
          if tuple(int(c.coeffs[0]) for c in p.coords) == (0, 0, 1)][0]
    fl = flag_make(pt, L)
    assert fl.chart.name == "Z"
    assert fl.u_index == 0  # u is the first affine coordinate, X/Z
    assert fl.t_param == MPoly.var(pt.residue_field, 2, 1)


def test_flag_at_infinity_switches_chart():
    S = p2(2)
    L = curve_make(S, "Y")
    pt = [p for p in scan_points(L, 1)
          if tuple(int(c.coeffs[0]) for c in p.coords) == (1, 0, 0)][0]
    fl = flag_make(pt, L)
    assert fl.chart.name == "X"
    # t is still the local equation of Y = 0, i.e. the first chart
    # coordinate Y/X; u falls through to the second one, Z/X
    assert fl.u_index == 1
    assert fl.t_param == MPoly.var(pt.residue_field, 2, 0)


def test_flag_rejects_singular_point():
    S = p2(5)
    # nodal cubic, singular at (0:0:1)
    N = curve_make(S, "Y^2Z - X^3 - X^2Z")
    origin = point_from_coords(
        S, (S.base.zero(), S.base.zero(), S.base.one()))
    try:
        flag_make(origin, N)
    except ValueError as e:
        assert "singular" in str(e)
    else:
        raise AssertionError("singular point accepted")


def test_flag_rejects_point_off_curve():
    S = p2(3)
    L = curve_make(S, "Y")
    pt = point_from_coords(S, (S.base.zero(), S.base.one(), S.base.one()))
    try:
        flag_make(pt, L)
    except ValueError:
        pass
    else:
        raise AssertionError("point off the curve accepted")


def test_flag_make_returns_one_flag_per_point_and_curve():
    S = p2(5)
    zero, one = S.base.zero(), S.base.one()
    origin = point_from_coords(S, (zero, zero, one))
    fl = flag_make(origin, curve_make(S, "Y"))
    expand_at_flag(ratfn(S, "X", "Z"), fl, 4, 4)
    # an equal point and a separately parsed (here rescaled) equal curve
    again = flag_make(point_from_coords(S, (zero, zero, one)),
                      curve_make(S, "2Y"))
    assert again is fl and again._cache
    assert flag_make(origin, curve_make(S, "X")) is not fl
    # another surface, even an equal one, makes its own flags
    T = p2(5)
    fresh = flag_make(point_from_coords(T, (zero, zero, one)),
                      curve_make(T, "Y"))
    assert fresh is not fl and not fresh._cache


def test_singular_flag_raises_on_every_call():
    S = p2(5)
    N = curve_make(S, "Y^2Z - X^3 - X^2Z")
    origin = point_from_coords(
        S, (S.base.zero(), S.base.zero(), S.base.one()))
    for _ in range(2):
        with pytest.raises(ValueError, match="singular"):
            flag_make(origin, N)
    assert not S.flags
    # the least point of P2 is the node: the walk calls flag_make there,
    # moves on, and registers only the flag it returns
    fl = smooth_flag(N, 1)
    assert fl.point != origin and fl.curve is N
    assert S.flags == {(fl.point, N): fl}


def test_coordinate_series_solves_curve_equation():
    S = p2(5)
    C = curve_make(S, "YZ-X^2")
    pt = point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))
    fl = flag_make(pt, C)
    # the normalized equation is x^2 - y, so t = x^2 - y and y = u^2 - t
    B = flag_coordinate_series(fl, 8, 8)
    assert fl.u_index == 0
    assert coeff(B, 1, 0) == -S.base.one()
    assert is_one(coeff(B, 0, 2))
    assert all(coeff(B, t, u).is_zero()
               for t, u in [(0, 0), (0, 1), (1, 1), (2, 0)])


# ---------------------------------------------------------------------------
# expansion at flags


def test_expand_coordinate_ratio():
    S = p2(2)
    L = curve_make(S, "Y")
    pt = point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))
    fl = flag_make(pt, L)
    f = ratfn(S, "X", "Y")
    e = expand_at_flag(f, fl, 8, 8)
    assert is_one(coeff(e, -1, 1))
    assert e.t_valuation() == -1


def test_expand_geometric_series():
    S = p2(2)
    L = curve_make(S, "Y")
    pt = point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))
    fl = flag_make(pt, L)
    f = ratfn(S, "Z", "Z-X")  # 1/(1-x) in the chart at the origin
    e = expand_at_flag(f, fl, 8, 8)
    for k in range(8):
        assert is_one(coeff(e, 0, k)), k


def test_expand_parabola_equation():
    S = p2(2)
    L = curve_make(S, "Y")
    pt = point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))
    fl = flag_make(pt, L)
    f = ratfn(S, "YZ - X^2", "Z^2")
    e = expand_at_flag(f, fl, 8, 8)
    assert is_one(coeff(e, 1, 0))
    assert coeff(e, 0, 2) == -S.base.one()
    assert coeff(e, 0, 0).is_zero() and coeff(e, 0, 1).is_zero()


def test_expansion_is_multiplicative():
    rng = random.Random(20260817)
    S = p2(3)
    L = curve_make(S, "Y")
    pt = point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))
    fl = flag_make(pt, L)
    X, Y, Z = S.var(0), S.var(1), S.var(2)
    monos = [X, Y, Z]
    for _ in range(25):
        def rand_form():
            acc = S.zero_poly()
            for a in monos:
                for b in monos:
                    c = S.base.from_int(rng.randrange(3))
                    acc = acc + (a * b).scale(c)
            return acc
        P, Q = rand_form(), rand_form()
        if P.is_zero() or Q.is_zero():
            continue
        eP = expand_poly_at_flag(P, fl, 8, 8)
        eQ = expand_poly_at_flag(Q, fl, 8, 8)
        ePQ = expand_poly_at_flag(P * Q, fl, 8, 8)
        assert agree(ePQ, eP * eQ)
        ePplusQ = expand_poly_at_flag(P + Q, fl, 8, 8)
        assert agree(ePplusQ, eP + eQ)


def test_expand_at_degree_two_point():
    S = p2(2)
    L = curve_make(S, "Z")
    deg2 = [p for p in scan_points(L, 2) if p.degree == 2][0]
    fl = flag_make(deg2, L)
    f = ratfn(S, "X", "Y")
    e = expand_at_flag(f, fl, 6, 6)
    assert e.terms
    # the value at the point is the ratio of the point's coordinates
    x0, y0, _ = deg2.coords
    assert coeff(e, 0, 0) == x0 / y0


def test_expansion_valuation_matches_ord():
    S = p2(5)
    C = curve_make(S, "YZ-X^2")
    f = ratfn(S, "YZ - X^2", "Z^2")
    assert ord_on_curve(f, C) == 1
    pt = point_from_coords(S, (S.base.zero(), S.base.zero(), S.base.one()))
    fl = flag_make(pt, C)
    assert expand_at_flag(f, fl, 8, 8).t_valuation() == 1
    g = ratfn(S, "Z^2", "YZ - X^2")
    assert ord_on_curve(g, C) == -1
    assert expand_at_flag(g, fl, 8, 8).t_valuation() == -1


# ---------------------------------------------------------------------------
# orders, divisors, the fixed 2-form


def test_ord_on_curve_golden():
    S = p2(5)
    LY = curve_make(S, "Y")
    assert ord_on_curve(ratfn(S, "Y", "Z"), LY) == 1
    assert ord_on_curve(ratfn(S, "Y^2", "Z^2"), LY) == 2
    assert ord_on_curve(ratfn(S, "X", "Z"), LY) == 0
    assert ord_on_curve(ratfn(S, "Z", "Y"), LY) == -1


@pytest.mark.parametrize("model, curve, rest, k", [
    ("P2", "YZ-X^2", "X+2Y", 3),          # degree 7 over 2: at most 3
    ("P2", "Y^2Z-X^3+XZ^2", "XY+Z^2", 2),  # degree 8 over 3: at most 2
    ("P1xP1", "X0Y1-X1Y0", "X0", 2),       # degree 5 over 2: at most 2
])
def test_poly_ord_divides_at_most_to_the_degree_bound(model, curve, rest, k,
                                                      monkeypatch):
    # D^v divides P only for v up to deg P // deg D; P = D^k R with k at
    # that bound takes k + 1 divisions, the last one failing, and a
    # division that never fails ends at the bound with BudgetExceeded,
    # naming P and D
    S = surface_make(model, 5)
    D = curve_make(S, curve)
    R = parse_poly(S, rest)
    P = D.poly ** k * R
    assert sum(S.poly_class(P)) // sum(D.degree()) == k
    divisions = []
    divide = MPoly.exact_div

    def counted(f, g):
        divisions.append(f)
        return divide(f, g)

    with monkeypatch.context() as m:
        m.setattr(MPoly, "exact_div", counted)
        assert surface_mod._poly_ord(P, D) == (k, R)
    assert len(divisions) == k + 1
    monkeypatch.setattr(MPoly, "exact_div", lambda f, g: f)
    with pytest.raises(surface_mod.BudgetExceeded) as err:
        surface_mod._poly_ord(P, D)
    assert poly_text(S, P) in str(err.value) and repr(D) in str(err.value)


def test_divisor_of_function():
    S = p2(5)
    LY = curve_make(S, "Y")
    LZ = curve_make(S, "Z")
    f = ratfn(S, "Y", "Z")
    d = Divisor(S, {D: ord_on_curve(f, D) for D in (LY, LZ)})
    assert d.components == {LY: 1, LZ: -1}
    assert divisor_class(d) == (0,)


def test_divisor_arithmetic():
    S = p2(5)
    LY = curve_make(S, "Y")
    C = curve_make(S, "YZ-X^2")
    d = Divisor(S, {LY: 2}) + Divisor(S, {C: 1, LY: -2})
    assert d.components == {C: 1}
    assert divisor_class(d) == (2,)
    assert divisor_class(Divisor(S, {LY: 1, C: 1})) == (3,)


@pytest.mark.parametrize("first, second", [
    (("P1xP1", 3, "X0"), ("P2", 3, "X")),
    (("P2", 3, "X"), ("P1xP1", 3, "X0")),
    (("P2", 3, "X"), ("P2", 5, "Y")),
])
def test_divisor_sums_refuse_other_surfaces(first, second):
    D, E = (Divisor(S, {curve_make(S, text): 1})
            for S, text in ((surface_make(model, q), text)
                            for model, q, text in (first, second)))
    for op in (lambda: D + E, lambda: D - E):
        with pytest.raises(ValueError, match="different surfaces"):
            op()


def test_form_divisor_on_p2():
    S = p2(2)
    LZ = curve_make(S, "Z")
    div = canonical_divisor(S)
    assert div.components == {LZ: -3}
    assert divisor_class(div) == (-3,) == S.canonical_class()
    assert canonical_divisor(S) is div
    # order 0 along a line through the first chart
    assert form_order_on_curve(curve_make(S, "Y")) == 0


def test_form_divisor_on_p1xp1():
    S = quadric(2)
    F1 = curve_make(S, "X1")
    F2 = curve_make(S, "Y1")
    div = canonical_divisor(S)
    assert div.components == {F1: -2, F2: -2}
    assert divisor_class(div) == (-2, -2) == S.canonical_class()
    assert canonical_divisor(S) is div


def test_closed_form_orders_match_the_local_form_on_coordinate_lines():
    # the series route, kept only as the reference: the t-valuation of the
    # form's local expression at a flag on each line
    for model, q in itertools.product(("P2", "P1xP1"), (2, 3, 4, 5)):
        S = surface_make(model, q)
        for D in S.lines.values():
            fl = smooth_flag(D, 1)
            assert (form_order_on_curve(D)
                    == canonical_local_form(fl, 16, 16).t_valuation()), (S, D)


def _jacobian_of_first_chart(fl, window):
    """The fixed form's coefficient as the Jacobian d(x, y)/d(u, t) of the
    first chart's coordinates x, y, each expanded as a ratio at the flag."""
    S = fl.curve.surface
    x, y = [ratio_at_flag([(S.var(a), 1), (S.var(u), -1)], fl, window,
                          window)
            for a, u in zip(S.charts[0].affine_vars, S.charts[0].units)]
    return (derive(x, "u") * derive(y, "t")
            - derive(x, "t") * derive(y, "u"))


def test_form_polynomial_inverts_to_the_jacobian_of_the_first_chart():
    curves = {"P2": ("YZ-X^2", "X^2Z+Y^3+YZ^2+Z^3"),
              "P1xP1": ("X0Y0+X1Y1", "X0^2Y0+X1^2Y1+X0X1Y1")}
    for model, texts in curves.items():
        for q in (3, 4, 5, 7):
            S = surface_make(model, q)
            for text in texts:
                D = curve_make(S, text)
                pts = scan_points(D, 2)
                # two rational points and one of degree 2
                for pt in pts[:2] + [p for p in pts if p.degree == 2][:1]:
                    fl = flag_make(pt, D)
                    want = _jacobian_of_first_chart(fl, 4)
                    got = canonical_local_form(fl, 4, 4)
                    t_to = min(got.t_prec, want.t_prec)
                    u_to = min(got.u_prec, want.u_prec)
                    # the box both hold is not empty
                    assert got.truncate(t_to, u_to).terms, (S, D, pt)
                    assert (got.truncate(t_to, u_to).terms
                            == want.truncate(t_to, u_to).terms), (S, D, pt)


def test_form_order_on_a_conic_whose_flag_hides_the_leading_column():
    # at this conic's flag a square window of 16 tracks no term of the
    # form's columns t^0 .. t^7, so the order cannot be read off series
    # terms; ω has no zero or pole off the lines X1 and Y1
    S = quadric(2)
    D = curve_make(S, "X0Y1^2+X1Y0^2+X1Y0Y1+X1Y1^2")
    assert form_order_on_curve(D) == 0


# ---------------------------------------------------------------------------
# fixed geometry: coordinate lines, chart coordinates, the line chooser

# (name, unit variables, affine variables) of each chart, and the rule that
# divides an affine variable by the unit variable of its own factor
CHART_TABLES = {
    "P2": [("Z", (2,), (0, 1)), ("Y", (1,), (0, 2)), ("X", (0,), (1, 2))],
    "P1xP1": [("X1Y1", (1, 3), (0, 2)), ("X1Y0", (1, 2), (0, 3)),
              ("X0Y1", (0, 3), (1, 2)), ("X0Y0", (0, 2), (1, 3))],
}


def _table_affine(model, units, affine, coords):
    out = []
    for v in affine:
        unit = units[0] if model == "P2" or v in (0, 1) else units[1]
        out.append(coords[v] / coords[unit])
    return tuple(out)


def _rational_points(S):
    """Every coordinate tuple over the base field naming a point."""
    groups = [(0, 3)] if S.model == "P2" else [(0, 2), (2, 4)]
    for coords in itertools.product(list(S.base.elems()), repeat=S.nvars):
        if all(any(not c.is_zero() for c in coords[lo:hi])
               for lo, hi in groups):
            yield coords


def _pool_choice(S, cls, ok):
    """The line choice by a pool Z, Y, X (P2) or X1, X0 | Y1, Y0 (P1xP1),
    with the lines built from their names."""
    if S.model == "P2":
        parts = [(("Z", "Y", "X"), cls[0])]
    else:
        parts = [(("X1", "X0"), cls[0]), (("Y1", "Y0"), cls[1])]
    out = []
    for names, n in parts:
        if n:
            cands = [curve_make(S, name) for name in names]
            out.append((next(L for L in cands if ok(L)), n))
    return out


def test_coordinate_lines_equal_the_parsed_lines():
    for q in (2, 3, 4):
        for S in (p2(q), quadric(q)):
            assert tuple(S.lines) == S.var_names
            for name in S.var_names:
                parsed = curve_make(S, name)
                assert S.lines[name] == parsed
                assert S.lines[name]._key == parsed._key
                assert repr(S.lines[name]) == repr(parsed) == f"Curve({name})"


def test_chart_coordinates_match_the_chart_tables():
    for q in (2, 3):
        for S in (p2(q), quadric(q)):
            table = CHART_TABLES[S.model]
            assert [(ch.name, ch.unit_vars, ch.affine_vars)
                    for ch in S.charts] == table
            for coords in _rational_points(S):
                for ch, (_name, units, affine) in zip(S.charts, table):
                    inside = all(not coords[v].is_zero() for v in units)
                    assert ch.contains(coords) == inside, (ch, coords)
                    if inside:
                        assert ch.affine(coords) == _table_affine(
                            S.model, units, affine, coords), (ch, coords)


def test_coordinate_line_chooser_golden():
    S = p2(3)
    assert coordinate_lines(S, (2,), lambda L: L != S.lines["Z"]) == \
        [(S.lines["Y"], 2)]
    assert coordinate_lines(S, (0,), lambda L: True) == []
    T = quadric(3)
    assert coordinate_lines(T, (1, 2), lambda L: L != T.lines["X1"]) == \
        [(T.lines["X0"], 1), (T.lines["Y1"], 2)]
    assert coordinate_lines(T, (0, -3), lambda L: True) == \
        [(T.lines["Y1"], -3)]
    try:
        coordinate_lines(T, (1, 0), lambda L: L.name == "never")
    except ValueError:
        pass
    else:
        raise AssertionError("an empty group was not reported")


def test_coordinate_line_chooser_matches_the_pool_order():
    for S, classes in ((p2(2), ((1,), (3,), (-2,))),
                       (quadric(2), ((1, 0), (0, 2), (2, -1)))):
        names = S.var_names
        for r in range(len(names) + 1):
            for avoided in itertools.combinations(names, r):
                avoid = {S.lines[n] for n in avoided}
                for cls in classes:
                    try:
                        want = _pool_choice(S, cls, lambda L: L not in avoid)
                    except StopIteration:
                        want = ValueError
                    try:
                        got = coordinate_lines(S, cls,
                                               lambda L: L not in avoid)
                    except ValueError:
                        got = ValueError
                    assert got == want, (S, avoided, cls)
        for coords in _rational_points(S):
            # a line through the point, avoided together with the point
            for D in S.lines.values():
                if not D.poly.evaluate(list(coords)).is_zero():
                    continue

                def ok(L):
                    return L != D and not L.poly.evaluate(
                        list(coords)).is_zero()
                cls = D.degree()
                assert coordinate_lines(S, cls, ok) == \
                    _pool_choice(S, cls, ok), (S, coords, D)


def test_windows_below_one_are_rejected_or_bounded():
    S = p2(3)
    fl = flag_make(point_from_coords(S, [S.base.from_int(i) for i in (0, 0, 1)]),
                   S.lines["Y"])
    for u_to in (0, -1):
        try:
            expand_at_flag(ratfn(S, "Y", "Z"), fl, 1, u_to)
        except ValueError:
            pass
        else:
            raise AssertionError(f"u-box {u_to} accepted")
    # 1/Y starts at t^-1: a box that ends before it holds only zeros
    Y = parse_poly(S, "Y")
    empty = ratio_at_flag([(Y, -1)], fl, -1, 4)
    assert (empty.terms, empty.t_prec, empty.u_prec) == ({}, -1, 4), empty
    # a function whose every column lies at or above the box is 0 there
    zero = expand_at_flag(ratfn(S, "Y^2", "Z^2"), fl, 2, 2)
    assert (zero.terms, zero.t_prec, zero.u_prec) == ({}, 2, 2), zero


def test_poly_text_round_trip():
    S = p2(5)
    for text in ("YZ-X^2", "Y^2Z - X^3 - XZ^2", "3X^2Y + Z^3"):
        f = parse_poly(S, text)
        assert parse_poly(S, poly_text(S, f)) == f


# ---------------------------------------------------------------------------
# the geometry derived from the variable groups, against the tables that
# were written out per surface before (classes there were an int on P2)


def _p2_halves(cls):
    return [(d,) for d in range(1, cls[0] // 2 + 1)]


def _quadric_halves(cls):
    a, b = cls
    return [(c, d) for c in range(a + 1) for d in range(b + 1)
            if (c, d) not in ((0, 0), (a, b)) and 2 * (c + d) <= a + b]


def _p2_monomials(cls):
    n = cls[0]
    return [(i, j, n - i - j) for i in range(n, -1, -1)
            for j in range(n - i, -1, -1)]


def _quadric_monomials(cls):
    a, b = cls
    if a < 0 or b < 0:
        return []
    return [(i, a - i, k, b - k) for i in range(a, -1, -1)
            for k in range(b, -1, -1)]


SURFACE_TABLES = {
    "P2": {
        "var_names": ("X", "Y", "Z"),
        "charts": [("Z", (0, 1), (2, 2)), ("Y", (0, 2), (1, 1)),
                   ("X", (1, 2), (0, 0))],
        "canonical": (-3,),
        "pairing": lambda a, b: a[0] * b[0],
        "box": lambda lo, hi: [(n,) for n in range(lo, hi + 1)],
        "monomials": _p2_monomials,
        "halves": _p2_halves,
        "top": 4,
        "line_order": [("Z", "Y", "X")],
        "curve": "YZ-X^2",
        "points": ["(0:0:1)", "(0:1:0)", "(1:1:1)", "([1,0]:[0,1]:[1,1])"],
    },
    "P1xP1": {
        "var_names": ("X0", "X1", "Y0", "Y1"),
        "charts": [("X1Y1", (0, 2), (1, 3)), ("X1Y0", (0, 3), (1, 2)),
                   ("X0Y1", (1, 2), (0, 3)), ("X0Y0", (1, 3), (0, 2))],
        "canonical": (-2, -2),
        "pairing": lambda a, b: a[0] * b[1] + a[1] * b[0],
        "box": lambda lo, hi: [(a, b) for a in range(lo, hi + 1)
                               for b in range(lo, hi + 1)],
        "monomials": _quadric_monomials,
        "halves": _quadric_halves,
        "top": 3,
        "line_order": [("X1", "X0"), ("Y1", "Y0")],
        "curve": "X0Y1-X1Y0",
        "points": ["(0:1)x(0:1)", "(1:0)x(1:0)", "(1:1)x(1:1)",
                   "([1,0]:[0,1])x([1,0]:[0,1])"],
    },
}


@pytest.mark.parametrize("model", sorted(SURFACE_TABLES))
def test_derived_geometry_matches_the_surface_tables(model):
    table = SURFACE_TABLES[model]
    S = surface_make(model, 2)
    assert S.var_names == table["var_names"]
    assert S.nvars == len(table["var_names"])
    assert [(ch.name, ch.affine_vars, ch.units)
            for ch in S.charts] == table["charts"]
    assert S.canonical_class() == table["canonical"]
    box = class_range(S, -3, 3)
    assert box == table["box"](-3, 3)
    for a in box:
        for b in box:
            assert class_intersection(S, a, b) == table["pairing"](a, b)
    for cls in table["box"](-1, table["top"]):
        assert class_monomials(S, cls) == table["monomials"](cls), cls
        if min(cls) >= 0:
            assert class_halves(S, cls) == table["halves"](cls), cls
    for group, names in enumerate(table["line_order"]):
        cls = tuple(int(i == group) for i in range(len(S.groups)))
        for k, name in enumerate(names):
            banned = {S.lines[n] for n in names[:k]}
            assert coordinate_lines(S, cls, lambda L: L not in banned) == \
                [(S.lines[name], 1)]
    pts = scan_points(curve_make(S, table["curve"]), 2)
    assert [repr(pt) for pt in pts] == table["points"]


# ---------------------------------------------------------------------------
# a denominator that vanishes deep in u: Z meets the cubic at the flex
# (0:1:0) with multiplicity 3


def _flex_flag():
    S = p2(7)
    D = curve_make(S, "X^3+XZ^2+6Y^2Z")
    pt = point_from_coords(S, [S.base.from_int(i) for i in (0, 1, 0)])
    return S, flag_make(pt, D)


def test_flex_expansion_at_precision_eight_extends_precision_four():
    S, fl = _flex_flag()
    f = ratfn(S, "X^3", "Z^3")
    e4 = expand_at_flag(f, fl, 4, 4)
    e8 = expand_at_flag(f, fl, 8, 8)
    assert (e4.t_prec, e8.t_prec) == (4, 8)
    assert agree(e8, e4)
    assert e8.truncate(4, e4.u_prec).terms == e4.terms


def _multiplies_back(S, fl, num, den, window):
    # the quotient comes back on exactly the box it was asked for, and
    # times the denominator it gives the numerator on that box
    f = ratfn(S, num, den)
    e = expand_at_flag(f, fl, window, window)
    assert (e.t_prec, e.u_prec) == (window, window), e
    low_u = min(u for _t, u in e.terms)
    back = e * expand_poly_at_flag(f.den, fl, window, window - low_u)
    assert back.t_prec >= window and back.u_prec >= window, back
    top = expand_poly_at_flag(f.num, fl, window, window)
    assert back.truncate(window, window).terms == top.terms, (num, den)


def test_flex_expansion_past_the_cap():
    # Z meets the cubic to order 3 at the flex, so Z^30 has u-order 90
    # there, past the former u-widening cap of 80 at window 1: its columns
    # are sized from (vt, w) up front and the quotient expands; its inverse
    # on a box that ends before the leading column is 0 there
    S, fl = _flex_flag()
    _multiplies_back(S, fl, "X^30", "Z^30", 1)
    P = parse_poly(S, "Z^30")
    assert poly_valuation_at_flag(P, fl) == (0, 90)
    empty = ratio_at_flag([(P, -1)], fl, 0, 1)
    assert (empty.terms, empty.t_prec, empty.u_prec) == ({}, 0, 1), empty


def test_a_hidden_leading_column_is_shown_by_one_box(monkeypatch):
    # Z^3 has u-order 9 at the flex, past the box u < 4: its exact
    # valuation sizes the one box it is expanded on, and the inverse comes
    # back on the box asked for, t < 4, u < 4 - 9; the numerator 1 is
    # expanded on u < 4 - 9 + 9 + 3s, for Z^3's slope s = 3 there
    S, fl = _flex_flag()
    P = parse_poly(S, "Z^3")
    assert poly_valuation_at_flag(P, fl) == (0, 9)
    boxes = []
    expand = surface_mod.expand_poly_at_flag

    def recorded(P, fl, t_to, u_to):
        boxes.append((t_to, u_to))
        return expand(P, fl, t_to, u_to)

    monkeypatch.setattr(surface_mod, "expand_poly_at_flag", recorded)
    inv = ratio_at_flag([(P, -1)], fl, 4, 4 - 9)
    assert boxes == [(4, 4 + 4 * 9), (4, 4 + 3 * 3)], boxes
    assert (inv.t_prec, inv.u_prec) == (4, 4 - 9), inv
    monkeypatch.undo()
    wide = ratio_at_flag([(P, -1)], fl, 10, 1)
    assert agree(inv, wide)
    low_u = min(u for _t, u in wide.terms)
    one = expand_poly_at_flag(P, fl, 10, 1 - low_u) * wide
    assert one.t_prec >= 1 and one.u_prec >= 1, one
    assert one.truncate(1, 1).terms == {(0, 0): 1}, one
    _multiplies_back(S, fl, "Y^3", "Z^3", 4)


def test_a_box_before_the_leading_column_is_zero_at_once(monkeypatch):
    # 1/Y^2Z starts at t^-2 at the origin on Y, and 1/Z^3 at u^-9 at the
    # flex: a box that ends at or before the leading column, in t or in u,
    # holds only zeros, and nothing is expanded for it
    S = p2(3)
    fl = flag_make(point_from_coords(S, [S.base.from_int(i) for i in (0, 0, 1)]),
                   S.lines["Y"])
    P = parse_poly(S, "Y^2Z")
    F, flex = _flex_flag()
    Z3 = parse_poly(F, "Z^3")

    def expanded(*args):
        raise AssertionError(f"expanded {args!r}")

    with monkeypatch.context() as m:
        m.setattr(surface_mod, "expand_poly_at_flag", expanded)
        for Q, at, box in ((P, fl, (-2, 8)), (P, fl, (-5, 1)),
                           (Z3, flex, (1, -9)), (Z3, flex, (3, -40))):
            got = ratio_at_flag([(Q, -1)], at, *box)
            assert (got.terms, got.t_prec, got.u_prec) == ({}, *box), got
    lead = ratio_at_flag([(P, -1)], fl, -1, 8)
    assert lead.t_valuation() == -2 and (lead.t_prec, lead.u_prec) == (-1, 8)
    assert list(lead.terms) == [(-2, 0)], lead
    lead = ratio_at_flag([(Z3, -1)], flex, 1, -8)
    assert list(lead.terms) == [(0, -9)], lead


# (model, q, curve, point, [(num, den, m)]): each quotient is
# num / (den * curve^m) at the flag, as the factors num, den^-1, curve^-m.  At the flex of the cubic X and Z have
# u-orders 1 and 3; at the conic's flag X and Y have 1 and 2.
BOX_CONTRACT_FLAGS = [
    ("P2", 7, "X^3+XZ^2+6Y^2Z", (0, 1, 0),
     [("Y", "Z", 0), ("Y", "X", 0), ("Y^4", "X", 1), ("Y^7", "Z", 2)]),
    ("P2", 5, "YZ-X^2", (0, 0, 1),
     [("Z", "X", 0), ("Z^2", "Y^2", 0), ("Z^3", "X", 1), ("Z^5", "Y", 2)]),
    ("P1xP1", 3, "X0Y1-X1Y0", (0, 1, 0, 1),
     [("X1", "X0", 0), ("X1Y1", "X0Y0", 0), ("X1^2Y1", "X0", 1),
      ("X1^3Y1^2", "X0", 2)]),
]


def box_contract_cases():
    """(flag, factors) for every quotient of BOX_CONTRACT_FLAGS, on fresh
    surfaces, so that no flag cache is shared with an earlier call."""
    cases = []
    for model, q, text, coords, quotients in BOX_CONTRACT_FLAGS:
        S = surface_make(model, q)
        D = curve_make(S, text)
        fl = flag_make(point_from_coords(
            S, [S.base.from_int(i) for i in coords]), D)
        cases += [(fl, [(parse_poly(S, num), 1), (parse_poly(S, den), -1)]
                   + [(D.poly, -m)] * bool(m)) for num, den, m in quotients]
    return cases


def products(fl, f):
    """num and den of the factors f at the flag: the products of the P^e
    with e > 0 and of the P^-e with e < 0, as polynomials."""
    S = fl.curve.surface
    return [MPoly.product(S.base, S.nvars, [(P, s * e) for P, e in f
                                            if s * e > 0]) for s in (1, -1)]


def _expansions(fl, f):
    """Each routine that expands at a flag, as a function of the box."""
    den = products(fl, f)[1]
    poles = [(P, e) for P, e in f if e < 0]
    g = RationalFunction(fl.curve.surface, f)
    return {
        "flag_coordinate_series": lambda *box: flag_coordinate_series(
            fl, *box),
        "expand_poly_at_flag": lambda *box: expand_poly_at_flag(den, fl, *box),
        "ratio_at_flag(1, den)": lambda *box: ratio_at_flag(poles, fl, *box),
        "canonical_local_form": lambda *box: canonical_local_form(fl, *box),
        "ratio_at_flag": lambda *box: ratio_at_flag(f, fl, *box),
        "expand_at_flag": lambda *box: expand_at_flag(g, fl, *box),
    }


def test_every_expansion_at_a_flag_returns_exactly_its_box():
    # asked for the box t < t_to, u < u_to, each routine returns a series
    # on exactly that box, equal to the same call on a wider box at a fresh
    # flag, truncated: also where the box ends at or before the leading
    # column, and where the denominator has u-order w > 0 at the point
    cases = box_contract_cases()
    flex = cases[0][0]
    assert [poly_valuation_at_flag(products(flex, f)[1], flex) for _fl, f
            in cases[:2]] == [(0, 3), (0, 1)]
    nonzero = dict.fromkeys(_expansions(*cases[0]), 0)
    for (fl, f), wide_case in zip(cases, box_contract_cases()):
        wide = {name: run(12, 20)
                for name, run in _expansions(*wide_case).items()}
        for name, run in _expansions(fl, f).items():
            for box in ((1, 1), (3, 1), (0, 1), (-2, 3), (1, 6), (5, 4),
                        (2, 9)):
                got = run(*box)
                assert (got.t_prec, got.u_prec) == box, (name, fl, f, got)
                assert got.terms == wide[name].truncate(*box).terms, (
                    name, fl, f, box)
                nonzero[name] += bool(got.terms)
    assert all(n >= 12 for n in nonzero.values()), nonzero


def _ratio_cases():
    """(flag, factors, box) for ratio_at_flag against the inverse route:
    the box contract's quotients on its boxes, 1/den and X^2/den at the
    flex for den Z, X and YZ on two deep boxes, boxes of size
    t_to - vn + vd <= 0 and with u_to + size * wd <= 0 (and just inside
    that), and every residue quotient of the reciprocity corpus at
    q = 2, 3, 4 on both surfaces on the box t < 0, u < 1: the coefficient's
    factors and the form polynomial P^-1, so den and P stay two factors."""
    cases = []
    for fl, f in box_contract_cases():
        num, den = products(fl, f)
        vn = poly_valuation_at_flag(num, fl)[0]
        vd, wd = poly_valuation_at_flag(den, fl)
        lead = vn - vd  # the quotient's t-order
        cases += [(fl, f, box) for box in (
            (1, 1), (3, 1), (0, 1), (-2, 3), (1, 6), (5, 4), (2, 9), (12, 20),
            (lead, 4), (lead - 2, 1), (lead + 2, -2 * wd),
            (lead + 2, 1 - 2 * wd), (lead + 3, -3 * wd - 1))]
    S, flex = _flex_flag()
    for den in (parse_poly(S, d) for d in ("Z", "X", "YZ")):
        cases += [(flex, [(den, -1)] + top, box)
                  for top in ([], [(parse_poly(S, "X^2"), 1)])
                  for box in ((64, 61), (16, 1036))]
    for model, q in itertools.product(("P2", "P1xP1"), (2, 3, 4)):
        for w in reciprocity_corpus(surface_make(model, q), 9, 0):
            check_reciprocity_around_points(w)
            check_reciprocity_along_curves(w)
            cases += [(fl, w.coefficient.factors + [(form_polynomial(fl), -1)],
                       (0, 1)) for fl in w._residues]
    return cases


def test_ratio_at_flag_equals_the_inverse_route():
    # the one column recurrence on factor lists against the route it
    # replaced (tests/reference_series.py) on the products: den expanded,
    # inverted by columns and multiplied by num's expansion; the same terms
    # on the same box
    nonzero = 0
    cases = _ratio_cases()
    for fl, f, box in cases:
        got = ratio_at_flag(f, fl, *box)
        assert got == inverse_ratio(*products(fl, f), fl, *box), (fl, f, box)
        assert (got.t_prec, got.u_prec) == box, got
        nonzero += bool(got.cols)
    assert len(cases) >= 350 and nonzero >= 250, (len(cases), nonzero)


def _meeting_cases(model, q):
    """(flag, P) at every flag where two of two lines, a conic and a cubic
    meet, on the first of the two, for P each curve's polynomial and the
    flag's form polynomial."""
    S = surface_make(model, q)
    curves = [curve_make(S, t) for t in
              (("X", "Y", "YZ-X^2", "Y^2Z-X^3+XZ^2") if model == "P2"
               else ("X1", "Y1", "X0Y1-X1Y0", "X0Y0^2+X1Y1^2"))]
    cases = []
    for D, E in itertools.combinations(curves, 2):
        for x in intersection_support(D, E):
            fl = flag_make(x, D)
            cases += [(fl, P) for P in
                      [C.poly for C in curves] + [form_polynomial(fl)]]
    return S, cases


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_poly_valuation_stays_within_the_class_pairing(model, monkeypatch):
    # w is a local intersection number of P / D^vt with D, so it is at most
    # their class pairing, and a much wider box reads the same column; the
    # valuation itself reads the branch and expands no series
    for q in (3, 4, 9):
        S, cases = _meeting_cases(model, q)

        def expanded(*args):
            raise AssertionError(f"a series was expanded for {args!r}")

        with monkeypatch.context() as m:
            m.setattr(surface_mod, "flag_coordinate_series", expanded)
            m.setattr(surface_mod, "expand_poly_at_flag", expanded)
            valuations = [poly_valuation_at_flag(P, fl) for fl, P in cases]
        for (fl, P), (vt, w) in zip(cases, valuations):
            D = fl.curve
            rest = S.class_add(S.poly_class(P),
                               S.class_scale(-vt, D.degree()))
            assert 0 <= w <= class_intersection(S, rest, D.degree())
            wide = expand_poly_at_flag(P, fl, vt + 1, 64)
            assert min(u for t, u in wide.terms if t == vt) == w, (fl, P)
        assert len(cases) >= 20, (q, len(cases))


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_column_inverse_matches_the_neumann_route(model):
    # the column recurrence on the box fixed by (vt, w) against the route
    # it replaced, the Neumann loop on u-widened boxes
    # (tests/reference_series.py): every coefficient of the common box
    # agrees, and that box is not empty
    compared = 0
    for q in (2, 3, 4, 9):
        _S, cases = _meeting_cases(model, q)
        for (fl, P), window in itertools.product(cases, range(4, 17)):
            vt, w = poly_valuation_at_flag(P, fl)
            got = ratio_at_flag([(P, -1)], fl, window - 2 * vt, window - w)
            assert (got.t_prec, got.u_prec) == (window - 2 * vt, window - w)
            want = widening_inverse(P, fl, window)
            t_to = min(got.t_prec, want.t_prec)
            u_to = min(got.u_prec, want.u_prec)
            assert got.truncate(t_to, u_to).terms, (fl, P, window)
            assert (got.truncate(t_to, u_to).terms
                    == want.truncate(t_to, u_to).terms), (fl, P, window)
            compared += 1
    assert compared >= 1000, compared


def _branch_flags(model, q):
    """Every flag at a point of degree at most 2 on a conic and a cubic."""
    S = surface_make(model, q)
    texts = (("YZ-X^2", "Y^2Z-X^3-XZ^2-Z^3") if model == "P2" else
             ("X0Y1-X1Y0", "X0Y0^2+X1Y1^2+X1Y0Y1"))
    flags = []
    for D in (curve_make(S, t) for t in texts):
        for x in scan_points(D, 2):
            try:
                flags.append(flag_make(x, D))
            except ValueError:  # a singular point carries no flag
                pass
    return flags


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 4, 9])
def test_branch_solves_the_curve_equation_along_the_curve(model, q):
    # ybar(u) is the root of T(u_value + u, ybar) in k(x)[[u]]: T vanishes
    # on it below u^n, evaluated by series arithmetic, and it is the t^0
    # column of the two-variable coordinate series
    flags = _branch_flags(model, q)
    assert any(fl.point.degree == 2 for fl in flags)
    assert any(fl.u_index == 1 for fl in flags)
    for fl in flags:
        k = fl.point.residue_field
        other = 1 - fl.u_index
        for n in (1, 2, 7, 12):
            ybar = surface_mod._branch(fl, n)
            assert len(ybar) == n
            args = [None, None]
            args[fl.u_index] = (LaurentSeries2.const(k, fl.u_value)
                                + LaurentSeries2.monomial(k, k.one(), 0, 1))
            args[other] = LaurentSeries2(k, {(0, u): c for u, c in
                                             enumerate(ybar)}, INF, n)
            T = mp_eval_series(fl.t_param, args, k)
            assert T.u_prec == n and not T.terms, (fl, n, T)
            column = flag_coordinate_series(fl, 1, n)
            assert [column.terms.get((0, u), 0) for u in range(n)] == ybar


def test_series_evaluation_equals_the_sum_of_its_terms_one_by_one():
    # the reference adds the terms with `+`, which cuts each partial sum to
    # the least window so far; the evaluation cuts once, at the end, and
    # must give the same terms in the same order and the same windows
    rng = random.Random(25)
    for q in (2, 5, 9):
        k = field_make(*surface_mod._prime_power(q))
        for _ in range(12):
            args = [LaurentSeries2(k, {
                (t, u): k.from_int(rng.randrange(1, k.p))
                for t in range(-1, 3) for u in range(-1, 3)
                if rng.random() < 0.4}, rng.choice((2, 3, 4, INF)),
                rng.choice((3, 5, INF))) for _ in range(2)]
            f = MPoly._make(k, 2, {
                (i, j): k.from_int(rng.randrange(1, k.p)).n
                for i in range(3) for j in range(3) if rng.random() < 0.5})
            want = LaurentSeries2.zero(k)
            for e, c in f.terms.items():
                term = LaurentSeries2(k, {(0, 0): c})
                for arg, n in zip(args, e):
                    term = term * arg ** n
                want = want + term
            got = mp_eval_series(f, args, k)
            assert got == want and list(got.terms) == list(want.terms)


def test_branch_is_kept_once_and_sliced(monkeypatch):
    fl = _branch_flags("P2", 9)[-1]
    long = surface_mod._branch(fl, 10)

    def solved(*args):
        raise AssertionError("the branch was solved again")

    monkeypatch.setattr(surface_mod, "_hasse", solved)
    assert surface_mod._branch(fl, 4) == long[:4]
    assert surface_mod._branch(fl, 10) == long
    monkeypatch.undo()
    assert surface_mod._branch(fl, 16)[:10] == long


@pytest.mark.parametrize("model, q", [("P2", 5), ("P1xP1", 4)])
def test_coordinate_series_served_from_one_solve_equal_fresh_ones(
        model, q, monkeypatch):
    # every box the reciprocity cell asks for, whether served by truncation
    # of the flag's one solution or by a restart from it, equals a fresh
    # solve on a fresh surface: terms, t_prec and u_prec
    S = surface_make(model, q)
    asked, ways = [], set()
    solve = surface_mod.flag_coordinate_series

    def recorded(fl, t_to, u_to):
        held = fl._cache.get("coords")
        box = (t_to, u_to)
        if held is None:
            ways.add("fresh")
        else:
            ways.add("truncate" if box[0] <= held.t_prec
                     and box[1] <= held.u_prec else "restart")
        got = solve(fl, t_to, u_to)
        asked.append((fl, box, got))
        return got

    monkeypatch.setattr(surface_mod, "flag_coordinate_series", recorded)
    for w in reciprocity_corpus(S, 9, 0):
        check_reciprocity_around_points(w)
        check_reciprocity_along_curves(w)
    monkeypatch.undo()
    assert ways == {"fresh", "truncate", "restart"}, ways
    assert len(asked) >= 50, len(asked)
    for fl, box, got in asked:
        T = surface_make(model, q)
        again = flag_make(point_from_coords(T, fl.point.coords),
                          curve_make(T, fl.curve.poly))
        fresh = flag_coordinate_series(again, *box)
        assert (got.terms, got.t_prec, got.u_prec) == \
            (fresh.terms, fresh.t_prec, fresh.u_prec), (fl, box)



# ---------------------------------------------------------------------------
# coordinates lifted from the branch


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 4, 9])
def test_lifted_coordinates_solve_the_curve_equation_on_the_box(model, q):
    # y = ybar(u) + sum_i c_i(u) t^i solves t_param(coords) = t: the
    # difference is zero on the box, and the box is its window.  Over F_2
    # the cubic's flags solve for a coordinate of degree 3 >= p, whose
    # Hasse derivatives T^[j] differ from T^(j) / j!, which is 0 / 0 there
    flags = _branch_flags(model, q)
    assert any(fl.point.degree == 2 for fl in flags)
    assert {D.degree() for D in {fl.curve for fl in flags}} == (
        {(2,), (3,)} if model == "P2" else {(1, 1), (1, 2)})
    if q == 2:
        assert any(fl.t_param.degree_in(1 - fl.u_index) >= 2 for fl in flags)
    for fl in flags:
        k = fl.point.residue_field
        t = LaurentSeries2.monomial(k, k.one(), 1, 0)
        for box in ((1, 1), (2, 9), (8, 8), (12, 5)):
            rest = mp_eval_series(fl.t_param, chart_series(fl, *box), k) - t
            assert (rest.t_prec, rest.u_prec) == box, (fl, box, rest)
            assert not rest.terms, (fl, box, rest)


def test_a_curve_linear_in_the_solved_coordinate_lifts_to_one_t_column():
    # t_param = x^2 - y on the conic YZ - X^2 at the origin: y = u^2 - t,
    # so c_1 = -1 and every later c_i is 0
    S = p2(5)
    fl = flag_make(point_from_coords(S, [S.base.from_int(i)
                                         for i in (0, 0, 1)]),
                   curve_make(S, "YZ-X^2"))
    other = flag_coordinate_series(fl, 12, 12)
    assert {t for t, _u in other.terms} <= {0, 1}, other
    assert coeff(other, 1, 0) == -S.base.one() and is_one(coeff(other, 0, 2))
    assert len(other.terms) == 2 and (other.t_prec, other.u_prec) == (12, 12)


def _expansion_cases(model, q):
    """(flag, P) for every flag of _branch_flags and P the curves' own
    polynomials, two seeded ones and a sum of two monomials, whose columns
    in the solved coordinate skip every power between 0 and 4."""
    S = surface_make(model, q)
    rng = random.Random(q)
    cls, sparse = ((3,), "X^4+Y^4+Z^4") if model == "P2" else \
        ((2, 2), "X0^4Y0^4+X1^4Y1^4")
    polys = [parse_poly(S, sparse)]
    for _ in range(2):
        polys.append(MPoly(S.base, S.nvars, {
            e: rng.randrange(q) for e in class_monomials(S, cls)}))
    flags = _branch_flags(model, q)
    polys += [D.poly for D in {fl.curve: None for fl in flags}]
    return [(fl, P) for fl in flags for P in polys if not P.is_zero()]


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 4, 9])
def test_expansion_from_columns_equals_term_by_term_evaluation(model, q):
    # sum_m col_m(u) B^m on the box against the polynomial evaluated term
    # by term at u_value + u and B (tests/reference_series.py), cut to the
    # box: the same terms and exactly the box, at points of degree 2, for
    # either coordinate as u, on boxes of t-window 1 and of unequal
    # windows, for columns that skip powers and degrees past the t-window
    cases = _expansion_cases(model, q)
    assert any(fl.point.degree == 2 for fl, _P in cases)
    assert {fl.u_index for fl, _P in cases} == {0, 1}
    seen = set()
    for fl, P in cases:
        k = fl.point.residue_field
        cols = surface_mod._u_columns(surface_mod._mp_embed(
            fl.curve.surface.dehomogenize(P, fl.chart), k), fl)
        for box in ((1, 1), (1, 6), (3, 9), (6, 2), (8, 8)):
            got = expand_poly_at_flag(P, fl, *box)
            want = reference_expansion(P, fl, *box)
            assert (got.t_prec, got.u_prec) == box, (fl, P, box, got)
            assert (want.t_prec, want.u_prec) == box, (fl, P, box, want)
            assert got.terms == want.terms, (fl, P, box)
            if not all(cols) and len(cols) > box[0]:
                seen.add("skip past the window")
    assert seen == {"skip past the window"}
    S, fl = _flex_flag()
    P = parse_poly(S, "Z^20")
    for box in ((1, 61), (4, 20), (8, 8), (16, 76)):
        got = expand_poly_at_flag(P, fl, *box)
        assert (got.t_prec, got.u_prec) == box, (box, got)
        assert got.terms == reference_expansion(P, fl, *box).terms, box
    assert got.terms


# ---------------------------------------------------------------------------
# the kept forms of the class pairing, the chart equations and the valuation,
# against the forms they replace


def reference_pairing(S, a, b):
    """The class pairing by the product formula: the coefficient of the top
    monomial of (sum a_i h_i)(sum b_j h_j), over every index pair."""
    top = [len(g) - 1 for g in S.groups]
    pairs = itertools.product(range(len(top)), repeat=2)
    return sum(a[i] * b[j] for i, j in pairs
               if [(m == i) + (m == j) for m in range(len(top))] == top)


def reference_dehomogenize(f, chart):
    """f with the chart's unit variables set to 1, computed afresh."""
    out = {}
    for e, c in f.terms.items():
        k = tuple(e[v] for v in chart.affine_vars)
        out[k] = f.desc.add(out.get(k, 0), c)
    return MPoly(f.desc, 2, out)


def reference_valuation(P, fl):
    """(vt, w) by the branch at every flag: the u-order of the t^vt column
    read off Horner's rule along the curve, with no test for a unit."""
    S, D = fl.curve.surface, fl.curve
    vt, rest = surface_mod._order(P, D)
    n = reference_pairing(S, S.class_add(S.poly_class(P), S.class_scale(
        -vt, D.degree())), D.degree()) + 1
    k = fl.point.residue_field
    along = ps_horner(
        surface_mod._u_columns(surface_mod._mp_embed(
            reference_dehomogenize(rest, fl.chart), k), fl),
        surface_mod._branch(fl, n), n, k)
    return vt, next(i for i, c in enumerate(along) if c)


def _fixture_curves(S):
    from adeles2d.cli import CUBIC_BY_P, CUBIC_DEFAULT, FIXTURES
    cubic = CUBIC_BY_P.get(S.base.p, CUBIC_DEFAULT)
    return [curve_make(S, cubic if n == "cubic" else n)
            for n in FIXTURES[S.model].bezout]


def _valuation_cases(S):
    """(P, flag) for every flag where two bezout fixture curves meet and
    every flag of the reciprocity corpus at seed 0 (each polar component
    where it meets another component of its form), with P each fixture
    curve, each curve times the flag's curve, the form polynomial and, on
    the corpus, the form's numerator and denominator."""
    curves = _fixture_curves(S)
    cases = []
    for C, H in itertools.combinations(curves, 2):
        for x in intersection_support(C, H):
            for D in (C, H):
                fl = flag_make(x, D)
                polys = [E.poly for E in curves]
                cases += [(P, fl) for P in polys + [P * D.poly for P in polys]
                          + [form_polynomial(fl)]]
    for w in reciprocity_corpus(S, 9, 0):
        f = w.coefficient
        for D in w.components:
            for x in surface_mod.meeting_points(
                    (D, E) for E in w.components if E != D):
                fl = flag_make(x, D)
                cases += [(P, fl) for P in [f.num, f.den, form_polynomial(fl)]
                          + [E.poly for E in w.components]]
    return cases


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_the_valuation_of_a_unit_equals_the_branch_route(model, q):
    # where P / D^vt does not vanish at the point, the valuation reads w = 0
    # from one evaluation; the branch route must find the same 0, and the
    # same w everywhere else
    S = surface_make(model, q)
    cases = _valuation_cases(S)
    got = [poly_valuation_at_flag(P, fl) for P, fl in cases]
    assert got == [reference_valuation(P, fl) for P, fl in cases]
    # both routes are taken, the branch also past a power of the curve
    assert {w == 0 for _vt, w in got} == {True, False}
    assert any(vt and w for vt, w in got)


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_the_pairing_table_equals_the_product_formula(model):
    S = surface_make(model, 3)
    box = class_range(S, -3, 3)
    for a in box:
        for b in box:
            assert class_intersection(S, a, b) == reference_pairing(S, a, b)


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
@pytest.mark.parametrize("q", [2, 4])
def test_chart_equations_are_kept_once_per_polynomial_and_chart(model, q):
    S = surface_make(model, q)
    curves = _fixture_curves(S)
    for C, H in itertools.combinations(curves, 2):
        intersection_oracle(Divisor(S, {C: 1}), Divisor(S, {H: 1}))
    kept = [(key, f) for key, f in S.memo.items() if key[0] == "chart"]
    assert kept
    charts = {ch.name: ch for ch in S.charts}
    for (_kind, P, name), f in kept:
        assert f == reference_dehomogenize(P, charts[name]), (P, name)
        assert S.dehomogenize(P, charts[name]) is f
    for P in [C.poly for C in curves]:
        for chart in S.charts:
            f = S.dehomogenize(P, chart)
            assert f == reference_dehomogenize(P, chart), (P, chart)
            assert S.dehomogenize(P, chart) is f
