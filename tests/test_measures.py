"""Measure tags, characteristic pairings, Fourier rewrites, the central
extension, finite windows, and the assembled Riemann-Roch identity."""

import json

import pytest

from adeles2d import cli, measures, residues, surface
from adeles2d.cohomology import cech_h_vector, class_range, h_vector, rr_space
from adeles2d.fields import field_make
from adeles2d.measures import (
    CentralExtElem,
    CharElem,
    WINDOW_POINT_DEGREE,
    canonical_divisor,
    central_commutator,
    central_ext_commutator,
    char_distribution,
    char_function,
    char_pairing,
    class_representative,
    counting_measure,
    derive_eq1,
    derive_eq2,
    divisor_zero,
    fourier_char,
    idele_transport,
    measure_mu_L,
    rr_assemble,
    window_annihilator_check,
    window_build,
)
from adeles2d.residues import AdeleFragment, adelic_pairing
from adeles2d.series import LaurentSeries2, PrecisionError
from adeles2d.surface import (
    Divisor,
    curve_make,
    divisor_class,
    flag_make,
    form_polynomial,
    poly_valuation_at_flag,
    smooth_flag,
    surface_make,
)
from adeles2d.symbols import IdeleRule
from reference_points import scan_points


def plane(q=3):
    return surface_make("P2", q)


def quadric(q=2):
    return surface_make("P1xP1", q)


# ---------------------------------------------------------------------------
# measure tags


def test_measure_tags_compose_associatively_with_identity():
    S = plane()
    D = [class_representative(S, (n,)) for n in range(4)]
    t01 = counting_measure("A01", D[0], D[1])
    t12 = counting_measure("A01", D[1], D[2])
    t23 = counting_measure("A01", D[2], D[3])
    assert (t01 * t12) * t23 == t01 * (t12 * t23)
    ident = counting_measure("A01", D[1], D[1])
    assert ident.value == 0
    assert t01 * ident == t01
    assert t01 * counting_measure("A01", D[1], D[0]) == \
        counting_measure("A01", D[0], D[0])


def test_measure_tags_reject_mismatched_endpoints():
    S = plane()
    a = counting_measure("A01", divisor_zero(S), class_representative(S, (1,)))
    b = counting_measure("A01", divisor_zero(S), class_representative(S, (2,)))
    try:
        a * b
    except ValueError:
        pass
    else:
        raise AssertionError("composed tags with mismatched endpoints")
    c = counting_measure("A/A01", divisor_zero(S), class_representative(S, (1,)))
    try:
        a * c
    except ValueError:
        pass
    else:
        raise AssertionError("composed tags from different ambient chains")


def test_global_function_adapted_measure_counts_sections():
    for S in (plane(2), plane(3), quadric(2)):
        refs = [class_representative(S, c) for c in class_range(S, 0, 2)]
        if S.model == "P2":
            # references that are not class representatives
            X = curve_make(S, "X")
            refs += [Divisor(S, {X: 2}),
                     Divisor(S, {X: -1, curve_make(S, "Y"): 1})]
        for Di in refs:
            for Dj in refs:
                m = measure_mu_L("A01", Di, Dj)
                hi = len(rr_space(Di))
                hj = len(rr_space(Dj))
                assert m.value == hi - hj, (Di, Dj, m)


def test_full_and_compact_chain_adapted_measures():
    for S in (plane(3), quadric(2)):
        for ci in class_range(S, -2, 1):
            for cj in class_range(S, -2, 1):
                Di = class_representative(S, ci)
                Dj = class_representative(S, cj)
                full = measure_mu_L("A", Di, Dj)
                want = cech_h_vector(S, ci).chi - cech_h_vector(S, cj).chi
                assert full.value == want, (ci, cj, full)
                compact = measure_mu_L("A/A01", Di, Dj)
                want2 = cech_h_vector(S, ci).h2 - cech_h_vector(S, cj).h2
                assert compact.value == want2, (ci, cj, compact)


def test_measures_reject_an_unknown_ambient_chain():
    S = plane()
    z = divisor_zero(S)
    L1 = class_representative(S, (1,))
    for make in (measure_mu_L, counting_measure):
        for ambient in ("A02", "A12", "a", ""):
            try:
                make(ambient, z, L1)
            except ValueError as err:
                assert f"unknown ambient chain {ambient!r}" in str(err), err
            else:
                raise AssertionError(f"{make.__name__} built a measure in "
                                     f"the unknown chain {ambient!r}")


# ---------------------------------------------------------------------------
# characteristic elements and pairings


def test_char_pairing_counts_sections_between_levels():
    for S in (plane(2), plane(5), quadric(3)):
        for cH, cC in [(S.class_zero(), S.class_zero())] + [
                (a, b) for a in class_range(S, 0, 1)
                for b in class_range(S, 0, 2)]:
            H = class_representative(S, cH)
            C = class_representative(S, cC)
            got = char_pairing(char_function(S, "A01", H), char_distribution(
                C, counting_measure("A01", H, C)))
            want = len(rr_space(C)) - len(rr_space(H))
            assert got == want, (cH, cC, got)


def test_char_pairing_on_the_full_chain_compares_euler_characteristics():
    for S in (plane(3), quadric(2)):
        for cR in class_range(S, -2, 0):
            for cS in class_range(S, -1, 1):
                R = class_representative(S, cR)
                Sd = class_representative(S, cS)
                got = char_pairing(char_function(S, "A", R),
                                   char_distribution(
                                       Sd, counting_measure("A", R, Sd)))
                want = cech_h_vector(S, cS).chi - cech_h_vector(S, cR).chi
                assert got == want, (cR, cS, got)


def test_char_pairing_rejects_incompatible_elements():
    S = plane()
    z = divisor_zero(S)
    C = class_representative(S, (1,))
    dist = char_distribution(C, counting_measure("A01", z, C))
    try:
        char_pairing(char_function(S, "A01", C), dist)
    except ValueError as err:
        assert "incompatible reference lattices" in str(err), err
    else:
        raise AssertionError("paired elements with different references")
    try:
        char_pairing(dist, dist)
    except ValueError:
        pass
    else:
        raise AssertionError("paired two distribution-like elements")
    try:
        char_pairing(char_function(S, "A01", z),
                     char_distribution(C, counting_measure("A", z, C)))
    except ValueError:
        pass
    else:
        raise AssertionError("paired elements of different ambient chains")
    try:
        char_pairing(char_function(S, "A01", z),
                     char_distribution(C, counting_measure("A/A01", z, C)))
    except ValueError:
        pass
    else:
        raise AssertionError("paired a compact-chain distribution against a "
                             "discrete-chain indicator")
    try:
        char_distribution(C, counting_measure("A01", C, z))
    except ValueError as err:
        assert "measure must end at the element's lattice" in str(err), err
    else:
        raise AssertionError("built a distribution whose measure ends "
                             "elsewhere")


def test_char_elements_check_their_measure_where_built():
    S = plane()
    z = divisor_zero(S)
    cases = [
        (lambda: CharElem("A02", z), "unknown ambient chain 'A02'"),
        (lambda: char_function(S, "A01", None),
         "the reference must be a divisor on P2/GF(3)"),
        (lambda: char_function(S, "A01", divisor_zero(quadric(3))),
         "the reference must be a divisor on P2/GF(3)"),
    ]
    for make, text in cases:
        try:
            make()
        except ValueError as err:
            assert text in str(err), err
        else:
            raise AssertionError(f"built an element that should fail: {text}")


def test_a_distribution_is_its_measure_tag():
    S = plane()
    z = divisor_zero(S)
    C = class_representative(S, (1,))
    w = canonical_divisor(S)
    m = counting_measure("A01", z, C)
    assert char_distribution(C, m) is m
    # a counting tag goes to the dual chain's counting tag, reflected
    assert fourier_char(m, w) == counting_measure("A/A01", w - z, w - C)
    f = fourier_char(char_function(S, "A01", C), w)
    assert isinstance(f, CharElem) and f == CharElem("A/A01", w - C)
    dL = char_function(S, "A01", z)
    for a, b in ((m, dL), (dL, dL), (m, m)):
        try:
            char_pairing(a, b)
        except ValueError as err:
            assert "in that order" in str(err), err
        else:
            raise AssertionError(f"paired {a!r} with {b!r}")
    try:
        char_pairing(char_function(S, "A01", C), m)
    except ValueError as err:
        assert "incompatible reference lattices" in str(err), err
    else:
        raise AssertionError("paired a tag that starts off the reference")


def test_fourier_is_an_involution_on_every_supported_shape():
    for S in (plane(3), quadric(2)):
        w = canonical_divisor(S)
        z = divisor_zero(S)
        C = class_representative(
            S, (1,) if S.model == "P2" else (1, 0))
        shapes = [
            char_function(S, "A01", z),
            char_function(S, "A", C),
            char_distribution(C, counting_measure("A01", z, C)),
            char_distribution(C, counting_measure("A", z, C)),
        ]
        shapes += [fourier_char(e, w) for e in shapes]
        for e in shapes:
            assert fourier_char(fourier_char(e, w), w) == e, e


def test_fourier_preserves_the_characteristic_pairing():
    # A0 against A1, A02 mod A0 against A12 mod A1, and A02 against A12
    for S in (plane(2), quadric(3)):
        w = canonical_divisor(S)
        for ambient in ("A01", "A/A01", "A"):
            for cH in class_range(S, -1, 1):
                for cC in class_range(S, -1, 1):
                    H = class_representative(S, cH)
                    C = class_representative(S, cC)
                    dL = char_function(S, ambient, H)
                    dA = char_distribution(
                        C, counting_measure(ambient, H, C))
                    lhs = char_pairing(dL, dA)
                    rhs = char_pairing(fourier_char(dL, w),
                                       fourier_char(dA, w))
                    assert lhs == rhs, (ambient, cH, cC, lhs, rhs)


def test_fourier_rejects_unsupported_shapes():
    S = plane()
    z = divisor_zero(S)
    C = class_representative(S, (1,))
    w = canonical_divisor(S)
    mixed = counting_measure("A", z, C) * measure_mu_L("A", C, C)
    try:
        fourier_char(char_distribution(C, mixed), w)
    except ValueError as err:
        assert "unsupported characteristic shape" in str(err), err
    else:
        raise AssertionError("transformed a mixed-family distribution")
    try:
        fourier_char(char_function(S, "A01", z), canonical_divisor(quadric(3)))
    except ValueError as err:
        assert "different surfaces" in str(err), err
    else:
        raise AssertionError("reflected through the form of another surface")


# ---------------------------------------------------------------------------
# the two derived identities


def verdict(check):
    return check.lhs, check.rhs, check.passed


def test_sections_difference_identity_on_the_plane():
    S = plane()
    got = derive_eq1(S, (1,), (0,))
    assert verdict(got) == (2, 2, True)
    assert (got.name, got.inputs) == ("serre-difference", {"C": 1, "H": 0})
    assert verdict(derive_eq1(S, (2,), (2,))) == (0, 0, True)
    for cC in range(-2, 3):
        for cH in range(-2, 3):
            got = derive_eq1(S, (cC,), (cH,))
            assert got.passed and got.lhs == got.rhs, (cC, cH, got)


def test_sections_difference_identity_on_the_quadric():
    S = quadric()
    got = derive_eq1(S, (1, 0), (0, 0))
    assert verdict(got) == (1, 1, True)
    assert got.inputs == {"C": (1, 0), "H": (0, 0)}
    for cC in class_range(S, -1, 1):
        for cH in class_range(S, -1, 1):
            got = derive_eq1(S, cC, cH)
            assert got.passed and got.lhs == got.rhs, (cC, cH)


def test_representatives_and_reflections_are_built_once_per_surface():
    S = quadric()
    w = canonical_divisor(S)
    D = class_representative(S, (1, 2))
    assert class_representative(S, [1, 2]) is D
    R = measures._reflect(w, D)
    assert R == w - D and measures._reflect(w, D) is R
    # an equal divisor built anew finds the same entry
    same = Divisor(S, dict(D.components))
    assert same is not D and same == D and hash(same) == hash(D)
    assert measures._reflect(w, same) is R
    T = quadric()
    assert class_representative(T, (1, 2)) == D
    assert class_representative(T, (1, 2)) is not D


def test_euler_characteristic_symmetry():
    S = plane()
    got = derive_eq2(S, (1,))
    assert verdict(got) == (3, 3, True)
    assert (got.name, got.inputs) == ("chi-symmetry", {"S": 1})
    assert verdict(derive_eq2(S, (0,))) == (1, 1, True)
    for c in range(-3, 4):
        got = derive_eq2(S, (c,))
        assert got.passed and got.lhs == got.rhs, (c, got)
    Q = quadric()
    assert verdict(derive_eq2(Q, (1, 1))) == (4, 4, True)
    for c in class_range(Q, -2, 2):
        got = derive_eq2(Q, c)
        assert got.passed and got.lhs == got.rhs, (c, got)


def test_section_space_dimensions_match_the_closed_form():
    for S in (plane(2), plane(3), quadric(2)):
        for c in class_range(S, 0, 2):
            D = class_representative(S, c)
            assert len(rr_space(D)) == h_vector(S, divisor_class(D)).h0, c


# ---------------------------------------------------------------------------
# the central extension


def test_central_extension_products_transport_measures():
    S = plane()
    z = divisor_zero(S)
    C = class_representative(S, (1,))
    H = class_representative(S, (-4,))
    a = CentralExtElem(IdeleRule("at_points", C), counting_measure("A", z, C))
    b = CentralExtElem(IdeleRule("along_curves", H), measure_mu_L("A", z, H))
    ab = a * b

    def chi_of(D):
        return h_vector(S, divisor_class(D)).chi

    assert ab.phi.frm == z
    assert ab.phi.to == C + H
    assert ab.phi.value == chi_of(C) - chi_of(C + H)
    ba = b * a
    assert ba.phi.value == chi_of(z) - chi_of(H)
    got = central_ext_commutator(a, b)
    assert got == 4, got


def test_a_lift_carries_a_full_chain_measure_from_the_base_lattice():
    S = plane()
    z = divisor_zero(S)
    C = class_representative(S, (1,))
    for phi in (counting_measure("A01", z, C),
                counting_measure("A/A01", z, C),
                counting_measure("A", C, C + C)):
        try:
            CentralExtElem(IdeleRule("at_points", C), phi)
        except ValueError as err:
            assert "lift measure must start at the base lattice" in str(
                err), err
        else:
            raise AssertionError(f"built a lift carrying {phi!r}")


def test_idele_transport_only_moves_its_own_family():
    S = plane()
    z = divisor_zero(S)
    C = class_representative(S, (1,))
    moved = idele_transport(IdeleRule("along_curves", C),
                            counting_measure("A", z, C))
    assert moved.frm == C
    assert moved.to == C + C
    for kind, tag in (("at_points", counting_measure("A", z, C)),
                      ("along_curves", measure_mu_L("A", z, C))):
        try:
            idele_transport(IdeleRule(kind, C), tag)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{kind} moved a {tag.family} measure")


def test_central_commutator_agrees_with_the_symbol_route():
    S = plane()
    w = canonical_divisor(S)
    got = central_commutator(class_representative(S, (1,)), w)
    assert verdict(got) == (4, 4, True), got
    assert (got.name, got.inputs) == ("commutator", {"C": 1})
    got = central_commutator(divisor_zero(S), w)
    assert verdict(got) == (0, 0, True), got
    Q = quadric()
    wq = canonical_divisor(Q)
    got = central_commutator(class_representative(Q, (1, 0)), wq)
    assert verdict(got) == (2, 2, True), got
    assert got.inputs == {"C": (1, 0)}


def test_central_commutator_across_a_class_range():
    S = plane(3)
    w = canonical_divisor(S)
    for c in range(-2, 3):
        got = central_commutator(class_representative(S, (c,)), w)
        assert got.passed, (c, got)
        assert got.lhs == -c * (-3 - c), (c, got)


# ---------------------------------------------------------------------------
# Riemann-Roch assembly


def test_riemann_roch_reports_on_both_surfaces():
    S = plane()
    w = canonical_divisor(S)
    r = rr_assemble(class_representative(S, (1,)), w)
    assert (r.lhs, r.rhs, r.passed) == (3, 3, True), r
    r = rr_assemble(divisor_zero(S), w)
    assert (r.lhs, r.rhs, r.passed) == (1, 1, True), r
    Q = quadric()
    r = rr_assemble(class_representative(Q, (1, 0)), canonical_divisor(Q))
    assert (r.lhs, r.rhs, r.passed) == (2, 2, True), r
    assert all(sub.passed for sub in r.subchecks), r.subchecks


def test_riemann_roch_report_serializes_to_json():
    S = plane()
    r = rr_assemble(class_representative(S, (2,)), canonical_divisor(S))
    [doc] = json.loads(cli._records_text([r], [0]))
    assert doc["name"] == "riemann-roch"
    assert doc["pass"] is True
    assert doc["lhs"] == doc["rhs"] == 6
    assert {sub.name for sub in r.subchecks} == {
        "serre-difference", "chi-symmetry", "commutator"}


def test_canonical_divisor_matches_the_canonical_class():
    for S in (plane(2), plane(3), plane(5), quadric(2), quadric(3)):
        w = canonical_divisor(S)
        assert divisor_class(w) == S.canonical_class(), (S, w)


# ---------------------------------------------------------------------------
# finite windows


def test_single_flag_window_is_one_dimensional():
    S = plane()
    X = curve_make(S, "X")
    w = window_build(divisor_zero(S), Divisor(S, {X: 1}), u_size=1)
    assert w.dimension == 1 and w.rank == 1, w


def test_window_on_three_coordinate_lines_has_rank_twelve():
    S = plane()
    L = Divisor(S, {curve_make(S, n): 1 for n in "XYZ"})
    w = window_build(-L, L, u_size=2)
    assert w.dimension == 12 and w.rank == 12, w
    assert len(w.flags) == 3
    # the form is du^dt / P: its t-order at a flag is minus P's
    jorders = [poly_valuation_at_flag(form_polynomial(fl), fl)
               for fl in w.flags]
    assert sorted(-pt for pt, _pu in jorders) == [-3, 0, 0]


def test_window_annihilators_match_reflected_lattices():
    S = plane()
    X, Y, Z = (curve_make(S, n) for n in "XYZ")
    L = Divisor(S, {X: 1, Y: 1, Z: 1})
    w = window_build(-L, L, u_size=2)
    assert window_annihilator_check(w, divisor_zero(S))
    assert window_annihilator_check(w, L)
    assert window_annihilator_check(w, -L)
    assert window_annihilator_check(w, Divisor(S, {X: 1, Y: -1}))
    assert window_annihilator_check(w, Divisor(S, {X: 1, Y: 1, Z: -1}))


def test_self_dual_window_on_the_quadric():
    Q = quadric()
    w = window_build(canonical_divisor(Q), divisor_zero(Q), u_size=1)
    assert w.dimension == 4 and w.rank == 4, w
    X1 = curve_make(Q, "X1")
    Y1 = curve_make(Q, "Y1")
    half = Divisor(Q, {X1: -1, Y1: -1})
    assert window_annihilator_check(w, half)
    assert window_annihilator_check(w, divisor_zero(Q))
    assert window_annihilator_check(w, canonical_divisor(Q))


def _exhaustive_flag(D, max_degree, avoid=()):
    """The first admissible flag over every point of D up to the degree."""
    for pt in scan_points(D, max_degree):
        if any(E.poly.evaluate(list(pt.coords)).is_zero() for E in avoid):
            continue
        try:
            return flag_make(pt, D)
        except ValueError:
            continue
    return None


def test_window_flag_matches_the_exhaustive_choice(monkeypatch):
    chosen = []

    def recording(D, max_degree, avoid=()):
        fl = smooth_flag(D, max_degree, avoid)
        chosen.append((D, max_degree, avoid, fl))
        return fl

    monkeypatch.setattr(measures, "smooth_flag", recording)
    for q in (2, 3, 4, 5):
        # the windows of `verify --suites windows` on each surface
        S = surface_make("P2", q)
        X = curve_make(S, "X")
        L = Divisor(S, {curve_make(S, n): 1 for n in "XYZ"})
        window_build(divisor_zero(S), Divisor(S, {X: 1}), u_size=1)
        window_build(-L, L, u_size=2)
        Q = surface_make("P1xP1", q)
        window_build(canonical_divisor(Q), divisor_zero(Q), u_size=1)
    assert len(chosen) == 4 * (1 + 3 + 2)
    assert all(c[1] == WINDOW_POINT_DEGREE for c in chosen)
    # over F_2 the rational points of X all lie on Y, Z or Y + Z
    S = surface_make("P2", 2)
    X = curve_make(S, "X")
    avoid = [curve_make(S, n) for n in ("Y", "Z", "Y+Z")]
    fl = smooth_flag(X, 2, avoid)
    assert fl.point.degree == 2
    chosen.append((X, 2, avoid, fl))
    # and its points of degree 2 on the conic Y^2 + YZ + Z^2
    avoid = avoid + [curve_make(S, "Y^2+YZ+Z^2")]
    fl = smooth_flag(X, 3, avoid)
    assert fl.point.degree == 3
    chosen.append((X, 3, avoid, fl))
    for D, max_degree, avoid, fl in chosen:
        ref = _exhaustive_flag(D, max_degree, avoid)
        assert (fl.point, fl.curve) == (ref.point, ref.curve), (D, avoid, fl)


def _walk_cases(model, q):
    """Conics, cubics and a singular curve on the surface, each with the
    avoid lists made of the other curves of a pool: none, each one, and
    all."""
    S = surface_make(model, q)
    # the last of each is singular at the least rational point of the
    # surface, (0:0:1) or (0:1)x(0:1)
    texts = (("YZ-X^2", "XY+XZ+YZ", "Y^2Z-X^3-XZ^2-Z^3",
              "Y^2Z+XYZ-X^3-Z^3", "Y^2Z-X^3-X^2Z") if model == "P2" else
             ("X0Y1-X1Y0", "X0Y0+X1Y1+X0Y1", "X0Y0^2+X1Y1^2+X1Y0Y1",
              "X0^2Y0+X1^2Y1", "X0^3Y1^2+X1^3Y0^2"))
    pool = [curve_make(S, t) for t in texts] + list(S.lines.values()) + [
        curve_make(S, "X+Y+Z" if model == "P2" else "X0+X1")]
    cases = []
    for D in pool[:len(texts)]:
        others = [E for E in pool if E != D]
        cases += [(D, [])] + [(D, [E]) for E in others] + [(D, others)]
    return cases


def test_the_walk_picks_the_exhaustive_flag_on_conics_and_cubics():
    # over F_4 and F_9 the walk's order of F_q is the elements' sort key,
    # not their codes; the avoid lists push the choice past the points with
    # coordinates in the prime field, and some curves to degree 2
    degrees = set()
    for model in ("P2", "P1xP1"):
        for q in (4, 9):
            for D, avoid in _walk_cases(model, q):
                ref = _exhaustive_flag(D, 2, avoid)
                try:
                    fl = smooth_flag(D, 2, avoid)
                except ValueError:
                    assert ref is None, (D, avoid)
                    continue
                assert (fl.point, fl.curve) == (ref.point, ref.curve), \
                    (D, avoid, fl, ref)
                degrees.add(fl.point.degree)
                if fl.point.degree == 1:
                    digits = {c.coeffs for c in fl.point.coords}
                    degrees.add("outside F_p" if any(
                        any(d[1:]) for d in digits) else "F_p")
    assert degrees == {1, 2, "F_p", "outside F_p"}, degrees


def test_a_curve_with_an_admissible_rational_point_is_not_enumerated(
        monkeypatch):
    # the walk over the points with coordinates in F_q is the only one
    # when an admissible rational point exists; otherwise it goes on to
    # F_(q^2)
    cases = [(D, avoid) for model in ("P2", "P1xP1") for q in (4, 9)
             for D, avoid in _walk_cases(model, q)]
    refs = [_exhaustive_flag(D, 2, avoid) for D, avoid in cases]
    walked = []
    points_over = surface._points_over

    def recording(S, k):
        walked.append(k)
        return points_over(S, k)

    monkeypatch.setattr(surface, "_points_over", recording)
    rational = 0
    for (D, avoid), ref in zip(cases, refs):
        # fresh curves on a fresh surface, so nothing is cached
        S = surface_make(D.surface.model, D.surface.base.q)
        D2 = curve_make(S, D.poly)
        avoid2 = [curve_make(S, E.poly) for E in avoid]
        walked.clear()
        if ref is not None and ref.point.degree == 1:
            assert smooth_flag(D2, 2, avoid2).point == ref.point
            assert walked == [S.base], (D, avoid, walked)
            rational += 1
        else:
            try:
                assert smooth_flag(D2, 2, avoid2).point == ref.point
            except ValueError:
                assert ref is None, (D, avoid)
            assert walked == [S.base, field_make(S.base.p, 2 * S.base.d)]
    assert 0 < rational < len(cases), (rational, len(cases))


def _dense(rows, width):
    """Sparse rows (column -> code) as dense rows of the given width."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def _fragment(fl, b, a, li):
    """The basis monomial gen^li t^b u^a at fl, as an adele fragment."""
    kx = fl.point.residue_field
    coeff = kx.gen() ** li if li else kx.one()
    return AdeleFragment({fl: LaurentSeries2.monomial(kx, coeff, b, a)})


def test_window_gram_equals_the_all_pairs_gram(monkeypatch):
    pairings, forms = [], []
    real_form = measures.canonical_local_form

    def pairing_called(a, b):
        pairings.append((a, b))
        return adelic_pairing(a, b)

    def counting(fl, t_to, u_to):
        forms.append(fl)
        return real_form(fl, t_to, u_to)

    for q in (2, 4, 9):
        # the windows of `verify --suites windows` on each surface, and one
        # whose flag on Y+Z sits at a point of degree 2 over F_2, so that
        # the residue-field exponents add too
        S = surface_make("P2", q)
        L = Divisor(S, {curve_make(S, n): 1 for n in "XYZ"})
        L4 = L + Divisor(S, {curve_make(S, "Y+Z"): 1})
        Q = surface_make("P1xP1", q)
        for R, top, u_size in (
                (divisor_zero(S), Divisor(S, {curve_make(S, "X"): 1}), 1),
                (-L, L, 2), (canonical_divisor(Q), divisor_zero(Q), 1),
                (divisor_zero(S), L4, 2)):
            forms.clear()
            with monkeypatch.context() as m:
                m.setattr(residues, "adelic_pairing", pairing_called)
                m.setattr(measures, "canonical_local_form", counting)
                w = window_build(R, top, u_size=u_size)
            frag = [_fragment(w.flags[fi], b, a, li)
                    for fi, b, a, li in w.basis]
            dual = [_fragment(w.flags[fi], b, a, li)
                    for fi, b, a, li in w.dual_basis]
            gram = [[adelic_pairing(x, y).n if e[0] == f[0] else 0
                     for y, f in zip(dual, w.dual_basis)]
                    for x, e in zip(frag, w.basis)]
            assert _dense(w.gram, len(w.dual_basis)) == gram, (q, w)
            # a row holds nonzero pairings only
            assert all(all(row.values()) for row in w.gram), (q, w)
            if q == 2 and top == L4:
                assert max(fl.point.degree for fl in w.flags) == 2, w
            # the gram reads one J per flag and pairs no fragments
            assert not pairings, (q, w)
            assert set(forms) == set(w.flags), (q, w)
            assert all(forms.count(fl) == 1 for fl in w.flags), (q, forms)


def test_a_window_form_short_after_one_resize_names_the_flag(monkeypatch):
    # a J whose box holds no slot: the gram asks for it once, then refuses
    windows = []

    def stuck(fl, t_to, u_to):
        windows.append((t_to, u_to))
        return LaurentSeries2.zero(fl.point.residue_field, 0, 0)

    monkeypatch.setattr(measures, "canonical_local_form", stuck)
    S = plane()
    X = curve_make(S, "X")
    with pytest.raises(PrecisionError, match="window gram at flag") as err:
        window_build(divisor_zero(S), Divisor(S, {X: 1}), u_size=1)
    assert "Flag(" in str(err.value) and "Curve(X)" in str(err.value)
    assert len(windows) == 1, windows


@pytest.mark.parametrize("model", ["P2", "P1xP1"])
def test_the_first_window_form_holds_every_slot_the_gram_reads(monkeypatch,
                                                                model):
    # the windows suite's windows at every q of the sweep matrix: the J
    # sized from the exact orders is asked for once per flag, and its box
    # holds every slot J[-1 - (b + bj), -1 - (a + aj)] its gram reads
    built = []
    real_build = measures.window_build
    real_form = measures.canonical_local_form

    def build(*args, **kwargs):
        forms = {}

        def form(fl, t_to, u_to):
            assert fl not in forms, fl
            forms[fl] = real_form(fl, t_to, u_to)
            return forms[fl]

        with monkeypatch.context() as m:
            m.setattr(measures, "canonical_local_form", form)
            w = real_build(*args, **kwargs)
        built.append((w, forms))
        return w

    monkeypatch.setattr(cli, "window_build", build)
    for q in (2, 3, 4, 5, 7, 8, 9):
        built.clear()
        checks = list(cli._suite_windows(surface_make(model, q), None, None))
        assert all(c.passed for c in checks), q
        assert len(built) == {"P2": 2, "P1xP1": 1}[model], q
        for w, forms in built:
            assert set(forms) == set(w.flags), (q, w)
            for fi, b, a, _li in w.basis:
                J = forms[w.flags[fi]]
                for fj, bj, aj, _lj in w.dual_basis:
                    if fj == fi:
                        assert -1 - (b + bj) < J.t_prec, (q, w, b, bj)
                        assert -1 - (a + aj) < J.u_prec, (q, w, a, aj)


def test_window_rejects_bad_inputs():
    S = plane()
    X = curve_make(S, "X")
    Y = curve_make(S, "Y")
    one = Divisor(S, {X: 1})
    try:
        window_build(one, divisor_zero(S))
    except ValueError:
        pass
    else:
        raise AssertionError("built a window with R above S")
    try:
        window_build(divisor_zero(S), divisor_zero(S))
    except ValueError:
        pass
    else:
        raise AssertionError("built an empty window")
    w = window_build(divisor_zero(S), one, u_size=1)
    try:
        window_annihilator_check(w, Divisor(S, {Y: 1}))
    except ValueError:
        pass
    else:
        raise AssertionError("accepted a divisor outside the window bounds")
