"""Tame symbols, idele choosers, and intersection numbers two ways.

The pairing K* x K* -> Z at a flag is the tame symbol in the t-direction
followed by the u-valuation; weighting by residue degrees and negating
gives the exponent of the commutator pairing, whose value on the standard
idele choices recovers the intersection number of divisors.  An independent
classical oracle computes the same number from resultant root orders in a
sheared coordinate frame over a splitting field.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .fields import (
    FieldDesc,
    FieldElem,
    Poly,
    embed,
    field_make,
    pdivmod,
    ptrim,
)
from .multipoly import MPoly, resultant_elim
from .surface import (
    ClosedPoint,
    Curve,
    Divisor,
    Flag,
    Surface,
    _mp_embed,
    class_intersection,
    coordinate_lines,
    divisor_class,
    flag_make,
    intersection_support,
    meeting_points,
    poly_order_at_flag,
    poly_valuation_at_flag,
)


class QPower:
    """An exact power of q."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        self.exponent = exponent

    def __mul__(self, other: "QPower") -> "QPower":
        return QPower(self.exponent + other.exponent)

    def __truediv__(self, other: "QPower") -> "QPower":
        return QPower(self.exponent - other.exponent)

    def __pow__(self, n: int) -> "QPower":
        return QPower(self.exponent * n)

    def inverse(self) -> "QPower":
        return QPower(-self.exponent)

    def __eq__(self, other):
        return isinstance(other, QPower) and self.exponent == other.exponent

    def __repr__(self):
        return f"q^{self.exponent}"


# ---------------------------------------------------------------------------
# idele choosers


# A function as factors (P, e), standing for the product of the P^e.
Factors = List[Tuple[MPoly, int]]


def _germ(D: Curve, m: int,
          avoid: Optional[Sequence[FieldElem]]) -> Factors:
    """D^m over the m-th power of a form of D's class made of coordinate
    lines other than D, none vanishing at the coordinates `avoid` when
    given.  A projective point always leaves at least one coordinate line
    of each group available."""
    def ok(L: Curve) -> bool:
        return L != D and (
            avoid is None or not L.poly.evaluate(avoid).is_zero())

    return [(D.poly, m)] + [(L.poly, -m * n) for L, n in
                            coordinate_lines(D.surface, D.degree(), ok)]


class IdeleRule:
    """Deterministic local function choices for a divisor.

    kind "along_curves": per curve D, a global function whose order along D
    is D's multiplicity in the divisor.  kind "at_points": per point x, a
    local equation at x of the divisor germ (the components through x, with
    denominators kept away from x).
    """

    __slots__ = ("kind", "divisor")

    def __init__(self, kind: str, divisor: Divisor):
        if kind not in ("along_curves", "at_points"):
            raise ValueError(f"unknown idele kind {kind!r}")
        self.kind = kind
        self.divisor = divisor

    def local(self, fl: Flag) -> Factors:
        """The component at the flag, as factors."""
        if self.kind == "along_curves":
            m = self.divisor.components.get(fl.curve, 0)
            return _germ(fl.curve, m, None) if m else []
        x = list(fl.point.coords)
        return [fac for D, m in self.divisor.items()
                if D.poly.evaluate(x).is_zero() for fac in _germ(D, m, x)]


# ---------------------------------------------------------------------------
# commutator pairing and the symbol-route intersection number


def symbol_at_flag(f: Factors, g: Factors, fl: Flag) -> int:
    """The integer symbol at one flag of two functions given as factors.

    With a = v_t(f) and b = v_t(g), the symbol is the u-valuation of the t^0
    column of f^b g^-a.  The rank-2 valuation (v_t, w) at the flag, where w
    is the u-valuation of the leading t-column, is a homomorphism, so that
    valuation is the determinant b w(f) - a w(g), and both f and g
    contribute the sum of e (v_t, w)(P) over their factors (P, e).  Each w
    is read from one polynomial on one box sized by a class pairing
    (surface.poly_valuation_at_flag); a factor whose coefficient is 0 is
    never expanded.
    """
    a = sum(e * poly_order_at_flag(P, fl) for P, e in f)
    b = sum(e * poly_order_at_flag(P, fl) for P, e in g)
    return sum(n * e * poly_valuation_at_flag(P, fl)[1]
               for n, h in ((b, f), (-a, g)) if n for P, e in h if e)


def commutator_pairing(g1: IdeleRule, g2: IdeleRule,
                       flags: Sequence[Flag]) -> QPower:
    """Product over flags of q^(-deg(x) * symbol), the symbol of the two
    idele components at each flag."""
    exponent = 0
    for fl in flags:
        exponent -= fl.point.degree * symbol_at_flag(
            g1.local(fl), g2.local(fl), fl)
    return QPower(exponent)


def _meeting_points(C: Divisor, H: Divisor) -> List[ClosedPoint]:
    """The points where a component of C meets a component of H, sorted."""
    return meeting_points((E, D) for D, _m in H.items()
                          for E, _n in C.items() if E != D)


def _flags_through(x: ClosedPoint, H: Divisor) -> List[Flag]:
    """The flags at x on the components of H through x."""
    return [flag_make(x, D) for D, _m in H.items()
            if D.poly.evaluate(list(x.coords)).is_zero()]


def intersection_flags(C: Divisor, H: Divisor) -> List[Flag]:
    """Flags (x, D) with D in supp(H) and x in supp(C) cap D, sorted by
    point, then by curve."""
    return [fl for x in _meeting_points(C, H) for fl in _flags_through(x, H)]


def intersection_number(C: Divisor, H: Divisor, _window=None) -> int:
    """(C, H) by the symbol route: minus the pairing exponent of the
    standard ideles over the intersection flags.  Every series window is
    sized from exact orders, so a third argument, a window, is ignored; it
    is accepted so that callers which pass one keep working.

    The flags at a point lie on the components of H through it.  Where one
    of them is singular, the point's term is computed with C and H swapped
    (the local intersection number is symmetric); a point where both
    divisors have a singular component raises ValueError."""
    shared = [D for D in C.components if D in H.components]
    if shared:
        raise ValueError(
            "divisors share a component; replace one by a linearly "
            "equivalent divisor in general position, or use "
            "class_intersection")
    exponent = 0
    for x in _meeting_points(C, H):
        for A, B in ((C, H), (H, C)):
            try:
                flags = _flags_through(x, B)
            except ValueError:
                continue
            exponent += commutator_pairing(
                IdeleRule("at_points", A), IdeleRule("along_curves", B),
                flags).exponent
            break
        else:
            raise ValueError(f"both divisors have a component singular at "
                             f"{x!r}: no flag there gives the intersection")
    return -exponent


# ---------------------------------------------------------------------------
# classical oracle via sheared resultants


def intersection_oracle(C: Divisor, H: Divisor) -> int:
    """Independent total intersection number.

    Divisors sharing a component fall back to the class-level form;
    otherwise each local multiplicity is the order of a resultant root in a
    coordinate frame that separates the geometric intersection points.
    """
    S = C.surface
    shared = [D for D in C.components if D in H.components]
    if shared:
        return class_intersection(S, divisor_class(C), divisor_class(H))
    total = 0
    for D, m in C.items():
        for E, n in H.items():
            total += m * n * _pairwise_intersection(D, E)
    return total


def _pairwise_intersection(D: Curve, E: Curve) -> int:
    S = D.surface
    pts = intersection_support(D, E)
    if not pts:
        return 0
    L = 1
    for pt in pts:
        L = math.lcm(L, pt.degree)
    # The frame search needs shear constants beyond the bad ones: at most
    # one per pair of geometric points (sheared abscissas colliding) plus
    # the roots of the two leading forms.  Grow the working field until a
    # good constant must exist.
    npts = sum(pt.degree for pt in pts)
    bad = npts * (npts - 1) // 2 + sum(D.degree()) + sum(E.degree())
    while S.base.q ** L <= bad + 1:
        L *= 2
    F = field_make(S.base.p, S.base.d * L)
    # each point's multiplicity is read in the first chart that holds it
    groups = {}
    for pt in pts:
        chart = next(ch for ch in S.charts if ch.contains(pt.coords))
        groups.setdefault(chart, []).append(pt)
    return sum(pt.degree * m for chart, group in groups.items()
               for pt, m in zip(group, _chart_multiplicities(
                   S, D, E, chart, group, pts, F)))


def _shear(f: MPoly, c: FieldElem) -> MPoly:
    """Substitute x -> x + c*y, fixing y."""
    x, y = MPoly.var(f.desc, 2, 0), MPoly.var(f.desc, 2, 1)
    return f.substitute([x + y.scale(c), y])


def _lead_is_constant(f: MPoly) -> bool:
    """True when the top coefficient in y is a nonzero constant, so no zero
    escapes to infinity in that direction and resultant root orders match
    the local multiplicities below them."""
    d = f.degree_in(1)
    return all(e[0] == 0 for e in f.terms if e[1] == d)


def _chart_multiplicities(S: Surface, D: Curve, E: Curve, chart,
                          group: List[ClosedPoint], pts: List[ClosedPoint],
                          F: FieldDesc) -> List[int]:
    """i_pt(D, E) for each pt of group, all read off one resultant in y
    after a shear x -> x + c*y that separates the conjugates over F of
    every point of pts in the chart: a zero at (a, b) moves to x = a - c*b.
    The field bound of _pairwise_intersection leaves some c good."""
    q = S.base.q
    conjugates = {}
    for pt in pts:
        if chart.contains(pt.coords):
            a, b = chart.affine([embed(v, F) for v in pt.coords])
            conjugates[pt] = [(a ** q ** k, b ** q ** k)
                              for k in range(pt.degree)]
    geo = [ab for got in conjugates.values() for ab in got]
    f, g = (_mp_embed(S.dehomogenize(C.poly, chart), F) for C in (D, E))
    for c in F.elems():
        if len({(a - c * b).n for a, b in geo}) < len(geo):
            continue
        fc = _shear(f, c)
        if not _lead_is_constant(fc):
            continue
        gc = _shear(g, c)
        if not _lead_is_constant(gc):
            continue
        res = ptrim(list(resultant_elim(fc, gc, elim=1, keep=0)))
        mults = [_root_order(res, (a - c * b).n, F)
                 for a, b in (conjugates[pt][0] for pt in group)]
        if 0 in mults:
            raise RuntimeError("resultant lost an intersection point")
        return mults
    raise RuntimeError("no separating frame over the working field")


def _root_order(f: Poly, x0: int, F: FieldDesc) -> int:
    """The order of the element coded x0 as a root of the nonzero polynomial
    f (0 when f(x0) is nonzero), by repeated division by X - x0."""
    linear = [F.neg(x0), 1]
    for order in range(len(f)):
        f, rem = pdivmod(f, linear, F)
        if rem:
            return order
    raise ValueError("the zero polynomial has no root order")
