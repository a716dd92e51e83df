"""Tame symbols, idele choosers, and intersection numbers two ways.

The pairing K* x K* -> Z at a flag is the tame symbol in the t-direction
followed by the u-valuation; weighting by residue degrees and negating
gives the exponent of the commutator pairing, whose value on the standard
idele choices recovers the intersection number of divisors.  An independent
classical oracle computes the same number point by point, by Fulton's
algorithm in each point's residue field.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .fields import BudgetExceeded, pshift
from .multipoly import MPoly
from .surface import (
    ClosedPoint,
    Curve,
    Divisor,
    Factors,
    Flag,
    _mp_embed,
    class_intersection,
    coordinate_lines,
    divisor_class,
    flags_through,
    intersection_support,
    meeting_points,
    valuation_at_flag,
)

# Fulton's loop at a point may take FULTON_STEPS * (m + 1) * (d + e + 1)
# steps, with m the class pairing over the point's degree and d, e the
# degrees of the two chart equations; no pair of the tests or the
# workloads takes a sixth of that
FULTON_STEPS = 4


# ---------------------------------------------------------------------------
# idele choosers


def _germ(D: Curve, x: Optional[ClosedPoint]) -> Factors:
    """D over a form of D's class made of coordinate lines other than D,
    none through x when given; D^m's germ is this to the m-th power.  A
    projective point always leaves at least one coordinate line of each
    group available.  At a point x off D the germ is a unit: no factors.
    Chosen once per (curve, point), kept in S.memo under ("germ", D, x)."""
    key = ("germ", D, x)
    memo = D.surface.memo
    got = memo.get(key)
    if got is not None:
        return got
    avoid = None if x is None else list(x.coords)
    if avoid is not None and not D.poly.evaluate(avoid).is_zero():
        got = []
    else:
        def ok(L: Curve) -> bool:
            return L != D and (
                avoid is None or not L.poly.evaluate(avoid).is_zero())

        got = [(D.poly, 1)] + [(L.poly, -n) for L, n in
                               coordinate_lines(D.surface, D.degree(), ok)]
    memo[key] = got
    return got


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
        """The component at the flag, as factors: the germ (_germ) of each
        curve D that the rule reads there (the flag's curve along curves,
        every component at points) to the power m, D's multiplicity, so
        each exponent e of the germ becomes m e."""
        components = self.divisor.components
        if self.kind == "along_curves":
            m = components.get(fl.curve, 0)
            return [(P, m * e) for P, e in _germ(fl.curve, None)] if m else []
        return [(P, m * e) for D, m in components.items()
                for P, e in _germ(D, fl.point)]


# ---------------------------------------------------------------------------
# commutator pairing and the symbol-route intersection number


def symbol_at_flag(f: Factors, g: Factors, fl: Flag) -> int:
    """The integer symbol at one flag of two functions given as factors.

    With a = v_t(f) and b = v_t(g), the symbol is the u-valuation of the t^0
    column of f^b g^-a.  The rank-2 valuation (v_t, w) at the flag, where w
    is the u-valuation of the leading t-column, is a homomorphism, so that
    valuation is the determinant b w(f) - a w(g), and both f and g
    contribute the sum of e (v_t, w)(P) over their factors (P, e).  A w is
    read only where its coefficient is nonzero, so a factor whose
    coefficient is 0 is never expanded; both are read on the one valuation
    path of the package (surface.valuation_at_flag)."""
    a, b = valuation_at_flag(f, fl, 0), valuation_at_flag(g, fl, 0)
    return ((b and b * valuation_at_flag(f, fl, 1))
            - (a and a * valuation_at_flag(g, fl, 1)))


def commutator_pairing(g1: IdeleRule, g2: IdeleRule,
                       flags: Sequence[Flag]) -> int:
    """The exponent of q in the product over flags of q^(-deg(x) * symbol),
    the symbol (symbol_at_flag) of the two idele components at each flag
    (IdeleRule.local)."""
    return -sum(fl.point.degree * symbol_at_flag(g1.local(fl), g2.local(fl),
                                                 fl) for fl in flags)


def _meeting_points(C: Divisor, H: Divisor) -> List[ClosedPoint]:
    """The points where a component of C meets a component of H, sorted."""
    return meeting_points((E, D) for D, _m in H.items()
                          for E, _n in C.items() if E != D)


def intersection_flags(C: Divisor, H: Divisor) -> List[Flag]:
    """Flags (x, D) with D in supp(H) and x in supp(C) cap D, sorted by
    point, then by curve.  Computed once per pair of supports and kept in
    S.memo under ("intersection flags", supp C, supp H), each support a
    frozenset of curves; each call returns a new list."""
    key = ("intersection flags", frozenset(C.components),
           frozenset(H.components))
    memo = C.surface.memo
    got = memo.get(key)
    if got is None:
        curves = [D for D, _m in H.items()]
        got = memo[key] = tuple(fl for x in _meeting_points(C, H)
                                for fl in flags_through(x, curves))
    return list(got)


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
                flags = flags_through(x, [D for D, _m in B.items()])
            except ValueError:
                continue
            exponent += commutator_pairing(
                IdeleRule("at_points", A), IdeleRule("along_curves", B),
                flags)
            break
        else:
            raise ValueError(f"both divisors have a component singular at "
                             f"{x!r}: no flag there gives the intersection")
    return -exponent


# ---------------------------------------------------------------------------
# classical oracle: Fulton's algorithm at each point, in its residue field


def intersection_oracle(C: Divisor, H: Divisor) -> int:
    """Independent total intersection number.

    Divisors sharing a component fall back to the class-level form;
    otherwise each point of the support adds its degree times its local
    multiplicity, found by Fulton's algorithm in the point's residue field.
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
    bezout = class_intersection(D.surface, D.degree(), E.degree())
    return sum(pt.degree * _multiplicity(D, E, pt, bezout // pt.degree)
               for pt in intersection_support(D, E))


def _multiplicity(D: Curve, E: Curve, pt: ClosedPoint, most: int) -> int:
    """I_pt(D, E) by Fulton's algorithm (Algebraic Curves, 1969, section
    3.3), over pt's residue field k.  Both equations of the first chart
    holding pt are embedded in k and moved so that pt is the origin; with
    r <= s the degrees of f(x, 0) and g(x, 0), either f(x, 0) = 0 and
    f = y h, so that I(f, g) = ord_x g(x, 0) + I(h, g), or g is replaced by
    g - (c/a) x^(s-r) f, with a and c the leading coefficients of f(x, 0)
    and g(x, 0).  The loop stops when f or g is a unit at the origin.

    The loop has a step budget from the degrees of f and g, and I may not
    pass `most`, the class pairing over deg(pt): either overrun raises
    BudgetExceeded."""
    S = D.surface
    k = pt.residue_field
    chart = next(ch for ch in S.charts if ch.contains(pt.coords))
    a, b = chart.affine(pt.coords)
    f, g = (_moved(_mp_embed(S.dehomogenize(C.poly, chart), k), a.n, b.n)
            for C in (D, E))
    budget = FULTON_STEPS * (most + 1) * (
        max(map(sum, f)) + max(map(sum, g)) + 1)
    n = 0
    for _ in range(budget):
        if (0, 0) in f or (0, 0) in g:
            return n
        r = max((i for i, j in f if not j), default=-1)
        s = max((i for i, j in g if not j), default=-1)
        if r > s:
            f, g, r, s = g, f, s, r
        if s < 0:
            raise ValueError(f"{D!r} and {E!r} share a component through "
                             f"{pt!r}")
        if r < 0:  # f = y h
            n += min(i for i, j in g if not j)
            if n > most:
                raise BudgetExceeded(
                    f"the multiplicity of {D!r} and {E!r} at {pt!r} passed "
                    f"{most}, the class pairing over the point's degree")
            f = {(i, j - 1): c for (i, j), c in f.items()}
        else:  # g - (c/a) x^(s-r) f lowers deg g(x, 0)
            m = k.neg(k.mul(g[s, 0], k.inv(f[r, 0])))
            g = dict(g)
            for (i, j), c in f.items():
                e = (i + s - r, j)
                v = k.add(g.get(e, 0), k.mul(m, c))
                if v:
                    g[e] = v
                else:
                    del g[e]
    raise BudgetExceeded(f"the multiplicity of {D!r} and {E!r} at {pt!r} "
                         f"ran out of its {budget} steps")


def _moved(f: MPoly, a: int, b: int) -> Dict[Tuple[int, int], int]:
    """The terms of f(x + a, y + b), a and b codes of f's field: a Taylor
    shift (fields.pshift) of each column in x by a, then of each column in
    y by b; a shift by 0 is skipped, so at the origin these are f's own
    terms, which the caller must not change."""
    k = f.desc
    if a:
        f = MPoly.from_columns(k, [pshift(c, a, k) for c in f.columns(1)], 1)
    if b:
        f = MPoly.from_columns(k, [pshift(c, b, k) for c in f.columns(0)], 0)
    return f.terms
