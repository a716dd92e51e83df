"""Residues of rational 2-forms at flags and the adelic reciprocity sums.

A global form is coefficient * omega, with omega the fixed 2-form attached
to the first chart (dX^dY on the plane, d(X0/X1)^d(Y0/Y1) on the quadric).
Its residue at a flag is the (t^-1, u^-1) coefficient of the local
expression, an element of the point's residue field; summing over the
curves through a point, or with trace weights over the points of a curve,
must give zero exactly.  Each residue is read from one quotient
(surface.ratio_at_flag) on the box t < 0, u < 1, which holds the (t^-1,
u^-1) slot by the box contract of the expansions at a flag; a product whose
box leaves the slot out raises PrecisionError naming the flag.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import FieldElem, rel_trace
from .multipoly import MPoly
from .series import LaurentSeries2, PrecisionError, res2
from .surface import (
    ClosedPoint,
    Curve,
    Divisor,
    Flag,
    RationalFunction,
    Surface,
    canonical_divisor,
    canonical_local_form,
    class_monomials,
    divisor_class,
    flag_make,
    form_order_on_curve,
    form_polynomial,
    meeting_points,
    ord_on_curve,
    parse_poly,
    ratio_at_flag,
)

# the around-a-point sums visit crossings of at most this degree
AROUND_POINT_DEGREE = 2


class GlobalForm:
    """A rational 2-form: coefficient * omega, with declared components.

    The component list names every curve that can carry a pole of the form
    (denominator factors plus the poles of omega itself); residue-point
    searches range over it.  The residue at each flag is computed once and
    kept, flag -> residue, so the along-curve law reads what the
    around-point law computed.
    """

    __slots__ = ("coefficient", "components", "_residues")

    def __init__(self, coefficient: RationalFunction,
                 components: Sequence[Curve]):
        if coefficient.is_zero():
            raise ValueError("the zero form has no residue theory")
        self.coefficient = coefficient
        seen = []
        for C in components:
            if C not in seen:
                seen.append(C)
        self.components = tuple(seen)
        self._residues: Dict[Flag, FieldElem] = {}

    @property
    def surface(self) -> Surface:
        return self.coefficient.surface

    def __repr__(self):
        return f"GlobalForm({self.coefficient!r} * omega)"


def form_make(S: Surface, num, den_curves: Sequence[Tuple[Curve, int]]) -> GlobalForm:
    """Build num / prod(C^m) * omega with the component list filled in."""
    if isinstance(num, str):
        num = parse_poly(S, num)
    den = MPoly.const(S.base, S.nvars, 1)
    for C, m in den_curves:
        if m < 0:
            raise ValueError("denominator multiplicities must be nonnegative")
        den = den * C.poly ** m
    coeff = RationalFunction(S, num, den)
    comps = ([C for C, m in den_curves if m > 0]
             + list(canonical_divisor(S).components))
    return GlobalForm(coeff, comps)


def form_total_order(w: GlobalForm, C: Curve) -> int:
    """ord_C(coefficient) + ord_C(omega)."""
    return ord_on_curve(w.coefficient, C) + form_order_on_curve(C)


def polar_components(w: GlobalForm) -> List[Curve]:
    return [C for C in w.components if form_total_order(w, C) < 0]


def local_residue(w: GlobalForm, fl: Flag) -> FieldElem:
    """res at the flag, computed once per (form, flag) (_local_residue)."""
    got = w._residues.get(fl)
    if got is None:
        got = w._residues[fl] = _local_residue(w, fl)
    return got


def _local_residue(w: GlobalForm, fl: Flag) -> FieldElem:
    """res at the flag: the (t^-1, u^-1) coefficient of coefficient * J,
    where J du^dt = du^dt / form_polynomial(fl) is the fixed form in flag
    coordinates, read from the one quotient num / (den * P) on the box
    t < 0, u < 1.  That quotient has t-order v + j, for the orders v of the
    coefficient and j of the form along the curve, so when v + j >= 0 the
    residue is 0 and nothing is expanded."""
    f = w.coefficient
    if ord_on_curve(f, fl.curve) + form_order_on_curve(fl.curve) >= 0:
        return fl.point.residue_field.zero()
    return _residue_of(ratio_at_flag(f.num, f.den * form_polynomial(fl), fl,
                                     0, 1), "residue", fl)


def _residue_of(g: LaurentSeries2, what: str, fl: Flag) -> FieldElem:
    """res2(g), or PrecisionError naming `what` and the flag when g's box
    leaves out the (-1, -1) slot."""
    if min(g.t_prec, g.u_prec) < 0:
        raise PrecisionError(f"{what} at flag {fl!r} undetermined on the box "
                             f"t < {g.t_prec}, u < {g.u_prec}")
    return res2(g)


def _meeting_flags(w: GlobalForm, D: Curve) -> List[Flag]:
    """D's flags where it meets another component of w, where alone its
    residue can be nonzero; ValueError if D is singular at one."""
    return [flag_make(pt, D)
            for pt in meeting_points((D, C) for C in w.components if C != D)]


def _trace_sum(w: GlobalForm, flags: List[Flag]) -> FieldElem:
    """The sum of the traces to the base field of w's residues at flags."""
    base = w.surface.base
    total = base.zero()
    for fl in flags:
        total = total + rel_trace(local_residue(w, fl), base)
    return total


# ---------------------------------------------------------------------------
# adele fragments and the global pairing


class AdeleFragment:
    """A finitely supported collection of local series, zero elsewhere."""

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[Flag, LaurentSeries2]):
        for fl, s in entries.items():
            if s.desc != fl.point.residue_field:
                raise ValueError("entry coefficients must live in the flag's "
                                 "residue field")
        self.entries = dict(entries)

    def __repr__(self):
        return f"AdeleFragment({len(self.entries)} flags)"


def adelic_pairing(a: AdeleFragment, b: AdeleFragment) -> FieldElem:
    """Sum over common flags of tr res(a*b*omega); symmetric and bilinear.
    All fragments in one computation share a surface, whose base field
    holds the sum (zero on disjoint supports).  omega's local coefficient
    J is taken on the box t < -at, u < -au, for at and au the least t- and
    u-exponents of a*b there: it holds every slot of J that meets a term of
    a*b at t^-1 u^-1."""
    every = list(a.entries) + list(b.entries)
    if not every:
        raise ValueError("cannot pair two empty fragments")
    base = every[0].curve.surface.base
    total = base.zero()
    common = [fl for fl in a.entries if fl in b.entries]
    for fl in sorted(common, key=lambda fl: (fl.point.sort_key(),
                                             fl.curve._key)):
        ab = a.entries[fl] * b.entries[fl]
        at = next(iter(ab.cols), 0)
        au = min(ab.cols.values(), default=(0,))[0]
        r = _residue_of(ab * canonical_local_form(fl, -at, -au), "pairing",
                        fl)
        total = total + rel_trace(r, base)
    return total


# ---------------------------------------------------------------------------
# deterministic test corpora


def _random_form_of_class(S: Surface, cls, rng: random.Random) -> Optional[MPoly]:
    monos = class_monomials(S, cls)
    # each draw is a code, so every element of F_q can occur
    terms = {e: rng.randrange(S.base.q) for e in monos}
    f = MPoly(S.base, S.nvars, terms)
    return None if f.is_zero() else f


def reciprocity_corpus(S: Surface, count: int, seed: int) -> List[GlobalForm]:
    """Deterministic list of forms with poles on coordinate curves, of
    total polar degree at most 3."""
    rng = random.Random(seed)
    lines = list(S.lines.values())
    out: List[GlobalForm] = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        mults = [0] * len(lines)
        total = 0
        for i in range(len(lines)):
            m = rng.randrange(0, 3 - total + 1)
            mults[i] = m
            total += m
        if total == 0:
            continue
        den_curves = [(C, m) for C, m in zip(lines, mults) if m > 0]
        cls = divisor_class(Divisor(S, dict(den_curves)))
        num = _random_form_of_class(S, cls, rng)
        if num is None:
            continue
        out.append(form_make(S, num, den_curves))
    if len(out) < count:  # pragma: no cover - generation is plentiful
        raise RuntimeError("could not generate enough forms")
    return out


def check_reciprocity_around_points(w: GlobalForm) -> List[Tuple[ClosedPoint, FieldElem]]:
    """Evaluate the around-a-point sum at every crossing of polar components
    of degree at most AROUND_POINT_DEGREE.

    Returns (point, sum) pairs; all sums must be zero.  Points where any
    polar component is singular are skipped (out of scope).
    """
    polar = polar_components(w)
    results = []
    for x in meeting_points(itertools.combinations(polar, 2)):
        if x.degree > AROUND_POINT_DEGREE:
            continue
        coords = list(x.coords)
        through = [C for C in polar if C.poly.evaluate(coords).is_zero()]
        try:
            flags = [flag_make(x, C) for C in through]
        except ValueError:
            continue
        total = x.residue_field.zero()
        for fl in flags:
            total = total + local_residue(w, fl)
        results.append((x, total))
    return results


def check_reciprocity_along_curves(w: GlobalForm) -> List[Tuple[Curve, FieldElem]]:
    """Evaluate the along-a-curve sum for every polar component; all sums
    must be zero.  A component singular where it meets another component
    is skipped (out of scope), as the around-point sums skip such points."""
    results = []
    for D in polar_components(w):
        try:
            flags = _meeting_flags(w, D)
        except ValueError:
            continue
        results.append((D, _trace_sum(w, flags)))
    return results
