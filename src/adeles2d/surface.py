"""The ambient surfaces: curves, points, flags and local expansions.

Both models are products of projective spaces, each given by its groups of
homogeneous variables: the projective plane (one group X, Y, Z) and the
product of two projective lines (groups X0, X1 and Y0, Y1).  A divisor class
is a tuple with one degree per group, and the charts, the class arithmetic,
the canonical class and the monomials of a class all follow from the groups.
A flag is a closed point on an irreducible curve that is smooth there;
attached to it is a deterministic choice of local coordinates (u, t), with t
a local equation of the curve, and the expansion machinery realizing
rational functions as elements of k(x)((u))((t)).

Closed points are Galois orbits, stored as the lexicographically least
normalized representative over their exact residue field; all enumeration
orders are deterministic so golden values are stable.
"""

from __future__ import annotations

import itertools
import re
from math import comb
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .fields import (
    BudgetExceeded,
    FieldDesc,
    FieldElem,
    Poly,
    _embed_code,
    _prime_factors,
    coerce_down,
    embed,
    field_make,
    pdeg,
    peval,
    pgcd,
    poly_factor,
    poly_root,
    power,
    pshift,
    ptrim,
)
from .irreducible import first_factor
from .multipoly import MPoly, resultant_elim
from .series import (LaurentSeries2, PrecisionError, ps_horner, ps_inverse,
                     ps_mac, ps_mul)

ClassVector = Tuple[int, ...]


# Per model: the groups of homogeneous variables, and the coordinate line of
# each group that carries the standard representative of a class.
SURFACES = {
    "P2": ((("X", "Y", "Z"),), ("X",)),
    "P1xP1": ((("X0", "X1"), ("Y0", "Y1")), ("X1", "Y1")),
}


# ---------------------------------------------------------------------------
# surfaces and charts


class Chart:
    """An affine chart: one coordinate per group set to 1.

    Its coordinates are the ratios affine_vars[i] / units[i] of homogeneous
    variables; unit_vars lists the distinct denominators."""

    __slots__ = ("name", "affine_vars", "units", "unit_vars")

    def __init__(self, name: str, affine_vars: Tuple[int, int],
                 units: Tuple[int, int]):
        self.name = name
        self.affine_vars = affine_vars  # homogeneous variables kept, in order
        self.units = units              # the denominator of each one
        self.unit_vars = tuple(dict.fromkeys(units))  # variables set to 1

    def contains(self, coords: Sequence[FieldElem]) -> bool:
        """Whether the projective point lies in this chart."""
        return all(coords[v] for v in self.unit_vars)

    def affine(self, coords: Sequence[FieldElem]) -> Tuple[FieldElem, FieldElem]:
        """The chart coordinates of a projective point of the chart."""
        return tuple(coords[a] / coords[u]
                     for a, u in zip(self.affine_vars, self.units))

    def __repr__(self):
        return f"Chart({self.name})"


class Surface:
    """P2 or P1xP1 over a finite base field: its variable groups (the range
    of variable indices of each), its charts, its coordinate lines (name ->
    Curve, in variable order), the line of each group for class
    representatives, the flags made on it so far ((point, curve) -> Flag,
    see flag_make), and a memo of values that depend only on the surface
    and their arguments, under tuple keys led by the kind of value:
    ("support", C, H) for intersection_support (one entry for both orders
    of a pair), ("monomials", c) for class_monomials, ("canonical",) for
    canonical_divisor, ("ord", P, D) for the multiplicity of a curve in a
    polynomial and the quotient (_order); ("h", c), ("section product",
    negative), ("columns", c) and ("section rank", negative, c) for
    cohomology; ("representative", c) and ("reflect", wdiv, D) for
    measures; ("germ", D, x) for the idele germ of a curve at a point and
    ("intersection flags", supp C, supp H) for the flags of two supports,
    in symbols; ("chart", P, name) for a polynomial restricted to a chart
    (dehomogenize) and ("layout", D, name, solve) for its columns in one
    coordinate (_layout).  Both live
    until their owner clears them; an equal but new Surface starts empty."""

    __slots__ = ("model", "base", "groups", "nvars", "var_names", "charts",
                 "top_pairs", "lines", "class_lines", "flags", "memo")

    def __init__(self, model: str, base: FieldDesc):
        if model not in SURFACES:
            raise ValueError(f"unknown surface model {model!r}")
        self.model = model
        self.base = base
        names, class_lines = SURFACES[model]
        self.var_names = tuple(itertools.chain(*names))
        self.nvars = len(self.var_names)
        starts = itertools.accumulate(map(len, names), initial=0)
        self.groups = tuple(range(s, s + len(g)) for s, g in zip(starts, names))
        # one chart per choice of a unit variable in each group, the last
        # variable first; the other variables are the chart's coordinates
        self.charts = []
        for units in itertools.product(*(g[::-1] for g in self.groups)):
            unit_of = {v: u for g, u in zip(self.groups, units) for v in g}
            affine = tuple(v for v in range(self.nvars) if v not in units)
            self.charts.append(Chart(
                "".join(self.var_names[u] for u in units), affine,
                tuple(unit_of[v] for v in affine)))
        # the pairs (i, j) with h_i h_j the top class (class_intersection)
        top = [len(g) - 1 for g in self.groups]
        self.top_pairs = tuple(
            (i, j) for i, j in itertools.product(range(len(top)), repeat=2)
            if [(m == i) + (m == j) for m in range(len(top))] == top)
        # a coordinate line is irreducible and normalized as it stands
        self.lines = {n: Curve(self, self.var(i))
                      for i, n in enumerate(self.var_names)}
        self.class_lines = tuple(self.lines[n] for n in class_lines)
        self.flags: Dict[Tuple[ClosedPoint, Curve], Flag] = {}
        self.memo: Dict[tuple, object] = {}

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Surface)
            and (self.model, self.base) == (other.model, other.base))

    def __hash__(self):
        return hash((self.model, self.base))

    def __repr__(self):
        return f"{self.model}/GF({self.base.q})"

    # -- polynomial helpers ---------------------------------------------------

    def zero_poly(self) -> MPoly:
        return MPoly.zero(self.base, self.nvars)

    def var(self, i: int) -> MPoly:
        return MPoly.var(self.base, self.nvars, i)

    def exponent_class(self, e: Sequence[int]) -> ClassVector:
        """The degree in each group of a monomial's exponent tuple."""
        return tuple([sum(e[g.start:g.stop]) for g in self.groups])

    def poly_class(self, f: MPoly) -> ClassVector:
        """The degree in each group of a homogeneous polynomial, read off
        any one of its monomials (-1 in every group for the zero
        polynomial)."""
        for e in f.terms:
            return self.exponent_class(e)
        return (-1,) * len(self.groups)

    def is_homogeneous(self, f: MPoly) -> bool:
        return len({self.exponent_class(e) for e in f.terms}) <= 1

    def dehomogenize(self, f: MPoly, chart: Chart) -> MPoly:
        """Restrict to the chart: unit variables -> 1, affine variables kept
        (as a 2-variable polynomial in the chart's coordinate order).
        Computed once per (polynomial, chart), kept in the memo."""
        key = ("chart", f, chart.name)
        got = self.memo.get(key)
        if got is not None:
            return got
        add = f.desc.add
        a0, a1 = chart.affine_vars
        out: Dict[Tuple[int, int], int] = {}
        for e, c in f.terms.items():
            k = (e[a0], e[a1])
            out[k] = add(out[k], c) if k in out else c
        got = self.memo[key] = MPoly._make(
            f.desc, 2, {k: c for k, c in out.items() if c})
        return got

    def class_add(self, a: ClassVector, b: ClassVector) -> ClassVector:
        return tuple(x + y for x, y in zip(a, b))

    def class_scale(self, n: int, a: ClassVector) -> ClassVector:
        return tuple(n * x for x in a)

    def class_zero(self) -> ClassVector:
        return (0,) * len(self.groups)

    def canonical_class(self) -> ClassVector:
        """-(n+1) in the group of each factor P^n."""
        return tuple(-len(g) for g in self.groups)


def surface_make(model: str, q: int) -> Surface:
    """Build P2 or P1xP1 over F_q (q any prime power)."""
    p, d = _prime_power(q)
    return Surface(model, field_make(p, d))


def _prime_power(q: int) -> Tuple[int, int]:
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    d = 1
    while p ** d < q:
        d += 1
    return p, d


# ---------------------------------------------------------------------------
# polynomial text parsing

_MONO_RE = re.compile(r"([+-]?)\s*(\d*)\s*((?:[A-Z]\d?(?:\^\d+)?)*)\s*")
_VAR_RE = re.compile(r"([A-Z]\d?)(?:\^(\d+))?")


def parse_poly(S: Surface, text: str) -> MPoly:
    """Parse `3X^2Y - YZ + Z^2`-style homogeneous polynomial text."""
    names = {n: i for i, n in enumerate(S.var_names)}
    pos = 0
    text = text.strip()
    acc = S.zero_poly()
    while pos < len(text):
        m = _MONO_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unparseable polynomial near {text[pos:pos+12]!r}")
        sign, coeff_s, vars_s = m.groups()
        coeff = int(coeff_s) if coeff_s else 1
        if sign == "-":
            coeff = -coeff
        exps = [0] * S.nvars
        for vm in _VAR_RE.finditer(vars_s):
            name, power = vm.group(1), vm.group(2)
            if name not in names:
                raise ValueError(f"unknown variable {name!r} on {S.model}"
                                 f" (expected one of {', '.join(S.var_names)})")
            exps[names[name]] += int(power) if power else 1
        if not coeff_s and not vars_s:
            raise ValueError(f"empty monomial near {text[pos:pos+12]!r}")
        acc = acc + MPoly(S.base, S.nvars, {tuple(exps): coeff % S.base.p})
        pos = m.end()
    if not S.is_homogeneous(acc):
        raise ValueError(f"{text!r} is not homogeneous for {S.model}")
    return acc


def poly_text(S: Surface, f: MPoly) -> str:
    if f.is_zero():
        return "0"
    bits = []
    for e in sorted(f.terms, reverse=True):
        c = f.terms[e]
        mono = "".join(
            f"{S.var_names[i]}" + (f"^{k}" if k > 1 else "")
            for i, k in enumerate(e) if k
        )
        cs = "" if (c == 1 and mono) else f.desc.text(c)
        bits.append((cs + mono) or "1")
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# rational functions


# A function as factors (P, e), standing for the product of the P^e.
Factors = List[Tuple[MPoly, int]]


class RationalFunction:
    """A nonzero function as its factors (P, e): nonzero homogeneous
    polynomials P to nonzero powers e, with sum e * class(P) = 0.  num and
    den, the products of the P^e with e > 0 and of the P^-e with e < 0,
    are formed on each read."""

    __slots__ = ("surface", "factors")

    def __init__(self, surface: Surface, factors: Factors):
        total = [0] * len(surface.groups)
        for P, e in factors:
            cls = {surface.exponent_class(x) for x in P.terms}
            if len(cls) != 1 or not e:
                raise ValueError("a factor must be a nonzero homogeneous "
                                 "polynomial to a nonzero power")
            total = [t + e * d for t, d in zip(total, *cls)]
        if any(total):
            raise ValueError("numerator and denominator classes differ")
        self.surface = surface
        self.factors = list(factors)

    @property
    def num(self) -> MPoly:
        S = self.surface
        return MPoly.product(S.base, S.nvars, _parts(self.factors)[0])

    @property
    def den(self) -> MPoly:
        S = self.surface
        return MPoly.product(S.base, S.nvars, _parts(self.factors)[1])

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or self.surface != other.surface:
            return False
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self):
        return (f"({poly_text(self.surface, self.num)})"
                f"/({poly_text(self.surface, self.den)})")


def _parts(f: Factors) -> Tuple[Factors, Factors]:
    """The factors (P, e) of f with e > 0, and those with e < 0 as (P, -e)."""
    return [(P, e) for P, e in f if e > 0], [(P, -e) for P, e in f if e < 0]


# ---------------------------------------------------------------------------
# curves


class Curve:
    """An irreducible homogeneous curve with canonical normalization."""

    __slots__ = ("surface", "poly", "name", "_key", "_hash", "_cls")

    def __init__(self, surface: Surface, poly: MPoly, name: Optional[str] = None):
        self.surface = surface
        self.poly = poly
        self.name = name
        digits = poly.desc.digits
        self._key = (surface.model, surface.base.q,
                     tuple(sorted((e, digits(c)) for e, c in poly.terms.items())))
        # the key is a nested tuple: hash it once, not on every lookup
        self._hash = hash(self._key)
        self._cls = surface.poly_class(poly)

    def degree(self) -> ClassVector:
        return self._cls

    def __eq__(self, other):
        return self is other or (isinstance(other, Curve)
                                 and self._hash == other._hash
                                 and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or poly_text(self.surface, self.poly)
        return f"Curve({label})"


def _group_monomials(size: int, d: int) -> List[tuple]:
    """Exponent tuples of the monomials of degree d in `size` variables, in
    descending lex order."""
    if size == 1:
        return [(d,)] if d >= 0 else []
    return [(i,) + rest for i in range(d, -1, -1)
            for rest in _group_monomials(size - 1, d - i)]


def class_monomials(S: Surface, cls: ClassVector) -> List[tuple]:
    """Exponent tuples of all monomials of the given class, in descending
    lex order; computed once per class and kept in S.memo, so callers share
    the list and must not change it."""
    key = ("monomials", tuple(cls))
    got = S.memo.get(key)
    if got is None:
        parts = [_group_monomials(len(g), d) for g, d in zip(S.groups, cls)]
        got = S.memo[key] = [sum(p, ()) for p in itertools.product(*parts)]
    return got


def curve_make(S: Surface, poly: Union[MPoly, str], name: Optional[str] = None) -> Curve:
    """Validated irreducible curve; raises naming a factor pair otherwise
    (irreducible.first_factor: a factorization, whose worst case in the
    degree D is 2^(D - 1) sets of lifted factors)."""
    if isinstance(poly, str):
        poly = parse_poly(S, poly)
    if poly.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    if not S.is_homogeneous(poly):
        raise ValueError("curve polynomial must be homogeneous")
    f = poly.normalized()
    if sum(S.poly_class(f)) <= 0:
        raise ValueError("a curve must have positive degree")
    if sum(S.poly_class(f)) > 1:
        g = first_factor(S, f)
        if g is not None:
            h = f.exact_div(g).normalized()
            raise ValueError(f"reducible curve: factors ({poly_text(S, g)}) "
                             f"* ({poly_text(S, h)})")
    return Curve(S, f, name)


def coordinate_lines(S: Surface, cls: ClassVector,
                     ok: Callable[[Curve], bool]) -> List[Tuple[Curve, int]]:
    """For each homogeneous group of nonzero degree in cls, the first
    coordinate line of that group passing ok, with the degree.  Lines are
    tried from the last variable of the group back: Z, Y, X on P2, and X1,
    X0 then Y1, Y0 on P1xP1."""
    out = []
    for g, n in zip(S.groups, cls):
        if n == 0:
            continue
        names = [S.var_names[v] for v in g[::-1]]
        line = next((S.lines[v] for v in names if ok(S.lines[v])), None)
        if line is None:
            raise ValueError(f"no coordinate line of {'/'.join(names)} "
                             "qualifies")
        out.append((line, n))
    return out


# ---------------------------------------------------------------------------
# closed points


class ClosedPoint:
    """A Galois orbit of geometric points, by its least normalized member.

    On one surface a point is its degree and coordinate codes; that key,
    its hash and the sort key are computed once, here, since points are
    looked up in the flag registry and the memo again and again."""

    __slots__ = ("surface", "residue_field", "coords", "degree", "_key",
                 "_hash", "_sort")

    def __init__(self, surface: Surface, residue_field: FieldDesc,
                 coords: Tuple[FieldElem, ...], degree: int):
        self.surface = surface
        self.residue_field = residue_field
        self.coords = coords
        self.degree = degree
        self._key = (degree, tuple(c.n for c in coords))
        self._hash = hash(self._key)
        self._sort = (degree, tuple(c.sort_key() for c in coords))

    def sort_key(self):
        return self._sort

    def __eq__(self, other):
        return self is other or (isinstance(other, ClosedPoint)
                                 and self._key == other._key
                                 and self.surface == other.surface)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "x".join("(" + ":".join(repr(self.coords[i]) for i in g) + ")"
                        for g in self.surface.groups)


def _normalize_proj(surface: Surface, coords: List[FieldElem]) -> Tuple[FieldElem, ...]:
    """Scale so the first nonzero coordinate of each factor is 1."""
    out = list(coords)
    for g in surface.groups:
        lead = next((i for i in g if not out[i].is_zero()), None)
        if lead is None:
            raise ValueError("projective coordinates cannot be all zero")
        inv = out[lead].inverse()
        for i in g:
            out[i] = out[i] * inv
    return tuple(out)


def _orbit_representative(surface: Surface, coords: Tuple[FieldElem, ...]
                          ) -> Tuple[Tuple[FieldElem, ...], int]:
    """(lex-least orbit member, exact degree) under x -> x^q, q the base
    field's size: the orbit has at most [k : F_q] members, k the field of
    the coordinates, and BudgetExceeded if it does not close by then."""
    q, bound = surface.base.q, coords[0].desc.d // surface.base.d
    best = cur = coords
    for size in range(1, bound + 1):
        cur = _normalize_proj(surface, [c ** q for c in cur])
        if cur == coords:
            return best, size
        if tuple(c.sort_key() for c in cur) < tuple(c.sort_key() for c in best):
            best = cur
    raise BudgetExceeded(f"the Frobenius orbit of {coords} did not close "
                         f"within [k : F_q] = {bound} steps")


def point_from_coords(S: Surface, coords: Sequence[FieldElem]) -> ClosedPoint:
    """Closed point through the given geometric point (exact degree computed).

    The coordinates are read against the base field embedded into theirs,
    as every curve is embedded.  Coordinates in a field larger than the
    residue field are moved down to it by coerce_down, and the point is the
    least orbit member there."""
    if len(coords) != S.nvars:
        raise ValueError(f"expected {S.nvars} coordinates, got {len(coords)}")
    field = coords[0].desc
    norm = _normalize_proj(S, list(coords))
    if field == S.base:
        return ClosedPoint(S, field, norm, 1)
    rep, size = _orbit_representative(S, norm)
    exact = field_make(S.base.p, S.base.d * size)
    if exact != field:
        rep, _size = _orbit_representative(S, tuple(
            coerce_down(c, exact) for c in rep))
    return ClosedPoint(S, exact, rep, size)


# ---------------------------------------------------------------------------
# intersection of two curves (support only)


def intersection_support(C: Curve, H: Curve) -> List[ClosedPoint]:
    """The closed points lying on both curves, sorted: the roots of one
    resultant in the first chart, then one fibre in each later chart.

    Computed once per unordered pair on a surface and kept in
    C.surface.memo as a tuple, under the order of the first call; each call
    returns a new list.  Both intersection routes (the commutator pairing
    in symbols and the Fulton oracle) start from this support, and each
    computes its own local multiplicities."""
    if C == H:
        raise ValueError("curves share a component")
    memo = C.surface.memo
    got = memo.get(("support", C, H))
    if got is None:
        got = memo.get(("support", H, C))
        if got is None:
            got = memo[("support", C, H)] = tuple(_support(C, H))
    return list(got)


def meeting_points(pairs: Iterable[Tuple[Curve, Curve]]) -> List[ClosedPoint]:
    """The closed points where the two curves of some pair meet, sorted."""
    pts: Dict[tuple, ClosedPoint] = {}
    for C, H in pairs:
        for pt in intersection_support(C, H):
            pts[pt.sort_key()] = pt
    return [pts[key] for key in sorted(pts)]


def _support(C: Curve, H: Curve) -> List[ClosedPoint]:
    """The fibres of the first chart over the roots of the resultant in its
    second variable, one root per factor, as conjugate fibres hold
    conjugate points; then in each later chart the one fibre where a unit
    variable of the first chart is 0, since every point there that no
    earlier chart holds lies on it (_collect_fiber_points drops the
    others).  Both equations vanish on that whole fibre only if both curves
    are that unit line (Z on P2; X1 or Y1 on P1xP1)."""
    S = C.surface
    first = S.charts[0]
    res = resultant_elim(*(S.dehomogenize(D.poly, first) for D in (C, H)),
                         elim=1, keep=0)
    if not res:  # distinct irreducible curves stay coprime
        raise ValueError("curves share a component")
    found: List[ClosedPoint] = []
    layouts = [_layout(D, first, 1) for D in (C, H)]
    for irr, _m in poly_factor(res, S.base)[1]:
        _collect_fiber_points(S, first, layouts, 1, _one_root(irr, S.base),
                              found)
    for chart in S.charts[1:]:
        solve = 1 if chart.affine_vars[0] in first.unit_vars else 0
        layouts = [_layout(D, chart, solve) for D in (C, H)]
        if not any(col and col[0] for cols in layouts for col in cols):
            raise ValueError("curves share a component")
        _collect_fiber_points(S, chart, layouts, solve, S.base.zero(), found)
    return sorted(found, key=ClosedPoint.sort_key)


def _layout(D: Curve, chart: Chart, solve: int) -> List[Poly]:
    """D's equation in the chart as its columns in coordinate `solve`
    (MPoly.columns), computed once and kept in the surface memo; callers
    must not change it."""
    memo = D.surface.memo
    key = ("layout", D, chart.name, solve)
    got = memo.get(key)
    if got is None:
        got = memo[key] = D.surface.dehomogenize(D.poly, chart).columns(solve)
    return got


def _collect_fiber_points(S: Surface, chart: Chart,
                          layouts: Sequence[List[Poly]], solve: int,
                          x0: FieldElem, found: List[ClosedPoint]) -> None:
    """Append the closed points of the chart where every chart equation
    vanishes and the coordinate other than `solve` is x0, which must
    generate its field over the base; each equation comes as its columns in
    coordinate `solve` (MPoly.columns).  Each point is appended once: one x0
    per Frobenius orbit, one root per factor, and points of an earlier chart
    are left to it, as callers visit the charts in order."""
    k = x0.desc
    h: Poly = []
    for cols in layouts:
        if k is not S.base:
            cols = [[_embed_code(S.base, c, k) for c in col] for col in cols]
        # the equation on the fibre, as a polynomial in coordinate `solve`
        h = pgcd(h, ptrim([peval(col, x0.n, k) for col in cols]), k)
    if pdeg(h) < 1:
        return
    earlier = S.charts[:S.charts.index(chart)]
    for irr, _m in poly_factor(h, k)[1]:
        y0 = _one_root(irr, k)
        coords = [y0.desc.zero()] * S.nvars
        for v in chart.unit_vars:
            coords[v] = y0.desc.one()
        coords[chart.affine_vars[solve]] = y0
        coords[chart.affine_vars[1 - solve]] = embed(x0, y0.desc)
        if any(ch.contains(coords) for ch in earlier):
            continue
        found.append(point_from_coords(S, coords))


def _one_root(irr: Poly, k: FieldDesc) -> FieldElem:
    """A root of the monic irreducible irr over k, in its splitting field
    (fields.poly_root): any one will do, as point_from_coords takes the
    least member of its orbit."""
    return FieldElem(*poly_root(irr, k))


# ---------------------------------------------------------------------------
# flags and local expansion
#
# The box contract: every routine that expands at a flag
# (flag_coordinate_series, expand_poly_at_flag, ratio_at_flag,
# expand_at_flag, canonical_local_form) takes the box
# t < t_to, u < u_to and returns a series whose (t_prec, u_prec) is exactly
# (t_to, u_to), equal to the same call on any wider box, truncated.  Only
# ratio_at_flag divides: the flag knows the exact orders that fix its boxes.

class Flag:
    """A point on a curve with a deterministic local coordinate pair.  Its
    cache holds "coords", the solved coordinate (flag_coordinate_series),
    "branch" (_branch), ("val", P), the rank-2 valuation of a polynomial
    factor (poly_valuation_at_flag), and "P" (form_polynomial)."""

    __slots__ = ("point", "curve", "chart", "u_index", "u_value", "t_param",
                 "point_affine", "_cache")

    def __init__(self, point: ClosedPoint, curve: Curve, chart: Chart,
                 u_index: int, u_value: FieldElem, t_param: MPoly,
                 point_affine: Tuple[FieldElem, FieldElem]):
        self.point = point
        self.curve = curve
        self.chart = chart
        self.u_index = u_index        # which chart coordinate (0 or 1) is u
        self.u_value = u_value        # its value at the point
        self.t_param = t_param        # dehomogenized curve equation (2 vars)
        self.point_affine = point_affine
        self._cache: Dict = {}

    def __repr__(self):
        return (f"Flag({self.point!r} on {self.curve!r}, chart {self.chart.name},"
                f" u=c{self.u_index})")


def flag_make(x: ClosedPoint, D: Curve) -> Flag:
    """Local coordinates at x on D: t = local equation of D, u = the first
    chart coordinate whose differential stays independent of dt at x.

    One surface makes one Flag per (x, D): a later call with an equal point
    and curve returns the same object, so the expansions cached on it are
    computed once however many sums visit the flag.  The registry lives in
    D.surface.flags until its owner clears it.  Only flags that exist are
    registered: at a singular point of D every call raises."""
    S = D.surface
    got = S.flags.get((x, D))
    if got is not None:
        return got
    k = x.residue_field
    # the charts cover the surface
    chart = next(ch for ch in S.charts if ch.contains(x.coords))
    aff = chart.affine(x.coords)
    t_param_base = S.dehomogenize(D.poly, chart)
    if t_param_base.is_zero():
        raise ValueError("curve does not meet this chart")
    t_param = _mp_embed(t_param_base, k)
    # check the point is on the curve in this chart
    if not t_param.evaluate(list(aff)).is_zero():
        raise ValueError("point does not lie on the curve")
    d0 = t_param.derivative(0).evaluate(list(aff))
    d1 = t_param.derivative(1).evaluate(list(aff))
    if not d1.is_zero():
        u_index = 0
    elif not d0.is_zero():
        u_index = 1
    else:
        raise ValueError(f"curve is singular at {x!r} (no admissible flag)")
    fl = Flag(x, D, chart, u_index, aff[u_index], t_param, aff)
    S.flags[(x, D)] = fl
    return fl


def flags_through(x: ClosedPoint, curves: Iterable[Curve]) -> List[Flag]:
    """The flags at x on those of the curves that pass through x, in order;
    ValueError (flag_make) where one of them is singular at x."""
    coords = list(x.coords)
    return [flag_make(x, D) for D in curves
            if D.poly.evaluate(coords).is_zero()]


def _mp_embed(f: MPoly, ext: FieldDesc) -> MPoly:
    if f.desc == ext:
        return f
    return MPoly._make(ext, f.nvars, {e: _embed_code(f.desc, c, ext)
                                      for e, c in f.terms.items()})


def flag_coordinate_series(fl: Flag, t_to: int, u_to: int) -> LaurentSeries2:
    """The chart coordinate other than u at the flag, as a series B(u, t)
    on the box t < t_to, u < u_to, with B(0, 0) its value at the point: the
    solution of t_param(u_value + u, B) = t, lifted from the branch (_lift).

    The flag keeps one solution, on the join of the boxes asked for so far.
    A box inside it is served by truncation; a larger box restarts the lift
    on the join.  Either way the result equals a fresh lift on the box,
    terms and precisions."""
    got = fl._cache.get("coords")
    if got is None:
        got = fl._cache["coords"] = _lift(fl, t_to, u_to)
    elif t_to > got.t_prec or u_to > got.u_prec:
        got = fl._cache["coords"] = _lift(
            fl, max(t_to, got.t_prec), max(u_to, got.u_prec))
    return got.truncate(t_to, u_to)


def _lift(fl: Flag, t_to: int, n: int) -> LaurentSeries2:
    """The solved coordinate B on one box, written column by column: its
    t^0 column is the branch ybar(u), and off it B = ybar + delta with
    sum_j T^[j](u, ybar) delta^j = t, for T^[j] the Hasse derivatives of
    t_param in y and T^[0](u, ybar) = 0.  So delta = sum_i c_i(u) t^i with
    c_1 = 1 / T^[1](u, ybar), a unit since flag_make checks it at the
    point, and c_i = -c_1 * sum_{j >= 2} T^[j](u, ybar) [t^i] delta^j, whose
    right side holds c_1 ... c_(i-1) only: every product is one of power
    series in u (Kung and Traub, J. ACM 25(2), 1978), and c_i is the t^i
    column.  A curve linear in y has c_i = 0 for i >= 2."""
    k = fl.point.residue_field
    if t_to < 1 or n < 1:  # an empty box
        return LaurentSeries2.zero(k, t_to, n)
    ybar = _branch(fl, n)
    cols = fl._cache["branch"][0]  # t_param's _u_columns, kept by _branch
    deg = len(cols) - 1  # of t_param in y
    hasse = [None] + [_hasse(cols, j, ybar, n, k) for j in range(1, deg + 1)]
    c1 = ps_inverse(hasse[1], n, k)
    minus_c1 = [k.neg(c) for c in c1]
    # powers[j][i] = [t^i] delta^j, zero below t^j; powers[1] holds the c_i
    powers = [None, [[0] * n, c1]] + [[[0] * n] * j
                                      for j in range(2, deg + 1)]
    for i in range(2, t_to if deg > 1 else 2):
        acc = [0] * n
        for j in range(2, min(i, deg) + 1):
            # [t^i] delta^j = sum_m c_m [t^(i - m)] delta^(j - 1)
            term = [0] * n
            for m in range(1, i - j + 2):
                ps_mac(term, 0, powers[1][m], powers[j - 1][i - m], k)
            powers[j].append(term)
            ps_mac(acc, 0, hasse[j], term, k)
        powers[1].append(ps_mul(minus_c1, acc, n, k))
    return LaurentSeries2.from_columns(
        k, {i: (0, c) for i, c in enumerate([ybar] + powers[1][1:t_to])},
        t_to, n)


def expand_poly_at_flag(P: MPoly, fl: Flag, t_to: int,
                        u_to: int) -> LaurentSeries2:
    """Expansion of a homogeneous polynomial, dehomogenized in the flag's
    chart, on the box t < t_to, u < u_to: sum_m col_m(u) B^m, for col_m its
    _u_columns and B the solved coordinate (flag_coordinate_series), summed
    one t-column at a time (ps_mac).  Each B^m with col_m nonzero is the
    last such power times B^(m - m') by square-and-multiply; B is a power
    series, so every product is cut to the box as it is made.  The
    expansion is not kept: its callers rarely ask for one box twice."""
    k, S = fl.point.residue_field, fl.curve.surface
    cols = _u_columns(_mp_embed(S.dehomogenize(P, fl.chart), k), fl)
    B = flag_coordinate_series(fl, t_to, u_to)

    def mul(x, y):
        return x.mul(y, t_to, u_to)

    out: Dict[int, List[int]] = {}
    Bm, last = None, 0  # B^last, None for B^0
    for m, col in enumerate(cols):
        if col:
            if m > last:
                step = power(B, m - last, mul)
                Bm, last = step if Bm is None else mul(Bm, step), m
            for t, (v, codes) in (Bm.cols if m else {0: (0, [1])}).items():
                ps_mac(out.setdefault(t, [0] * u_to), v, col, codes, k)
    return LaurentSeries2.from_columns(
        k, {t: (0, out[t]) for t in sorted(out)}, t_to, u_to)


def poly_valuation_at_flag(P: MPoly, fl: Flag) -> Tuple[int, int]:
    """The rank-2 valuation (vt, w) of P's expansion at the flag: vt is the
    multiplicity of the flag's curve D in P, and w the u-valuation of the
    t^vt column, which is Q = P / D^vt restricted to D.  So w is the u-order
    of Q(u_value + u, ybar(u)) for ybar the other chart coordinate along D
    (_branch): a local intersection number of Q with D, at most their class
    pairing B, so the codes below u^(B + 1) show it; where Q is a unit at
    the point, w is 0 from one evaluation.  No two-variable series is
    expanded.  Cached per polynomial; valuation_at_flag sums these."""
    key = ("val", P)
    got = fl._cache.get(key)
    if got is not None:
        return got
    S, D = fl.curve.surface, fl.curve
    vt, rest = _order(P, D)
    affine = S.dehomogenize(rest, fl.chart)
    if not affine.evaluate(fl.point_affine).is_zero():
        got = fl._cache[key] = (vt, 0)
        return got
    n = class_intersection(S, S.class_add(S.poly_class(P), S.class_scale(
        -vt, D.degree())), D.degree()) + 1
    k = fl.point.residue_field
    along = ps_horner(_u_columns(_mp_embed(affine, k), fl), _branch(fl, n),
                      n, k)
    w = next((i for i, c in enumerate(along) if c), None)
    if w is None:  # pragma: no cover - Bezout bounds w by B
        raise PrecisionError(f"{poly_text(S, P)} vanishes to order {n} "
                             f"along {D!r} at {fl!r}")
    got = fl._cache[key] = (vt, w)
    return got


def _branch(fl: Flag, n: int) -> List[int]:
    """The chart coordinate other than u along the flag's curve, as the
    codes of ybar(u) in k(x)[[u]] below u^n: the root of T(u, ybar) =
    t_param(u_value + u, ybar) = 0 with ybar(0) its value at the point, by
    Newton's method, which doubles the codes known each step; its divisor
    T^[1](u, ybar) is a unit at the point, as flag_make checks.  The flag
    keeps the longest branch asked for, with t_param's _u_columns."""
    k = fl.point.residue_field
    cols, y = fl._cache.get("branch") or (
        _u_columns(fl.t_param, fl), [fl.point_affine[1 - fl.u_index].n])
    while len(y) < n:
        m = min(2 * len(y), n)
        y = y + [0] * (m - len(y))
        step = ps_mul(ps_horner(cols, y, m, k),
                      ps_inverse(_hasse(cols, 1, y, m, k), m, k), m, k)
        y = k.axpy(k.neg(1), step, y)
    fl._cache["branch"] = cols, y
    return y[:n]


def _u_columns(f: MPoly, fl: Flag) -> List[Poly]:
    """f(u_value + u, c) for f a polynomial in the flag's chart coordinates
    and c the one other than u, as its coefficient of each power of c: a
    polynomial in u, the Taylor shift (fields.pshift) of f's column."""
    return [pshift(col, fl.u_value.n, fl.point.residue_field)
            for col in f.columns(1 - fl.u_index)]


def _hasse(cols: List[List[int]], j: int, y: List[int], n: int,
           k: FieldDesc) -> List[int]:
    """T^[j](u, y) below u^n, for cols the columns of T in its second
    variable: the Hasse derivative sum_m binom(m, j) cols[m] y^(m - j)."""
    return ps_horner([k.axpy(comb(m, j) % k.p, col, [0] * len(col))
                      for m, col in enumerate(cols[j:], j)], y, n, k)


def valuation_at_flag(f: Factors, fl: Flag, part: int) -> int:
    """v_t (part 0) or w (part 1) at the flag of the product of the factors
    (P, e): the rank-2 valuation is a homomorphism, so each factor adds e
    times its own, v_t from _order and w from poly_valuation_at_flag, each
    kept per polynomial.  No product is formed; only w expands."""
    if part:
        return sum(e * poly_valuation_at_flag(P, fl)[1] for P, e in f)
    return sum(e * _order(P, fl.curve)[0] for P, e in f)


def ratio_at_flag(f: Factors, fl: Flag, t_to: int,
                  u_to: int) -> LaurentSeries2:
    """num/den at the flag on the box t < t_to, u < u_to, for num and den
    the products of f's factors with e > 0 and of the P^-e with e < 0, by
    one column recurrence (Brent and Kung, J. ACM 25(4), 1978).

    With vn the order of num along the flag's curve and (vd, wd) the
    valuation of den, both summed over the factors (valuation_at_flag),
    num = t^vn sum_j t^j N_j and den = t^vd sum_i t^i D_i
    with D_0 = u^wd A_0 for a unit A_0, so the quotient's t^(vn - vd + j)
    column is Q_j = D_0^-1 (N_j - sum_{i=1..j} D_i Q_(j-i)), and the box
    holds size = t_to - vn + vd of them.  For s >= 0 the least slope with
    ord D_i >= wd - i*s, Q_j has u-order at least -wd - j*s, so E_j =
    u^(wd + j*s) Q_j = (u^(j*s) N_j - sum_i u^(i*s - wd) D_i E_(j-i)) / A_0
    is a power series, one ps_mac per term.  Its n = u_to + wd + (size -
    1)*s codes (at least 1) read num below u^n and den below u^(n + wd);
    s <= wd, so den is expanded, before s is known, on t < t_to - vn + 2vd,
    u < u_to + (size + 1)*wd.  No column dips below u^(-size*wd): when
    size <= 0 or u_to + size*wd <= 0 the quotient is 0 on the box, and
    nothing is expanded; else num and den are formed, on each call, and
    expanded whole."""
    k, S = fl.point.residue_field, fl.curve.surface
    num, den = _parts(f)
    vn = valuation_at_flag(num, fl, 0)
    vd, wd = valuation_at_flag(den, fl, 0), valuation_at_flag(den, fl, 1)
    size = t_to - vn + vd
    if size <= 0 or u_to + size * wd <= 0:
        return LaurentSeries2.zero(k, t_to, u_to)
    D = expand_poly_at_flag(MPoly.product(S.base, S.nvars, den), fl,
                            vd + size, u_to + (size + 1) * wd).cols
    # (i, ord D_i - wd, -D_i) for the later columns, in increasing i
    later = [(t - vd, v - wd, [k.neg(c) for c in codes])
             for t, (v, codes) in D.items() if t > vd]
    s = max([0] + [-(dv // i) for i, dv, _ in later])
    n = max(1, u_to + wd + (size - 1) * s)
    N = expand_poly_at_flag(MPoly.product(S.base, S.nvars, num), fl,
                            vn + size, n).cols
    inv = ps_inverse(D[vd][1], n, k)
    E: List[List[int]] = []
    for j in range(size):
        acc = [0] * n
        if vn + j in N:
            v, codes = N[vn + j]
            ps_mac(acc, v + j * s, codes, [1], k)
        for i, dv, minus in later:
            if i > j:
                break
            ps_mac(acc, dv + i * s, minus, E[j - i], k)
        E.append(ps_mul(inv, acc, n, k) if any(acc) else acc)
    return LaurentSeries2.from_columns(
        k, {vn - vd + j: (-wd - j * s, e) for j, e in enumerate(E)},
        t_to, u_to)


def expand_at_flag(f: RationalFunction, fl: Flag, t_to: int,
                   u_to: int) -> LaurentSeries2:
    """The image of a rational function in the local field at the flag, on
    the box t < t_to, u < u_to (ratio_at_flag of its factors)."""
    if u_to < 1:
        raise ValueError(f"expansion box must hold u^0, got u < {u_to}")
    return ratio_at_flag(f.factors, fl, t_to, u_to)


def ord_on_curve(f: RationalFunction, D: Curve) -> int:
    """Multiplicity of D in div(f): e times D's multiplicity in P, by exact
    division (_order), summed over f's factors (P, e)."""
    return sum(e * _order(P, D)[0] for P, e in f.factors)


def _order(P: MPoly, D: Curve) -> Tuple[int, MPoly]:
    """(v, P / D^v) for v the multiplicity of D in P: one chain of exact
    divisions per (polynomial, curve), kept in D.surface.memo under
    ("ord", P, D), so that every flag on D shares it."""
    key = ("ord", P, D)
    memo = D.surface.memo
    got = memo.get(key)
    if got is None:
        got = memo[key] = _poly_ord(P, D)
    return got


def _poly_ord(P: MPoly, D: Curve) -> Tuple[int, MPoly]:
    """D^v divides P only for v up to P's total degree (the sum of its
    class, or of any one exponent) over D's, so a division fails within one
    more; BudgetExceeded if none does."""
    if P.is_zero():
        raise ValueError("the zero polynomial has no order along a curve")
    cur = P
    for n in range(sum(next(iter(P.terms))) // sum(D._cls) + 1):
        nxt = cur.exact_div(D.poly)
        if nxt is None:
            return n, cur
        cur = nxt
    raise BudgetExceeded(f"{poly_text(D.surface, P)} kept dividing by "
                         f"{D!r} past its degree")


# ---------------------------------------------------------------------------
# divisors


class Divisor:
    """A finite formal sum of irreducible curves with integer multiplicities.

    The components never change after construction, so the class is
    counted once, here, and its hash serves as the divisor's, and a sum or
    difference with the zero divisor is the other divisor itself."""

    __slots__ = ("surface", "components", "_cls", "_hash")

    def __init__(self, surface: Surface, components: Dict[Curve, int]):
        self.surface = surface
        self.components = {c: m for c, m in components.items() if m != 0}
        acc = [0] * len(surface.groups)
        for c, m in self.components.items():
            for i, d in enumerate(c._cls):
                acc[i] += m * d
        self._cls = tuple(acc)
        self._hash = hash(self._cls)

    def __add__(self, other: "Divisor") -> "Divisor":
        if other.surface != self.surface:
            raise ValueError("divisors live on different surfaces")
        if not self.components:
            return other
        if not other.components:
            return self
        out = dict(self.components)
        for c, m in other.components.items():
            out[c] = out.get(c, 0) + m
        return Divisor(self.surface, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.surface, {c: -m for c, m in self.components.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        if other.surface != self.surface:
            raise ValueError("divisors live on different surfaces")
        if not other.components:
            return self
        out = dict(self.components)
        for c, m in other.components.items():
            out[c] = out.get(c, 0) - m
        return Divisor(self.surface, out)

    def items(self) -> List[Tuple[Curve, int]]:
        return sorted(self.components.items(), key=lambda cm: cm[0]._key)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Divisor) and self.surface == other.surface
            and self.components == other.components)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.components:
            return "0"
        return " + ".join(f"{m}*{c!r}" for c, m in self.items())


def divisor_class(D: Divisor) -> ClassVector:
    return D._cls


def class_intersection(S: Surface, a: ClassVector, b: ClassVector) -> int:
    """The intersection form on divisor classes: the coefficient of the top
    monomial prod h_i^n_i of (sum a_i h_i)(sum b_j h_j) in the product of
    the rings Z[h_i]/(h_i^(n_i + 1)), one for each factor P^n_i, read off
    the surface's pairs (i, j) with h_i h_j the top monomial."""
    return sum(a[i] * b[j] for i, j in S.top_pairs)


# the fixed global 2-form: d(x) ^ d(y) in the first chart's coordinates


def form_polynomial(fl: Flag) -> MPoly:
    """The P with the fixed form = du^dt / P at the flag, cached on it: the
    form is the Euler form over the first chart's unit lines L_g^|g| (Z^3;
    X1^2 Y1^2), +-da^db in the flag chart's (a, b) (Hartshorne, II.8.20.1),
    and da^db = +-du^dt / (dD/dc) for c the chart variable other than u.
    So P = +-dD/dc * prod L_g^|g|, negated when u_index plus the position
    within its group of each unit variable of both charts is odd."""
    got = fl._cache.get("P")
    if got is None:
        S = fl.curve.surface
        got = fl.curve.poly.derivative(fl.chart.affine_vars[1 - fl.u_index])
        # a chart's unit variables hold one per group, in group order
        for v, g in zip(S.charts[0].unit_vars, S.groups):
            got = got * S.var(v) ** len(g)
        odd = fl.u_index + sum(v - g.start for ch in (fl.chart, S.charts[0])
                               for v, g in zip(ch.unit_vars, S.groups))
        got = fl._cache["P"] = -got if odd % 2 else got
    return got


def canonical_local_form(fl: Flag, t_to: int, u_to: int) -> LaurentSeries2:
    """J = 1 / form_polynomial(fl) on the box t < t_to, u < u_to: the fixed
    form is J du^dt at the flag (ratio_at_flag of the one factor P^-1)."""
    return ratio_at_flag([(form_polynomial(fl), -1)], fl, t_to, u_to)


def smooth_flag(D: Curve, max_degree: int,
                avoid: Sequence[Curve] = ()) -> Flag:
    """The first flag on D at a point of degree at most max_degree that lies
    on no curve of `avoid`; singular points of D are skipped.  Points are
    tried one exact degree d at a time, lowest first, since the walk over
    the surface's points with coordinates in F_(q^d) grows like q^(2d)
    (_least_rational_point); D is not enumerated."""
    base = D.surface.base
    for degree in range(1, max_degree + 1):
        got = _least_rational_point(D, avoid,
                                    field_make(base.p, base.d * degree))
        if got is not None:
            return flag_make(got, D)
    raise ValueError(f"no admissible flag on {D!r} up to point degree "
                     f"{max_degree}")


def _least_rational_point(D: Curve, avoid: Sequence[Curve],
                          k: FieldDesc) -> Optional[ClosedPoint]:
    """The least point of D with coordinates in k, by ClosedPoint.sort_key,
    on no curve of `avoid` and smooth on D, or None: at most one evaluation
    of D per point of the surface over k, with the curves embedded into k
    directly, as flag_make embeds them.  A point of D is singular where
    every partial derivative of D.poly vanishes, which (by Euler's relation
    in each group) is where flag_make finds none in the chart.

    Whether a point qualifies does not change under Galois conjugation, so
    the first one found is the least member of its orbit.  Its degree is
    taken to be [k : F_q]: the caller has rejected every point over a
    smaller field."""
    S = D.surface
    f = _mp_embed(D.poly, k)
    others = [_mp_embed(E.poly, k) for E in avoid]
    partials = None
    for coords in _points_over(S, k):
        if f.evaluate(coords) or any(not E.evaluate(coords) for E in others):
            continue
        if partials is None:
            partials = [f.derivative(v) for v in range(S.nvars)]
        if any(d.evaluate(coords) for d in partials):
            return ClosedPoint(S, k, tuple(coords), k.d // S.base.d)
    return None


def _points_over(S: Surface, k: FieldDesc) -> Iterable[List[FieldElem]]:
    """The normalized points of S with coordinates in k, in
    ClosedPoint.sort_key order, as coordinate lists, made one at a time.
    The zero element sorts first, so within a group the leading 1 moves
    from the last variable back to the first, the free coordinates running
    over k by FieldElem.sort_key (not code order when k is not prime); the
    groups nest in variable order."""
    elems = sorted(k.elems(), key=FieldElem.sort_key)
    zero, one = k.zero(), k.one()

    def walk(start: int) -> Iterable[List[FieldElem]]:
        if start == len(S.groups):
            yield []
            return
        size = len(S.groups[start])
        for lead in range(size - 1, -1, -1):
            for free in itertools.product(elems, repeat=size - lead - 1):
                head = [zero] * lead + [one] + list(free)
                for rest in walk(start + 1):
                    yield head + rest

    return walk(0)


def canonical_divisor(S: Surface) -> Divisor:
    """The divisor of the fixed 2-form, in closed form: the form is regular
    and nowhere zero on the first chart, so the unit line of each group
    carries that group's entry of the canonical class (Hartshorne, II.8.20.1),
    -3*Z on P2 and -2*X1 - 2*Y1 on P1xP1.  Built once, kept in S.memo."""
    got = S.memo.get(("canonical",))
    if got is None:
        # the first chart's unit variables, one per group in group order
        got = S.memo[("canonical",)] = Divisor(S, {
            S.lines[S.var_names[v]]: k
            for v, k in zip(S.charts[0].unit_vars, S.canonical_class())})
    return got


def form_order_on_curve(D: Curve) -> int:
    """ord_D of the fixed 2-form: its multiplicity in canonical_divisor."""
    return canonical_divisor(D.surface).components.get(D, 0)
