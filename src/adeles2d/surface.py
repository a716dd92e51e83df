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
    FieldDesc,
    FieldElem,
    Poly,
    _embed_code,
    coerce_down,
    embed,
    field_make,
    pdeg,
    pgcd,
    poly_factor,
    poly_roots,
    ptrim,
)
from .multipoly import MPoly, resultant_elim
from .series import (DEFAULT_PREC, INF, LaurentSeries2, PrecisionError,
                     _invert_column)

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
    ("support", C, H) for intersection_support, ("monomials", c) for
    class_monomials, ("canonical",) for canonical_divisor, ("ord", P, D)
    for the multiplicity of a curve in a polynomial and the quotient
    (_order); ("h", c), ("section rows", negative, c),
    ("section product", negative), ("columns", c) and
    ("section rank", negative, c) for cohomology; ("representative", c)
    and ("reflect", wdiv, D) for measures; ("germ", D, x) for the idele
    germ of a curve at a point and ("intersection flags", supp C, supp H)
    for the flags of two supports, in symbols; and ("chart", P, name) for
    a polynomial restricted to a chart (dehomogenize).  Both live until
    their owner clears them; an equal but new Surface starts empty."""

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
        """The degree in each group of a homogeneous polynomial (-1 in every
        group for the zero polynomial)."""
        return tuple(max((sum(e[g.start:g.stop]) for e in f.terms), default=-1)
                     for g in self.groups)

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
    for p in range(2, q + 1):
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, d
    raise ValueError(f"{q} is not a prime power")


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


class RationalFunction:
    """A ratio of two homogeneous polynomials of equal class."""

    __slots__ = ("surface", "num", "den")

    def __init__(self, surface: Surface, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num_cls = {surface.exponent_class(e) for e in num.terms}
        den_cls = {surface.exponent_class(e) for e in den.terms}
        if len(num_cls) > 1 or len(den_cls) > 1:
            raise ValueError("numerator and denominator must be homogeneous")
        if num_cls - den_cls:
            raise ValueError("numerator and denominator classes differ")
        self.surface = surface
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or self.surface != other.surface:
            return False
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self):
        return (f"({poly_text(self.surface, self.num)})"
                f"/({poly_text(self.surface, self.den)})")


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


def _normalize_scalar(f: MPoly) -> MPoly:
    c = f.terms[max(f.terms)]
    return f if c == 1 else f.scale(f.desc.inv(c))


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


def _candidate_polys(S: Surface, cls: ClassVector) -> Iterable[MPoly]:
    """All nonzero homogeneous polynomials of the given class, normalized
    so their first (lex-greatest) nonzero coefficient is 1."""
    desc = S.base
    monos = class_monomials(S, cls)
    n = len(monos)
    q = desc.q
    # first nonzero coefficient (in lex-monomial order) pinned to 1; the
    # others run through all codes, the first fastest
    for lead in range(n):
        total = q ** (n - lead - 1)
        for code in range(total):
            terms = {monos[lead]: 1}
            m = code
            for k in range(lead + 1, n):
                m, c = divmod(m, q)
                if c:
                    terms[monos[k]] = c
            yield MPoly._make(desc, S.nvars, terms)


def _class_halves(S: Surface, cls: ClassVector) -> List[ClassVector]:
    """Proper divisor classes to test, up to half the total degree."""
    return [c for c in itertools.product(*(range(d + 1) for d in cls))
            if 0 < 2 * sum(c) <= sum(cls) and c != cls]


def curve_make(S: Surface, poly: Union[MPoly, str], name: Optional[str] = None) -> Curve:
    """Validated irreducible curve; raises listing a factor pair otherwise."""
    if isinstance(poly, str):
        poly = parse_poly(S, poly)
    if poly.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    if not S.is_homogeneous(poly):
        raise ValueError("curve polynomial must be homogeneous")
    f = _normalize_scalar(poly)
    cls = S.poly_class(f)
    if sum(cls) <= 0:
        raise ValueError("a curve must have positive degree")
    if sum(cls) > 1:
        for sub in _class_halves(S, cls):
            for g in _candidate_polys(S, sub):
                h = f.exact_div(g)
                if h is not None:
                    gt = poly_text(S, _normalize_scalar(g))
                    ht = poly_text(S, _normalize_scalar(h))
                    raise ValueError(f"reducible curve: factors ({gt}) * ({ht})")
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


def _orbit_representative(surface: Surface, coords: Tuple[FieldElem, ...],
                          q: int) -> Tuple[Tuple[FieldElem, ...], int]:
    """(lex-least orbit member, exact degree) under x -> x^q."""
    best = coords
    cur = coords
    size = 1
    while True:
        cur = _normalize_proj(surface, [c ** q for c in cur])
        if cur == coords:
            break
        if tuple(c.sort_key() for c in cur) < tuple(c.sort_key() for c in best):
            best = cur
        size += 1
    return best, size


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
    rep, size = _orbit_representative(S, norm, S.base.q)
    exact = field_make(S.base.p, S.base.d * size)
    if exact != field:
        rep, _size = _orbit_representative(S, tuple(
            coerce_down(c, exact) for c in rep), S.base.q)
    return ClosedPoint(S, exact, rep, size)


# ---------------------------------------------------------------------------
# intersection of two curves (support only)


def intersection_support(C: Curve, H: Curve) -> List[ClosedPoint]:
    """The closed points lying on both curves, sorted: the roots of one
    resultant in the first chart, then one fibre in each later chart.

    Computed once per ordered pair on a surface and kept in C.surface.memo
    as a tuple; each call returns a new list.  Both intersection routes
    (the commutator pairing in symbols and the Fulton oracle) start
    from this support, and each computes its own local multiplicities."""
    if C == H:
        raise ValueError("curves share a component")
    key = ("support", C, H)
    memo = C.surface.memo
    got = memo.get(key)
    if got is None:
        got = memo[key] = tuple(_support(C, H))
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
    fs = [S.dehomogenize(D.poly, first) for D in (C, H)]
    res = resultant_elim(*fs, elim=1, keep=0)
    if not res:  # distinct irreducible curves stay coprime
        raise ValueError("curves share a component")
    found: List[ClosedPoint] = []
    for irr, _m in poly_factor(res, S.base)[1]:
        _collect_fiber_points(S, first, fs, 1, _one_root(irr, S.base), found)
    for chart in S.charts[1:]:
        fs = [S.dehomogenize(D.poly, chart) for D in (C, H)]
        solve = 1 if chart.affine_vars[0] in first.unit_vars else 0
        if all(e[1 - solve] for f in fs for e in f.terms):
            raise ValueError("curves share a component")
        _collect_fiber_points(S, chart, fs, solve, S.base.zero(), found)
    return sorted(found, key=ClosedPoint.sort_key)


def _collect_fiber_points(S: Surface, chart: Chart, fs: Sequence[MPoly],
                          solve: int, x0: FieldElem,
                          found: List[ClosedPoint]) -> None:
    """Append the closed points of the chart where every chart equation in
    fs vanishes and the coordinate other than `solve` is x0, which must
    generate its field over the base.  Each point is appended once: one x0
    per Frobenius orbit, one root per factor, and points of an earlier chart
    are left to it, as callers visit the charts in order."""
    k = x0.desc
    h: Poly = []
    for f in fs:
        # f on the fibre, as a polynomial in coordinate `solve`
        r = [0] * (f.degree_in(solve) + 1)
        for e, c in f.terms.items():
            r[e[solve]] = k.add(r[e[solve]], k.mul(
                _embed_code(f.desc, c, k), k.pow(x0.n, e[1 - solve])))
        h = pgcd(h, ptrim(r), k)
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
    """A root of the monic irreducible irr over k, in its splitting field."""
    if pdeg(irr) == 1:
        return FieldElem(k, k.neg(irr[0]))
    ext = field_make(k.p, k.d * pdeg(irr))
    return FieldElem(ext, poly_roots([_embed_code(k, c, ext) for c in irr],
                                     ext)[0][0])


# ---------------------------------------------------------------------------
# flags and local expansion

# invert_poly_at_flag widens the u-window of a box at most to
# MAX_U_WIDENING * window + U_WIDENING_SLACK
MAX_U_WIDENING = 16
U_WIDENING_SLACK = 64


class Flag:
    """A point on a curve with a deterministic local coordinate pair."""

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


def _mp_embed(f: MPoly, ext: FieldDesc) -> MPoly:
    if f.desc == ext:
        return f
    return MPoly._make(ext, f.nvars, {e: _embed_code(f.desc, c, ext)
                                      for e, c in f.terms.items()})


def mp_eval_series(f: MPoly, args: Sequence[LaurentSeries2],
                   desc: FieldDesc) -> LaurentSeries2:
    """Evaluate a polynomial at series arguments (coefficients in desc)."""
    pows: List[Dict[int, LaurentSeries2]] = [dict() for _ in range(f.nvars)]

    def pw(i: int, n: int) -> LaurentSeries2:
        got = pows[i].get(n)
        if got is None:
            got = args[i] ** n
            pows[i][n] = got
        return got

    # the terms are summed into one dict and cut once to the least of their
    # windows: the terms and windows that adding them one by one with `+`
    # gives, without a copy of the sum per term
    add = desc.add
    acc: Dict[Tuple[int, int], int] = {}
    t_prec = u_prec = INF
    for e, c in f.terms.items():
        term = LaurentSeries2._make(desc, {(0, 0): c}, INF, INF)
        for i, k in enumerate(e):
            if k:
                term = term * pw(i, k)
        t_prec, u_prec = min(t_prec, term.t_prec), min(u_prec, term.u_prec)
        for key, v in term.terms.items():
            cur = acc.get(key)
            if cur is None:
                acc[key] = v
            elif cur := add(cur, v):
                acc[key] = cur
            else:
                del acc[key]
    if t_prec != INF or u_prec != INF:
        acc = {k: c for k, c in acc.items() if k[0] < t_prec and k[1] < u_prec}
    return LaurentSeries2._make(desc, acc, t_prec, u_prec)


def flag_coordinate_series(fl: Flag, window: int,
                           u_window: Optional[int] = None) -> List[LaurentSeries2]:
    """Expansions of the two chart coordinates at the flag on the box of
    t-window `window` and u-window `u_window` (default: the same): u itself,
    and the other as a series B(u, t) with B(0,0) = its value at the point,
    solving t_param(coords) = t, lifted from the branch (_lift).

    The flag keeps one solution, on the join of the boxes asked for so far.
    A box inside it is served by truncation; a larger box restarts the lift
    on the join.  Either way the result equals a fresh lift on the box,
    terms and precisions."""
    if u_window is None:
        u_window = window
    other = 1 - fl.u_index
    got = fl._cache.get("coords")
    if got is None:
        got = fl._cache["coords"] = _lift(fl, window, u_window)
    elif window > got[other].t_prec or u_window > got[other].u_prec:
        got = fl._cache["coords"] = _lift(
            fl, max(window, got[other].t_prec),
            max(u_window, got[other].u_prec))
    out = list(got)
    out[other] = got[other].truncate(window, u_window)
    return out


def _lift(fl: Flag, window: int, u_window: int) -> List[LaurentSeries2]:
    """The coordinate series on one box.  Along t = 0 the other coordinate
    is the branch ybar(u); off it, y = ybar + delta with
    sum_j T^[j](u, ybar) delta^j = t, for T^[j] the Hasse derivatives of
    t_param in y and T^[0](u, ybar) = 0.  So delta = sum_i c_i(u) t^i with
    c_1 = 1 / T^[1](u, ybar), a unit since flag_make checks it at the
    point, and c_i = -c_1 * sum_{j >= 2} T^[j](u, ybar) [t^i] delta^j, whose
    right side holds c_1 ... c_(i-1) only: every product is one of power
    series in u (Kung and Traub, J. ACM 25(2), 1978).  A curve linear in y
    has c_i = 0 for i >= 2."""
    k = fl.point.residue_field
    other = 1 - fl.u_index
    u_series = LaurentSeries2.monomial(k, k.one(), 0, 1) + \
        LaurentSeries2.const(k, fl.u_value)
    coords = [u_series, u_series]
    n = u_window
    if window < 1 or n < 1:  # an empty box
        coords[other] = LaurentSeries2._make(k, {}, window, n)
        return coords
    ybar = _branch(fl, n)
    cols = _u_columns(fl.t_param, fl, n)
    deg = len(cols) - 1  # of t_param in y
    # hasse[j] = T^[j](u, ybar) = sum_m binom(m, j) cols[m] ybar^(m - j)
    hasse = [None] + [
        _horner([k.axpy(comb(m, j) % k.p, col, [0] * n) for m, col in
                 enumerate(cols[j:], j)], ybar, n, k)
        for j in range(1, deg + 1)]
    inv, _prec = _invert_column({i: c for i, c in enumerate(hasse[1]) if c},
                                INF, n, k)
    c1 = [inv.get(i, 0) for i in range(n)]
    # powers[j][i] = [t^i] delta^j, zero below t^j; powers[1] holds the c_i
    powers = [None, [[0] * n, c1]] + [[[0] * n] * j
                                      for j in range(2, deg + 1)]
    for i in range(2, window if deg > 1 else 2):
        acc = [0] * n
        for j in range(2, min(i, deg) + 1):
            # [t^i] delta^j = sum_m c_m [t^(i - m)] delta^(j - 1)
            term = [0] * n
            for m in range(1, i - j + 2):
                term = _ps_add(term, _ps_mul(powers[1][m],
                                             powers[j - 1][i - m], n, k), k)
            powers[j].append(term)
            acc = _ps_add(acc, _ps_mul(hasse[j], term, n, k), k)
        powers[1].append([k.neg(c) for c in _ps_mul(c1, acc, n, k)])
    terms = {(0, e): c for e, c in enumerate(ybar) if c}
    terms.update({(i, e): c for i, ci in enumerate(powers[1][1:window], 1)
                  for e, c in enumerate(ci) if c})
    coords[other] = LaurentSeries2._make(k, terms, window, n)
    return coords


def expand_poly_at_flag(P: MPoly, fl: Flag, window: int,
                        u_window: Optional[int] = None) -> LaurentSeries2:
    """Expansion of a homogeneous polynomial, dehomogenized in the flag's
    chart, as a series in (u, t) on the box of the coordinate series;
    cached per (polynomial, box)."""
    S = fl.curve.surface
    if u_window is None:
        u_window = window
    key = ("poly", P, window, u_window)
    got = fl._cache.get(key)
    if got is not None:
        return got
    k = fl.point.residue_field
    affine = _mp_embed(S.dehomogenize(P, fl.chart), k)
    coords = flag_coordinate_series(fl, window, u_window)
    out = mp_eval_series(affine, coords, k)
    fl._cache[key] = out
    return out


def invert_poly_at_flag(P: MPoly, fl: Flag, window: int,
                        t_window: Optional[int] = None) -> LaurentSeries2:
    """Inverse of P's expansion on the box of `window`, from its columns
    below t^t_window (default: the window).

    The t-valuation of the expansion is pinned down exactly (it is the
    multiplicity of the flag's curve in P), because a square window can hide
    the whole leading t-column when its u-valuation is large -- reading the
    valuation off the tracked terms would then invert about the wrong
    leading term.  A hidden leading column is shown by one u-wider box,
    from its exact u-order (poly_valuation_at_flag).  The polynomial is then
    re-expanded on a u-wider box sized so the erosion the division causes
    (2*lead for the leading-column inverse, plus a dip per Neumann step up
    to t_window) lands exactly where the requested window begins.  Only the
    u-window widens; a box wider than MAX_U_WIDENING * window +
    U_WIDENING_SLACK, or a t-window that ends before the leading column,
    raises PrecisionError.
    """
    t_to = window if t_window is None else min(window, t_window)
    key = ("polyinv", P, window, t_to)
    got = fl._cache.get(key)
    if got is not None:
        return got

    def short(why: str) -> PrecisionError:
        return PrecisionError(f"inverting {poly_text(fl.curve.surface, P)} "
                              f"at {fl!r} on window {window} {why}")

    def wider(u_window: int) -> LaurentSeries2:
        cap = MAX_U_WIDENING * window + U_WIDENING_SLACK
        if u_window > cap:
            raise short(f"needs a u-window of {u_window}, over the cap {cap}")
        return expand_poly_at_flag(P, fl, window, u_window).truncate(
            t_to=t_to)

    vt = poly_order_at_flag(P, fl)
    if t_to <= vt:
        raise short(f"ends its t-window {t_to} before the leading column "
                    f"t^{vt}")
    e = expand_poly_at_flag(P, fl, window).truncate(t_to=t_to)
    if not any(t == vt for (t, _u) in e.terms):
        e = wider(poly_valuation_at_flag(P, fl)[1] + 1)
    lead_u = min(u for (t, u) in e.terms if t == vt)
    size = t_to - vt
    rest = [(t - vt, lead_u - u) for (t, u) in e.terms if t != vt]
    min_step = min((step for step, _dip in rest), default=1)
    max_dip = max([0] + [dip for _step, dip in rest])
    if lead_u > 0 or max_dip > 0:
        steps = 1 - (-size // min_step)
        e = wider(window + 2 * lead_u + steps * max_dip)
    out = e.inverse(u_window=window)
    fl._cache[key] = out
    return out


def poly_order_at_flag(P: MPoly, fl: Flag) -> int:
    """Multiplicity of the flag's curve in P, by exact division (_order)."""
    return _order(P, fl.curve)[0]


def poly_valuation_at_flag(P: MPoly, fl: Flag) -> Tuple[int, int]:
    """The rank-2 valuation (vt, w) of P's expansion at the flag: vt is the
    multiplicity of the flag's curve D in P, and w the u-valuation of the
    t^vt column, which is Q = P / D^vt restricted to D.  So w is the u-order
    of Q(u_value + u, ybar(u)) for ybar the other chart coordinate along D
    (_branch): a local intersection number of Q with D, at most their class
    pairing B, so the codes below u^(B + 1) show it; where Q is a unit at
    the point, w is 0 from one evaluation.  No two-variable series is
    expanded.  Cached per polynomial."""
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
    along = _horner(_u_columns(_mp_embed(affine, k), fl, n), _branch(fl, n),
                    n, k)
    w = next((i for i, c in enumerate(along) if c), None)
    if w is None:  # pragma: no cover - Bezout bounds w by B
        raise PrecisionError(f"{poly_text(S, P)} vanishes to order {n} "
                             f"along {D!r} at {fl!r}")
    got = fl._cache[key] = (vt, w)
    return got


def _branch(fl: Flag, n: int) -> List[int]:
    """The chart coordinate other than u along the flag's curve, as the
    codes of ybar(u) in k(x)[[u]] below u^n: the root of
    t_param(u_value + u, ybar) = 0 with ybar(0) its value at the point.
    Newton's method doubles the codes known each step; its divisor, the
    derivative of t_param in that coordinate, is a unit at the point, which
    flag_make checks.  The flag keeps the longest branch asked for and
    serves shorter ones by slicing."""
    got = fl._cache.get("branch")
    if got is not None and len(got) >= n:
        return got[:n]
    k = fl.point.residue_field
    other = 1 - fl.u_index
    y = got or [fl.point_affine[other].n]
    T = _u_columns(fl.t_param, fl, n)
    dT = _u_columns(fl.t_param.derivative(other), fl, n)
    while len(y) < n:
        m = min(2 * len(y), n)
        y = y + [0] * (m - len(y))
        d = _horner(dT, y, m, k)
        inv, _prec = _invert_column(
            {i: c for i, c in enumerate(d) if c}, INF, m, k)
        step = _ps_mul(_horner(T, y, m, k),
                       [inv.get(i, 0) for i in range(m)], m, k)
        y = [k.sub(a, b) for a, b in zip(y, step)]
    fl._cache["branch"] = y
    return y[:n]


def _u_columns(f: MPoly, fl: Flag, n: int) -> List[List[int]]:
    """f(u_value + u, c) for f a polynomial in the flag's chart coordinates
    and c the one other than u, as its coefficient of each power of c: the
    codes below u^n of a polynomial in u."""
    k = fl.point.residue_field
    ui = fl.u_index
    # the codes of (u_value + u)^i below u^n, for i up to f's degree in u
    shifted = [[1] + [0] * (n - 1)]
    for _ in range(f.degree_in(ui)):
        prev = shifted[-1]
        shifted.append(k.axpy(fl.u_value.n, prev, [0] + prev[:-1]))
    cols = [[0] * n for _ in range(f.degree_in(1 - ui) + 1)]
    for e, c in f.terms.items():
        cols[e[1 - ui]] = k.axpy(c, shifted[e[ui]], cols[e[1 - ui]])
    return cols


def _horner(cols: List[List[int]], y: List[int], n: int,
            k: FieldDesc) -> List[int]:
    """sum_j cols[j] * y^j below u^n, by Horner's rule in y."""
    acc = cols[-1][:n]
    for col in reversed(cols[:-1]):
        acc = _ps_add(_ps_mul(acc, y, n, k), col, k)
    return acc


def _ps_add(a: List[int], b: List[int], k: FieldDesc) -> List[int]:
    """The codes of the sum of two power series in u of one length."""
    return [k.add(x, y) for x, y in zip(a, b)]


def _ps_mul(a: List[int], b: List[int], n: int, k: FieldDesc) -> List[int]:
    """The codes below u^n of the product of two power series in u."""
    out = [0] * n
    for i, c in enumerate(a[:n]):
        if c:
            m = min(n - i, len(b))
            out[i:i + m] = k.axpy(c, b[:m], out[i:i + m])
    return out


def _ratio_at_flag(num: MPoly, den: MPoly, fl: Flag, window: int,
                   t_window: Optional[int] = None) -> LaurentSeries2:
    """num/den expanded at the flag on the box of `window`, or only its
    columns below t^t_window.  For those, with vn and vd the orders of num
    and den along the flag's curve, the inverse of den is read below
    t^(t_window - vn), from den's columns below t^(t_window + 2vd - vn),
    and num is expanded below t^(t_window + vd).  The numerator's u-window
    is widened to survive multiplication against an inverse whose terms
    dip in u."""
    num_to, den_to = window, None
    if t_window is not None:
        vn, vd = poly_order_at_flag(num, fl), poly_order_at_flag(den, fl)
        num_to, den_to = min(window, t_window + vd), t_window + 2 * vd - vn
    inv = invert_poly_at_flag(den, fl, window, t_window=den_to)
    need = window
    if inv.terms:
        dip = min(u for (_t, u) in inv.terms)
        if dip < 0:
            need = window - dip
    top = expand_poly_at_flag(num, fl, num_to, need).truncate(t_to=num_to)
    return top * inv


def expand_at_flag(f: RationalFunction, fl: Flag,
                   prec: int = DEFAULT_PREC,
                   t_window: Optional[int] = None) -> LaurentSeries2:
    """The image of a rational function in the local field at the flag, on
    the box of `prec`; with t_window, only its columns below t^t_window."""
    if f.is_zero():
        raise ValueError("cannot expand the zero function")
    if prec < 1:
        raise ValueError(f"expansion window must be at least 1, got {prec}")
    return _ratio_at_flag(f.num, f.den, fl, prec, t_window)


def ord_on_curve(f: RationalFunction, D: Curve) -> int:
    """Multiplicity of D in div(f), by exact polynomial division."""
    return _order(f.num, D)[0] - _order(f.den, D)[0]


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
    if P.is_zero():
        raise ValueError("the zero polynomial has no order along a curve")
    n = 0
    cur = P
    while True:
        nxt = cur.exact_div(D.poly)
        if nxt is None:
            return n, cur
        cur = nxt
        n += 1


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


def canonical_local_form(fl: Flag, window: int) -> LaurentSeries2:
    """J = 1 / form_polynomial(fl): the fixed form is J du^dt at the flag."""
    return invert_poly_at_flag(form_polynomial(fl), fl, window)


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
