"""Whether a curve is irreducible, and which factor names it if not.

A divisor is a sum of irreducible curves, so surface.curve_make proves
each curve irreducible here, on either surface, by factoring it (_factor,
multipoly.factor2), which is polynomial in its degree D but for its
recombination of at most 2^(D - 1) sets of lifted factors.  A reducible f
is refused naming the factor that a search through the classes up to half
the degree, then through the normalized polynomials of each class, would
meet first (_first_factor); tests/reference_curves.py keeps that search.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, List, Optional, Tuple

from .multipoly import MPoly, factor2

if TYPE_CHECKING:
    from .surface import Chart, Surface


def first_factor(S: Surface, f: MPoly) -> Optional[MPoly]:
    """None if the normalized f, of degree above 1, is irreducible, else
    the normalized factor that names it.  The first coordinate line of the
    least class, the first of the last group (X on P2 and Y0 on P1xP1),
    comes first in _first_factor's order, so where it divides f it names f
    with nothing factored."""
    first = S.groups[-1].start
    if all(e[first] for e in f.terms):
        return S.var(first)
    factors = _factor(S, f)
    if len(factors) == 1 and factors[0][1] == 1:
        return None
    return _first_factor(S, f, factors)


def _factor(S: Surface, f: MPoly) -> List[Tuple[MPoly, int]]:
    """The irreducible factors of f, normalized, with multiplicities: the
    coordinate lines by their least exponents, then the factors of the rest
    in the first chart (multipoly.factor2), each made homogeneous in its
    own class; no unit line divides the rest, so the classes add up."""
    low = [min(e[v] for e in f.terms) for v in range(S.nvars)]
    out = [(S.var(v), m) for v, m in enumerate(low) if m]
    rest = MPoly._make(S.base, S.nvars, {
        tuple(map(operator.sub, e, low)): c for e, c in f.terms.items()})
    chart = S.charts[0]
    if sum(S.poly_class(rest)) > 0:
        out += [(_homogenize(S, g, chart), m)
                for g, m in factor2(S.dehomogenize(rest, chart))]
    return out


def _homogenize(S: Surface, g: MPoly, chart: Chart) -> MPoly:
    """The normalized homogeneous polynomial whose restriction to the chart
    is g, of least class: each unit variable makes up the degree that its
    group lacks."""
    def part(e, u):
        return sum(x for x, w in zip(e, chart.units) if w == u)

    degs = {u: max(part(e, u) for e in g.terms) for u in chart.unit_vars}
    terms = {}
    for e, c in g.terms.items():
        full = [0] * S.nvars
        for x, a in zip(e, chart.affine_vars):
            full[a] = x
        for u, d in degs.items():
            full[u] = d - part(e, u)
        terms[tuple(full)] = c
    return MPoly._make(S.base, S.nvars, terms).normalized()


def _first_factor(S: Surface, f: MPoly,
                  factors: List[Tuple[MPoly, int]]) -> MPoly:
    """The normalized factor of f that a search meets first: the least
    class c in lex order with 0 < 2 sum(c) <= sum(class f), and in it the
    polynomial of the earliest leading monomial in descending lex order,
    then the least by its other coefficients, read from the last monomial
    back (a search pinning the first coefficient to 1 and counting through
    the others, the first fastest).  A factor of that least class has no
    proper factor, whose class would be less and still qualify, so it is
    one of the irreducible factors of f."""
    from .surface import class_monomials  # surface builds on this module

    total = sum(S.poly_class(f))

    def key(g):
        cls = S.poly_class(g)
        monos = class_monomials(S, cls)
        lead = monos.index(max(g.terms))
        return cls, lead, [g.terms.get(monos[i], 0)
                           for i in range(len(monos) - 1, lead, -1)]

    return min((g for g, _m in factors
                if 0 < 2 * sum(S.poly_class(g)) <= total), key=key)
