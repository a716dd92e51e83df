"""Sheaf cohomology of line bundles on the model surfaces, exactly.

Dimensions come from two independent routes that are cross-checked in the
test suite: closed binomial formulas (with Kuenneth products on the quadric)
and literal Cech monomial enumeration over the standard charts, where only
the all-nonnegative and all-negative exponent patterns contribute.  On top
of the dimension oracles sit brute-force Riemann-Roch spaces computed by
exact linear algebra over the base field.
"""

from __future__ import annotations

from math import comb
from typing import List

from .linalg import span_intersection
from .multipoly import MPoly
from .surface import (
    ClassVector,
    Divisor,
    RationalFunction,
    Surface,
    class_monomials,
)


class CohomologyVector:
    """The triple (h0, h1, h2) with its Euler characteristic."""

    __slots__ = ("h0", "h1", "h2")

    def __init__(self, h0: int, h1: int, h2: int):
        if h0 < 0 or h1 < 0 or h2 < 0:
            raise ValueError("cohomology dimensions must be nonnegative")
        self.h0 = h0
        self.h1 = h1
        self.h2 = h2

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    def as_tuple(self):
        return (self.h0, self.h1, self.h2)

    def __eq__(self, other):
        return (isinstance(other, CohomologyVector)
                and self.as_tuple() == other.as_tuple())

    def __repr__(self):
        return f"(h0={self.h0}, h1={self.h1}, h2={self.h2}, chi={self.chi})"


def _line_h0(a: int) -> int:
    return a + 1 if a >= 0 else 0


def _line_h1(a: int) -> int:
    return -a - 1 if a <= -2 else 0


def h_vector(S: Surface, c: ClassVector) -> CohomologyVector:
    """Closed-form cohomology of O(c)."""
    if S.model == "P2":
        n = c
        h0 = comb(n + 2, 2) if n >= 0 else 0
        h2 = comb(-n - 1, 2) if n <= -3 else 0
        return CohomologyVector(h0, 0, h2)
    a, b = c
    h0 = _line_h0(a) * _line_h0(b)
    h1 = _line_h0(a) * _line_h1(b) + _line_h1(a) * _line_h0(b)
    h2 = _line_h1(a) * _line_h1(b)
    return CohomologyVector(h0, h1, h2)


def cech_h_vector(S: Surface, c: ClassVector) -> CohomologyVector:
    """The same dimensions by literal monomial counting in the Cech complex.

    A Laurent monomial of total (bi)degree c survives to cohomology exactly
    when its exponent signs are uniform within each homogeneous group: all
    nonnegative (degree 0) or all negative (top degree per group).
    """
    if S.model == "P2":
        n = c
        h0 = 0
        for a in range(0, n + 1):
            for b in range(0, n - a + 1):
                h0 += 1  # third exponent n-a-b is forced and nonnegative
        h2 = 0
        for a in range(n + 2, 0):
            for b in range(n + 2, 0):
                if n - a - b <= -1:
                    h2 += 1
        return CohomologyVector(h0, 0, h2)
    a, b = c
    xpos = sum(1 for i in range(0, a + 1))
    xneg = sum(1 for i in range(a + 1, 0))
    ypos = sum(1 for j in range(0, b + 1))
    yneg = sum(1 for j in range(b + 1, 0))
    return CohomologyVector(xpos * ypos, xpos * yneg + xneg * ypos, xneg * yneg)


def chi(S: Surface, c: ClassVector) -> int:
    return h_vector(S, c).chi


def _poly_vector(f: MPoly, monos: List[tuple], desc):
    return [f.terms.get(e, desc.zero()) for e in monos]


def _vector_poly(S: Surface, vec, monos: List[tuple]) -> MPoly:
    terms = {e: c for e, c in zip(monos, vec) if not c.is_zero()}
    return MPoly(S.base, S.nvars, terms)


def rr_space(D: Divisor) -> List[RationalFunction]:
    """Basis of the space of rational functions f with div(f) + D >= 0.

    Functions are written N/Q with Q the positive part of D; the conditions
    from the negative part are divisibility constraints on N, intersected by
    exact linear algebra on coefficient vectors.
    """
    S = D.surface
    desc = S.base
    pos = [(C, m) for C, m in D.items() if m > 0]
    neg = [(C, -m) for C, m in D.items() if m < 0]
    Q = MPoly.const(desc, S.nvars, desc.one())
    clsQ = S.class_zero()
    for C, m in pos:
        Q = Q * C.poly ** m
        clsQ = S.class_add(clsQ, S.class_scale(m, C.degree()))
    monos = class_monomials(S, clsQ)
    space = [[desc.one() if i == j else desc.zero() for i in range(len(monos))]
             for j in range(len(monos))]
    for C, k in neg:
        clsA = S.class_add(clsQ, S.class_scale(-k, C.degree()))
        amonos = class_monomials(S, clsA)
        if not amonos:
            return []
        Ck = C.poly ** k
        rows = []
        for e in amonos:
            A = MPoly(desc, S.nvars, {e: desc.one()})
            rows.append(_poly_vector(A * Ck, monos, desc))
        space = span_intersection(space, rows, len(monos), desc)
        if not space:
            return []
    return [RationalFunction(S, _vector_poly(S, v, monos), Q) for v in space]


def serre_residual_check(S: Surface, Cclass: ClassVector, Hclass: ClassVector,
                         wclass: ClassVector) -> bool:
    """h0(C) - h0(H) against h2(w-C) - h2(w-H)."""
    lhs = h_vector(S, Cclass).h0 - h_vector(S, Hclass).h0
    dualC = S.class_add(wclass, S.class_scale(-1, Cclass))
    dualH = S.class_add(wclass, S.class_scale(-1, Hclass))
    rhs = h_vector(S, dualC).h2 - h_vector(S, dualH).h2
    return lhs == rhs


def chi_symmetry_check(S: Surface, Sclass: ClassVector,
                       wclass: ClassVector) -> bool:
    """chi(S) against chi(w - S)."""
    dual = S.class_add(wclass, S.class_scale(-1, Sclass))
    return chi(S, Sclass) == chi(S, dual)


def class_range(S: Surface, lo: int, hi: int) -> List[ClassVector]:
    """All classes in [lo, hi] (P2) or [lo, hi]^2 (P1xP1), sorted."""
    if S.model == "P2":
        return list(range(lo, hi + 1))
    return [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
