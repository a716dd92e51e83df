"""Sheaf cohomology of line bundles on the model surfaces, exactly.

Dimensions come from two independent routes that are cross-checked in the
test suite: closed binomial formulas for each projective factor, combined
by the Kuenneth formula, and a Cech monomial count per group of variables,
where only the all-nonnegative and all-negative exponent patterns
contribute, each counted without listing its tuples.  On top of the
dimension oracles sit brute-force Riemann-Roch spaces computed by exact
linear algebra over the base field: `rr_space` is the rref basis of the
rows that span the numerators, and `rr_dimension` the rank of the same
rows by forward elimination, which counts the sections without building
them.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add as _add
from typing import List, Tuple

from .linalg import Matrix, mat_rank, mat_rref
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


def _projective_h(n: int, a: int) -> List[int]:
    """(h^0, ..., h^n) of O(a) on P^n (Hartshorne III, Thm 5.1)."""
    out = [0] * (n + 1)
    if a >= 0:
        out[0] = comb(n + a, n)
    if a <= -n - 1:
        out[n] = comb(-a - 1, n)
    return out


def h_vector(S: Surface, c: ClassVector) -> CohomologyVector:
    """Closed-form cohomology of O(c): the Kuenneth product over the
    projective factors, one per group of variables; computed once per
    class and kept in S.memo."""
    key = ("h", tuple(c))
    got = S.memo.get(key)
    if got is None:
        got = S.memo[key] = _kuenneth_h(
            [_projective_h(len(g) - 1, a) for g, a in zip(S.groups, c)])
    return got


def _kuenneth_h(factors: List[List[int]]) -> CohomologyVector:
    """The Kuenneth product of one vector (h^0, ..., h^n) per factor."""
    h, *rest = factors
    for f in rest:
        prod = [0] * (len(h) + len(f) - 1)
        for i, x in enumerate(h):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        h = prod
    return CohomologyVector(*h)


def cech_h_vector(S: Surface, c: ClassVector) -> CohomologyVector:
    """The same dimensions by counting monomials in the Cech complex.

    A Laurent monomial of class c survives to cohomology exactly when its
    exponent signs are uniform within each homogeneous group: all
    nonnegative (degree 0) or all negative (degree size - 1 for the group).
    For a group of degree d, the first are the exponent tuples of sum d
    with every entry in [0, d], the second those with every entry in
    [d + size - 1, -1]; each pattern is counted (`_count`), and the
    Kuenneth product of the groups' counts is the h-vector.
    """
    return _kuenneth_h([
        [_count(len(g), d, 0, d)] + [0] * (len(g) - 2)
        + [_count(len(g), d, d + len(g) - 1, -1)]
        for g, d in zip(S.groups, c)])


def _count(size: int, d: int, lo: int, hi: int) -> int:
    """The number of tuples of `size` >= 2 integers in [lo, hi] that sum
    to d: for each first entry x, the rest sum to d - x, and the last two
    entries are one interval of x."""
    xs = range(max(lo, d - (size - 1) * hi), min(hi, d - (size - 1) * lo) + 1)
    if size == 2:
        return len(xs)
    return sum(_count(size - 1, d - x, lo, hi) for x in xs)


def _section_key(D: Divisor) -> tuple:
    """What the rows of D depend on: its negative part, as a frozenset of
    (curve, multiplicity) pairs with positive multiplicities, and its
    class."""
    return frozenset([(C, -m) for C, m in D.components.items() if m < 0]), \
        D._cls


def _section_rows(D: Divisor) -> Tuple[Matrix, List[tuple]]:
    """The rows that span the numerators of L(D), and their columns.

    Functions are written N/Q with Q the positive part of D; the conditions
    from the negative part say that each component C^k divides N.  The
    components are distinct irreducible curves, so that holds exactly when
    their product P divides N: the numerators are the multiples A*P of the
    class of N, and there is one row per monomial a of A, the class of D.
    The row of a is P shifted by a, its |P| entries at the monomials of the
    class of N (D's class plus the negative part's), which are returned as
    the columns.  P is kept in S.memo under the negative part and the
    column of each monomial under its class, so callers share them and must
    not change them; the rows are not kept, as rr_dimension keeps their
    rank under `_section_key`.
    """
    S = D.surface
    negative, cls = _section_key(D)
    P = S.memo.get(("section product", negative))
    if P is None:
        P = S.memo["section product", negative] = MPoly.product(
            S.base, S.nvars, [(C.poly, k) for C, k in
                              sorted(negative, key=lambda Ck: Ck[0]._key)])
    positive = list(cls)
    for C, k in negative:
        for i, d in enumerate(C._cls):
            positive[i] += k * d
    positive = tuple(positive)
    monos = class_monomials(S, positive)
    column = S.memo.get(("columns", positive))
    if column is None:
        column = S.memo["columns", positive] = {
            e: i for i, e in enumerate(monos)}
    terms = P.terms.items()
    return [{column[tuple(map(_add, a, m))]: c for m, c in terms}
            for a in class_monomials(S, cls)], monos


def rr_space(D: Divisor) -> List[RationalFunction]:
    """Basis of the space of rational functions f with div(f) + D >= 0: the
    rref of the rows of `_section_rows`, as numerators over the positive
    part Q of D: the factors [(numerator, 1), (Q, -1)]."""
    rows, monos = _section_rows(D)
    if not rows:
        return []
    S = D.surface
    Q = MPoly.product(S.base, S.nvars,
                      [(C.poly, m) for C, m in D.items() if m > 0])
    # distinct shifts of P are independent, so the rref has no zero row; the
    # rref basis of a span is unique.  Reduced rows back to polynomials:
    return [RationalFunction(S, [(MPoly._make(S.base, S.nvars, {
        monos[j]: c for j, c in sorted(v.items())}), 1), (Q, -1)])
        for v in mat_rref(rows, S.base)[0]]


def rr_dimension(D: Divisor) -> int:
    """dim L(D), the rank of the rows of `_section_rows`: the number of
    vectors `rr_space` returns, without the basis or the denominator.  It
    is kept in S.memo under what the rows depend on (`_section_key`)."""
    S = D.surface
    key = ("section rank",) + _section_key(D)
    got = S.memo.get(key)
    if got is None:
        got = S.memo[key] = mat_rank(_section_rows(D)[0], S.base)
    return got


def class_range(S: Surface, lo: int, hi: int) -> List[ClassVector]:
    """All classes with every degree in [lo, hi], sorted."""
    return list(itertools.product(range(lo, hi + 1), repeat=len(S.groups)))
