"""Sparse multivariate polynomials over finite fields.

A polynomial is a dict from exponent tuples to nonzero coefficient codes,
with a fixed variable count.  Variables are anonymous here (x0, x1, ...);
geometric naming lives with the caller.  Includes exact division under lex
order, and Sylvester resultants with fraction-free (Bareiss) determinant
evaluation.
"""

from __future__ import annotations

from operator import add as _add
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import (
    FieldDesc,
    FieldElem,
    Poly,
    _embed_code,
    pdivmod,
    pmul,
    pscale,
    psub,
)

Exponent = Tuple[int, ...]


class MPoly:
    """Immutable-by-convention sparse polynomial in nvars variables.

    The constructor takes FieldElem coefficients or int codes and keeps the
    nonzero codes, so `terms` holds only the monomials that are there.
    Binary operations raise ValueError on polynomials over different
    fields."""

    __slots__ = ("desc", "nvars", "terms", "_hash")

    def __init__(self, desc: FieldDesc, nvars: int, terms: Dict[Exponent, object]):
        self.desc = desc
        self.nvars = nvars
        self.terms = {e: n for e, c in terms.items() if (n := desc.code(c))}
        self._hash = None

    @staticmethod
    def _make(desc: FieldDesc, nvars: int, terms: Dict[Exponent, int]) -> "MPoly":
        """Trusted constructor: terms maps to nonzero codes and is owned by
        the new polynomial alone."""
        f = object.__new__(MPoly)
        f.desc, f.nvars, f.terms, f._hash = desc, nvars, terms, None
        return f

    def _check_field(self, other: "MPoly") -> None:
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError(
                f"polynomials over {self.desc} and {other.desc} do not mix")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(desc: FieldDesc, nvars: int) -> "MPoly":
        return MPoly._make(desc, nvars, {})

    @staticmethod
    def const(desc: FieldDesc, nvars: int, a) -> "MPoly":
        return MPoly(desc, nvars, {(0,) * nvars: a})

    @staticmethod
    def var(desc: FieldDesc, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly._make(desc, nvars, {tuple(e): 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.desc == other.desc
            and self.terms == other.terms
        )

    def __hash__(self):
        # computed on the first call and kept: no caller changes terms
        # after construction
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.desc.text(self.terms[e])
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}*{mono}" if mono and self.terms[e] != 1
                        else mono or c)
        return " + ".join(bits)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_field(other)
        add = self.desc.add
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            if cur is None:
                terms[e] = c
            elif cur := add(cur, c):
                terms[e] = cur
            else:
                del terms[e]
        return MPoly._make(self.desc, self.nvars, terms)

    def __neg__(self) -> "MPoly":
        neg = self.desc.neg
        return MPoly._make(self.desc, self.nvars,
                           {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check_field(other)
        add, mul = self.desc.add, self.desc.mul
        out: Dict[Exponent, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(_add, ea, eb))
                cur = out.get(e)
                out[e] = mul(ca, cb) if cur is None else add(cur, mul(ca, cb))
        if len(out) < len(self.terms) * len(other.terms):  # terms met
            out = {e: c for e, c in out.items() if c}
        return MPoly._make(self.desc, self.nvars, out)

    def scale(self, a) -> "MPoly":
        a = self.desc.code(a)
        mul = self.desc.mul
        return MPoly._make(self.desc, self.nvars, {
            e: mul(c, a) for e, c in self.terms.items()} if a else {})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MPoly._make(self.desc, self.nvars, {(0,) * self.nvars: 1})
        # square-and-multiply from the lowest set bit: no product by 1
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def derivative(self, i: int) -> "MPoly":
        mul, p = self.desc.mul, self.desc.p
        out: Dict[Exponent, int] = {}
        for e, c in self.terms.items():
            if e[i] % p:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = mul(c, e[i] % p)
        return MPoly._make(self.desc, self.nvars, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence[FieldElem]) -> FieldElem:
        """Full evaluation; the point may live in an extension field."""
        target = point[0].desc if point else self.desc
        add, mul, pw = target.add, target.mul, target.pow
        xs = [x.n for x in point]
        acc = 0
        pow_cache: Dict[Tuple[int, int], int] = {}
        for e, c in self.terms.items():
            term = _embed_code(self.desc, c, target)
            for i, k in enumerate(e):
                if k:
                    got = pow_cache.get((i, k))
                    if got is None:
                        got = pow_cache[(i, k)] = pw(xs[i], k)
                    term = mul(term, got)
            acc = add(acc, term)
        return FieldElem(target, acc)

    # -- conversions ----------------------------------------------------------

    def to_univariate(self, i: int) -> List["MPoly"]:
        """Coefficients in variable i (constant term first), as polynomials
        in the remaining variables (arity preserved, exponent of i zeroed)."""
        parts: List[Dict[Exponent, int]] = [{} for _ in range(self.degree_in(i) + 1)]
        for e, c in self.terms.items():
            parts[e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [MPoly._make(self.desc, self.nvars, t) for t in parts]

    def as_poly_in(self, i: int) -> Poly:
        """View a polynomial whose only effective variable is i as univariate."""
        if any(x for e in self.terms for v, x in enumerate(e) if v != i):
            raise ValueError(f"polynomial involves variables other than x{i}")
        out = [0] * (self.degree_in(i) + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    # -- exact division -------------------------------------------------------

    def exact_div(self, g: "MPoly") -> Optional["MPoly"]:
        """Quotient self/g if g divides exactly, else None."""
        self._check_field(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        mul, sub = self.desc.mul, self.desc.sub
        lg = max(g.terms)  # lex, leftmost variable most significant
        cg_inv = self.desc.inv(g.terms[lg])
        rem = dict(self.terms)
        q: Dict[Exponent, int] = {}
        while rem:
            lr = max(rem)
            de = tuple(a - b for a, b in zip(lr, lg))
            if any(x < 0 for x in de):
                return None
            coeff = q[de] = mul(rem[lr], cg_inv)
            for eg, cg in g.terms.items():
                e = tuple(map(_add, de, eg))
                s = sub(rem.get(e, 0), mul(coeff, cg))
                if s:
                    rem[e] = s
                else:
                    del rem[e]
        return MPoly._make(self.desc, self.nvars, q)


# ---------------------------------------------------------------------------
# resultants


def det_bareiss(rows: List[List[Poly]], desc: FieldDesc) -> Poly:
    """Determinant of a matrix of univariate polynomials, fraction-free."""
    n = len(rows)
    if n == 0:
        return [1]
    m = [row[:] for row in rows]
    sign = 1
    prev: Poly = [1]
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return []
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(pmul(m[k][k], m[i][j], desc), pmul(m[i][k], m[k][j], desc), desc)
                quot, rem = pdivmod(num, prev, desc)
                if rem:  # pragma: no cover - Bareiss guarantees exactness
                    raise ArithmeticError("non-exact division in Bareiss step")
                m[i][j] = quot
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = pscale(det, desc.neg(1), desc)
    return det


def resultant_elim(f: MPoly, g: MPoly, elim: int, keep: int) -> Poly:
    """Resultant of f and g with respect to variable `elim`.

    Both inputs must involve only the variables `elim` and `keep`; the result
    is univariate in `keep`.  Degenerate degree-zero cases follow the usual
    conventions (Res(a, g) = a^deg(g)).
    """
    f._check_field(g)
    desc = f.desc
    fu = [c.as_poly_in(keep) for c in f.to_univariate(elim)]
    gu = [c.as_poly_in(keep) for c in g.to_univariate(elim)]
    dm = len(fu) - 1
    dn = len(gu) - 1
    if dm < 0 or dn < 0:
        return []
    if dm == 0 and dn == 0:
        return [1]
    if dm == 0:
        out = [1]
        for _ in range(dn):
            out = pmul(out, fu[0], desc)
        return out
    if dn == 0:
        out = [1]
        for _ in range(dm):
            out = pmul(out, gu[0], desc)
        return out
    size = dm + dn
    zero: Poly = []
    rows: List[List[Poly]] = []
    frow = list(reversed(fu))  # leading coefficient first
    grow = list(reversed(gu))
    for s in range(dn):
        rows.append([zero] * s + frow + [zero] * (size - s - dm - 1))
    for s in range(dm):
        rows.append([zero] * s + grow + [zero] * (size - s - dn - 1))
    return det_bareiss(rows, desc)
