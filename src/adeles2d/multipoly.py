"""Sparse multivariate polynomials over finite fields.

A polynomial is a dict from exponent tuples to nonzero coefficients, with a
fixed variable count.  Variables are anonymous here (x0, x1, ...); geometric
naming lives with the caller.  Includes exact division under lex order,
Sylvester resultants with fraction-free (Bareiss) determinant evaluation, and
substitution homomorphisms used for chart changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .fields import (
    FieldDesc,
    FieldElem,
    Poly,
    embed,
    pdivmod,
    pmul,
    pscale,
    psub,
    ptrim,
)

Exponent = Tuple[int, ...]


class MPoly:
    """Immutable-by-convention sparse polynomial in nvars variables.

    The constructor drops zero coefficients, so `terms` holds only the
    monomials that are there.  Binary operations raise ValueError on
    polynomials over different fields."""

    __slots__ = ("desc", "nvars", "terms")

    def __init__(self, desc: FieldDesc, nvars: int, terms: Dict[Exponent, FieldElem]):
        self.desc = desc
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c.n}

    def _check_field(self, other: "MPoly") -> None:
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError(
                f"polynomials over {self.desc} and {other.desc} do not mix")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(desc: FieldDesc, nvars: int) -> "MPoly":
        return MPoly(desc, nvars, {})

    @staticmethod
    def const(desc: FieldDesc, nvars: int, a: FieldElem) -> "MPoly":
        return MPoly(desc, nvars, {(0,) * nvars: a})

    @staticmethod
    def var(desc: FieldDesc, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(desc, nvars, {tuple(e): desc.one()})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def effective_vars(self) -> List[int]:
        used = [False] * self.nvars
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return [i for i, u in enumerate(used) if u]

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.desc == other.desc
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted((e, c.n) for e, c in self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            if not mono:
                bits.append(repr(c))
            elif c.is_one():
                bits.append(mono)
            else:
                bits.append(f"{c!r}*{mono}")
        return " + ".join(bits)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_field(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            terms[e] = c if cur is None else cur + c
        return MPoly(self.desc, self.nvars, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.desc, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check_field(other)
        out: Dict[Exponent, FieldElem] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                cur = out.get(e)
                out[e] = c if cur is None else cur + c
        return MPoly(self.desc, self.nvars, out)

    def scale(self, a: FieldElem) -> "MPoly":
        return MPoly(self.desc, self.nvars, {e: c * a for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.desc, self.nvars, self.desc.one())
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self, i: int) -> "MPoly":
        out: Dict[Exponent, FieldElem] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * self.desc.from_int(e[i])
        return MPoly(self.desc, self.nvars, out)

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, point: Sequence[FieldElem]) -> FieldElem:
        """Full evaluation; the point may live in an extension field."""
        target = point[0].desc if point else self.desc
        acc = target.zero()
        pow_cache: List[Dict[int, FieldElem]] = [dict() for _ in range(self.nvars)]
        for e, c in self.terms.items():
            term = embed(c, target)
            for i, k in enumerate(e):
                if not k:
                    continue
                got = pow_cache[i].get(k)
                if got is None:
                    got = point[i] ** k
                    pow_cache[i][k] = got
                term = term * got
            acc = acc + term
        return acc

    def substitute(self, images: Sequence["MPoly"]) -> "MPoly":
        """Ring homomorphism sending variable i to images[i]."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        target_nvars = images[0].nvars if images else self.nvars
        pow_cache: List[Dict[int, MPoly]] = [dict() for _ in range(self.nvars)]
        acc = MPoly.zero(self.desc, target_nvars)
        for e, c in self.terms.items():
            term = MPoly.const(self.desc, target_nvars, c)
            for i, k in enumerate(e):
                if not k:
                    continue
                got = pow_cache[i].get(k)
                if got is None:
                    got = images[i] ** k
                    pow_cache[i][k] = got
                term = term * got
            acc = acc + term
        return acc

    # -- conversions ----------------------------------------------------------

    def to_univariate(self, i: int) -> List["MPoly"]:
        """Coefficients in variable i (constant term first), as polynomials
        in the remaining variables (arity preserved, exponent of i zeroed)."""
        deg = self.degree_in(i)
        if deg < 0:
            return []
        coeffs = [MPoly.zero(self.desc, self.nvars) for _ in range(deg + 1)]
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            coeffs[k] = coeffs[k] + MPoly(self.desc, self.nvars, {tuple(ne): c})
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return coeffs

    def as_poly_in(self, i: int) -> Poly:
        """View a polynomial whose only effective variable is i as univariate."""
        eff = self.effective_vars()
        if any(v != i for v in eff):
            raise ValueError(f"polynomial involves variables other than x{i}")
        out = [self.desc.zero()] * (self.degree_in(i) + 1 if self.terms else 0)
        for e, c in self.terms.items():
            out[e[i]] = c
        return ptrim(out)

    # -- exact division -------------------------------------------------------

    def _leading(self) -> Tuple[Exponent, FieldElem]:
        e = max(self.terms)  # lex, leftmost variable most significant
        return e, self.terms[e]

    def exact_div(self, g: "MPoly") -> Optional["MPoly"]:
        """Quotient self/g if g divides exactly, else None."""
        self._check_field(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MPoly.zero(self.desc, self.nvars)
        lg, cg = g._leading()
        cg_inv = cg.inverse()
        rem = self
        q: Dict[Exponent, FieldElem] = {}
        while not rem.is_zero():
            lr, cr = rem._leading()
            de = tuple(a - b for a, b in zip(lr, lg))
            if any(x < 0 for x in de):
                return None
            coeff = cr * cg_inv
            q[de] = coeff
            rem = rem - MPoly(self.desc, self.nvars, {de: coeff}) * g
        return MPoly(self.desc, self.nvars, q)


# ---------------------------------------------------------------------------
# resultants


def det_bareiss(rows: List[List[Poly]], desc: FieldDesc) -> Poly:
    """Determinant of a matrix of univariate polynomials, fraction-free."""
    n = len(rows)
    if n == 0:
        return [desc.one()]
    m = [row[:] for row in rows]
    sign = 1
    prev: Poly = [desc.one()]
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
        det = pscale(det, -desc.one())
    return det


def resultant_elim(f: MPoly, g: MPoly, elim: int, keep: int) -> Poly:
    """Resultant of f and g with respect to variable `elim`.

    Both inputs must involve only the variables `elim` and `keep`; the result
    is univariate in `keep`.  Degenerate degree-zero cases follow the usual
    conventions (Res(a, g) = a^deg(g)).
    """
    desc = f.desc
    fu = [c.as_poly_in(keep) for c in f.to_univariate(elim)]
    gu = [c.as_poly_in(keep) for c in g.to_univariate(elim)]
    dm = len(fu) - 1
    dn = len(gu) - 1
    if dm < 0 or dn < 0:
        return []
    if dm == 0 and dn == 0:
        return [desc.one()]
    if dm == 0:
        out = [desc.one()]
        for _ in range(dn):
            out = pmul(out, fu[0], desc)
        return out
    if dn == 0:
        out = [desc.one()]
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
