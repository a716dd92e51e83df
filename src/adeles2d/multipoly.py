"""Sparse multivariate polynomials over finite fields.

A polynomial is a dict from exponent tuples to nonzero coefficient codes,
with a fixed variable count.  Variables are anonymous here (x0, x1, ...);
geometric naming lives with the caller.  Includes exact division under lex
order, Sylvester resultants with fraction-free (Bareiss) determinant
evaluation, and the factorization of polynomials in two variables.
"""

from __future__ import annotations

import itertools
from operator import add as _add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fields import (
    FieldDesc,
    FieldElem,
    Poly,
    _embed_code,
    field_make,
    padd,
    pdeg,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pinv_mod,
    pmod,
    pmul,
    poly_factor,
    power,
    pscale,
    pshift,
    psub,
    ptrim,
)
from .series import ps_inverse, ps_mul

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
    def product(desc: FieldDesc, nvars: int,
                factors: Iterable[Tuple["MPoly", int]]) -> "MPoly":
        """The product of the P ** e over the factors (P, e), each e >= 0,
        from the first on, so that one factor (P, 1) gives P itself; a
        factor with e = 0 is skipped, and no factor gives 1."""
        out = None
        for P, e in factors:
            if e:
                out = P ** e if out is None else out * P ** e
        return MPoly.const(desc, nvars, 1) if out is None else out

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

    def normalized(self) -> "MPoly":
        """The scalar multiple whose lex-greatest term has coefficient 1."""
        c = self.terms[max(self.terms)]
        return self if c == 1 else self.scale(self.desc.inv(c))

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MPoly._make(self.desc, self.nvars, {(0,) * self.nvars: 1})
        return power(self, n, MPoly.__mul__)

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

    def columns(self, i: int) -> List[Poly]:
        """A polynomial in two variables as one in variable i: the
        coefficient of each power of it (constant term first), each a
        univariate Poly in the other variable."""
        j = 1 - i
        out: List[Poly] = [[] for _ in range(self.degree_in(i) + 1)]
        for e, c in self.terms.items():
            col = out[e[i]]
            if len(col) <= e[j]:
                col.extend([0] * (e[j] + 1 - len(col)))
            col[e[j]] = c
        return out

    @staticmethod
    def from_columns(desc: FieldDesc, cols: Sequence[Poly], i: int) -> "MPoly":
        """The polynomial in two variables with these columns in variable i."""
        return MPoly._make(desc, 2, {
            ((b, a) if i else (a, b)): c
            for a, col in enumerate(cols) for b, c in enumerate(col) if c})

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

    Both inputs are in the two variables `elim` and `keep`; the result is
    univariate in `keep`.  An input of degree 0 in `elim` makes the
    Sylvester matrix diagonal, so Res(a, g) = a^deg(g) and
    Res(f, b) = b^deg(f).
    """
    f._check_field(g)
    if not f.nvars == g.nvars == 2 or {elim, keep} != {0, 1}:
        raise ValueError("resultant_elim takes polynomials in two variables")
    desc = f.desc
    fu, gu = f.columns(elim), g.columns(elim)
    dm = len(fu) - 1
    dn = len(gu) - 1
    if dm < 0 or dn < 0:
        return []
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


# ---------------------------------------------------------------------------
# factoring in two variables (von zur Gathen and Gerhard, Modern Computer
# Algebra, 3rd ed., sections 15.6 and 16): a polynomial in columns form is a
# list of univariate Polys in x, one per power of y, the last one nonzero


def factor2(f: MPoly) -> List[Tuple[MPoly, int]]:
    """The irreducible factors of f, a nonconstant polynomial in two
    variables over F_q, with their multiplicities, each up to a unit.

    A round takes the factors of multiplicity prime to p: first those
    whose derivative in y is not zero, whose product is
    pp_y(f) / gcd(pp_y(f), df/dy), then, with x and y swapped, the others,
    whose derivative in x is not zero, as no irreducible is a p-th power;
    every multiplicity is counted by exact division.  What is left is a
    p-th power, and the next round factors its p-th root.  A polynomial in
    one variable is factored by poly_factor alone."""
    desc = f.desc
    for v in (0, 1):
        if not f.degree_in(1 - v):
            return [(MPoly.from_columns(desc, [g], 1 - v), m)
                    for g, m in poly_factor(f.columns(1 - v)[0], desc)[1]]
    out: List[Tuple[MPoly, int]] = []
    mult = 1
    while any(any(e) for e in f.terms):
        for v in (1, 0):
            if not f.degree_in(v):  # no factor of positive degree in it
                continue
            cols = _primitive(f.columns(v), desc)
            part = MPoly.from_columns(desc, cols, v).exact_div(
                MPoly.from_columns(desc, _gcd(cols, _derivative(cols, desc),
                                              desc), v))
            for g in _factor_separable(part.columns(v), desc):
                g = MPoly.from_columns(desc, g, v)
                e = 0
                while (quot := f.exact_div(g)) is not None:
                    f, e = quot, e + 1
                out.append((g, e * mult))
        p = desc.p
        if any(x % p for e in f.terms for x in e):  # pragma: no cover
            raise ArithmeticError("factor2 left a part that is no p-th power")
        f = MPoly._make(desc, 2, {(a // p, b // p): desc.pow(c, desc.q // p)
                                  for (a, b), c in f.terms.items()})
        mult *= p
    return out


def _primitive(cols: List[Poly], desc: FieldDesc) -> List[Poly]:
    """cols divided by its content, the gcd of its columns."""
    content: Poly = []
    for col in cols:
        content = pgcd(content, col, desc)
    if pdeg(content) < 1:
        return cols
    return [pdivmod(col, content, desc)[0] for col in cols]


def _derivative(cols: List[Poly], desc: FieldDesc) -> List[Poly]:
    """d/dy of a polynomial in columns form."""
    return ptrim([pscale(col, j % desc.p, desc)
                  for j, col in enumerate(cols)][1:])


def _gcd(a: List[Poly], b: List[Poly], desc: FieldDesc) -> List[Poly]:
    """gcd(a, b) for a primitive, by the primitive remainder sequence: each
    pseudo-remainder lc(b)^k a - ... mod b is divided by its content."""
    while b:
        b = _primitive(b, desc)
        if len(b) == 1:  # a unit: the gcd is primitive
            return [[1]]
        lc = b[-1]
        a = a[:]
        while len(a) >= len(b):
            lead, k = a[-1], len(a) - len(b)
            a = [pmul(col, lc, desc) for col in a]
            for i, col in enumerate(b, k):
                a[i] = psub(a[i], pmul(lead, col, desc), desc)
            ptrim(a)
        a, b = b, a
    return a


def _factor_separable(cols: List[Poly], desc: FieldDesc) -> List[List[Poly]]:
    """The irreducible factors of a squarefree primitive polynomial with
    no factor of derivative 0 in y, so its discriminant in y is not zero.

    On a line x = x0 where it keeps its degree n in y and stays squarefree
    it is u(y) = u_1 ... u_r over k = F_q(x0) (_good_line); with s = x - x0,
    each u_i lifts to the monic factor U_i mod s^N of the polynomial made
    monic in y over k[[s]] (_hensel).  A factor over F_q is lc * prod U_i
    over a set of i, cut below s^N and made primitive: N exceeds the
    x-degree of lc times any factor.  Sets are tried by size up to half of
    those left, at half only those holding the first (the others are their
    complements), each tested by exact division, so the worst case is
    2^(r - 1) products for r <= n."""
    n = len(cols) - 1
    if n < 1:
        return []
    if n == 1:
        return [cols]
    k, x0, u = _good_line(cols, desc)
    us = [g for g, _m in poly_factor(u, k)[1]]
    if len(us) == 1:
        return [cols]
    N = max(map(pdeg, cols)) + pdeg(cols[-1]) + 1
    shifted = [pshift([_embed_code(desc, c, k) for c in col], x0, k)
               for col in cols]
    lc_inv = ps_inverse(shifted[-1] + [0] * N, N, k)
    monic = [ps_mul(col + [0] * N, lc_inv, N, k) for col in shifted]
    # the monic polynomial as a series in s of Polys in y
    g = [ptrim([col[l] for col in monic]) for l in range(N)]
    lifts = [_hensel(g, ui, pdivmod(g[0], ui, k)[0], N, k) for ui in us]
    down = {_embed_code(desc, a, k): a for a in range(desc.q)}
    rest = MPoly.from_columns(desc, cols, 1)
    left = list(range(len(us)))
    found: List[List[Poly]] = []
    size = 1
    while 2 * size <= len(left):
        # lc_y of what is left, at x0 + s, as a series of constants in y
        lc = pshift([_embed_code(desc, c, k) for c in rest.columns(1)[-1]],
                    x0, k)
        lc = [[c] if c else [] for c in lc] + [[]] * (N - len(lc))
        for part in itertools.combinations(left, size):
            if 2 * size == len(left) and part[0] != left[0]:
                continue  # the complement of a set tried already
            h = _candidate(lc, [lifts[i] for i in part], x0, N, k, down, desc)
            quot = None if h is None else rest.exact_div(
                MPoly.from_columns(desc, h, 1))
            if quot is not None:
                found.append(h)
                rest = quot
                left = [i for i in left if i not in part]
                break
        else:
            size += 1
    return found + [rest.columns(1)]


def _good_line(cols: List[Poly], desc: FieldDesc) -> Tuple[FieldDesc, int, Poly]:
    """(k, x0, the polynomial on x = x0) for the first x0 of the least
    k = F_(q^j) where the polynomial keeps its degree in y and stays
    squarefree.  Only roots of lc * disc, of degree below 2 n deg_x, fail,
    so a field with more elements holds one."""
    bound = 2 * (len(cols) - 1) * max(map(pdeg, cols))
    for j in itertools.count(1):
        k = field_make(desc.p, desc.d * j)
        emb = [[_embed_code(desc, c, k) for c in col] for col in cols]
        for x0 in range(k.q):
            u = [peval(col, x0, k) for col in emb]
            if u[-1] and pdeg(pgcd(u, pderiv(u, k), k)) == 0:
                return k, x0, u
        if k.q > bound:  # pragma: no cover - the bound rules it out
            raise ArithmeticError("no squarefree specialization")


def _hensel(g: List[Poly], u: Poly, w: Poly, N: int,
            k: FieldDesc) -> List[Poly]:
    """The monic factor U = sum_l U_l s^l of g = sum_l g_l s^l mod s^N with
    U_0 = u, for g_0 = u w with u, w coprime: at each l, U_l w_0 + W_l u_0
    is g_l less the products of lower terms, so U_l is that times
    w^-1 mod u."""
    inv = pinv_mod(w, u, k)
    us, ws = [u], [w]
    for l in range(1, N):
        e = g[l]
        for a in range(1, l):
            e = psub(e, pmul(us[a], ws[l - a], k), k)
        ul = pmod(pmul(e, inv, k), u, k)
        us.append(ul)
        ws.append(pdivmod(psub(e, pmul(ul, w, k), k), u, k)[0])
    return us


def _candidate(acc: List[Poly], lifts: List[List[Poly]], x0: int, N: int,
               k: FieldDesc, down: Dict[int, int],
               desc: FieldDesc) -> Optional[List[Poly]]:
    """acc * prod lifts mod s^N, all series in s of Polys in y, back in
    x = x0 + s: the primitive columns over F_q, or None where a coefficient
    is not in F_q."""
    for lift in lifts:
        prod: List[Poly] = [[] for _ in range(N)]
        for a, pa in enumerate(acc):
            if pa:
                for b, pb in enumerate(lift[:N - a]):
                    prod[a + b] = padd(prod[a + b], pmul(pa, pb, k), k)
        acc = prod
    cols = ptrim([[acc[l][j] if j < len(acc[l]) else 0 for l in range(N)]
                  for j in range(max(map(len, acc)))])
    out = []
    for col in cols:
        col = pshift(col, k.neg(x0), k)
        if any(c not in down for c in col):
            return None
        out.append([down[c] for c in col])
    return _primitive(out, desc)
