"""Exact arithmetic in finite fields F_{p^d} and univariate polynomials over them.

Every extension is an absolute extension of the prime field: F_{p^d} is
represented as F_p[x]/(m(x)) where m is the lexicographically least monic
irreducible polynomial of degree d (coefficient tuples ordered constant term
first).  Elements are immutable coefficient vectors.  Relative data for a
tower F_{q^a}/F_q is recovered on demand: embeddings are canonical roots of
the small modulus in the big field, and relative traces are sums of q-power
Frobenius iterates coerced back down through that embedding.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

_FACTOR_SEED = 0x1D5EED  # fixed seed for the equal-degree splitting stage


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class FieldDesc:
    """Descriptor of F_{p^d}: characteristic, degree and canonical modulus."""

    __slots__ = (
        "p", "d", "q", "modulus", "_red", "_zero", "_one", "_inv_cache",
        "_embed_cache",
    )

    def __init__(self, p: int, d: int, modulus: Tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = modulus  # length d+1, monic, constant term first
        # reduction table: x^(d+i) mod modulus for i in range(d-1)
        red = []
        cur = [(-modulus[j]) % p for j in range(d)]  # x^d
        red.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [0] * d
            carry = cur[d - 1]
            for j in range(d - 1, 0, -1):
                nxt[j] = cur[j - 1]
            if carry:
                for j in range(d):
                    nxt[j] = (nxt[j] + carry * red[0][j]) % p
            red.append(tuple(nxt))
            cur = nxt
        self._red = red
        self._zero = FieldElem(self, (0,) * d)
        self._one = FieldElem(self, (1,) + (0,) * (d - 1))
        self._inv_cache = {} if self.q <= 4096 else None
        self._embed_cache = {}

    def zero(self) -> "FieldElem":
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def gen(self) -> "FieldElem":
        """The class of x, a multiplicative generator of the extension basis."""
        if self.d == 1:
            return self._one
        return FieldElem(self, (0, 1) + (0,) * (self.d - 2))

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, (n % self.p,) + (0,) * (self.d - 1))

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElem":
        c = [x % self.p for x in coeffs]
        if len(c) > self.d:
            raise ValueError("coefficient vector longer than field degree")
        c += [0] * (self.d - len(c))
        return FieldElem(self, tuple(c))

    def elems(self) -> Iterator["FieldElem"]:
        """All q elements in lexicographic coefficient order."""
        p, d = self.p, self.d
        for n in range(self.q):
            coeffs = []
            m = n
            for _ in range(d):
                coeffs.append(m % p)
                m //= p
            yield FieldElem(self, tuple(coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, FieldDesc)
            and self.p == other.p
            and self.d == other.d
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        if self.d == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.d})"


class FieldElem:
    """An element of F_{p^d} as an immutable coefficient vector over F_p."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc: FieldDesc, coeffs: Tuple[int, ...]):
        self.desc = desc
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs == self.desc._one.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other: "FieldElem") -> "FieldElem":
        p = self.desc.p
        a, b = self.coeffs, other.coeffs
        return FieldElem(self.desc, tuple((x + y) % p for x, y in zip(a, b)))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        p = self.desc.p
        a, b = self.coeffs, other.coeffs
        return FieldElem(self.desc, tuple((x - y) % p for x, y in zip(a, b)))

    def __neg__(self) -> "FieldElem":
        p = self.desc.p
        return FieldElem(self.desc, tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        desc = self.desc
        p, d = desc.p, desc.d
        if d == 1:
            return FieldElem(desc, ((self.coeffs[0] * other.coeffs[0]) % p,))
        a, b = self.coeffs, other.coeffs
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = [prod[i] % p for i in range(d)]
        red = desc._red
        for i in range(d, 2 * d - 1):
            c = prod[i] % p
            if c:
                row = red[i - d]
                for j in range(d):
                    if row[j]:
                        out[j] = (out[j] + c * row[j]) % p
        return FieldElem(desc, tuple(out))

    def inverse(self) -> "FieldElem":
        desc = self.desc
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero field element")
        if desc.d == 1:
            return FieldElem(desc, (pow(self.coeffs[0], -1, desc.p),))
        cache = desc._inv_cache
        if cache is not None:
            hit = cache.get(self.coeffs)
            if hit is not None:
                return FieldElem(desc, hit)
        # Fermat: a^(q-2)
        result = desc._one
        base = self
        e = desc.q - 2
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        if cache is not None:
            cache[self.coeffs] = result.coeffs
        return result

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.desc._one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.coeffs == other.coeffs
            and self.desc == other.desc
        )

    def __hash__(self):
        return hash(self.coeffs)

    def sort_key(self) -> Tuple[int, ...]:
        return self.coeffs

    def __repr__(self):
        if self.desc.d == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


# ---------------------------------------------------------------------------
# canonical moduli and field construction

_FIELD_CACHE: dict = {}


def _poly_int_irreducible(p: int, coeffs: Tuple[int, ...]) -> bool:
    """Irreducibility of a monic polynomial over F_p (integer coefficients)."""
    base = field_make(p, 1)
    f = [base.from_int(c) for c in coeffs]
    return _is_irreducible(f, base)


def field_make(p: int, d: int) -> FieldDesc:
    """Return the canonical descriptor of F_{p^d}.

    The modulus is the lexicographically least monic irreducible polynomial of
    degree d over F_p, comparing coefficient tuples constant term first.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if d < 1:
        raise ValueError(f"extension degree {d} must be >= 1")
    key = (p, d)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if d == 1:
        desc = FieldDesc(p, 1, (0, 1))
        _FIELD_CACHE[key] = desc
        return desc
    # search lexicographically; constant term 0 gives a factor of x, skip it
    found = None
    for n in range(p ** d):
        coeffs = []
        m = n
        for _ in range(d):
            coeffs.append(m % p)
            m //= p
        if coeffs[0] == 0:
            continue
        cand = tuple(coeffs) + (1,)
        if _poly_int_irreducible(p, cand):
            found = cand
            break
    if found is None:  # pragma: no cover - cannot happen
        raise RuntimeError("no irreducible polynomial found")
    desc = FieldDesc(p, d, found)
    _FIELD_CACHE[key] = desc
    return desc


# ---------------------------------------------------------------------------
# univariate polynomials over a FieldDesc: lists of FieldElem, constant first

Poly = List[FieldElem]


def ptrim(f: Poly) -> Poly:
    while f and f[-1].is_zero():
        f.pop()
    return f


def pdeg(f: Poly) -> int:
    return len(f) - 1  # degree of zero polynomial is -1


def pX(desc: FieldDesc) -> Poly:
    return [desc.zero(), desc.one()]


def padd(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    n = max(len(f), len(g))
    z = desc.zero()
    out = [(f[i] if i < len(f) else z) + (g[i] if i < len(g) else z) for i in range(n)]
    return ptrim(out)


def psub(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    n = max(len(f), len(g))
    z = desc.zero()
    out = [(f[i] if i < len(f) else z) - (g[i] if i < len(g) else z) for i in range(n)]
    return ptrim(out)


def pmul(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    if not f or not g:
        return []
    z = desc.zero()
    out = [z] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return ptrim(out)


def pscale(f: Poly, a: FieldElem) -> Poly:
    if a.is_zero():
        return []
    return ptrim([c * a for c in f])


def pmonic(f: Poly) -> Poly:
    if not f:
        return []
    lead = f[-1]
    if lead.is_one():
        return f[:]
    inv = lead.inverse()
    return [c * inv for c in f]


def pdivmod(f: Poly, g: Poly, desc: FieldDesc) -> Tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = f[:]
    q = [desc.zero()] * max(0, len(f) - len(g) + 1)
    inv_lead = g[-1].inverse()
    while len(f) >= len(g) and f:
        c = f[-1] * inv_lead
        k = len(f) - len(g)
        q[k] = c
        for i in range(len(g)):
            f[k + i] = f[k + i] - c * g[i]
        ptrim(f)
    return ptrim(q), f


def pmod(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    return pdivmod(f, g, desc)[1]


def pgcd(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    a, b = f[:], g[:]
    while b:
        a, b = b, pmod(a, b, desc)
    return pmonic(a)


def ppow_mod(f: Poly, e: int, m: Poly, desc: FieldDesc) -> Poly:
    result = [desc.one()]
    base = pmod(f, m, desc)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, desc), m, desc)
        base = pmod(pmul(base, base, desc), m, desc)
        e >>= 1
    return result


def peval(f: Poly, x: FieldElem) -> FieldElem:
    acc = x.desc.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def pderiv(f: Poly, desc: FieldDesc) -> Poly:
    out = []
    for i in range(1, len(f)):
        out.append(f[i] * desc.from_int(i))
    return ptrim(out)


def _is_irreducible(f: Poly, desc: FieldDesc) -> bool:
    """Rabin test: x^(q^n) = x mod f and gcd(x^(q^(n/t)) - x, f) = 1."""
    n = pdeg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    q = desc.q
    x = pX(desc)
    primes = []
    m = n
    t = 2
    while t * t <= m:
        if m % t == 0:
            primes.append(t)
            while m % t == 0:
                m //= t
        t += 1
    if m > 1:
        primes.append(m)
    for t in primes:
        h = ppow_mod(x, q ** (n // t), f, desc)
        g = pgcd(psub(h, x, desc), f, desc)
        if pdeg(g) != 0:
            return False
    h = ppow_mod(x, q ** n, f, desc)
    return not psub(h, x, desc)


def _pth_root(a: FieldElem) -> FieldElem:
    """p-th root in F_{p^d}: a^(p^(d-1))."""
    return a ** (a.desc.p ** (a.desc.d - 1))


def _squarefree_decompose(f: Poly, desc: FieldDesc) -> List[Tuple[Poly, int]]:
    """Yun-style squarefree decomposition, char p aware.

    Returns [(g_i, e_i)] with f = prod g_i^e_i (up to a unit), g_i squarefree.
    """
    out: List[Tuple[Poly, int]] = []

    def rec(f: Poly, mult: int):
        if pdeg(f) < 1:
            return
        df = pderiv(f, desc)
        if not df:
            # f = h(x^p): take p-th root of coefficients
            p = desc.p
            h = [
                _pth_root(f[i])
                for i in range(0, len(f), p)
            ]
            rec(ptrim(h), mult * p)
            return
        c = pgcd(f, df, desc)
        w = pdivmod(f, c, desc)[0]
        # w = product of squarefree part at multiplicity-coprime-to-p layers
        i = 1
        while pdeg(w) > 0:
            y = pgcd(w, c, desc)
            z = pdivmod(w, y, desc)[0]
            if pdeg(z) > 0:
                out.append((pmonic(z), mult * i))
            w = y
            c = pdivmod(c, y, desc)[0]
            i += 1
        if pdeg(c) > 0:
            rec(c, mult)

    rec(pmonic(f), 1)
    return out


def _distinct_degree(f: Poly, desc: FieldDesc) -> List[Tuple[Poly, int]]:
    """Split squarefree monic f into products of irreducibles of equal degree."""
    out = []
    q = desc.q
    x = pX(desc)
    h = x[:]
    rem = f[:]
    deg = 1
    while pdeg(rem) >= 2 * deg:
        h = ppow_mod(h, q, rem, desc)
        g = pgcd(psub(h, x, desc), rem, desc)
        if pdeg(g) > 0:
            out.append((g, deg))
            rem = pdivmod(rem, g, desc)[0]
            h = pmod(h, rem, desc)
        deg += 1
    if pdeg(rem) > 0:
        out.append((rem, pdeg(rem)))
    return out


def _equal_degree_split(f: Poly, deg: int, desc: FieldDesc, rng: random.Random) -> List[Poly]:
    """Cantor-Zassenhaus splitting of f into monic irreducibles of degree deg."""
    n = pdeg(f)
    if n == deg:
        return [pmonic(f)]
    q = desc.q
    while True:
        r = [desc.from_coeffs([rng.randrange(desc.p) for _ in range(desc.d)])
             for _ in range(n)]
        r = ptrim(r)
        if pdeg(r) < 1:
            continue
        if desc.p == 2:
            # trace map sum r^(2^i) over the splitting field F_{q^deg}
            h = r[:]
            acc = r[:]
            bits = desc.d * deg
            for _ in range(bits - 1):
                h = pmod(pmul(h, h, desc), f, desc)
                acc = padd(acc, h, desc)
            g = pgcd(acc, f, desc)
        else:
            e = (q ** deg - 1) // 2
            h = ppow_mod(r, e, f, desc)
            g = pgcd(psub(h, [desc.one()], desc), f, desc)
        if 0 < pdeg(g) < n:
            left = _equal_degree_split(g, deg, desc, rng)
            right = _equal_degree_split(pdivmod(f, g, desc)[0], deg, desc, rng)
            return left + right


def poly_factor(f: Poly, desc: FieldDesc) -> Tuple[FieldElem, List[Tuple[Poly, int]]]:
    """Factor f over F_q into (unit, [(monic irreducible, multiplicity), ...]).

    Deterministic: the equal-degree stage draws from a fixed-seed generator,
    and factors are sorted by (degree, coefficient tuple).
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if pdeg(f) == 1:
        return f[-1], [(pmonic(f), 1)]
    unit = f[-1]
    work = pmonic(f)
    rng = random.Random(_FACTOR_SEED)
    factors: List[Tuple[Poly, int]] = []
    # strip powers of x first so squarefree bookkeeping stays simple
    shift = 0
    while len(work) > 1 and work[0].is_zero():
        work = work[1:]
        shift += 1
    if shift:
        factors.append((pX(desc), shift))
    if pdeg(work) >= 1:
        for g, mult in _squarefree_decompose(work, desc):
            for h, deg in _distinct_degree(g, desc):
                for irr in _equal_degree_split(h, deg, desc, rng):
                    factors.append((irr, mult))
    factors.sort(key=lambda fm: (pdeg(fm[0]), [c.sort_key() for c in fm[0]]))
    return unit, factors


def poly_roots(f: Poly, desc: FieldDesc) -> List[Tuple[FieldElem, int]]:
    """Roots of f in the coefficient field, with multiplicities, sorted."""
    _, factors = poly_factor(f, desc)
    out = []
    for g, m in factors:
        if pdeg(g) == 1:
            out.append((-g[0], m))
    out.sort(key=lambda rm: rm[0].sort_key())
    return out


# ---------------------------------------------------------------------------
# embeddings and relative traces

def subfield_embedding(sub: FieldDesc, sup: FieldDesc) -> FieldElem:
    """Image of sub's generator in sup: the least root of sub's modulus."""
    if sub.p != sup.p or sup.d % sub.d != 0:
        raise ValueError(f"{sub} does not embed into {sup}")
    cached = sup._embed_cache.get((sub.p, sub.d))
    if cached is not None:
        return cached
    if sub.d == 1:
        root = sup.one()
    else:
        mod_in_sup = [sup.from_int(c) for c in sub.modulus]
        roots = poly_roots(ptrim(mod_in_sup), sup)
        if not roots:  # pragma: no cover
            raise RuntimeError("modulus has no root in the extension")
        root = roots[0][0]
    sup._embed_cache[(sub.p, sub.d)] = root
    return root


def embed(a: FieldElem, sup: FieldDesc) -> FieldElem:
    """Map an element of a subfield into sup along the canonical embedding."""
    if a.desc == sup:
        return a
    root = subfield_embedding(a.desc, sup)
    acc = sup.zero()
    for c in reversed(a.coeffs):
        acc = acc * root + sup.from_int(c)
    return acc


def coerce_down(a: FieldElem, sub: FieldDesc) -> FieldElem:
    """Express a (lying in the image of sub) as an element of sub.

    Solves the F_p-linear system in the power basis of the embedded generator;
    raises ValueError if a is not actually in the subfield.
    """
    sup = a.desc
    if sub == sup:
        return a
    root = subfield_embedding(sub, sup)
    # columns: coefficient vectors of root^i, i < sub.d
    cols = []
    cur = sup.one()
    for _ in range(sub.d):
        cols.append(cur.coeffs)
        cur = cur * root
    p = sup.p
    # solve sum_i x_i * cols[i] = a.coeffs over F_p by elimination
    nrows, ncols = sup.d, sub.d
    mat = [[cols[j][i] for j in range(ncols)] + [a.coeffs[i]] for i in range(nrows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if mat[rr][c] % p:
                piv = rr
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for rr in range(nrows):
            if rr != r and mat[rr][c] % p:
                factor = mat[rr][c]
                mat[rr] = [(mat[rr][k] - factor * mat[r][k]) % p for k in range(ncols + 1)]
        piv_cols.append(c)
        r += 1
    sol = [0] * ncols
    for idx, c in enumerate(piv_cols):
        sol[c] = mat[idx][ncols]
    # consistency: rows without pivots must have zero rhs
    for rr in range(r, nrows):
        if mat[rr][ncols] % p:
            raise ValueError("element does not lie in the requested subfield")
    return sub.from_coeffs(sol)


def ff_trace(a: FieldElem) -> FieldElem:
    """Absolute trace to the prime field: sum of a^(p^i), i < d."""
    desc = a.desc
    acc = a
    cur = a
    for _ in range(desc.d - 1):
        cur = cur ** desc.p
        acc = acc + cur
    prime = field_make(desc.p, 1)
    # the trace is Frobenius-fixed, so its vector is supported in degree 0
    if any(acc.coeffs[1:]):  # pragma: no cover - algebra guarantees constant
        raise RuntimeError("trace did not land in the prime field")
    return prime.from_int(acc.coeffs[0])


def rel_trace(a: FieldElem, sub: FieldDesc) -> FieldElem:
    """Trace from a's field down to the subfield sub (sum of q-Frobenius orbits)."""
    desc = a.desc
    if desc == sub:
        return a
    if desc.p != sub.p or desc.d % sub.d != 0:
        raise ValueError(f"no trace from {desc} to {sub}")
    m = desc.d // sub.d
    acc = a
    cur = a
    for _ in range(m - 1):
        cur = cur ** sub.q
        acc = acc + cur
    return coerce_down(acc, sub)
