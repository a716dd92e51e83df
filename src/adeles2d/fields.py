"""Exact arithmetic in finite fields F_{p^d} and univariate polynomials over them.

Every extension is an absolute extension of the prime field: F_{p^d} is
represented as F_p[x]/(m(x)) where m is the lexicographically least monic
irreducible polynomial of degree d (coefficient tuples ordered constant term
first).  An element is coded as one int n = sum c_i p^i of its coefficient
vector (c_0, ..., c_{d-1}).  Prime fields compute mod p; extensions with at
most TABLE_MAX elements multiply through log/antilog tables and add through
Zech logarithms; larger extensions multiply coefficient vectors.  Relative
data for a tower F_{q^a}/F_q is recovered on demand: embeddings are canonical
roots of the small modulus in the big field, and relative traces are sums of
q-power Frobenius iterates coerced back down through that embedding.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterator, List, Sequence, Tuple

_FACTOR_SEED = 0x1D5EED  # fixed seed for the equal-degree splitting stage

TABLE_MAX = 4096  # largest extension field given log/antilog tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _prime_factors(n: int) -> List[int]:
    out = []
    t = 2
    while t * t <= n:
        if n % t == 0:
            out.append(t)
            while n % t == 0:
                n //= t
        t += 1
    if n > 1:
        out.append(n)
    return out


class FieldDesc:
    """Descriptor of F_{p^d}: characteristic, degree and canonical modulus.

    For an extension with q <= TABLE_MAX it holds, over a primitive element g:
    `_exp[i] = g^i` for i < 2(q-1), so a sum of two logs needs no reduction;
    `_log[n]`, the log of the element coded n != 0; and, for odd p, the Zech
    table `_zech[k] = log(1 + g^k)` (-1 where 1 + g^k = 0) stored twice over,
    so that any k in (-2(q-1), 2(q-1)) indexes it directly.
    """

    __slots__ = (
        "p", "d", "q", "modulus", "_zero", "_one", "_exp", "_log", "_zech",
        "_half", "_slot", "_split", "_pack_lo", "_pack_hi", "_red",
        "_embed_cache",
    )

    def __init__(self, p: int, d: int, modulus: Tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = modulus  # length d+1, monic, constant term first
        self._zero = FieldElem(self, 0)
        self._one = FieldElem(self, 1)
        self._half = (self.q - 1) // 2 if p > 2 else 0  # log of -1
        self._exp = self._log = self._zech = None
        if d > 1:
            self._build_packing()
            if self.q <= TABLE_MAX:
                self._build_tables()
        self._embed_cache = {}

    def _build_packing(self) -> None:
        """Kronecker packing: coefficient i of a vector goes to bits
        [i*slot, (i+1)*slot) of one int, so one int product convolves two
        vectors.  A slot holds any sum the product and reduction make."""
        p, d = self.p, self.d
        slot = self._slot = (2 * d * p * p).bit_length()
        h = (d + 1) // 2
        self._split = p ** h

        def packed(n: int) -> int:
            return sum(c << (slot * i) for i, c in enumerate(self._digits(n)))

        # packed codes by halves: pack(n) = lo[n % p^h] + hi[n // p^h]
        self._pack_lo = [packed(n) for n in range(p ** h)]
        self._pack_hi = [packed(n) << (slot * h) for n in range(p ** (d - h))]
        # x^(d+i) mod modulus, packed, for i < d-1
        xd = [(-c) % p for c in self.modulus[:d]]
        cur = xd
        rows = []
        for _ in range(d - 1):
            rows.append(sum(c << (slot * j) for j, c in enumerate(cur)))
            top = cur[-1]
            cur = [(c + top * r) % p for c, r in zip([0] + cur[:-1], xd)]
        self._red = rows

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        m = q - 1
        g = next(n for n in range(p, q) if self._is_primitive(n, m))
        exp = array("i", [1]) * (2 * m)
        log = array("i", [0]) * q
        cur = 1
        for i in range(m):
            exp[i] = exp[i + m] = cur
            log[cur] = i
            cur = self._vec_mul(cur, g)
        self._exp, self._log = exp, log
        if p > 2:
            # 1 + g^k adds one to the constant digit of g^k's code
            zech = array("i", [-1]) * (2 * m)
            for k in range(m):
                n = exp[k]
                n += 1 - p if n % p == p - 1 else 1
                if n:
                    zech[k] = zech[k + m] = log[n]
            self._zech = zech

    def _is_primitive(self, g: int, m: int) -> bool:
        return all(self._vec_pow(g, m // r) != 1 for r in _prime_factors(m))

    # -- coefficient-vector arithmetic on codes (extensions) ---------------

    def _digits(self, n: int) -> List[int]:
        p = self.p
        out = []
        for _ in range(self.d):
            n, c = divmod(n, p)
            out.append(c)
        return out

    def _pack(self, n: int) -> int:
        split = self._split
        return self._pack_lo[n % split] + self._pack_hi[n // split]

    def _unpack(self, x: int) -> int:
        """Code of a packed vector whose slots hold nonnegative sums."""
        p, slot = self.p, self._slot
        mask = (1 << slot) - 1
        n = 0
        for i in range(slot * (self.d - 1), -1, -slot):
            n = n * p + ((x >> i) & mask) % p
        return n

    def _vec_mul(self, a: int, b: int) -> int:
        prod = self._pack(a) * self._pack(b)
        p, slot = self.p, self._slot
        mask = (1 << slot) - 1
        low = slot * self.d
        out = prod & ((1 << low) - 1)
        prod >>= low
        for row in self._red:
            c = (prod & mask) % p
            if c:
                out += c * row
            prod >>= slot
        return self._unpack(out)

    def _vec_pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._vec_mul(result, a)
            a = self._vec_mul(a, a)
            e >>= 1
        return result

    def _vec_add(self, a: int, b: int, scale: int) -> int:
        """Code of a + scale*b; scale p-1 subtracts."""
        return self._unpack(self._pack(a) + scale * self._pack(b))

    # -- elements ------------------------------------------------------------

    def zero(self) -> "FieldElem":
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def gen(self) -> "FieldElem":
        """The class of x, a multiplicative generator of the extension basis."""
        if self.d == 1:
            return self._one
        return FieldElem(self, self.p)

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, n % self.p)

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElem":
        if len(coeffs) > self.d:
            raise ValueError("coefficient vector longer than field degree")
        p = self.p
        n = 0
        for c in reversed(coeffs):
            n = n * p + c % p
        return FieldElem(self, n)

    def elems(self) -> Iterator["FieldElem"]:
        """All q elements in order of code: the constant digit varies fastest."""
        for n in range(self.q):
            yield FieldElem(self, n)

    def __eq__(self, other):
        return self is other or (
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
    """An element of F_{p^d}, coded as the int n = sum c_i p^i of its
    coefficient vector over F_p.

    Operands of one operation must share a field; the containers (series,
    polynomials) check that, the element operations do not.
    """

    __slots__ = ("desc", "n")

    def __init__(self, desc: FieldDesc, n: int):
        self.desc = desc
        self.n = n

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """Coefficient vector over F_p, constant term first."""
        return tuple(self.desc._digits(self.n))

    def is_zero(self) -> bool:
        return not self.n

    def is_one(self) -> bool:
        return self.n == 1

    def __bool__(self):
        return self.n != 0

    def __add__(self, other: "FieldElem") -> "FieldElem":
        a, b = self.n, other.n
        if not b:
            return self
        if not a:
            return other
        desc = self.desc
        if desc.p == 2:
            return FieldElem(desc, a ^ b)
        zech = desc._zech
        if zech is not None:
            log = desc._log
            i = log[a]
            z = zech[log[b] - i]
            return desc._zero if z < 0 else FieldElem(desc, desc._exp[i + z])
        if desc.d == 1:
            s = a + b
            return FieldElem(desc, s - desc.p if s >= desc.p else s)
        return FieldElem(desc, desc._vec_add(a, b, 1))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        a, b = self.n, other.n
        if not b:
            return self
        desc = self.desc
        if desc.p == 2:
            return FieldElem(desc, a ^ b)
        zech = desc._zech
        if zech is not None:
            log = desc._log
            j = log[b] + desc._half  # log of -b
            if not a:
                return FieldElem(desc, desc._exp[j])
            i = log[a]
            z = zech[j - i]
            return desc._zero if z < 0 else FieldElem(desc, desc._exp[i + z])
        if desc.d == 1:
            return FieldElem(desc, (a - b) % desc.p)
        return FieldElem(desc, desc._vec_add(a, b, desc.p - 1))

    def __neg__(self) -> "FieldElem":
        a = self.n
        desc = self.desc
        if not a or desc.p == 2:
            return self
        if desc.d == 1:
            return FieldElem(desc, desc.p - a)
        log = desc._log
        if log is not None:
            return FieldElem(desc, desc._exp[log[a] + desc._half])
        return FieldElem(desc, desc._vec_add(0, a, desc.p - 1))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        a, b = self.n, other.n
        desc = self.desc
        if not a or not b:
            return desc._zero
        log = desc._log
        if log is not None:
            return FieldElem(desc, desc._exp[log[a] + log[b]])
        if desc.d == 1:
            return FieldElem(desc, a * b % desc.p)
        return FieldElem(desc, desc._vec_mul(a, b))

    def inverse(self) -> "FieldElem":
        a = self.n
        desc = self.desc
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        log = desc._log
        if log is not None:
            return FieldElem(desc, desc._exp[desc.q - 1 - log[a]])
        if desc.d == 1:
            return FieldElem(desc, pow(a, -1, desc.p))
        return FieldElem(desc, desc._vec_pow(a, desc.q - 2))  # Fermat

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inverse() ** (-e)
        a = self.n
        desc = self.desc
        if not a:
            return desc._zero if e else desc._one
        log = desc._log
        if log is not None:
            return FieldElem(desc, desc._exp[log[a] * e % (desc.q - 1)])
        if desc.d == 1:
            return FieldElem(desc, pow(a, e, desc.p))
        return FieldElem(desc, desc._vec_pow(a, e))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.n == other.n
            and self.desc == other.desc
        )

    def __hash__(self):
        return hash(self.n)

    def sort_key(self) -> Tuple[int, ...]:
        return self.coeffs

    def __repr__(self):
        if self.desc.d == 1:
            return str(self.n)
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


def _check_fields(f: Poly, g: Poly, desc: FieldDesc) -> None:
    """Raise ValueError unless f and g have their coefficients in desc.

    One coefficient of each stands for the rest: a polynomial is built over
    one field."""
    for h in (f, g):
        if h and h[-1].desc is not desc and h[-1].desc != desc:
            raise ValueError(f"polynomial over {h[-1].desc} used over {desc}")


def padd(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    _check_fields(f, g, desc)
    n = max(len(f), len(g))
    z = desc.zero()
    out = [(f[i] if i < len(f) else z) + (g[i] if i < len(g) else z) for i in range(n)]
    return ptrim(out)


def psub(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    _check_fields(f, g, desc)
    n = max(len(f), len(g))
    z = desc.zero()
    out = [(f[i] if i < len(f) else z) - (g[i] if i < len(g) else z) for i in range(n)]
    return ptrim(out)


def pmul(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    _check_fields(f, g, desc)
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
    _check_fields(f, g, desc)
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
    for t in _prime_factors(n):
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
    rhs = a.coeffs
    mat = [[cols[j][i] for j in range(ncols)] + [rhs[i]] for i in range(nrows)]
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
