"""Exact arithmetic in finite fields F_{p^d} and univariate polynomials over them.

Every extension is an absolute extension of the prime field: F_{p^d} is
represented as F_p[x]/(m(x)) where m is the monic irreducible polynomial of
degree d whose lower coefficients c_0, ..., c_(d-1) have the least code
sum c_i p^i.  An element is coded as one int n = sum c_i p^i of its coefficient
vector (c_0, ..., c_{d-1}); code 0 is zero and code 1 is one.  Polynomials,
series and matrices hold codes, and the field descriptor computes on them,
on lists of codes by one multiply-accumulate, `FieldDesc.axpy`; FieldElem
wraps a code with its field where elements leave the package.
Relative data for a tower F_{q^a}/F_q is recovered on demand: embeddings
are roots of the small modulus in the big field, chosen so that they
compose, and relative traces are sums of q-power Frobenius iterates
coerced back down through that embedding.
"""

from __future__ import annotations

import itertools
import operator
import random
from array import array
from typing import Iterator, List, Sequence, Tuple

_FACTOR_SEED = 0x1D5EED  # fixed seed for the equal-degree splitting stage
_SPLIT_DRAWS = 128  # Cantor-Zassenhaus draws per split (_split)

TABLE_MAX = 4096  # largest extension field given log/antilog tables


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending, by trial division; []
    for n < 2."""
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


class BudgetExceeded(ArithmeticError):
    """A bounded loop ran out of steps, or passed a bound its answer keeps."""


class FieldDesc:
    """Descriptor of F_{p^d}: characteristic, degree, canonical modulus, and
    `add`, `sub`, `neg`, `mul`, `inv`, `pow` on element codes and `axpy`
    (y + f*x on lists of codes, the one kernel over them), all but `inv` and
    `pow` picked once per kind: mod p, tables (q <= TABLE_MAX) or packed.

    For an extension with q <= TABLE_MAX it holds, over a primitive element g:
    `_exp[i] = g^i` for i < 2(q-1), so a sum of two logs needs no reduction;
    `_log[n]`, the log of the element coded n != 0; and, for odd p, the Zech
    table `_zech[k] = log(1 + g^k)` (-1 where 1 + g^k = 0) stored twice over,
    so that any k in (-2(q-1), 2(q-1)) indexes it directly.
    """

    __slots__ = (
        "p", "d", "q", "modulus", "_zero", "_one", "_exp", "_log", "_zech",
        "_half", "_slot", "_split", "_packs", "_red",
        "_embed_cache", "add", "sub", "neg", "mul", "axpy",
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
        self._bind_kernels()
        self._embed_cache = {}

    def _build_packing(self) -> None:
        """Kronecker packing: coefficient i of a vector goes to bits
        [i*slot, (i+1)*slot) of one int, so one int product convolves two
        vectors.  A slot holds any sum of folding a product plus a vector."""
        p, d = self.p, self.d
        slot = self._slot = (2 * d * p * p).bit_length()
        # blocks of h digits: halves, or less where a table of p^h entries
        # would pass TABLE_MAX, but one digit at least
        h = (d + 1) // 2
        while h > 1 and p ** h > TABLE_MAX:
            h -= 1
        self._split = p ** h

        def packed(n: int) -> int:
            return sum(c << (slot * i) for i, c in enumerate(self.digits(n)))

        # pack(n) = sum_b packs[b][digit block b of n]
        self._packs = [[packed(n) << (slot * b) for n in range(p ** min(
            h, d - b))] for b in range(0, d, h)]
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
        # the least primitive g: no g^(m/r) is one, r a prime factor of m
        g = next(n for n in range(p, q) if all(power(
            n, m // r, self._vec_mul) != 1 for r in _prime_factors(m)))
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

    def _bind_kernels(self) -> None:
        p, exp, log, zech, half = (self.p, self._exp, self._log, self._zech,
                                   self._half)
        if self.d == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.axpy = lambda f, x, y: [(b + f * a) % p for a, b in zip(x, y)]
            return
        if log is None:
            pack, unpack, reduce = self._pack, self._unpack, self._reduce
            self.add = lambda a, b: unpack(pack(a) + pack(b))
            self.sub = lambda a, b: unpack(pack(a) + (p - 1) * pack(b))
            self.neg = lambda a: unpack((p - 1) * pack(a))
            self.mul = self._vec_mul

            def axpy(f: int, x: List[int], y: List[int]) -> List[int]:
                # y + f*x packed, folded and unpacked once per code
                pf = pack(f)
                return [reduce(pf * pack(a) + pack(b)) if a else b
                        for a, b in zip(x, y)]

            self.axpy = axpy
        else:
            def add(a: int, b: int) -> int:
                if not (a and b):
                    return a or b
                i = log[a]
                z = zech[log[b] - i]
                return exp[i + z] if z >= 0 else 0

            def sub(a: int, b: int) -> int:
                return add(a, exp[log[b] + half]) if b else a  # a + (-b)

            self.add, self.sub = add, sub
            self.neg = lambda a: exp[log[a] + half] if a else 0
            self.mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
            fadd = operator.xor if p == 2 else add
            self.axpy = lambda f, x, y: [  # f*a read as g^(log f + log a)
                fadd(b, exp[log[f] + log[a]]) if a and f else b
                for a, b in zip(x, y)]
        if p == 2:
            self.add = self.sub = operator.xor

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self._log is not None:
            return self._exp[self.q - 1 - self._log[a]]
        if self.d == 1:
            return pow(a, -1, self.p)
        return self._vec_inv(a)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if not a:
            return 0 if e else 1
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if self.d == 1:
            return pow(a, e, self.p)
        return power(a, e, self._vec_mul) if e else 1

    # -- coefficient-vector arithmetic on codes (extensions) ---------------

    def digits(self, n: int) -> Tuple[int, ...]:
        """Coefficient vector of the element coded n over F_p, constant term
        first; it is the element's sort key."""
        p = self.p
        out = []
        for _ in range(self.d):
            n, c = divmod(n, p)
            out.append(c)
        return tuple(out)

    def _pack(self, n: int) -> int:
        split, packs = self._split, self._packs
        if len(packs) == 2:  # halves, unless p^h had to shrink: no loop
            return packs[0][n % split] + packs[1][n // split]
        out = 0
        for table in packs:
            n, r = divmod(n, split)
            out += table[r]
        return out

    def _unpack(self, x: int) -> int:
        """Code of a packed vector whose slots hold nonnegative sums."""
        p, slot = self.p, self._slot
        mask = (1 << slot) - 1
        n = 0
        for i in range(slot * (self.d - 1), -1, -slot):
            n = n * p + ((x >> i) & mask) % p
        return n

    def _vec_mul(self, a: int, b: int) -> int:
        return self._reduce(self._pack(a) * self._pack(b))

    def _reduce(self, prod: int) -> int:
        """Code of a packed product (plus a vector), slots past d - 1 folded."""
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

    def _vec_inv(self, a: int) -> int:
        """Inverse of the nonzero code a: the inverse of its coefficient
        vector modulo the modulus, over F_p, whose codes are the
        coefficients themselves."""
        inv = pinv_mod(ptrim(list(self.digits(a))), list(self.modulus),
                       field_make(self.p, 1))
        return sum(c * self.p ** i for i, c in enumerate(inv))

    # -- elements ------------------------------------------------------------

    def zero(self) -> "FieldElem":
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def gen(self) -> "FieldElem":
        """The class of x, a multiplicative generator of the extension basis."""
        return FieldElem(self, self.p if self.d > 1 else 1)

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, n % self.p)

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElem":
        if len(coeffs) > self.d:
            raise ValueError("coefficient vector longer than field degree")
        return FieldElem(self, sum(c % self.p * self.p ** i
                                   for i, c in enumerate(coeffs)))

    def elems(self) -> Iterator["FieldElem"]:
        """All q elements in order of code: the constant digit varies fastest."""
        for n in range(self.q):
            yield FieldElem(self, n)

    def code(self, c) -> int:
        """The code of a coefficient handed to a public constructor: an
        element of this field, or an int code below q."""
        if isinstance(c, FieldElem):
            if c.desc is not self and c.desc != self:
                raise ValueError(f"element of {c.desc} used over {self}")
            return c.n
        if not 0 <= c < self.q:
            raise ValueError(f"{c!r} is not the code of an element of {self}")
        return c

    def text(self, n: int) -> str:
        """Report text of the element coded n: the residue, or the
        coefficient vector in brackets."""
        if self.d == 1:
            return str(n)
        return "[" + ",".join(map(str, self.digits(n))) + "]"

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
        return f"GF({self.p})" if self.d == 1 else f"GF({self.p}^{self.d})"


class FieldElem:
    """An element of F_{p^d} where one leaves the package (parsing, points,
    report text, return values): the code n = sum c_i p^i of its coefficient
    vector over F_p with its field, whose operations on codes it calls.

    Operands of one operation must share a field, or it raises ValueError.
    """

    __slots__ = ("desc", "n")

    def __init__(self, desc: FieldDesc, n: int):
        self.desc = desc
        self.n = n

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """Coefficient vector over F_p, constant term first."""
        return self.desc.digits(self.n)

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self):
        return self.n != 0

    def __add__(self, other: "FieldElem") -> "FieldElem":
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError("mismatched fields")
        return FieldElem(self.desc, self.desc.add(self.n, other.n))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError("mismatched fields")
        return FieldElem(self.desc, self.desc.sub(self.n, other.n))

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.desc, self.desc.neg(self.n))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError("mismatched fields")
        return FieldElem(self.desc, self.desc.mul(self.n, other.n))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.desc, self.desc.inv(self.n))

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError("mismatched fields")
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        return FieldElem(self.desc, self.desc.pow(self.n, e))

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
        return self.desc.text(self.n)


# ---------------------------------------------------------------------------
# canonical moduli and field construction

_FIELD_CACHE: dict = {}


def field_make(p: int, d: int) -> FieldDesc:
    """Return the canonical descriptor of F_{p^d}.

    The modulus is the monic irreducible polynomial of degree d over F_p
    whose lower coefficients have the least code, so the least in
    lexicographic order from the coefficient of x^(d-1) down.
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
    # search by code, the top coefficient first; constant term 0 gives a
    # factor of x.  Over F_p the codes are the coefficients themselves.
    base = field_make(p, 1)
    cands = (top[::-1] + (1,) for top in itertools.product(range(p), repeat=d))
    found = next(m for m in cands if m[0] and _is_irreducible(list(m), base))
    desc = FieldDesc(p, d, found)
    _FIELD_CACHE[key] = desc
    return desc


# ---------------------------------------------------------------------------
# univariate polynomials over a FieldDesc: lists of codes, constant first

Poly = List[int]


def ptrim(f: Poly) -> Poly:
    while f and not f[-1]:
        f.pop()
    return f


def pdeg(f: Poly) -> int:
    return len(f) - 1  # degree of zero polynomial is -1


def padd(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    return ptrim(desc.axpy(1, g, f) + f[len(g):])


def psub(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    f = f + [0] * (len(g) - len(f))
    return ptrim(desc.axpy(desc.neg(1), g, f) + f[len(g):])


def pmul(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    """f * g: one axpy of the longer factor per code of the shorter."""
    if not f or not g:
        return []
    if len(g) < len(f):
        f, g = g, f
    axpy, n = desc.axpy, len(g)
    out = [0] * (len(f) + n - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + n] = axpy(a, g, out[i:i + n])
    return ptrim(out)


def pscale(f: Poly, a: int, desc: FieldDesc) -> Poly:
    return ptrim([desc.mul(c, a) for c in f])


def peval(f: Sequence[int], x: int, desc: FieldDesc) -> int:
    """f(x), by Horner's rule."""
    add, mul = desc.add, desc.mul
    acc = 0
    for c in reversed(f):
        acc = add(mul(acc, x), c)
    return acc


def pshift(f: Poly, a: int, desc: FieldDesc) -> Poly:
    """f(a + s), by Horner's rule in s: out <- out * (s + a) + c for the
    codes c of f from the top, each step one axpy of a * out into
    s * out + c."""
    if not (a and f):
        return ptrim(f[:])
    out = f[-1:]
    for c in reversed(f[:-1]):
        out = desc.axpy(a, out + [0], [c] + out)
    return ptrim(out)


def power(x, n: int, mul):
    """x^n for n >= 1 by square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3)
    from the lowest set bit of n: no product by one, no square past the
    top bit.  It raises ValueError for n < 1, which callers give their own
    meaning."""
    if n < 1:
        raise ValueError(f"power takes an exponent n >= 1, got {n}")
    while not n & 1:
        x, n = mul(x, x), n >> 1
    result = x
    while n > 1:
        x, n = mul(x, x), n >> 1
        if n & 1:
            result = mul(result, x)
    return result


def pmonic(f: Poly, desc: FieldDesc) -> Poly:
    if not f or f[-1] == 1:
        return f[:]
    return pscale(f, desc.inv(f[-1]), desc)


def pdivmod(f: Poly, g: Poly, desc: FieldDesc) -> Tuple[Poly, Poly]:
    """(q, r) with f = q*g + r, deg r < deg g: one axpy per quotient code."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    axpy, mul, neg = desc.axpy, desc.mul, desc.neg
    f = f[:]
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = 1 if g[-1] == 1 else desc.inv(g[-1])
    while len(f) >= len(g) and f:
        k = len(f) - len(g)
        q[k] = c = mul(f[-1], inv_lead)
        f[k:] = axpy(neg(c), g, f[k:])  # clears f's leading code
        ptrim(f)
    return ptrim(q), f


def pmod(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    return pdivmod(f, g, desc)[1]


def pgcd(f: Poly, g: Poly, desc: FieldDesc) -> Poly:
    a, b = f[:], g[:]
    while b:
        a, b = b, pmod(a, b, desc)
    return pmonic(a, desc)


def ppow_mod(f: Poly, e: int, m: Poly, desc: FieldDesc) -> Poly:
    """f^e mod m, for e >= 0."""
    return power(pmod(f, m, desc), e,
                 lambda a, b: pmod(pmul(a, b, desc), m, desc)) if e else [1]


def pderiv(f: Poly, desc: FieldDesc) -> Poly:
    mul, p = desc.mul, desc.p
    return ptrim([mul(f[i], i % p) for i in range(1, len(f))])


def pinv_mod(a: Poly, m: Poly, desc: FieldDesc) -> Poly:
    """The s of degree below deg m with s * a = 1 mod m, for a coprime to m:
    the extended Euclidean algorithm, each step keeping r1 = s1 * a mod m,
    until r1 is a nonzero constant."""
    r0, r1 = m[:], pmod(a, m, desc)
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, rem = pdivmod(r0, r1, desc)
        r0, r1, s0, s1 = r1, rem, s1, psub(s0, pmul(quot, s1, desc), desc)
    if not r1:
        raise ZeroDivisionError("polynomial not invertible modulo m")
    return pscale(s1, desc.inv(r1[0]), desc)


def _is_irreducible(f: Poly, desc: FieldDesc) -> bool:
    """Ben-Or's test: f of degree n is irreducible iff it shares no factor
    with x^(q^i) - x for i <= n/2, since a reducible f has an irreducible
    factor of degree at most n/2.  Most reducible f have a root, and the
    test stops at i = 1."""
    n = pdeg(f)
    if n <= 0:
        return False
    x = h = [0, 1]
    for _ in range(n // 2):
        h = ppow_mod(h, desc.q, f, desc)
        if pdeg(pgcd(psub(h, x, desc), f, desc)) != 0:
            return False
    return True


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
            # f = h(x^p): take p-th roots, a^(p^(d-1)), of the coefficients
            p = desc.p
            root = p ** (desc.d - 1)
            h = [desc.pow(f[i], root) for i in range(0, len(f), p)]
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
                out.append((pmonic(z, desc), mult * i))
            w = y
            c = pdivmod(c, y, desc)[0]
            i += 1
        if pdeg(c) > 0:
            rec(c, mult)

    rec(pmonic(f, desc), 1)
    return out


def _distinct_degree(f: Poly, desc: FieldDesc) -> List[Tuple[Poly, int]]:
    """Split squarefree monic f into products of irreducibles of equal degree."""
    out = []
    q = desc.q
    x = [0, 1]
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


def _split(f: Poly, deg: int, desc: FieldDesc,
           rng: List[random.Random]) -> Poly:
    """A proper monic factor of f, a product of two or more monic
    irreducibles of degree deg, by Cantor-Zassenhaus draws.  rng holds the
    generator of the caller, seeded here on the first draw: most
    factorizations never draw.  A draw fails only if all factors agree on
    its quadratic character (trace for p = 2), with chance at most 5/9 (two
    factors over F_3), so _SPLIT_DRAWS = 128 draws all fail on a valid f
    with chance below (5/9)^128 < 1e-32; then BudgetExceeded."""
    if not rng:
        rng.append(random.Random(_FACTOR_SEED))
    n, q, p = pdeg(f), desc.q, desc.p
    for _ in range(_SPLIT_DRAWS):
        # each code drawn digit by digit, constant digit first
        r = ptrim([sum(rng[0].randrange(p) * p ** i for i in range(desc.d))
                   for _ in range(n)])
        if pdeg(r) < 1:
            continue
        if p == 2:
            # trace map sum r^(2^i) over the splitting field F_{q^deg}
            h = r[:]
            acc = r[:]
            for _ in range(desc.d * deg - 1):
                h = pmod(pmul(h, h, desc), f, desc)
                acc = padd(acc, h, desc)
            g = pgcd(acc, f, desc)
        else:
            h = ppow_mod(r, (q ** deg - 1) // 2, f, desc)
            g = pgcd(psub(h, [1], desc), f, desc)
        if 0 < pdeg(g) < n:
            return g
    raise BudgetExceeded(f"{_SPLIT_DRAWS} Cantor-Zassenhaus draws split no "
                         f"factor of degree {deg} off {f} over {desc}")


def _equal_degree_split(f: Poly, deg: int, desc: FieldDesc,
                        rng: List[random.Random]) -> List[Poly]:
    """Split f into its monic irreducible factors, all of degree deg."""
    if pdeg(f) == deg:
        return [pmonic(f, desc)]
    g = _split(f, deg, desc, rng)
    return (_equal_degree_split(g, deg, desc, rng)
            + _equal_degree_split(pdivmod(f, g, desc)[0], deg, desc, rng))


def _one_factor(f: Poly, part: int, desc: FieldDesc,
                rng: List[random.Random]) -> Poly:
    """One monic irreducible factor of f, a product of distinct ones of
    degree part: split by Cantor-Zassenhaus draws, the smaller part kept
    each time."""
    while pdeg(f) > part:
        g = _split(f, part, desc, rng)
        h = pdivmod(f, g, desc)[0]
        f = g if pdeg(g) <= pdeg(h) else h
    return f


def poly_root(f: Poly, desc: FieldDesc) -> Tuple[FieldDesc, int]:
    """(F_(q^n), a root there) for f monic irreducible of degree n over
    desc = F_q.  Over F_(q^l), l the least prime factor of n, f splits into
    l irreducible factors of degree n / l; one of them is isolated
    (_one_factor, draws from one fixed-seed generator) and goes on up the
    same way.  The polynomial shrinks as the field grows, so the steps in
    large fields work on small polynomials; the last one is linear."""
    rng: List[random.Random] = []
    while pdeg(f) > 1:
        n = pdeg(f)
        part = n // _prime_factors(n)[0]
        up = field_make(desc.p, desc.d * (n // part))
        f = _one_factor([_embed_code(desc, c, up) for c in f], part, up, rng)
        desc = up
    return desc, desc.neg(f[0])


def poly_factor(f: Poly, desc: FieldDesc) -> Tuple[int, List[Tuple[Poly, int]]]:
    """Factor f over F_q into (unit, [(monic irreducible, multiplicity), ...]).

    Deterministic: the equal-degree stage draws from one fixed-seed
    generator per call, built on its first draw, and factors are sorted by
    (degree, coefficient sort keys).
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if pdeg(f) == 1:
        return f[-1], [(pmonic(f, desc), 1)]
    unit = f[-1]
    work = pmonic(f, desc)
    rng: List[random.Random] = []
    factors: List[Tuple[Poly, int]] = []
    # strip powers of x first so squarefree bookkeeping stays simple
    shift = 0
    while len(work) > 1 and not work[0]:
        work = work[1:]
        shift += 1
    if shift:
        factors.append(([0, 1], shift))
    if pdeg(work) >= 1:
        for g, mult in _squarefree_decompose(work, desc):
            for h, deg in _distinct_degree(g, desc):
                for irr in _equal_degree_split(h, deg, desc, rng):
                    factors.append((irr, mult))
    factors.sort(key=lambda fm: (pdeg(fm[0]), [desc.digits(c) for c in fm[0]]))
    return unit, factors


# ---------------------------------------------------------------------------
# embeddings and relative traces

def subfield_embedding(sub: FieldDesc, sup: FieldDesc) -> int:
    """Code in sup of sub's generator: the least root of sub's modulus that
    maps each intermediate field F_{p^l} of sub, 1 < l < sub.d, into sup as
    F_{p^l}'s own embedding does, so embeddings compose on every tower.  The
    choice recurses on sub.d, so it does not depend on the order in which
    fields are built; a sub of prime degree has no intermediate field, and
    its embeddings are the least roots.

    Such a root exists: the embeddings of sub into sup are a torsor under
    Gal(sub/F_p), cyclic of order sub.d; the constraint from l fixes the
    choice mod l; by induction the constraints agree mod every gcd; so by
    the Chinese remainder theorem one root meets them all."""
    if sub.p != sup.p or sup.d % sub.d != 0:
        raise ValueError(f"{sub} does not embed into {sup}")
    cached = sup._embed_cache.get((sub.p, sub.d))
    if cached is not None:
        return cached
    root = 1
    if sub.d > 1:
        mids = [field_make(sub.p, l) for l in range(2, sub.d)
                if sub.d % l == 0]
        want = [(subfield_embedding(mid, sub), subfield_embedding(mid, sup))
                for mid in mids]
        # the modulus has prime-field coefficients, whose codes are their
        # values; its roots are the p-th power orbit of any one of them
        roots = [sup.neg(_one_factor(list(sub.modulus), 1, sup, [])[0])]
        for _ in range(sub.d - 1):
            roots.append(sup.pow(roots[-1], sub.p))
        root = next(r for r in sorted(roots, key=sup.digits)
                    if all(_image(sub, g, sup, r) == h for g, h in want))
    sup._embed_cache[(sub.p, sub.d)] = root
    return root


def _image(sub: FieldDesc, n: int, sup: FieldDesc, root: int) -> int:
    """The code in sup of the element coded n of sub, sub's generator going
    to the code root: n's digits are prime-field codes in sup too."""
    return peval(sub.digits(n), root, sup)


def _embed_code(sub: FieldDesc, n: int, sup: FieldDesc) -> int:
    """The code in sup of the element coded n of its subfield sub."""
    if sub is sup or sub == sup:
        return n
    return _image(sub, n, sup, subfield_embedding(sub, sup))


def embed(a: FieldElem, sup: FieldDesc) -> FieldElem:
    """Map an element of a subfield into sup along the canonical embedding."""
    return FieldElem(sup, _embed_code(a.desc, a.n, sup))


def coerce_down(a: FieldElem, sub: FieldDesc) -> FieldElem:
    """Express a (lying in the image of sub) as an element of sub.

    Solves the F_p-linear system in the power basis of the embedded generator;
    raises ValueError if a is not actually in the subfield.
    """
    sup = a.desc
    if sub == sup:
        return a
    from .linalg import mat_rref  # linalg builds on this module

    root = subfield_embedding(sub, sup)
    # columns: coefficient vectors of root^i, i < sub.d, then a's
    cols = []
    cur = 1
    for _ in range(sub.d):
        cols.append(sup.digits(cur))
        cur = sup.mul(cur, root)
    cols.append(a.coeffs)
    # solve sum_i x_i * cols[i] = a.coeffs over F_p, whose codes are digits
    rref, pivots = mat_rref([{j: c for j, c in enumerate(row) if c}
                             for row in zip(*cols)], field_make(sup.p, 1))
    if sub.d in pivots:  # a pivot in a's column: no solution
        raise ValueError("element does not lie in the requested subfield")
    sol = [0] * sub.d
    for row, c in zip(rref, pivots):
        sol[c] = row.get(sub.d, 0)
    return sub.from_coeffs(sol)


def rel_trace(a: FieldElem, sub: FieldDesc) -> FieldElem:
    """Trace from a's field down to the subfield sub (sum of q-Frobenius orbits)."""
    desc = a.desc
    if desc == sub:
        return a
    if desc.p != sub.p or desc.d % sub.d != 0:
        raise ValueError(f"no trace from {desc} to {sub}")
    acc = cur = a.n
    for _ in range(desc.d // sub.d - 1):
        cur = desc.pow(cur, sub.q)
        acc = desc.add(acc, cur)
    return coerce_down(FieldElem(desc, acc), sub)
