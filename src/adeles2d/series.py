"""Truncated iterated Laurent series over finite fields.

This is the computational model of the two-dimensional local field
k(x)((u))((t)), whose elements are Laurent series in t with coefficients in
k(x)((u)): a series is its nonzero t-columns, each a u-series given by its
u-order and the codes from that order on, with the zeros at both ends
trimmed, together with a precision box.  `t_prec` is the first unknown
t-exponent and `u_prec` the first unknown u-exponent, uniform across
t-columns; both may be `inf`, meaning the series is exact in that variable.
Inside the box, absent columns and codes are exactly zero; outside it,
nothing is claimed.  "Exact zero" (no columns, both precisions infinite)
and "zero at this precision" are therefore different states, and only the
former participates in equality assertions.

Precision bookkeeping is deliberately conservative.  Multiplication uses the
box rule new_prec = min(prec_a + val_b, prec_b + val_a) in each variable
(valuations taken over tracked columns: the least t-exponent and the least
u-order), and addition intersects boxes.  A product is a sum of column
products, each on the one-variable kernel below (ps_mac).  There is no
division here: a quotient is made at a flag, where the exact orders of its
numerator and denominator fix its box (surface.ratio_at_flag).
"""

from __future__ import annotations

import math
from itertools import chain, compress
from typing import Dict, List, Optional, Tuple

from .fields import FieldDesc, FieldElem, power

INF = math.inf

# the least length of two factors that ps_mac deflates or steps through the
# sparser of (tools/bench_layers.py times 8 to 32 alike; 2 slows the small
# products, 64 the flex4 expansion)
LONG = 16
# a u-series: its u-order v and the codes of u^v, u^(v + 1), ...
Column = Tuple[int, List[int]]
# per t-exponent, the terms (w, x, y) of a sum of u^w * x * y (_sum_columns)
Terms = Dict[int, List[Tuple[int, List[int], List[int]]]]


class PrecisionError(ArithmeticError):
    """A computation needed coefficients outside the tracked window."""


def _as_prec(x) -> float:
    return INF if x == INF else int(x)


class LaurentSeries2:
    """A two-variable truncated Laurent series in u and t (t outermost).

    `cols` maps each t-exponent of a nonzero column, in increasing order, to
    the column (v, codes), whose first and last codes are nonzero and which
    ends below u_prec.  The constructor takes the nonzero coefficients as a
    dict (t, u) -> code or FieldElem and keeps those inside the window;
    `from_columns` takes columns.  The code lists are never changed in
    place, so series share them."""

    __slots__ = ("desc", "cols", "t_prec", "u_prec")

    def __init__(self, desc: FieldDesc, terms: Dict[Tuple[int, int], object],
                 t_prec=INF, u_prec=INF):
        self.desc = desc
        self.t_prec = t_prec = _as_prec(t_prec)
        self.u_prec = u_prec = _as_prec(u_prec)
        by_t: Dict[int, Dict[int, int]] = {}
        for (t, u), c in terms.items():
            if (n := desc.code(c)) and t < t_prec and u < u_prec:
                by_t.setdefault(t, {})[u] = n
        self.cols = {t: (min(col), [col.get(u, 0) for u in range(
            min(col), max(col) + 1)]) for t, col in sorted(by_t.items())}

    @staticmethod
    def _make(desc: FieldDesc, cols: Dict[int, Column],
              t_prec, u_prec) -> "LaurentSeries2":
        """Trusted constructor: cols holds trimmed nonzero columns inside the
        window (int or INF precisions), in increasing t."""
        f = object.__new__(LaurentSeries2)
        f.desc, f.cols, f.t_prec, f.u_prec = desc, cols, t_prec, u_prec
        return f

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_columns(cls, desc: FieldDesc, cols: Dict[int, Column],
                     t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        """The series whose t^t column is cols[t], for cols in increasing t,
        cut to the window, with the zeros at both ends of each column
        trimmed."""
        t_prec, u_prec = _as_prec(t_prec), _as_prec(u_prec)
        return cls._make(desc, {
            t: col for t, (v, codes) in cols.items()
            if t < t_prec and (col := _column(v, codes, u_prec))},
            t_prec, u_prec)

    @classmethod
    def zero(cls, desc: FieldDesc, t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        return cls._make(desc, {}, _as_prec(t_prec), _as_prec(u_prec))

    @classmethod
    def const(cls, desc: FieldDesc, a, t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        return cls(desc, {(0, 0): a}, t_prec, u_prec)

    @classmethod
    def one(cls, desc: FieldDesc) -> "LaurentSeries2":
        return cls._make(desc, {0: (0, [1])}, INF, INF)

    @classmethod
    def monomial(cls, desc: FieldDesc, a, t_exp: int, u_exp: int,
                 t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        return cls(desc, {(t_exp, u_exp): a}, t_prec, u_prec)

    # -- state queries -------------------------------------------------------

    def is_exact(self) -> bool:
        return self.t_prec == INF and self.u_prec == INF

    def t_valuation(self) -> int:
        if not self.cols:
            raise PrecisionError("series is indistinguishable from 0 in t at this precision")
        return next(iter(self.cols))

    def coeff(self, t: int, u: int) -> int:
        """The code of the t^t u^u coefficient (0 where none is stored)."""
        v, codes = self.cols.get(t, (u, ()))
        return codes[u - v] if 0 <= u - v < len(codes) else 0

    @property
    def terms(self) -> Dict[Tuple[int, int], int]:
        """The nonzero codes keyed by (t, u), the constructor's form."""
        return {(t, u): c for t, (v, codes) in self.cols.items()
                for u, c in enumerate(codes, v) if c}

    # -- ring operations -----------------------------------------------------

    def _check_desc(self, other: "LaurentSeries2"):
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError("mismatched coefficient fields")

    def __add__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        self._check_desc(other)
        t_prec = min(self.t_prec, other.t_prec)
        u_prec = min(self.u_prec, other.u_prec)
        groups: Terms = {}
        for t, (v, codes) in chain(self.cols.items(), other.cols.items()):
            if t < t_prec:
                groups.setdefault(t, []).append((v, codes, [1]))
        return LaurentSeries2._make(
            self.desc, _sum_columns(groups, u_prec, self.desc), t_prec, u_prec)

    def __neg__(self) -> "LaurentSeries2":
        neg = self.desc.neg
        return LaurentSeries2._make(
            self.desc, {t: (v, [neg(c) for c in codes])
                        for t, (v, codes) in self.cols.items()},
            self.t_prec, self.u_prec)

    def __sub__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries2", t_to=INF,
                u_to=INF) -> "LaurentSeries2":
        """(self * other).truncate(t_to, u_to) for ints or INF t_to and
        u_to, with nothing computed past the cut: each column of the
        product is the sum of the products of the columns whose t-exponents
        add up to it."""
        self._check_desc(other)
        a, b = self.cols, other.cols
        t_prec, u_prec = t_to, u_to
        # the box rule; on exact windows it gives INF whatever the valuations
        if not self.t_prec == self.u_prec == other.t_prec == other.u_prec == INF:
            # the least (u-order, codes) column has the least u-order
            at, bt = next(iter(a), self.t_prec), next(iter(b), other.t_prec)
            au = min(a.values())[0] if a else self.u_prec
            bu = min(b.values())[0] if b else other.u_prec
            t_prec = min(t_prec, self.t_prec + bt, other.t_prec + at)
            u_prec = min(u_prec, self.u_prec + bu, other.u_prec + au)
        groups: Terms = {}
        for ta, (va, ca) in a.items():
            for tb, (vb, cb) in b.items():
                if ta + tb >= t_prec:
                    break
                groups.setdefault(ta + tb, []).append((va + vb, ca, cb))
        return LaurentSeries2._make(
            self.desc, _sum_columns(groups, u_prec, self.desc), t_prec, u_prec)

    def mul(self, other: "LaurentSeries2", t_to=INF,
            u_to=INF) -> "LaurentSeries2":
        """self * other on the box t < t_to, u < u_to (__mul__)."""
        return LaurentSeries2.__mul__(self, other, t_to, u_to)

    def truncate(self, t_to=None, u_to=None) -> "LaurentSeries2":
        t_prec = self.t_prec if t_to is None else min(self.t_prec, _as_prec(t_to))
        u_prec = self.u_prec if u_to is None else min(self.u_prec, _as_prec(u_to))
        if (t_prec, u_prec) == (self.t_prec, self.u_prec):
            return self
        return LaurentSeries2.from_columns(self.desc, self.cols, t_prec, u_prec)

    def __pow__(self, n: int) -> "LaurentSeries2":
        """self^n for n >= 0; ValueError for n < 0 (fields.power), as a
        series is divided only at a flag (surface.ratio_at_flag)."""
        if n == 0:
            return LaurentSeries2.one(self.desc)
        return power(self, n, LaurentSeries2.__mul__)

    # -- comparison and display ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries2)
            and self.desc == other.desc
            and self.cols == other.cols
            and self.t_prec == other.t_prec
            and self.u_prec == other.u_prec
        )

    def __repr__(self):
        body = ls2_to_text(self)
        wins = []
        if self.t_prec != INF:
            wins.append(f"O(t^{int(self.t_prec)})")
        if self.u_prec != INF:
            wins.append(f"O(u^{int(self.u_prec)})")
        return body + (" + " + " + ".join(wins) if wins else "")


def _column(v: int, codes: List[int], u_prec=INF) -> Optional[Column]:
    """The column of the codes of u^v, u^(v + 1), ... below u^u_prec, with
    the zeros at both ends trimmed; None when no code is left."""
    end = len(codes) if u_prec >= v + len(codes) else max(0, u_prec - v)
    lo = 0
    while lo < end and not codes[lo]:
        lo += 1
    if lo == end:
        return None
    while not codes[end - 1]:
        end -= 1
    return v + lo, codes[lo:end] if lo or end < len(codes) else codes


def _sum_columns(groups: Terms, u_prec, k: FieldDesc) -> Dict[int, Column]:
    """The nonzero columns sum u^w * x * y over the (w, x, y) of groups[t]
    below u^u_prec, trimmed, for each t in increasing order (ps_mac)."""
    cols = {}
    for t in sorted(groups):
        terms = groups[t]
        v = min(terms)[0]
        end = min(u_prec, max([w + len(x) + len(y) for w, x, y in terms]) - 1)
        acc = [0] * (end - v)
        for w, x, y in terms:
            ps_mac(acc, w - v, x, y, k)
        if col := _column(v, acc):
            cols[t] = col
    return cols


# ---------------------------------------------------------------------------
# the one-variable kernel: power series in u as lists of codes, entry i of u^i


def ps_mul(a: List[int], b: List[int], n: int, k: FieldDesc) -> List[int]:
    """The n codes below u^n of a * b."""
    out = [0] * n
    ps_mac(out, 0, a, b, k)
    return out


def ps_mac(out: List[int], lo: int, a: List[int], b: List[int],
           k: FieldDesc) -> None:
    """Add u^lo * a * b to the codes of out, below u^len(out), in place:
    each nonzero code of one factor times the other (FieldDesc.axpy).  Of
    two factors of LONG codes or more, two series in u^g for some g > 1 are
    multiplied as series in u^g, which skips the codes between their terms,
    and otherwise the sparser is stepped through; else the shorter is."""
    if len(a) == 1 == len(b):
        if lo < len(out):
            out[lo] = k.add(out[lo], k.mul(a[0], b[0]))
        return
    if len(b) < len(a):
        a, b = b, a
    if len(a) >= LONG:
        if not a[1] and not b[1] and (g := math.gcd(
                *compress(range(len(b)), a), *compress(range(len(b)), b))) > 1:
            part = out[lo::g]
            ps_mac(part, 0, a[::g], b[::g], k)
            out[lo::g] = part
            return
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
    for i, c in zip(range(lo, len(out)), a):
        if c:
            out[i:i + len(b)] = k.axpy(c, b, out[i:i + len(b)])


def ps_horner(cols: List[List[int]], y: List[int], n: int,
              k: FieldDesc) -> List[int]:
    """The n codes below u^n of sum_j cols[j] * y^j, by Horner's rule."""
    acc = [0] * n
    for col in reversed(cols):
        step = col[:n] + [0] * (n - len(col))
        if any(acc):
            ps_mac(step, 0, acc, y, k)
        acc = step
    return acc


def ps_inverse(a: List[int], n: int, k: FieldDesc) -> List[int]:
    """The n >= 1 codes below u^n of 1 / a, for a[0] nonzero, by the
    recurrence e_i = -(sum_{j >= 1} a_j e_(i-j)) / a_0 over the nonzero a_j:
    at the sizes the package inverts it beats Newton's doubling."""
    add, mul = k.add, k.mul
    c0i = k.inv(a[0])
    minus = k.neg(c0i)
    tail = [(j, c) for j, c in enumerate(a[1:n], 1) if c]
    e = [c0i]
    for i in range(1, n):
        acc = 0
        for j, c in tail:
            if j > i:
                break
            acc = add(acc, mul(c, e[i - j]))
        e.append(mul(acc, minus))
    return e


# ---------------------------------------------------------------------------
# valuation, residue and serialization


def res2(f: LaurentSeries2) -> FieldElem:
    """The two-dimensional residue of the form f du^dt: the u^-1 t^-1
    coefficient of f."""
    if f.t_prec <= -1 or f.u_prec <= -1:
        raise PrecisionError("residue slot (-1,-1) lies outside the tracked window")
    return FieldElem(f.desc, f.coeff(-1, -1))


def ls2_to_text(f: LaurentSeries2) -> str:
    """Sparse text form `t^B*u^A: C`, terms sorted by (t, u) exponent."""
    text = f.desc.text
    return "; ".join(f"t^{t}*u^{u}: {text(c)}"
                     for t, (v, codes) in f.cols.items()
                     for u, c in enumerate(codes, v) if c) or "0"
