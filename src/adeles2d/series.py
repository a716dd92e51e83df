"""Truncated iterated Laurent series over finite fields.

This is the computational model of the two-dimensional local field
k(x)((u))((t)): a sparse dict of (t-exponent, u-exponent) -> coefficient
code together with a precision box.  `t_prec` is the first unknown
t-exponent and `u_prec` the first unknown u-exponent, uniform across
t-columns; both may be `inf`, meaning the series is exact in that variable.
Inside the box, absent keys are exactly zero; outside it, nothing is
claimed.  "Exact zero" (no terms, both precisions infinite) and "zero at
this precision" are therefore different states, and only the former
participates in equality assertions.

Valuations are reported with respect to the tracked window: expansion and
inversion routines arrange their output so that the leading tracked column is
genuinely the leading column of the underlying series.

Precision bookkeeping is deliberately conservative.  Multiplication uses the
box rule new_prec = min(prec_a + val_b, prec_b + val_a) in each variable
(valuations taken over tracked terms), and addition intersects boxes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .fields import FieldDesc, FieldElem, power

INF = math.inf
DEFAULT_PREC = 16
# the least window a residue or a pairing is computed at: windows sized from
# exact orders alone would differ per form, and the per-flag caches, keyed
# by window, would stop sharing
START_PREC = 8


class PrecisionError(ArithmeticError):
    """A computation needed coefficients outside the tracked window."""


def _as_prec(x) -> float:
    return INF if x == INF else int(x)


class LaurentSeries2:
    """A two-variable truncated Laurent series in u and t (t outermost); the
    constructor keeps the nonzero codes, given as codes or FieldElem, inside
    the window."""

    __slots__ = ("desc", "terms", "t_prec", "u_prec")

    def __init__(self, desc: FieldDesc, terms: Dict[Tuple[int, int], object],
                 t_prec=INF, u_prec=INF):
        self.desc = desc
        self.t_prec = t_prec = _as_prec(t_prec)
        self.u_prec = u_prec = _as_prec(u_prec)
        self.terms = {k: n for k, c in terms.items()
                      if (n := desc.code(c)) and k[0] < t_prec and k[1] < u_prec}

    @staticmethod
    def _make(desc: FieldDesc, terms: Dict[Tuple[int, int], int],
              t_prec, u_prec) -> "LaurentSeries2":
        """Trusted constructor: terms maps keys inside the window (int or INF
        precisions) to nonzero codes, and nothing else holds it."""
        f = object.__new__(LaurentSeries2)
        f.desc, f.terms, f.t_prec, f.u_prec = desc, terms, t_prec, u_prec
        return f

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, desc: FieldDesc, t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        return cls._make(desc, {}, _as_prec(t_prec), _as_prec(u_prec))

    @classmethod
    def const(cls, desc: FieldDesc, a, t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        return cls(desc, {(0, 0): a}, t_prec, u_prec)

    @classmethod
    def one(cls, desc: FieldDesc) -> "LaurentSeries2":
        return cls._make(desc, {(0, 0): 1}, INF, INF)

    @classmethod
    def monomial(cls, desc: FieldDesc, a, t_exp: int, u_exp: int,
                 t_prec=INF, u_prec=INF) -> "LaurentSeries2":
        return cls(desc, {(t_exp, u_exp): a}, t_prec, u_prec)

    # -- state queries -------------------------------------------------------

    def is_exact(self) -> bool:
        return self.t_prec == INF and self.u_prec == INF

    def _low(self) -> Tuple[float, float]:
        """Least tracked t- and u-exponents, or the window's ends when the
        window is all zero."""
        if len(self.terms) == 1:
            return next(iter(self.terms))
        if not self.terms:
            return self.t_prec, self.u_prec
        ts, us = zip(*self.terms)
        return min(ts), min(us)

    def t_valuation(self) -> int:
        if not self.terms:
            raise PrecisionError("series is indistinguishable from 0 in t at this precision")
        return min(k[0] for k in self.terms)

    # -- ring operations -----------------------------------------------------

    def _check_desc(self, other: "LaurentSeries2"):
        if other.desc is not self.desc and other.desc != self.desc:
            raise ValueError("mismatched coefficient fields")

    def __add__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        self._check_desc(other)
        add = self.desc.add
        out = dict(self.terms)
        for k, c in other.terms.items():
            cur = out.get(k)
            if cur is None:
                out[k] = c
            elif cur := add(cur, c):
                out[k] = cur
            else:
                del out[k]
        t_prec, u_prec = self.t_prec, self.u_prec
        if (t_prec, u_prec) != (other.t_prec, other.u_prec):
            t_prec, u_prec = min(t_prec, other.t_prec), min(u_prec, other.u_prec)
            out = {k: c for k, c in out.items()
                   if k[0] < t_prec and k[1] < u_prec}
        return LaurentSeries2._make(self.desc, out, t_prec, u_prec)

    def __neg__(self) -> "LaurentSeries2":
        neg = self.desc.neg
        return LaurentSeries2._make(
            self.desc, {k: neg(c) for k, c in self.terms.items()},
            self.t_prec, self.u_prec)

    def __sub__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        self._check_desc(other)
        # the box rule; on exact windows it gives INF whatever the valuations
        t_prec = u_prec = INF
        if not self.t_prec == self.u_prec == other.t_prec == other.u_prec == INF:
            (at, au), (bt, bu) = self._low(), other._low()
            t_prec = min(self.t_prec + bt, other.t_prec + at)
            u_prec = min(self.u_prec + bu, other.u_prec + au)
        add, mul = self.desc.add, self.desc.mul
        out = {}
        pairs = 0
        for (ta, ua), ca in self.terms.items():
            for (tb, ub), cb in other.terms.items():
                t, u = ta + tb, ua + ub
                if t < t_prec and u < u_prec:
                    pairs += 1
                    cur = out.get((t, u))
                    out[t, u] = (mul(ca, cb) if cur is None
                                 else add(cur, mul(ca, cb)))
        if len(out) < pairs:  # terms met, so some may have cancelled
            out = {k: c for k, c in out.items() if c}
        return LaurentSeries2._make(self.desc, out, t_prec, u_prec)

    def truncate(self, t_to=None, u_to=None) -> "LaurentSeries2":
        t_prec = self.t_prec if t_to is None else min(self.t_prec, _as_prec(t_to))
        u_prec = self.u_prec if u_to is None else min(self.u_prec, _as_prec(u_to))
        if (t_prec, u_prec) == (self.t_prec, self.u_prec):
            return self
        return LaurentSeries2._make(self.desc, {
            k: c for k, c in self.terms.items()
            if k[0] < t_prec and k[1] < u_prec}, t_prec, u_prec)

    def inverse(self, t_window: int = DEFAULT_PREC,
                u_window: int = DEFAULT_PREC) -> "LaurentSeries2":
        """Multiplicative inverse, one t-column at a time.

        With self = t^vt sum_j t^j B_j(u), B_0 of u-order w and s >= 0 the
        least slope with ord B_i >= w - i*s for i >= 1, the inverse is
        t^-vt sum_j t^j d_j, d_0 = 1/B_0 and d_j = -d_0 sum_{i=1..j}
        B_i d_(j-i), of u-order at least -w - j*s.  So e_j = u^(w + j*s) d_j
        and A_i = u^(i*s - w) B_i are power series, e_j = -e_0 sum_i
        A_i e_(j-i) takes one ps_mul per term, and n codes of each e_j need
        B_0 below u^(w + n) and no more of the others.  The box holds `size`
        columns (t_prec - vt of truncated input, `t_window` of exact input)
        and ends below u_prec - 2w - (size - 1)*s in u (u_window - w on
        exact input).  Exact input on one column keeps the exact t-box, and
        a monomial has its exact inverse."""
        if not self.terms:
            if self.is_exact():
                raise ZeroDivisionError("inverse of the exact zero series")
            raise PrecisionError("cannot invert: series is indistinguishable from 0 in t")
        k = self.desc
        vt = self.t_valuation()
        size = t_window if self.t_prec == INF else int(self.t_prec - vt)
        if size <= 0:
            raise PrecisionError("cannot invert: empty provable window in t")
        cols: Dict[int, Dict[int, int]] = {}
        for (t, u), c in self.terms.items():
            if t - vt < size:
                cols.setdefault(t - vt, {})[u] = c
        lead = cols.pop(0)
        w = min(lead)
        one_column = not cols and self.t_prec == INF
        size = 1 if one_column else size
        s = max([0] + [-((min(col) - w) // i) for i, col in cols.items()])
        if self.u_prec != INF:
            n = int(self.u_prec) - w
            u_prec = n - w - (size - 1) * s
        elif one_column and len(lead) == 1:
            n, u_prec = 1, INF
        else:
            n, u_prec = u_window + (size - 1) * s, u_window - w
        if n <= 0:
            raise PrecisionError("cannot invert: empty provable window in u")
        e = [ps_inverse([lead.get(u, 0) for u in range(w, w + n)], n, k)]
        minus = [k.neg(c) for c in e[0]]
        A = [(i, [col.get(u, 0) for u in range(w - i * s, w - i * s + n)])
             for i, col in cols.items()]
        for j in range(1, size):
            acc = [0] * n
            for i, a in A:
                if i <= j:
                    acc = ps_add(acc, ps_mul(a, e[j - i], n, k), k)
            e.append(ps_mul(minus, acc, n, k) if any(acc) else acc)
        terms = {(j - vt, u): c for j, ej in enumerate(e)
                 for u, c in enumerate(ej, -w - j * s) if c and u < u_prec}
        return LaurentSeries2._make(
            k, terms, INF if one_column else size - vt, u_prec)

    def __pow__(self, n: int) -> "LaurentSeries2":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return LaurentSeries2.one(self.desc)
        return power(self, n, LaurentSeries2.__mul__)

    # -- comparison and display ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries2)
            and self.desc == other.desc
            and self.terms == other.terms
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


# ---------------------------------------------------------------------------
# the one-variable kernel: power series in u as lists of codes, entry i of u^i


def ps_add(a: List[int], b: List[int], k: FieldDesc) -> List[int]:
    """The codes of a + b, for b no longer than a."""
    add = k.add
    return [add(x, y) for x, y in zip(a, b)] + a[len(b):]


def ps_mul(a: List[int], b: List[int], n: int, k: FieldDesc) -> List[int]:
    """The n codes below u^n of a * b."""
    out = [0] * n
    for i, c in enumerate(a[:n]):
        if c:
            m = min(n - i, len(b))
            out[i:i + m] = k.axpy(c, b[:m], out[i:i + m])
    return out


def ps_horner(cols: List[List[int]], y: List[int], n: int,
              k: FieldDesc) -> List[int]:
    """The n codes below u^n of sum_j cols[j] * y^j, by Horner's rule."""
    acc = [0] * n
    for col in reversed(cols):
        acc = ps_add(ps_mul(acc, y, n, k), col[:n], k)
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
    return FieldElem(f.desc, f.terms.get((-1, -1), 0))


def ls2_to_text(f: LaurentSeries2) -> str:
    """Sparse text form `t^B*u^A: C`, terms sorted by (t, u) exponent."""
    if not f.terms:
        return "0"
    bits = []
    for (t, u) in sorted(f.terms):
        bits.append(f"t^{t}*u^{u}: {f.desc.text(f.terms[(t, u)])}")
    return "; ".join(bits)
