"""Reference polynomial routines for the tests: the shifts, powers and
degree-0 resultants the package computed before `fields.pshift` and
`fields.power` did them all, and schoolbook sums, products and long
division on field elements, kept to compare against.

`binomial_shift` is f(a + s) by the binomial expansion of each term,
`schoolbook_add`, `schoolbook_sub`, `schoolbook_mul` and `schoolbook_divmod`
work coefficient by coefficient; these five compute on `FieldElem` alone,
never on a kernel over code lists (`FieldDesc.axpy`) that the routines
they check share.  `binomial_u_columns` and `binomial_moved` shift
two-variable polynomials term by term, `square_and_multiply` starts from
one and squares past the top bit, and `degree0_resultant` is
Res(a, g) = a^deg g by repeated products."""

from math import comb

from adeles2d.fields import FieldElem, pmul


def _elems(f, k, n=0):
    """The elements of the codes f, padded with zeros to length n."""
    return [FieldElem(k, c) for c in f] + [k.zero()] * (n - len(f))


def _codes(f):
    """The codes of the elements f, the zeros at the top trimmed."""
    out = [a.n for a in f]
    while out and not out[-1]:
        out.pop()
    return out


def binomial_shift(f, a, k):
    """f(a + s): the coefficient of s^j is sum_i f_i C(i, j) a^(i - j)."""
    x = FieldElem(k, a)
    out = _elems([], k, len(f))
    for i, c in enumerate(_elems(f, k)):
        for j in range(i + 1):
            out[j] = out[j] + c * k.from_int(comb(i, j)) * x ** (i - j)
    return _codes(out)


def schoolbook_add(f, g, k):
    n = max(len(f), len(g))
    return _codes([x + y for x, y in zip(_elems(f, k, n), _elems(g, k, n))])


def schoolbook_sub(f, g, k):
    n = max(len(f), len(g))
    return _codes([x - y for x, y in zip(_elems(f, k, n), _elems(g, k, n))])


def schoolbook_mul(f, g, k):
    """f * g, each coefficient summed from its products."""
    out = _elems([], k, len(f) + len(g) - 1)
    for i, x in enumerate(_elems(f, k)):
        for j, y in enumerate(_elems(g, k)):
            out[i + j] = out[i + j] + x * y
    return _codes(out)


def schoolbook_divmod(f, g, k):
    """(q, r) with f = q g + r and deg r < deg g, by long division from the
    top: each step subtracts c s^m g, c the top of r over the top of g."""
    r, b = _elems(_codes(_elems(f, k)), k), _elems(g, k)
    lead = b[-1].inverse()
    q = _elems([], k, len(r) - len(b) + 1)
    while len(r) >= len(b):
        c, m = r[-1] * lead, len(r) - len(b)
        q[m] = c
        for j, y in enumerate(b):
            r[m + j] = r[m + j] - c * y
        r = _elems(_codes(r), k)
    return _codes(q), _codes(r)


def binomial_u_columns(f, k, ui, a):
    """f(a + u, c) for f in two variables, u the variable ui and c the
    other, as its coefficient of each power of c: n codes each, n - 1 being
    f's degree in u, from the table of the codes of (a + u)^i."""
    n = f.degree_in(ui) + 1
    shifted = [[1] + [0] * (n - 1)]
    for _ in range(n - 1):
        prev = shifted[-1]
        shifted.append(k.axpy(a, prev, [0] + prev[:-1]))
    cols = [[0] * n for _ in range(f.degree_in(1 - ui) + 1)]
    for e, c in f.terms.items():
        cols[e[1 - ui]] = k.axpy(c, shifted[e[ui]], cols[e[1 - ui]])
    return cols


def binomial_moved(f, a, b):
    """The terms of f(x + a, y + b), by the binomial expansion of each
    term."""
    k = f.desc
    out = {}
    for (i, j), c in f.terms.items():
        for u in range(i + 1):
            cu = k.mul(c, k.mul(comb(i, u) % k.p, k.pow(a, i - u)))
            if not cu:
                continue
            for v in range(j + 1):
                w = k.mul(cu, k.mul(comb(j, v) % k.p, k.pow(b, j - v)))
                out[u, v] = k.add(out.get((u, v), 0), w)
    return {e: c for e, c in out.items() if c}


def square_and_multiply(x, n, mul, one):
    """x^n for n >= 0, from one, by the bits of n from the lowest."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        x = mul(x, x)
        n >>= 1
    return result


def degree0_resultant(fu, gu, k):
    """Res(f, g) for f or g of degree 0, given by their columns in the
    eliminated variable: a^deg g for f = a, b^deg f for g = b."""
    if len(fu) == 1:
        base, times = fu[0], len(gu) - 1
    else:
        base, times = gu[0], len(fu) - 1
    out = [1]
    for _ in range(times):
        out = pmul(out, base, k)
    return out
