"""Reference polynomial routines for the tests: the shifts, powers and
degree-0 resultants the package computed before `fields.pshift` and
`fields.power` did them all, kept to compare against.

`horner_shift` is f(a + s) by Horner's rule on whole polynomials,
`binomial_u_columns` and `binomial_moved` shift by binomial expansion, term
by term, `square_and_multiply` starts from one and squares past the top
bit, and `degree0_resultant` is Res(a, g) = a^deg g by repeated products."""

from math import comb

from adeles2d.fields import padd, pmul


def horner_shift(f, a, k):
    """f(a + s), by Horner's rule on polynomials."""
    out = []
    for c in reversed(f):
        out = padd(pmul(out, [a, 1], k), [c], k)
    return out


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
