"""Reference routes for the tests: the ones the package used before it
inverted by t-columns, expanded polynomials from their columns and divided
at a flag by one recurrence, kept to check those routes against.

`column_inverse` inverts a two-variable series on its box by the column
recurrence that `LaurentSeries2.inverse` ran, and `inverse_ratio` divides
at a flag the way `surface.ratio_at_flag` did: expand den, invert it by
columns on the box that `surface.invert_poly_at_flag` fixed from den's
valuation, and multiply by num's expansion.
`neumann_inverse` inverts a two-variable series by the geometric series
1 / (y0 (1 + r)) = y0^-1 sum (-r)^i over the leading column's inverse y0,
with every product a two-variable one.  `widening_inverse` inverts a
polynomial at a flag the way the package did before the box was fixed
from the valuation: expand on the square box of the window, re-expand on a u-wider box when the leading
column is hidden, and again on a box sized from the dips of the later
columns (the old route also gave up past a cap on the u-window, which no
input of the tests reaches).  `mp_eval_series` evaluates a polynomial at
series arguments term by term, the way `surface.expand_poly_at_flag` did,
and `chart_series` gives it the two chart coordinates at a flag: the exact
series u_value + u and the solved coordinate of
`surface.flag_coordinate_series`.

`pairs_mul`, `pairs_add` and `pairs_truncate` are the product, sum and
truncation of `LaurentSeries2` when it was a dict from (t, u) to a code:
the product loops over pairs of terms, with the box rule read from the
least t- and u-exponents of the terms."""

from adeles2d.series import (INF, LaurentSeries2, PrecisionError,
                             ps_inverse, ps_mac, ps_mul)
from adeles2d.surface import (_mp_embed, expand_poly_at_flag,
                              flag_coordinate_series, poly_order_at_flag,
                              poly_valuation_at_flag)


def mp_eval_series(f, args, desc):
    """Evaluate a polynomial at series arguments (coefficients in desc).
    The terms are summed into one dict and cut once to the least of their
    windows: the terms and windows that adding them one by one with `+`
    gives, without a copy of the sum per term."""
    pows = [dict() for _ in range(f.nvars)]

    def pw(i, n):
        got = pows[i].get(n)
        if got is None:
            got = pows[i][n] = args[i] ** n
        return got

    add = desc.add
    acc = {}
    t_prec = u_prec = INF
    for e, c in f.terms.items():
        term = LaurentSeries2(desc, {(0, 0): c})
        for i, k in enumerate(e):
            if k:
                term = term * pw(i, k)
        t_prec, u_prec = min(t_prec, term.t_prec), min(u_prec, term.u_prec)
        for key, v in term.terms.items():
            cur = acc.get(key)
            if cur is None:
                acc[key] = v
            elif cur := add(cur, v):
                acc[key] = cur
            else:
                del acc[key]
    if t_prec != INF or u_prec != INF:
        acc = {k: c for k, c in acc.items() if k[0] < t_prec and k[1] < u_prec}
    return LaurentSeries2(desc, acc, t_prec, u_prec)


def chart_series(fl, window, u_window=None):
    """The flag's two chart coordinates as series on the box: u_value + u,
    exact, and the solved coordinate B(u, t), in chart order."""
    k = fl.point.residue_field
    coords = [None, None]
    coords[fl.u_index] = (LaurentSeries2.monomial(k, k.one(), 0, 1)
                          + LaurentSeries2.const(k, fl.u_value))
    coords[1 - fl.u_index] = flag_coordinate_series(fl, window, u_window)
    return coords


def reference_expansion(P, fl, window, u_window=None):
    """P at the flag by mp_eval_series at the chart series, cut to the box
    t < window, u < u_window (default: the window)."""
    k = fl.point.residue_field
    S = fl.curve.surface
    affine = _mp_embed(S.dehomogenize(P, fl.chart), k)
    got = mp_eval_series(affine, chart_series(fl, window, u_window), k)
    return got.truncate(window, window if u_window is None else u_window)


def neumann_inverse(f, t_window=16, u_window=16):
    """1/f by the Neumann series; the box is the one the series box rule
    leaves, cut below u^(u_window - w) on exact input."""
    if not f.terms:
        raise PrecisionError("cannot invert: series is indistinguishable from 0")
    vt = f.t_valuation()
    lead = {u: c for (t, u), c in f.terms.items() if t == vt}
    vu_lead = min(lead)
    size = t_window if f.t_prec == INF else int(f.t_prec - vt)
    if size <= 0:
        raise PrecisionError("cannot invert: empty provable window in t")
    # later columns dipping below the leading column's u-valuation erode one
    # u-level per geometric step: widen the exact input's window to match
    higher = [u for (t, u) in f.terms if t != vt]
    drop = max(0, vu_lead - min(higher)) if higher else 0
    m = u_window + size * drop
    u_prec = m - vu_lead
    if f.u_prec != INF:
        m, u_prec = int(f.u_prec - vu_lead), f.u_prec - 2 * vu_lead
    elif len(lead) == 1:
        m, u_prec = 1, INF
    if m <= 0:
        raise PrecisionError("cannot invert: empty provable window in u")
    icol = ps_inverse([lead.get(u, 0) for u in range(vu_lead, max(lead) + 1)],
                      m, f.desc)
    y0 = LaurentSeries2(
        f.desc, {(-vt, i - vu_lead): c for i, c in enumerate(icol) if c},
        INF, u_prec)
    if not higher and f.t_prec == INF:
        return y0
    one = LaurentSeries2.one(f.desc)
    negr = (-(f * y0 - one)).truncate(t_to=size)
    total = term = one
    for _ in range(1, size):
        term = (term * negr).truncate(t_to=size)
        if not term.terms:
            break
        total = total + term
    out = (y0 * total).truncate(t_to=size - vt)
    if f.u_prec == INF:
        out = out.truncate(u_to=-vu_lead + u_window)
    return out


def widening_inverse(P, fl, window):
    """1/P at the flag on the box of the window, by neumann_inverse on a
    u-widened expansion."""
    def wider(u_window):
        return expand_poly_at_flag(P, fl, window, u_window).truncate(window)

    vt = poly_order_at_flag(P, fl)
    if window <= vt:
        raise PrecisionError(f"window {window} ends before t^{vt}")
    e = wider(window)
    if not any(t == vt for (t, _u) in e.terms):
        e = wider(poly_valuation_at_flag(P, fl)[1] + 1)
    lead_u = min(u for (t, u) in e.terms if t == vt)
    rest = [(t - vt, lead_u - u) for (t, u) in e.terms if t != vt]
    min_step = min((step for step, _dip in rest), default=1)
    max_dip = max([0] + [dip for _step, dip in rest])
    if lead_u > 0 or max_dip > 0:
        steps = 1 - (-(window - vt) // min_step)
        e = wider(window + 2 * lead_u + steps * max_dip)
    return neumann_inverse(e, u_window=window)


def column_inverse(f):
    """1/f for f truncated in t and in u, one t-column at a time.

    With f = t^vt sum_j t^j B_j(u), B_0 of u-order w and s >= 0 the least
    slope with ord B_i >= w - i*s for i >= 1, the inverse is t^-vt sum_j
    t^j d_j, d_0 = 1/B_0 and d_j = -d_0 sum_{i=1..j} B_i d_(j-i), of
    u-order at least -w - j*s.  So e_j = u^(w + j*s) d_j and A_i =
    u^(i*s - w) B_i are power series, and e_j = -e_0 sum_i A_i e_(j-i).
    The box holds size = t_prec - vt columns and ends below
    u_prec - 2w - (size - 1)*s in u."""
    if f.t_prec == INF or f.u_prec == INF:
        raise ValueError("column_inverse takes a series truncated in t and u")
    if not f.cols:
        raise PrecisionError("cannot invert: series is indistinguishable from 0 in t")
    k = f.desc
    vt = f.t_valuation()
    size = int(f.t_prec - vt)
    w, lead = f.cols[vt]
    later = [(t - vt, v, codes) for t, (v, codes) in f.cols.items()
             if 0 < t - vt < size]
    s = max([0] + [-((v - w) // i) for i, v, _ in later])
    n = int(f.u_prec) - w
    if n <= 0:
        raise PrecisionError("cannot invert: empty provable window in u")
    e = [ps_inverse(lead, n, k)]
    minus = [k.neg(c) for c in e[0]]
    A = [(i, [0] * (v - w + i * s) + codes) for i, v, codes in later]
    for j in range(1, size):
        acc = [0] * n
        for i, a in A:
            if i <= j:
                ps_mac(acc, 0, a, e[j - i], k)
        e.append(ps_mul(minus, acc, n, k) if any(acc) else acc)
    return LaurentSeries2.from_columns(
        k, {j - vt: (-w - j * s, ej) for j, ej in enumerate(e)},
        size - vt, n - w - (size - 1) * s)


def inverse_ratio(num, den, fl, t_to, u_to):
    """num/den at the flag on the box t < t_to, u < u_to: 1/den on the box
    t < t_to - vn, u < u_to by column_inverse of den's expansion on the box
    t < t_to - vn + 2vd, u < u_to + (size + 1) * wd, times num's expansion
    on the box t < t_to + vd, u < u_to + size * wd, for vn the order of num
    and (vd, wd) the valuation of den at the flag and size = t_to - vn + vd;
    0 on the box when size <= 0 or u_to + size * wd <= 0."""
    k = fl.point.residue_field
    vn = poly_order_at_flag(num, fl)
    vd, wd = poly_valuation_at_flag(den, fl)
    size = t_to - vn + vd
    if size <= 0 or u_to + size * wd <= 0:
        return LaurentSeries2.zero(k, t_to, u_to)
    e = expand_poly_at_flag(den, fl, t_to - vn + 2 * vd,
                            u_to + (size + 1) * wd)
    inv = column_inverse(e).truncate(t_to - vn, u_to)
    top = expand_poly_at_flag(num, fl, t_to + vd, u_to + size * wd)
    return top.mul(inv, t_to, u_to)


def _low(f):
    """The least t- and u-exponents of f's terms, or its window's ends when
    it has none."""
    if not f.terms:
        return f.t_prec, f.u_prec
    return min(t for t, _u in f.terms), min(u for _t, u in f.terms)


def pairs_mul(a, b):
    """a * b, one pair of terms at a time, on the box of the box rule."""
    t_prec = u_prec = INF
    if not a.t_prec == a.u_prec == b.t_prec == b.u_prec == INF:
        (at, au), (bt, bu) = _low(a), _low(b)
        t_prec = min(a.t_prec + bt, b.t_prec + at)
        u_prec = min(a.u_prec + bu, b.u_prec + au)
    add, mul = a.desc.add, a.desc.mul
    out = {}
    for (ta, ua), ca in a.terms.items():
        for (tb, ub), cb in b.terms.items():
            t, u = ta + tb, ua + ub
            if t < t_prec and u < u_prec:
                out[t, u] = add(out.get((t, u), 0), mul(ca, cb))
    return LaurentSeries2(a.desc, out, t_prec, u_prec)


def pairs_add(a, b):
    """a + b, one term at a time, on the intersection of the boxes."""
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = a.desc.add(out.get(key, 0), c)
    return LaurentSeries2(a.desc, out, min(a.t_prec, b.t_prec),
                          min(a.u_prec, b.u_prec))


def pairs_truncate(f, t_to, u_to):
    """f cut below t^t_to and u^u_to."""
    return LaurentSeries2(f.desc, f.terms, min(f.t_prec, t_to),
                          min(f.u_prec, u_to))
