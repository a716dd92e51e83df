"""A reference irreducibility check for the tests: the search that
`surface.curve_make` ran before it factored, kept to compare against.  It
tries every normalized polynomial of every class up to half the degree, one
exact division each, so its cost grows as q to the number of monomials of
half the class; `budget` caps the divisions."""

import itertools

from adeles2d.multipoly import MPoly
from adeles2d.surface import class_monomials, poly_text


class OverBudget(Exception):
    """The search needs more exact divisions than its budget."""


def class_halves(S, cls):
    """Proper divisor classes to test, up to half the total degree."""
    return [c for c in itertools.product(*(range(d + 1) for d in cls))
            if 0 < 2 * sum(c) <= sum(cls) and c != cls]


def candidate_polys(S, cls):
    """All nonzero homogeneous polynomials of the given class, normalized
    so their first (lex-greatest) nonzero coefficient is 1, the first
    following coefficient counting fastest."""
    desc = S.base
    monos = class_monomials(S, cls)
    n = len(monos)
    q = desc.q
    for lead in range(n):
        for code in range(q ** (n - lead - 1)):
            terms = {monos[lead]: 1}
            m = code
            for k in range(lead + 1, n):
                m, c = divmod(m, q)
                if c:
                    terms[monos[k]] = c
            yield MPoly._make(desc, S.nvars, terms)


def search_outcome(S, poly, budget=None):
    """None for an irreducible curve, else the `reducible curve` message
    that names the first factor found; OverBudget past `budget`
    divisions."""
    f = poly.normalized()
    cls = S.poly_class(f)
    spent = 0
    if sum(cls) > 1:
        for sub in class_halves(S, cls):
            for g in candidate_polys(S, sub):
                spent += 1
                if budget is not None and spent > budget:
                    raise OverBudget(spent)
                h = f.exact_div(g)
                if h is not None:
                    gt = poly_text(S, g.normalized())
                    ht = poly_text(S, h.normalized())
                    return f"reducible curve: factors ({gt}) * ({ht})"
    return None

