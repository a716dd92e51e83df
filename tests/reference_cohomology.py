"""Reference Cech count for the tests: the walk the package ran before
`cohomology.cech_h_vector` counted each sign pattern, kept to compare
against.

`walk_h_vector` lists, per group of variables, every exponent tuple of the
group's degree in the box [min(0, d + size - 1), max(d, -1)] and sorts it
by its signs; the counts of the groups multiply by the Kuenneth formula."""

from adeles2d.cohomology import CohomologyVector


def walk_h_vector(S, c):
    """(h0, h1, h2) of O(c) by listing the surviving Cech monomials."""
    h = [1]
    for g, d in zip(S.groups, c):
        counts = [0] * len(g)
        for part in parts(len(g), d, min(0, d + len(g) - 1), max(d, -1)):
            if all(x < 0 for x in part):
                counts[-1] += 1
            elif not any(x < 0 for x in part):
                counts[0] += 1
        prod = [0] * (len(h) + len(counts) - 1)
        for i, x in enumerate(h):
            for j, y in enumerate(counts):
                prod[i + j] += x * y
        h = prod
    return CohomologyVector(*h)


def parts(size, d, lo, hi):
    """The tuples of `size` integers in [lo, hi] that sum to d, in lex
    order; each prefix is one that some tuple extends."""
    if size == 1:
        if lo <= d <= hi:
            yield (d,)
        return
    rest = size - 1
    for x in range(max(lo, d - rest * hi), min(hi, d - rest * lo) + 1):
        for tail in parts(rest, d - x, lo, hi):
            yield (x,) + tail
