"""A reference point finder for the tests: the closed points of a curve by a
scan of every ambient point over each F_(q^m), independent of the walks in
`surface`.  Each curve is scanned once per degree and the points are kept,
since several tests compare against the same curves."""

from adeles2d.fields import field_make
from adeles2d.surface import point_from_coords

# curve -> [the points of exact degree m, sorted, for m = 1, 2, ...]
_FOUND = {}


def scan_points(D, max_degree):
    """The closed points of D of degree at most max_degree, sorted."""
    by_degree = _FOUND.setdefault(D, [])
    while len(by_degree) < max_degree:
        by_degree.append(_scan_degree(D, len(by_degree) + 1))
    return [pt for pts in by_degree[:max_degree] for pt in pts]


def _scan_degree(D, m):
    S = D.surface
    F = field_make(S.base.p, S.base.d * m)
    one, zero, elems = F.one(), F.zero(), list(F.elems())
    if S.model == "P2":
        ambient = [(one, y, z) for y in elems for z in elems]
        ambient += [(zero, one, z) for z in elems] + [(zero, zero, one)]
    else:
        line = [(one, x) for x in elems] + [(zero, one)]
        ambient = [a + b for a in line for b in line]
    found = set()
    for coords in ambient:
        if D.poly.evaluate(list(coords)).is_zero():
            pt = point_from_coords(S, coords)
            if pt.degree == m:
                found.add(pt)
    return sorted(found, key=lambda pt: pt.sort_key())
