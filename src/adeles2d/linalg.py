"""Exact linear algebra over finite fields, on sparse rows.

A row is a dict from column index to the nonzero element code there, over
a shared FieldDesc; a column a row does not hold is zero in it, so a row
has no width.  A matrix is a list of rows, and this is the package's one
matrix form.

Two kinds of matrix come here.  The ranks of `verify` are sparse: the
section rows of Riemann-Roch spaces (shifts of a product of coordinate
lines, a monomial) and the window grams with their lattice blocks.  Counted
at `_echelon` itself, a pass of the `points` workload at seed 0 makes 435
eliminations over 1,230 rows and one of `sweep` 1,099 over 3,192, all
`mat_rank`, up to 28 x 28 and 10.9 % and 11.4 % nonzero in the columns
used; every row has a single nonzero and none is reduced by another.  The
dense ones are the small systems of `fields.coerce_down`, sup.d rows by
sub.d + 1 columns over F_p, one per trace from a flag over a point of
degree >= 2 (`rel_trace`) and one per point found in a field larger than
its own.  Neither workload makes one; a tier-1 run makes 2,174, none larger
than 7 x 2 or 4 x 3.  The sections of a divisor whose negative part is not
a product of lines have rows with several nonzeros too.

Both routines take the rows in order.  A row is reduced on its lowest
column by the pivot row of that column until it is zero or its lowest
column has no pivot row yet; then it becomes that column's pivot row.  A
row with one nonzero and a new column costs one lookup, and the inverse of
a pivot row's leading entry is taken once, when it first reduces a row.
`mat_rank` counts the pivot rows.  `mat_rref` scales each to lead with 1
and clears it at the later pivot columns, from the last pivot column back;
the reduced row-echelon form of a span is unique, so it does not depend on
the order of the rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .fields import FieldDesc

Row = Dict[int, int]
Matrix = List[Row]


def _echelon(rows: Matrix, desc: FieldDesc
             ) -> Tuple[Dict[int, Row], Dict[int, int]]:
    """The pivot rows, by their lowest column, and the inverses of the
    leading entries of those that reduced another row, each taken once;
    the input is unchanged (a row that needs no reduction is kept as it
    is, and one that does is copied before it changes)."""
    pivots: Dict[int, Row] = {}
    inverse: Dict[int, int] = {}
    mul = desc.mul
    for row in rows:
        if not row:
            continue
        c = min(row)
        top = pivots.get(c)
        if top is None:
            pivots[c] = row
            continue
        row = dict(row)
        while top is not None:
            s = inverse.get(c)
            if s is None:
                s = inverse[c] = desc.inv(top[c])
            _subtract(row, mul(row[c], s), top, desc)
            if not row:
                break
            c = min(row)
            top = pivots.get(c)
        else:
            pivots[c] = row
    return pivots, inverse


def _subtract(row: Row, f: int, other: Row, desc: FieldDesc) -> None:
    """row -= f * other, in place; entries that cancel leave the row."""
    mul, sub = desc.mul, desc.sub
    for j, v in other.items():
        x = sub(row.get(j, 0), mul(f, v))
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def mat_rref(rows: Matrix, desc: FieldDesc) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form (its nonzero rows, by pivot column) and the
    pivot columns, ascending; the input is unchanged."""
    pivots, inverse = _echelon(rows, desc)
    cols = sorted(pivots)
    done: Dict[int, Row] = {}
    mul = desc.mul
    for c in reversed(cols):
        row = pivots[c]
        s = inverse.get(c) or desc.inv(row[c])
        row = {j: mul(v, s) for j, v in row.items()}
        # a reduced row is zero at every other pivot column, so clearing
        # one of them touches only columns without a pivot
        for k in [k for k in row if k != c and k in done]:
            _subtract(row, row[k], done[k], desc)
        done[c] = row
    return [done[c] for c in cols], cols


def mat_rank(rows: Matrix, desc: FieldDesc) -> int:
    """The number of pivot rows, len(mat_rref(rows, desc)[1]) (input
    unchanged)."""
    return len(_echelon(rows, desc)[0])
