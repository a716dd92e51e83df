"""Dense exact linear algebra over finite fields.

Matrices are lists of rows of element codes over a shared FieldDesc.  All
routines use deterministic Gauss-Jordan elimination (first nonzero pivot in
column order), so reduced forms and ranks are reproducible across runs.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import FieldDesc

Matrix = List[List[int]]


def mat_rref(rows: Matrix, desc: FieldDesc) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form and pivot column indices (input unchanged)."""
    mul, neg = desc.mul, desc.neg
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = desc.inv(mat[r][c])
        top = mat[r] = [mul(v, inv) for v in mat[r]]
        # the pivot row is zero left of c: only columns from c on change
        for i in range(nrows):
            f = mat[i][c]
            if f and i != r:
                mat[i][c:] = desc.axpy(neg(f), top[c:], mat[i][c:])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def mat_rank(rows: Matrix, desc: FieldDesc) -> int:
    if not rows:
        return 0
    return len(mat_rref(rows, desc)[1])

