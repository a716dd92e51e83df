"""Dense exact linear algebra over finite fields.

Matrices are lists of rows of element codes over a shared FieldDesc.
`mat_rref` is Gauss-Jordan elimination and `mat_rank` is forward
elimination, which clears below each pivot only and never scales a row.
Both take the first nonzero pivot in column order, so reduced forms and
ranks are reproducible across runs.
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
    """The number of pivots of `mat_rref(rows, desc)` (input unchanged)."""
    mul, neg, inv = desc.mul, desc.neg, desc.inv
    mat = list(rows)  # a row that changes is replaced, never written to
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if mat[piv][c]:
                break
        else:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        scale = neg(inv(top[c]))
        # columns up to c are never read again: a changed row has zeros there
        tail = top[c + 1:]
        lead = [0] * (c + 1)
        for i in range(r + 1, nrows):
            f = mat[i][c]
            if f:
                mat[i] = lead + desc.axpy(mul(f, scale), tail, mat[i][c + 1:])
        r += 1
        if r == nrows:
            break
    return r
