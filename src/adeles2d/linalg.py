"""Dense exact linear algebra over finite fields.

Matrices are lists of rows of FieldElem over a shared FieldDesc.  All
routines use deterministic Gauss-Jordan elimination (first nonzero pivot in
column order), so reduced forms, ranks and nullspace bases are reproducible
across runs.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import FieldDesc, FieldElem

Matrix = List[List[FieldElem]]


def mat_rref(rows: Matrix, desc: FieldDesc) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form and pivot column indices (input unchanged)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not mat[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def mat_rank(rows: Matrix, desc: FieldDesc) -> int:
    if not rows:
        return 0
    return len(mat_rref(rows, desc)[1])


def mat_nullspace(rows: Matrix, ncols: int, desc: FieldDesc) -> List[List[FieldElem]]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    if not rows:
        return [[desc.one() if i == j else desc.zero() for i in range(ncols)]
                for j in range(ncols)]
    rref, pivots = mat_rref(rows, desc)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [desc.zero()] * ncols
        v[free] = desc.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][free]
        basis.append(v)
    return basis


def span_intersection(a: Matrix, b: Matrix, ncols: int, desc: FieldDesc) -> Matrix:
    """Canonical (rref) basis of the intersection of two row spans.

    A vector lies in both spans iff it is sum(x_i a_i) = sum(y_j b_j); the
    coefficient pairs (x, -y) form the kernel of the column-stacked matrix.
    """
    if not a or not b:
        return []
    m, k = len(a), len(b)
    stacked = [[a[i][c] for i in range(m)] + [-b[j][c] for j in range(k)]
               for c in range(ncols)]
    coeffs = mat_nullspace(stacked, m + k, desc)
    vecs = []
    for x in coeffs:
        w = [desc.zero()] * ncols
        for i in range(m):
            if not x[i].is_zero():
                for c in range(ncols):
                    w[c] = w[c] + x[i] * a[i][c]
        vecs.append(w)
    if not vecs:
        return []
    rref, pivots = mat_rref(vecs, desc)
    return rref[: len(pivots)]
