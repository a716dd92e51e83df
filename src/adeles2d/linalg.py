"""Dense exact linear algebra over finite fields.

Matrices are lists of rows of FieldElem over a shared FieldDesc.  All
routines use deterministic Gauss-Jordan elimination (first nonzero pivot in
column order), so reduced forms, ranks and nullspace bases are reproducible
across runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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


def mat_solve(rows: Matrix, rhs: List[FieldElem], desc: FieldDesc) -> Optional[List[FieldElem]]:
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    rref, pivots = mat_rref(aug, desc)
    # a pivot in the appended column means b is outside the column span
    if ncols in pivots:
        return None
    x = [desc.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][ncols]
    return x


def span_contains(vectors: Matrix, v: List[FieldElem], desc: FieldDesc) -> bool:
    if not vectors:
        return all(c.is_zero() for c in v)
    return mat_rank(vectors, desc) == mat_rank(vectors + [v], desc)


def spans_equal(a: Matrix, b: Matrix, desc: FieldDesc) -> bool:
    ra = mat_rank(a, desc)
    rb = mat_rank(b, desc)
    return ra == rb and mat_rank(a + b, desc) == ra


def span_intersection_dim(a: Matrix, b: Matrix, desc: FieldDesc) -> int:
    """dim(U cap V) = dim U + dim V - dim(U + V)."""
    ra = mat_rank(a, desc)
    rb = mat_rank(b, desc)
    return ra + rb - mat_rank(a + b, desc)


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
