"""Exact linear algebra over the integer lattice Z^n.

Vectors are tuples of ints, matrices are tuples of row tuples.  All
operations are exact and stay in the integers: determinants use
fraction-free elimination, and the triangular basis of a column lattice
comes from integer row operations.  Nothing here ever touches a float.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class RankDeficientError(ValueError):
    """The input columns are linearly dependent over the rationals."""


def as_vec(entries: Sequence[int]) -> IntVec:
    return tuple(int(e) for e in entries)


def as_mat(rows: Sequence[Sequence[int]]) -> IntMat:
    mat = tuple(as_vec(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def transpose(m: IntMat) -> IntMat:
    return tuple(zip(*m)) if m else ()


def mat_from_cols(cols: Sequence[Sequence[int]]) -> IntMat:
    """Matrix whose j-th column is cols[j]."""
    return transpose(as_mat(cols))


def mat_vec(m: IntMat, v: Sequence[int]) -> IntVec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the entries is 1. Rejects the zero vector."""
    g = 0
    for e in v:
        g = gcd(g, e)
    if g == 0:
        raise ValueError("the zero vector has no primitive content")
    return g == 1


def det(m: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
            a[i][c] = 0
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def adjugate(m: IntMat) -> IntMat:
    """Integer adjugate: adjugate(m) @ m = det(m) * I.

    One fraction-free (Bareiss) Gauss-Jordan elimination of [m | I]:
    every row, above the pivot too, is updated by the 2 x 2 rule and
    divided exactly by the previous pivot, so the left block ends as
    d * I and the right block as d * m^-1, where d is the last pivot,
    det(m) up to the sign of the row swaps.  Raises
    :class:`RankDeficientError` for a singular m, which has no pivot in
    some column.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("adjugate requires a square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot_row is None:
            raise RankDeficientError("adjugate of a singular matrix")
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        top = a[c]
        pivot = top[c]
        for i in range(n):
            if i != c:
                row = a[i]
                f = row[c]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def triangular_form(m: IntMat) -> IntMat:
    """Upper-triangular H with a positive diagonal such that U @ m is H
    over zero rows for a unimodular U, by integer row operations only.

    m has n rows and k independent columns, and H is k x k.  Column c is
    cleared below row c by Euclid: the row with the smallest nonzero
    |entry| in the column (the first such row), found by one plain loop
    that skips the zero entries, is swapped into row c, and every row
    below with a nonzero quotient takes its multiples off that pivot,
    until the pivot is alone.  The rows are copied as given,
    unconverted.  Raises :class:`RankDeficientError` for dependent
    columns and ValueError for a ragged matrix.
    """
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    for c in range(ncols):
        while True:
            pivot, least = c, 0
            for r in range(c, nrows):
                x = a[r][c]
                if x:
                    if x < 0:
                        x = -x
                    if not least or x < least:
                        pivot, least = r, x
            if not least:
                raise RankDeficientError("columns are not linearly independent")
            top = a[pivot]
            a[pivot] = a[c]
            a[c] = top
            p = top[c]
            alone = True
            for r in range(c + 1, nrows):
                x = a[r][c]
                if x:
                    q = x // p
                    if q:
                        a[r] = [y - q * z for y, z in zip(a[r], top)]
                    if x != q * p:
                        alone = False
            if alone:
                break
        if a[c][c] < 0:
            a[c] = [-x for x in a[c]]
    return tuple(map(tuple, a[:ncols]))


def lattice_index(cols: Sequence[Sequence[int]]) -> int:
    """Index of the lattice generated by the columns inside its saturation.

    Computed independently of :func:`triangular_form` as the gcd of all
    maximal minors, which is what makes it usable as a cross-check.  The
    minors are read in row order until their gcd reaches 1, the least
    index; later minors cannot change it.
    """
    mat = mat_from_cols(cols)
    nrows = len(mat)
    k = len(cols)
    g = 0
    for rows in itertools.combinations(range(nrows), k):
        sub = tuple(mat[r] for r in rows)
        g = gcd(g, det(sub))
        if g == 1:
            break
    if g == 0:
        raise RankDeficientError("columns are not linearly independent")
    return g
