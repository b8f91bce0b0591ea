"""Exact linear algebra over the integer lattice Z^n.

Vectors are tuples of ints, matrices are tuples of row tuples.  All
operations are exact: determinants use fraction-free elimination, the
triangular basis of a column lattice comes from integer row operations,
and rational solves run over :class:`fractions.Fraction`.  Nothing here
ever touches a float.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class OutsideSpanError(ValueError):
    """The target vector is not in the rational span of the basis."""


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
    """Integer adjugate: adjugate(m) @ m = det(m) * I."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("adjugate requires a square matrix")
    if n == 0:
        return ()
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != j)
                for r in range(n)
                if r != i
            )
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return tuple(map(tuple, adj))


def triangular_form(m: IntMat) -> IntMat:
    """Upper-triangular H with a positive diagonal such that U @ m is H
    over zero rows for a unimodular U, by integer row operations only.

    m has n rows and k independent columns, and H is k x k.  Column c is
    cleared below row c by Euclid: the row with the smallest nonzero
    entry in the column (the first such row) is swapped into row c, and
    every row below takes its multiples off that pivot, until the pivot
    is alone.  The rows are copied as given, unconverted.  Raises
    :class:`RankDeficientError` for dependent columns and ValueError for
    a ragged matrix.
    """
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    for c in range(ncols):
        alone = False
        while not alone:
            pivot = min(
                (r for r in range(c, nrows) if a[r][c]), key=lambda r: abs(a[r][c]), default=None
            )
            if pivot is None:
                raise RankDeficientError("columns are not linearly independent")
            a[c], a[pivot] = a[pivot], a[c]
            top = a[c]
            alone = True
            for r in range(c + 1, nrows):
                q = a[r][c] // top[c]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], top)]
                alone = alone and not a[r][c]
        if a[c][c] < 0:
            a[c] = [-x for x in a[c]]
    return tuple(map(tuple, a[:ncols]))


def coords_in_basis(basis: IntMat, w: Sequence[int]) -> tuple[Fraction, ...]:
    """Unique rationals c with basis @ c = w.

    Raises :class:`RankDeficientError` for dependent columns and
    :class:`OutsideSpanError` when w is not in the rational column span.
    """
    nrows = len(basis)
    k = len(basis[0]) if nrows else 0
    if len(w) != nrows:
        raise ValueError("dimension mismatch")
    aug = [[Fraction(basis[i][j]) for j in range(k)] + [Fraction(w[i])] for i in range(nrows)]
    row = 0
    for col in range(k):
        pivot_row = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise RankDeficientError("columns are not linearly independent")
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, nrows):
        if aug[r][k] != 0:
            raise OutsideSpanError(f"{tuple(w)} is outside the column span")
    return tuple(aug[i][k] for i in range(k))


def lattice_index(cols: Sequence[Sequence[int]]) -> int:
    """Index of the lattice generated by the columns inside its saturation.

    Computed independently of :func:`triangular_form` as the gcd of all
    maximal minors, which is what makes it usable as a cross-check.
    """
    mat = mat_from_cols(cols)
    nrows = len(mat)
    k = len(cols)
    g = 0
    for rows in itertools.combinations(range(nrows), k):
        sub = tuple(mat[r] for r in rows)
        g = gcd(g, det(sub))
    if g == 0:
        raise RankDeficientError("columns are not linearly independent")
    return g
