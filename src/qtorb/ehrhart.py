"""Lattice simplices of faces and their dilate point counts.

Every face of positive codimension carries the simplex of points that
are nonnegative rational combinations of its characteristic vectors
with coefficient sum 1.  Counting lattice points of dilates yields the
numerator coefficients of the generating series, which must reproduce
the box-element ages computed independently in :mod:`qtorb.sectors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import kernels
from .exact import Poly, binom
from .intlat import (
    IntVec,
    RankDeficientError,
    adjugate,
    det,
    mat_from_cols,
    transpose,
)
from .model import Face, Model


@dataclass(frozen=True)
class LatticeSimplex:
    """Simplex with lattice-point vertices inside some face simplex.

    ``coords`` gives each vertex as a rational combination of the ambient
    face's characteristic vectors (nonnegative entries, sum 1).  The
    codimension is measured inside the ambient face simplex.
    """

    ambient_face: Face
    verts: tuple[IntVec, ...]
    coords: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.verts) - 1

    @property
    def codim(self) -> int:
        return (self.ambient_face.codim - 1) - self.dim


def face_simplex(face: Face, model: Model) -> LatticeSimplex:
    """The full simplex of a face: its characteristic vectors are the
    vertices, in facet-index order.  Undefined for the whole polytope."""
    if face.codim == 0:
        raise ValueError("the whole polytope carries no face simplex")
    cols = [model.char_vectors[i] for i in face.facet_set]
    k = len(cols)
    unit = tuple(
        tuple(Fraction(1 if j == i else 0) for j in range(k)) for i in range(k)
    )
    return LatticeSimplex(ambient_face=face, verts=tuple(cols), coords=unit)


def dilate_count(sx: LatticeSimplex, k: int) -> int:
    """Number of lattice points of the k-th dilate, by brute force.

    Scans the integer bounding box of the dilated vertices and keeps the
    points that are nonnegative rational combinations of the vertices
    with coefficient sum k.  Exact, and independent of the box-element
    machinery; this is the slow oracle path.
    """
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    verts = sx.verts
    n = len(verts[0])
    lo = [min(k * v[i] for v in verts) for i in range(n)]
    hi = [max(k * v[i] for v in verts) for i in range(n)]
    vmat = mat_from_cols(verts)
    vt = transpose(vmat)
    gram = tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in verts) for row in verts
    )
    det_g = det(gram)
    # The Gram determinant is positive exactly when the vertices are independent.
    if det_g <= 0:
        raise RankDeficientError(f"simplex vertices {list(verts)} are linearly dependent")
    adj = adjugate(gram)
    return kernels.count_in_dilate(
        lo, hi, [list(r) for r in vt], [list(r) for r in adj], det_g, k * det_g,
        [list(r) for r in vmat],
    )


def count_from_ages(ages: Poly, d: int, k: int) -> int:
    """Level-k lattice points of the cone over d independent vectors whose
    box has age polynomial ``ages``: every point splits uniquely as a box
    element plus a nonnegative integer combination of the vectors, so
    the count is sum_a w_a C(k - a + d - 1, d - 1) over the ages a."""
    return sum(w * binom(k - a + d - 1, d - 1) for a, w in enumerate(ages.coeffs))


def numerator_from_counts(counts: Sequence[int]) -> tuple[int, ...]:
    """Numerator coefficients (psi_0, ..., psi_{d-1}) of the dilate series
    from the d leading dilate counts l(0 Delta), ..., l((d-1) Delta).

    The series sum_k l(k Delta) t^k equals (sum_i psi_i t^i) / (1-t)^d
    with d = dim + 1, so d leading counts determine the numerator:
    psi_j = sum_i (-1)^i C(d, i) l((j-i) Delta).  Negative coefficients
    would mean an upstream counting bug and raise immediately.
    """
    d = len(counts)
    psi = []
    for j in range(d):
        value = sum((-1) ** i * binom(d, i) * counts[j - i] for i in range(j + 1))
        if value < 0:
            raise ArithmeticError(
                f"negative numerator coefficient psi_{j} = {value}; dilate counts {counts}"
            )
        psi.append(value)
    return tuple(psi)


def ehrhart_numerator(sx: LatticeSimplex) -> tuple[int, ...]:
    """Numerator coefficients of the dilate series of ``sx``, from its
    first dim + 1 brute-force dilate counts; see
    :func:`numerator_from_counts`."""
    return numerator_from_counts([dilate_count(sx, k) for k in range(sx.dim + 1)])
