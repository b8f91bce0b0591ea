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
from itertools import combinations
from math import comb, prod
from typing import Sequence

from . import kernels
from .exact import Poly
from .intlat import (
    IntVec,
    RankDeficientError,
    adjugate,
    det,
    mat_from_cols,
)
from .model import Face, Model

# dilate_counts refuses a simplex whose dilates 1..dim scan more points
# than this in all.  It counts the points of the scanned boxes, an upper
# bound on the kernel's work: a line costs one step, plus one per point
# that passes the range and residue tests when other coordinates are
# tested.  The limit is deliberately kept on the box, a size known from
# the plan before any line is counted.
DILATE_SCAN_LIMIT = 2**20

# The entries of the face simplex's vertex coordinates, shared by every
# coordinate tuple.
_ZERO, _ONE = Fraction(0), Fraction(1)


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
    unit = tuple(tuple(_ONE if j == i else _ZERO for j in range(k)) for i in range(k))
    return LatticeSimplex(ambient_face=face, verts=tuple(cols), coords=unit)


def _dependent(verts: Sequence[IntVec]) -> RankDeficientError:
    return RankDeficientError(f"simplex vertices {list(verts)} are linearly dependent")


class _DilatePlan:
    """How every dilate of one simplex is scanned, fixed once per simplex.

    A point x of the span of the d vertices is determined by its
    coordinates on d rows R where the vertex matrix V has a nonzero minor
    M: its barycentric coordinates are c = adj(M) x_R / det M.  The level
    condition sum(c) = k reads w . x_R = k det M with w = 1^T adj(M), so
    the plan solves it for one row r* of R with w_{r*} != 0 and scans the
    other d - 1 rows.  w_{r*} is, up to sign, the determinant of those
    d - 1 rows of V stacked on a row of ones, and M is nonsingular for
    some r* exactly when the vertices are independent.  Of all such
    choices the plan takes the one whose d - 1 scanned coordinate ranges
    have the smallest product; coordinates that are constant on the
    vertices never qualify.  Everything here but the ranges is
    independent of the dilation factor.
    """

    def __init__(self, verts: Sequence[IntVec]):
        vmat = mat_from_cols(verts)
        n, d = len(vmat), len(verts)
        self.lo = [min(row) for row in vmat]
        self.hi = [max(row) for row in vmat]
        ones = (1,) * d
        by_size = sorted(
            combinations(range(n), d - 1),
            key=lambda rows: prod(self.hi[i] - self.lo[i] + 1 for i in rows),
        )
        for free in by_size:
            if det((*(vmat[i] for i in free), ones)) != 0:
                break
        else:
            raise _dependent(verts)
        for r in range(n):
            minor = (*(vmat[i] for i in free), vmat[r])
            if r not in free and (det_m := det(minor)) != 0:
                break
        else:
            raise _dependent(verts)
        self.free, self.solved = free, r
        adj = adjugate(minor)
        w = [sum(col) for col in zip(*adj)]
        w_s = w[-1]
        # x_{r*} = y0 / q and c = y / m, with the signs folded into y so
        # that q and m are positive.
        sw = 1 if w_s > 0 else -1
        sm = 1 if w_s * det_m > 0 else -1
        self.q, self.m = abs(w_s), abs(w_s * det_m)
        self.unit = [sw * det_m] + [sm * det_m * a[-1] for a in adj]
        self.steps = [
            [-sw * w[j]] + [sm * (w_s * a[j] - w[j] * a[-1]) for a in adj]
            for j in range(d - 1)
        ]
        self.others = [vmat[i] for i in range(n) if i not in free and i != r]

    def scan_size(self, top: int) -> int:
        """Points of the scanned boxes over the dilates 1, ..., top: the
        product of the scanned coordinate ranges, summed.  An upper bound
        on the kernel's steps, which count each line of the first range
        once and test only the points that pass the range and residue
        tests against other coordinates."""
        return sum(
            prod(k * (self.hi[i] - self.lo[i]) + 1 for i in self.free) for k in range(1, top + 1)
        )

    def count(self, k: int) -> int:
        """Lattice points of the k-th dilate, one kernel call."""
        lo = [k * self.lo[i] for i in self.free]
        hi = [k * self.hi[i] for i in self.free]
        start = [
            k * u + sum(step[j] * a for step, a in zip(self.steps, lo))
            for j, u in enumerate(self.unit)
        ]
        bounds = (self.q * k * self.lo[self.solved], self.q * k * self.hi[self.solved])
        return kernels.count_in_dilate(lo, hi, start, self.steps, bounds, self.q, self.others, self.m)


def dilate_counts(sx: LatticeSimplex) -> list[int]:
    """The dim + 1 leading dilate counts l(0 Delta), ..., l(dim Delta),
    by exhaustion, from one plan.

    l(0 Delta) = 1 needs no scan: the zeroth dilate is the origin alone.
    So a one-vertex simplex gives [1] and builds no plan, once its vertex
    is checked to be nonzero.  For the dilates k = 1, ..., dim the plan
    (see ``_DilatePlan``) walks the d - 1 scanned coordinates over the
    integer ranges of the dilated vertices, solves the level condition
    for one more coordinate and keeps the points that are nonnegative
    rational combinations of the vertices with coefficient sum k and
    integer in every coordinate.  The k-th dilate's scanned box is the
    product of those d - 1 coordinate ranges, an upper bound on its cost;
    ValueError, before any point is scanned, when their sum over k
    exceeds :data:`DILATE_SCAN_LIMIT`.
    Exact, and independent of the box-element machinery; this is the
    slow oracle path.  Raises ``RankDeficientError`` on dependent
    vertices.
    """
    if sx.dim == 0:
        if not any(sx.verts[0]):
            raise _dependent(sx.verts)
        return [1]
    plan = _DilatePlan(sx.verts)
    size = plan.scan_size(sx.dim)
    if size > DILATE_SCAN_LIMIT:
        raise ValueError(
            f"the dilates of simplex {list(sx.verts)} scan {size} points, "
            f"above the limit of {DILATE_SCAN_LIMIT}"
        )
    return [1] + [plan.count(k) for k in range(1, sx.dim + 1)]


def count_from_ages(ages: Poly, d: int, k: int) -> int:
    """Level-k lattice points of the cone over d independent vectors whose
    box has age polynomial ``ages``: every point splits uniquely as a box
    element plus a nonnegative integer combination of the vectors, so
    the count is sum_a w_a C(k - a + d - 1, d - 1) over the ages a."""
    return sum(w * comb(k - a + d - 1, d - 1) for a, w in enumerate(ages.coeffs))


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
        value = sum((-1) ** i * comb(d, i) * counts[j - i] for i in range(j + 1))
        if value < 0:
            raise ArithmeticError(
                f"negative numerator coefficient psi_{j} = {value}; dilate counts {counts}"
            )
        psi.append(value)
    return tuple(psi)


def ehrhart_numerator(sx: LatticeSimplex) -> tuple[int, ...]:
    """Numerator coefficients of the dilate series of ``sx``, from its
    first dim + 1 dilate counts (:func:`dilate_counts`: l(0 Delta) = 1,
    the others by brute force within :data:`DILATE_SCAN_LIMIT`); see
    :func:`numerator_from_counts`."""
    return numerator_from_counts(dilate_counts(sx))
