"""Combinatorial blowups: face truncation with an extended characteristic
function, the induced subdivisions of face simplices, the end-to-end
check that a crepant blowup preserves the Chen-Ruan Betti numbers, and
the identity suite that runs that check for every crepant candidate.

A blowup replaces the chosen face by a new facet whose characteristic
vector is a positive combination of the vectors meeting at the face.
Combinatorially, every vertex on the face splits into one vertex per
dropped facet; no geometric hyperplane is ever materialized.  One value
describes a blowup, :class:`Blowup`: the model, the face, its weights
and the new vector.  A spec from outside is checked once, by
:func:`make_blowup_spec` (a face of codimension at least 2, one positive
weight per facet, their weighted sum of vectors a primitive integer
vector); :func:`crepant_candidates` builds its Blowups from a quasi-SL
table's box elements, which meet every condition of that check by
construction.
``blow_up``, ``blow_up_table``, ``star_subdivide`` and ``mckay_check``
take a Blowup and check nothing of it again.  The blown-up model is
derived from its base: given a checked blowup, full model validation
could not fail on it, and every new vertex determinant is a weight
times a base one.  The triangulation identities read their cones from
the blown-up model's table by facet set, and build no simplex.  A
crepant blowup of a quasi-SL model is quasi-SL, so every McKay check
reports on the blown-up model.  Full validation of the derived model and
the geometry of the star subdivision and of the triangulations it
induces run as oracles.

Every check lives here, the one module that imports every type a check
takes, and is named once, in :data:`CHECKS`; :func:`passes` is a
report's verdict, and :func:`identity_failures` two calls of
:func:`run_checks`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .cohomology import CrReport, _sum, cr_report, e_torus
from .ehrhart import LatticeSimplex, ehrhart_numerator, face_simplex
from .exact import Poly
from .intlat import IntVec, det, is_primitive, lattice_index
from .model import (
    Face,
    Model,
    ModelValidationError,
    make_model,
    subfaces,
)
from .sectors import LocalGroup, LocalGroupTable, box_by_exhaustion


class BlowupError(ValueError):
    """The blowup data is invalid for the given model."""


def _converted(convert, tokens: Sequence, what: str) -> list:
    """``convert`` of each token, in order; BlowupError naming the first
    token it rejects."""
    out = []
    for token in tokens:
        try:
            out.append(convert(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise BlowupError(f"invalid {what} {str(token)!r}") from exc
    return out


def _weight(token) -> Fraction:
    """A weight token as a Fraction.  A string with an exponent is refused
    before ``Fraction`` expands it: "1e-10000000" would mean computing
    10**(10**7)."""
    if isinstance(token, str) and "e" in token.lower():
        raise ValueError(f"weight with an exponent: {token!r}")
    return Fraction(token)


@dataclass(frozen=True)
class Blowup:
    """A blowup of a model: the face to truncate, one strictly positive
    weight per facet of the face and the new vector, their weighted sum
    of the facets' vectors, a primitive integer vector; weights and
    vector in facet order.  :func:`make_blowup_spec` builds it from a
    spec given from outside, :func:`crepant_candidates` from a table;
    :func:`blow_up`, :func:`blow_up_table`, :func:`star_subdivide` and
    :func:`mckay_check` take it and check nothing of it again."""

    model: Model = field(repr=False)
    face: Face
    weights: tuple[Fraction, ...]
    lambda0: IntVec


def make_blowup_spec(model: Model, face_indices: Sequence, weights: Sequence) -> Blowup:
    """The one check of a blowup spec against a model.  The facet indices
    are integers or their strings; the weights pair with them in the
    order given and are rationals or their strings: an integer, "p/q" or
    a plain decimal such as "0.5", without an exponent.  The face is
    found by one scan of the vertices, and the :class:`Blowup` holds it,
    each weight moved with its facet into facet order, and the new
    vector, the weighted sum of the facets' vectors.  BlowupError names
    the first fault, in this order: a facet index token is not an
    integer; the facets are not a face (no vertex holds them all); its
    codimension is below 2; a weight token is not a rational; the
    weights are not one per facet; a weight is not strictly positive;
    the weighted sum has an entry of more digits than Python prints
    (``sys.get_int_max_str_digits()``, 0 or absent for no limit); the
    sum is not integral, named by the face and the positions of its
    fractional coordinates; it is not primitive."""
    facets = _converted(int, face_indices, "facet index")
    key = tuple(sorted(facets))
    cut = set(key)
    on_face = tuple(vid for vid, vertex in enumerate(model.vertices) if cut.issubset(vertex))
    if len(cut) != len(key) or not on_face:
        raise BlowupError(f"{list(key)} is not a face of the model")
    if len(key) < 2:
        raise BlowupError(
            f"blowup requires a face of codimension >= 2, got codimension {len(key)}"
        )
    ws = _converted(_weight, weights, "weight")
    if len(ws) != len(key):
        raise BlowupError(f"expected {len(key)} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise BlowupError("blowup weights must be strictly positive")
    ws = [w for _, w in sorted(zip(facets, ws))]
    # The sum as integer numerators over one common denominator.
    denom = math.lcm(*(w.denominator for w in ws))
    scaled = [w.numerator * (denom // w.denominator) for w in ws]
    cols = [model.char_vectors[i] for i in key]
    sums = [sum(s * col[r] for s, col in zip(scaled, cols)) for r in range(model.n)]
    point = tuple(t // denom for t in sums)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # An entry of at most 3 bits per digit is short, as 8**limit < 10**limit.
    if limit and any(abs(c).bit_length() > 3 * limit and abs(c) >= 10**limit for c in point):
        raise BlowupError(
            f"new characteristic vector on face {list(key)} has an entry of more than "
            f"{limit} digits, the limit for printing an integer"
        )
    fractional = [r for r, t in enumerate(sums) if t % denom]
    if fractional:
        raise BlowupError(
            f"new characteristic vector on face {list(key)} is not integral "
            f"at coordinates {fractional}"
        )
    if not is_primitive(point):
        raise BlowupError(f"new characteristic vector {list(point)} is not primitive")
    face = Face(facet_set=key, dim=model.n - len(key), vertex_ids=on_face)
    return Blowup(model, face, tuple(ws), point)


def is_crepant(blowup: Blowup) -> bool:
    """True iff the weights sum to exactly 1."""
    return sum(blowup.weights) == 1


def _crepant(blowup: Blowup) -> None:
    """BlowupError unless ``blowup`` is crepant: the refusal of
    ``star_subdivide`` and ``mckay_check``."""
    if not is_crepant(blowup):
        raise BlowupError(
            f"weights sum to {sum(blowup.weights)}, expected 1 for a crepant blowup"
        )


def blow_up(blowup: Blowup) -> Model:
    """Truncate the face: one extra facet m, and every vertex v containing
    the face splits into one vertex (v - {j}) + {m} per facet j of the
    face.  The model is derived from the checked one without validating
    it afresh: the new vector is the weighted sum, so by
    multilinearity the split vertex's determinant is w_j det(v), signed
    by moving the new column from j's position to the end; every other
    vertex keeps its determinant.  A :class:`Blowup` holds a face of
    codimension at least 2, one strictly positive weight per facet, and
    the new vector, a primitive integer vector.  Given these, no vertex
    repeats, every facet stays in use and no determinant vanishes, so
    full validation, the oracle :func:`validated_blowup`, cannot fail."""
    model, face = blowup.model, blowup.face
    n, new = model.n, model.m
    weight = dict(zip(face.facet_set, blowup.weights))
    split_ids = set(face.vertex_ids)
    rows = [row for vid, row in enumerate(zip(model.vertices, model.vertex_dets)) if vid not in split_ids]
    for vid in face.vertex_ids:
        vertex, d = model.vertices[vid], model.vertex_dets[vid]
        for pos, j in enumerate(vertex):
            if j in weight:
                # w_j det(v) is an integer; the new column moves to the end
                # past the n - 1 - pos columns after position pos.
                w = weight[j]
                sign = -1 if (n - 1 - pos) % 2 else 1
                split = vertex[:pos] + vertex[pos + 1:] + (new,)
                rows.append((split, sign * d * w.numerator // w.denominator))
    rows.sort()
    vertices, vertex_dets = zip(*rows)
    return Model(
        n=n,
        m=new + 1,
        vertices=vertices,
        char_vectors=model.char_vectors + (blowup.lambda0,),
        name=model.name,
        vertex_dets=vertex_dets,
    )


def blow_up_table(table: LocalGroupTable, blowup: Blowup) -> LocalGroupTable:
    """The table of the blown-up model.  Faces away from the new facet
    keep the groups ``table`` has built; only the faces on it are new."""
    return LocalGroupTable(blow_up(blowup), table)


def crepant_candidates(table: LocalGroupTable) -> list[Blowup]:
    """Every crepant blowup the table's model admits: interior box
    elements of age exactly 1, over all faces of codimension at least 2,
    on the table's own Face.  The model must be quasi-SL, and a table
    that is not raises :class:`NonIntegralAgeError` first
    (:meth:`LocalGroupTable.ensure_quasi_sl`).  Each candidate meets
    every condition :func:`make_blowup_spec` checks, so none is checked
    again: the face is one of the table's, of codimension at least 2; an
    interior element has one coefficient per facet, each in (0, 1); and
    its point, the weighted sum, is integral by construction
    (``LocalGroup._point``).

    The point is primitive too, so no filter tests it.  Suppose
    p = sum(c_j * lambda_j), with every c_j in (0, 1) and sum(c_j) = 1,
    were d * q for some d >= 2 and q in the lattice.  Then
    q = sum((c_j / d) * lambda_j) with every coefficient in (0, 1 / d),
    so q is a box element of the face of age 1 / d, and a quasi-SL
    model has no box element of fractional age."""
    table.ensure_quasi_sl()
    out = []
    for group in table.groups:
        if group.face.codim < 2:
            continue
        for i in group.interior:
            if sum(group.numerators[i]) == group.exponent:
                element = group.box_element(i)
                out.append(Blowup(table.model, group.face, element.coeffs, element.point))
    return out


@dataclass(frozen=True)
class Subdivision:
    """Triangulation of a face simplex with its interior simplices singled out."""

    ambient_face: Face
    simplices: tuple[LatticeSimplex, ...]
    interior: tuple[LatticeSimplex, ...]


def _maximal_volumes(
    ambient_face: Face, simplices: Sequence[LatticeSimplex]
) -> tuple[list[int], int]:
    """Volume of each maximal simplex, relative to the face simplex, as
    integers over one whole: with D the common denominator of the
    coordinates and k = codim, each volume is the determinant of its
    coordinates' numerators over D, and the whole is D^k."""
    k = ambient_face.codim
    maximal = [sx for sx in simplices if sx.dim == k - 1]
    denom = math.lcm(*(c.denominator for sx in maximal for coord in sx.coords for c in coord))
    volumes = []
    for sx in maximal:
        rows = tuple(
            tuple(c.numerator * (denom // c.denominator) for c in coord) for coord in sx.coords
        )
        volumes.append(abs(det(rows)))
    return volumes, denom**k


def _validated_subdivision(
    ambient_face: Face, simplices: Sequence[LatticeSimplex]
) -> Subdivision:
    """Checks containment in the face simplex, closure under faces, and
    exact volume bookkeeping (maximal simplex volumes sum to the whole).

    Each coordinate tuple is checked once.  The builders share one tuple
    per vertex among the simplices holding it, so tuples are told apart
    by identity: hashing their Fractions would cost about as much as
    checking them.  Closure is checked through the facets of each
    simplex: if every simplex's facets are present, so is every nonempty
    face, by induction on dimension."""
    by_verts = {frozenset(sx.verts) for sx in simplices}
    # Support of each checked coordinate tuple, one bit per facet position.
    support: dict[int, int] = {}
    for sx in simplices:
        for coord in sx.coords:
            if id(coord) in support:
                continue
            if any(c < 0 for c in coord) or sum(coord) != 1:
                raise ValueError(f"vertex {coord} lies outside the face simplex")
            support[id(coord)] = sum(1 << i for i, c in enumerate(coord) if c)
        if len(sx.verts) > 1:
            verts = frozenset(sx.verts)
            if any(verts - {v} not in by_verts for v in verts):
                raise ValueError("subdivision is not closed under faces")
    volumes, whole = _maximal_volumes(ambient_face, simplices)
    if sum(volumes) != whole:
        volume = Fraction(sum(volumes), whole)
        raise ValueError(f"maximal simplices cover volume {volume}, expected 1")
    # A simplex meets the relative interior iff its vertices' supports
    # jointly cover every facet position of the ambient face.
    whole_face = (1 << ambient_face.codim) - 1

    def meets_interior(sx: LatticeSimplex) -> bool:
        covered = 0
        for coord in sx.coords:
            covered |= support[id(coord)]
        return covered == whole_face

    ordered = tuple(sorted(simplices, key=lambda sx: (len(sx.verts), sx.verts)))
    interior = tuple(sx for sx in ordered if meets_interior(sx))
    return Subdivision(ambient_face=ambient_face, simplices=ordered, interior=interior)


def star_subdivide(blowup: Blowup) -> Subdivision:
    """Star subdivision of the checked face's simplex at the new vector,
    validated whole: the oracle for the cones that ``mckay_check`` reads
    (:func:`star_subdivision`).

    The blowup must be crepant: its weights, strictly positive with sum
    1, are the point's coordinates on the face simplex.  Maximal
    simplices swap the point in for each vertex in turn; all their
    faces join them.
    """
    _crepant(blowup)
    face = blowup.face
    whole = face_simplex(face, blowup.model)
    pool_points = whole.verts + (blowup.lambda0,)
    pool_coords = whole.coords + (blowup.weights,)
    k = face.codim
    apex = k
    vertex_sets: set[tuple[int, ...]] = set()
    for drop in range(k):
        maximal = tuple(sorted(set(range(k)) - {drop})) + (apex,)
        for r in range(1, len(maximal) + 1):
            vertex_sets.update(itertools.combinations(maximal, r))
    simplices = [
        LatticeSimplex(
            ambient_face=face,
            verts=tuple(pool_points[i] for i in idx),
            coords=tuple(pool_coords[i] for i in idx),
        )
        for idx in sorted(vertex_sets)
    ]
    return _validated_subdivision(face, simplices)


def _star_cones(face: Face, sub: Face, m: int) -> list[tuple[int, tuple[int, ...]]]:
    """(codimension, blown facet set) of each cone that the identity of
    ``sub``, a subface of ``face``, reads after the blowup of ``face`` at
    the new facet m: I + ``sub``'s other facets + m, of codimension
    k - 1 - |I|, for each proper subset I of ``face``'s k facets.  A
    stellar subdivision at a point with positive weights is a
    triangulation whose interior simplices join the point with each
    proper subset of the k vectors; nothing is validated."""
    k = face.codim
    others = tuple(i for i in sub.facet_set if i not in face.facet_set)
    return [
        (k - 1 - r, tuple(sorted(subset + others)) + (m,))
        for r in range(k)
        for subset in itertools.combinations(face.facet_set, r)
    ]


def _subdivision_cones(
    interior: Sequence[LatticeSimplex], sub: Face, lambda0: IntVec, model: Model
) -> list[tuple[int, tuple[int, ...]]]:
    """The sorted (codimension, blown facet set) of each simplex in
    ``interior``, those of a triangulation of ``sub``'s simplex through
    the new vector ``lambda0`` that meet its interior: ``sub``'s vectors,
    which are independent, map to their facets and the new one, a
    positive combination of at least two of them, to m."""
    facet = {model.char_vectors[i]: i for i in sub.facet_set}
    facet[lambda0] = model.m
    return sorted((sx.codim, tuple(sorted(facet[v] for v in sx.verts))) for sx in interior)


def induced_triangulation(subface: Face, tau: Subdivision, model: Model) -> Subdivision:
    """Extend a triangulation of a face simplex to a subface's simplex.

    Simplices are joins of a simplex of the given triangulation (or
    nothing) with any subset of the subface's extra characteristic
    vectors.  For the subdivided face itself this returns the input.
    """
    parent = tau.ambient_face
    if not set(parent.facet_set) <= set(subface.facet_set):
        raise ValueError(
            f"{list(subface.facet_set)} is not a subface of {list(parent.facet_set)}"
        )
    if subface.facet_set == parent.facet_set:
        return tau
    extra = [i for i in subface.facet_set if i not in set(parent.facet_set)]
    # The subface's columns are independent and contain the parent's, so
    # a vertex keeps its parent coordinates at the parent facets'
    # positions, and each extra vector is a unit vector: nothing to solve.
    k = subface.codim
    position = {i: p for p, i in enumerate(subface.facet_set)}
    coords: dict[IntVec, tuple[Fraction, ...]] = {}
    for sx in tau.simplices:
        for v, parent_coords in zip(sx.verts, sx.coords):
            full = [Fraction(0)] * k
            for i, c in zip(parent.facet_set, parent_coords):
                full[position[i]] = c
            coords[v] = tuple(full)
    for i in extra:
        unit = [Fraction(0)] * k
        unit[position[i]] = Fraction(1)
        coords[model.char_vectors[i]] = tuple(unit)

    simplices = []
    theta_options: list[tuple[IntVec, ...]] = [()]
    theta_options.extend(sx.verts for sx in tau.simplices)
    for theta in theta_options:
        for r in range(len(extra) + 1):
            for beta in itertools.combinations(extra, r):
                if not theta and not beta:
                    continue
                verts = tuple(theta) + tuple(model.char_vectors[i] for i in beta)
                simplices.append(
                    LatticeSimplex(
                        ambient_face=subface, verts=verts, coords=tuple(coords[v] for v in verts)
                    )
                )
    return _validated_subdivision(subface, simplices)


@dataclass(frozen=True)
class TriangulationCheck:
    """One instance of the age-polynomial refinement identity."""

    face: Face
    lhs: Poly
    rhs: Poly

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def check_triangulation_identity(
    face: Face,
    cones: Iterable[tuple[int, tuple[int, ...]]],
    groups: LocalGroupTable,
    blown: LocalGroupTable,
) -> TriangulationCheck:
    """The age polynomial of a face simplex must equal the sum, over the
    simplices of its triangulation that meet its interior, of
    (s-1)^codim times the age polynomial of the cone over the simplex.

    ``cones`` holds each such simplex as its codimension and the facet
    set of its cone in ``blown``'s model (the blown-up one, for a star
    subdivision and the triangulations it induces).  The face side is
    read from ``groups``, the model's table, and each cone from ``blown``
    by facet set; ValueError names one that is not a face there.  The
    cones' age polynomials are summed per codimension first, and each
    sum is multiplied by (s-1)^codim once: k products for a face of
    codimension k, not one per cone."""
    lhs = groups.group(face).age_polynomial
    by_codim: dict[int, list[Poly]] = {}
    for codim, facets in cones:
        by_codim.setdefault(codim, []).append(blown._group(facets).age_polynomial)
    rhs = _sum(e_torus(codim) * _sum(ages) for codim, ages in by_codim.items())
    return TriangulationCheck(face=face, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class McKayReport:
    """Everything the crepant-blowup invariance check produces: the
    :class:`Blowup` (the model ``before`` reports on, the face, the
    weights and the new vector), the blown-up model's report, whose
    table is ``after.groups``, and the triangulation identity of every
    subface of the face.  Its verdict is :func:`passes`."""

    before: CrReport
    blowup: Blowup
    after: CrReport
    triangulation_checks: tuple[TriangulationCheck, ...]

    @property
    def blown(self) -> Model:
        return self.after.groups.model


def mckay_check(
    before: CrReport, blowup: Blowup, lender: LocalGroupTable | None = None
) -> McKayReport:
    """Blow up the model that ``before`` reports on, compute the
    Chen-Ruan polynomial of the blown-up model by all three routes, and
    run the triangulation identity on the subdivided face simplex and on
    every subface's simplex.  The report holds ``blowup``, whose model,
    face and new vector the oracles read.  BlowupError refuses, before
    anything is built, a blowup that is not crepant and then one checked
    against another model than ``before``'s.  A crepant blowup of a
    quasi-SL model is quasi-SL: at each vertex the age functional is 1
    on every vector, so on the new one, a combination with weights of
    sum 1.  A blown-up model that is not would be refused, by
    :func:`cr_report`, with NonIntegralAgeError.  Each identity reads its
    cones from the blown-up table by facet set (:func:`_star_cones`) and
    builds no simplex.  The validated star subdivision and each
    validated induced triangulation are built only by the oracle
    :func:`star_subdivision`.

    The blown-up table is :func:`blow_up_table`'s, built on ``lender``,
    a table in the same dimension (``before``'s when it is None): it
    takes the groups the lender has built whose facet set and columns it
    shares (:class:`LocalGroupTable`).  :func:`identity_failures` lends
    the blown-up table of the previous blowup of the same face, whose
    face lattice is this one's."""
    _crepant(blowup)
    face, groups = blowup.face, before.groups
    if blowup.model != groups.model:
        raise BlowupError(f"the blowup of {list(face.facet_set)} was checked against another model than the report's")
    # The faces on the new facet are the interior cones of the
    # triangulations below.
    after = cr_report(blow_up_table(lender or groups, blowup))
    checks = tuple(
        check_triangulation_identity(sub, _star_cones(face, sub, blowup.model.m), groups, after.groups)
        for sub in subfaces(face, groups.faces)
    )
    return McKayReport(before, blowup, after, checks)


def named_identities(report: CrReport) -> Iterator[str]:
    """Each named identity of the report holds: its two sides in
    :attr:`CrReport.identity_sides` are equal.  The last two hold
    exactly when the three Chen-Ruan routes agree, so no other check
    compares the routes."""
    for name, lhs, rhs in report.identity_sides:
        if lhs != rhs:
            yield f"identity {name} fails ({lhs} != {rhs})"


def age_partition(report: CrReport) -> Iterator[str]:
    """Each face's age polynomial is the sum of the interior age
    polynomials of the faces containing it (:func:`check_age_partition`)."""
    for face, ok in report.morestrat:
        if not ok:
            yield f"age partition fails at face {list(face.facet_set)}"


def orbifold_euler_number(report: CrReport) -> Iterator[str]:
    """The Chen-Ruan Betti numbers add up to the orbifold Euler number,
    PP_CR(1) = the sum of |det| over the vertices, as validation
    computed them: each vertex box has |det| elements and is partitioned
    by the interiors of the faces through the vertex, and a sector of a
    face adds one Betti number per vertex of the face."""
    total = sum(report.pp_cr.coeffs)
    euler = sum(map(abs, report.groups.model.vertex_dets))
    if total != euler:
        yield f"the Chen-Ruan Betti numbers sum to {total}, not the orbifold Euler number {euler}"


def poincare_duality(report: CrReport) -> Iterator[str]:
    """Chen-Ruan Poincare duality: PP_CR is palindromic of degree n.  The
    inverse of an interior element of age a at a face of codimension k
    is interior there too, of age k - a, and the face's h-vector is
    palindromic of degree n - k."""
    coeffs, n = report.pp_cr.coeffs, report.groups.model.n
    if len(coeffs) != n + 1 or coeffs != coeffs[::-1]:
        yield f"the Chen-Ruan polynomial {list(coeffs)} is not palindromic of degree {n}"


def dehn_sommerville(report: CrReport) -> Iterator[str]:
    """PP, the simple polytope's h-polynomial, is palindromic of degree n
    (Dehn-Sommerville), and PP(1) is the number of vertices."""
    coeffs, n, f0 = report.pp.coeffs, report.groups.model.n, len(report.groups.model.vertices)
    if len(coeffs) != n + 1 or coeffs != coeffs[::-1] or sum(coeffs) != f0:
        yield f"PP {list(coeffs)} is not palindromic of degree {n} with sum {f0}, the vertex count"


def blown_up_report(mckay: McKayReport) -> Iterator[str]:
    """The blown-up model's report passes every report check."""
    for text in run_checks({"report": (mckay.after,)}):
        yield f"blown-up model: {text}"


def betti_numbers_kept(mckay: McKayReport) -> Iterator[str]:
    """The blowup keeps the Chen-Ruan polynomial: the McKay correspondence."""
    if mckay.before.pp_cr != mckay.after.pp_cr:
        yield f"changes the Betti numbers ({mckay.before.pp_cr} != {mckay.after.pp_cr})"


def triangulation_identities(mckay: McKayReport) -> Iterator[str]:
    """The triangulation identity of every subface of the face holds."""
    for check in mckay.triangulation_checks:
        if not check.passed:
            yield f"triangulation identity fails at {list(check.face.facet_set)} ({check.lhs} != {check.rhs})"


def vertex_orders(table: LocalGroupTable, groups: Sequence[LocalGroup]) -> Iterator[str]:
    """Each vertex group's order is the |det| of its columns, as
    validation computed it by Bareiss elimination, independent of the
    triangular basis the group came from.  The table reads the same
    determinants: a face is smooth when some vertex through it has
    |det| = 1."""
    model = table.model
    for vertex in groups:
        if vertex.face.codim != model.n:
            continue
        index = abs(model.vertex_dets[vertex.face.vertex_ids[0]])
        if vertex.order != index:
            yield f"group order {vertex.order} is not |det| {index} at vertex {list(vertex.face.facet_set)}"


def box_partition(table: LocalGroupTable, groups: Sequence[LocalGroup]) -> Iterator[str]:
    """Each vertex box is partitioned by the interiors of the faces
    through the vertex: the points agree as multisets.  A group's points
    are computed once per call, though a sector group of positive
    dimension is a piece at each of its vertices."""
    interior_points: dict[tuple[int, ...], list[IntVec]] = {}
    for vertex in groups:
        face = vertex.face
        if face.codim != table.model.n:
            continue
        points = vertex.point_rows(range(vertex.order))
        interior_points[face.facet_set] = [points[i] for i in vertex.interior]
        parts = []
        for other in table.sector_groups_containing(face):
            key = other.face.facet_set
            if key not in interior_points:
                interior_points[key] = other.point_rows(other.interior)
            parts += interior_points[key]
        if sorted(points) != sorted(parts):
            yield f"box partition fails at vertex {list(face.facet_set)}"


# The oracles enumerate each box and each dilate point by point; they skip
# the faces whose lattice index (not the group order they check) is above
# this bound.
ORACLE_MAX_ORDER = 200


def box_enumeration(table: LocalGroupTable, groups: Sequence[LocalGroup]) -> Iterator[str]:
    """Oracle: each proper face's group order is the lattice index of
    its columns, and its box, of index at most :data:`ORACLE_MAX_ORDER`,
    is the one the exhaustive search by that index finds."""
    for group in groups:
        face = group.face
        if face.codim == 0 or (index := lattice_index(group.columns)) > ORACLE_MAX_ORDER:
            continue
        if group.order != index:
            yield f"group order {group.order} is not the lattice index {index} at {list(face.facet_set)}"
        exhaustive = box_by_exhaustion(group.columns, table.model.n, index)
        if [replace(e, face=face) for e in exhaustive] != group.box_elements():
            yield f"box enumeration disagrees with exhaustion at {list(face.facet_set)}"


def dilate_numerators(table: LocalGroupTable, groups: Sequence[LocalGroup]) -> Iterator[str]:
    """Oracle: each proper face's dilate-series numerator, from
    brute-force dilate counts, is its age polynomial; faces whose
    lattice index is above :data:`ORACLE_MAX_ORDER` are skipped."""
    for group in groups:
        face = group.face
        if face.codim == 0 or lattice_index(group.columns) > ORACLE_MAX_ORDER:
            continue
        psi = ehrhart_numerator(face_simplex(face, table.model))
        w_coeffs = group.age_polynomial.coeffs
        if tuple(psi[: len(w_coeffs)]) != w_coeffs or any(p for p in psi[len(w_coeffs):]):
            yield f"dilate-series numerator {list(psi)} does not match ages at {list(face.facet_set)}"


def star_subdivision(mckay: McKayReport) -> Iterator[str]:
    """Oracle: the validated star subdivision tau of ``mckay``'s blowup,
    built once, has the interior whose cones ``mckay`` read for the face
    of the blowup; and each subface's triangulation sum in ``mckay``
    equals the one read from the validated induced triangulation, built
    whole from tau."""
    model, face, lambda0 = mckay.blowup.model, mckay.blowup.face, mckay.blowup.lambda0
    tau = star_subdivide(mckay.blowup)
    derived = _star_cones(face, face, model.m)
    if sorted(derived) != _subdivision_cones(tau.interior, face, lambda0, model):
        yield (
            f"the derived interior of the star subdivision of {list(face.facet_set)} "
            f"({len(derived)} simplices) is not the validated one "
            f"({len(tau.interior)} simplices)"
        )
    lazy = {check.face: check.rhs for check in mckay.triangulation_checks}
    for sub in subfaces(face, mckay.before.groups.faces):
        induced = induced_triangulation(sub, tau, model)
        cones = _subdivision_cones(induced.interior, sub, lambda0, model)
        rhs = check_triangulation_identity(sub, cones, mckay.before.groups, mckay.after.groups).rhs
        if lazy.get(sub) != rhs:
            yield (
                f"the induced triangulation of {list(sub.facet_set)} sums to {rhs}, "
                f"the star subdivision's join to {lazy.get(sub)}"
            )


def validated_blowup(mckay: McKayReport) -> Iterator[str]:
    """Oracle: the blown-up model in ``mckay``, derived from its base by
    :func:`blow_up`, is the model full validation makes of its vertices
    and vectors, with the same vertex determinants, which model equality
    ignores."""
    blown = mckay.blown
    try:
        validated = make_model(blown.n, blown.m, blown.vertices, blown.char_vectors, name=blown.name)
    except ModelValidationError as exc:
        yield f"the derived blown-up model fails validation: {exc}"
        return
    if validated != blown:
        yield "the derived blown-up model's vertices are not in validation's order"
    elif validated.vertex_dets != blown.vertex_dets:
        yield (
            f"the derived vertex determinants {list(blown.vertex_dets)} are not "
            f"validation's {list(validated.vertex_dets)}"
        )


# Every check, once, as (level, oracle, check), in the order failures are
# reported.  The level names what a check takes: a Chen-Ruan report
# ("report"), a table and the groups of the faces to check ("table"), or
# a McKay report ("mckay").  An oracle runs only on request.  A check's
# name is its function's __name__, and it yields failure texts.
CHECKS = (
    ("report", False, named_identities),
    ("report", False, age_partition),
    ("report", False, orbifold_euler_number),
    ("report", False, poincare_duality),
    ("report", False, dehn_sommerville),
    ("mckay", False, blown_up_report),
    ("mckay", False, betti_numbers_kept),
    ("mckay", False, triangulation_identities),
    ("table", False, vertex_orders),
    ("table", False, box_partition),
    ("table", True, box_enumeration),
    ("table", True, dilate_numerators),
    ("mckay", True, validated_blowup),
    ("mckay", True, star_subdivision),
)


def run_checks(subjects: dict[str, tuple], include_oracle: bool = False) -> Iterator[str]:
    """The failure texts of every check of :data:`CHECKS` whose level has
    arguments in ``subjects``, called with them, in the registry's order;
    the oracles only with ``include_oracle``."""
    for level, oracle, check in CHECKS:
        if level in subjects and (include_oracle or not oracle):
            yield from check(*subjects[level])


def passes(report: CrReport | McKayReport) -> bool:
    """True iff no check but the oracles fails: on a Chen-Ruan report,
    the report checks; on a McKay report, those of the report before the
    blowup and the McKay checks."""
    mckay = isinstance(report, McKayReport)
    subjects = {"report": (report.before,), "mckay": (report,)} if mckay else {"report": (report,)}
    return next(run_checks(subjects), None) is None


def identity_failures(table: LocalGroupTable, include_oracle: bool = False) -> list[str]:
    """Run the full identity suite on the model of one table, the table
    its caller built (``generate_test_tables`` for ``qtorb fuzz``);
    returns failure messages.

    Two calls of :func:`run_checks` do it, the oracles only with
    ``include_oracle``.  The base model's report runs the report checks
    and its table the table checks on every face.  Every crepant
    candidate, a :class:`Blowup` built from the table
    (:func:`crepant_candidates`) and so not checked again, runs its McKay
    check, whose report runs the McKay checks, and the blown-up table
    runs the table checks on the faces of the new facet, the others
    being the base table's.  These are reported with the blowup, in the
    order of :data:`CHECKS`.

    A blown-up model's vertex list depends on the face alone, and
    :func:`crepant_candidates` yields the candidates of one face one
    after another.  So each blown-up table after the first at a face is
    built on the one before it, whose report has built every group: the
    two share one face lattice, and the groups off the new facet.  The
    first at a face is built on the base table.  At most two blown-up
    tables are alive at a time.
    """
    model = table.model
    label = model.name or "<model>"
    report = cr_report(table)
    base = {"report": (report,), "table": (table, table.groups)}
    failures = [f"{label}: {text}" for text in run_checks(base, include_oracle)]
    mckay = None
    for blowup in crepant_candidates(table):
        lender = mckay.after.groups if mckay is not None and mckay.blowup.face == blowup.face else None
        mckay = mckay_check(report, blowup, lender)
        prefix = f"{label}: crepant blowup at {list(blowup.face.facet_set)}"
        blown = mckay.after.groups
        on_new_facet = [g for g in blown.groups if model.m in g.face.facet_set]
        subjects = {"mckay": (mckay,), "table": (blown, on_new_facet)}
        failures += [f"{prefix}: {text}" for text in run_checks(subjects, include_oracle)]
    return failures
