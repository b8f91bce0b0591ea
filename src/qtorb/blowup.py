"""Combinatorial blowups: face truncation with an extended characteristic
function, the induced subdivisions of face simplices, the end-to-end
check that a crepant blowup preserves the Chen-Ruan Betti numbers, and
the identity suite that runs that check for every crepant candidate.

A blowup replaces the chosen face by a new facet whose characteristic
vector is a positive combination of the vectors meeting at the face.
Combinatorially, every vertex on the face splits into one vertex per
dropped facet; no geometric hyperplane is ever materialized.  A spec is
checked once, by :func:`make_blowup_spec` (a face of codimension at
least 2, one positive weight per facet, the weighted sum of their
vectors exactly the new primitive vector), which returns a
:class:`Blowup`: the model, the face and the canonical spec.
``blow_up``, ``blow_up_table``, ``star_subdivide`` and ``mckay_check``
take that value and check nothing of it again.  The blown-up model is
derived from its base: given a checked spec, full model validation
could not fail on it, and every new vertex determinant is a weight
times a base one.  The triangulation identities read their cones from
the blown-up model's table by facet set, and build no simplex.  Full
validation of the derived model and the geometry of the star
subdivision and of the triangulations it induces run as oracles.
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


@dataclass(frozen=True)
class BlowupSpec:
    """Face to truncate, positive weights, and the resulting new vector."""

    face: tuple[int, ...]
    weights: tuple[Fraction, ...]
    lambda0: IntVec


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
    """A blowup spec checked against a model: the model, the face its
    facets meet at and the canonical spec.  :func:`make_blowup_spec`
    builds it; :func:`blow_up`, :func:`blow_up_table`,
    :func:`star_subdivide` and :func:`mckay_check` take it and check
    nothing of the spec again."""

    model: Model = field(repr=False)
    face: Face
    spec: BlowupSpec


def make_blowup_spec(
    model: Model, face_indices: Sequence, weights: Sequence, lambda0: Sequence[int] | None = None
) -> Blowup:
    """The one check of a blowup spec against a model.  The facet indices
    are integers or their strings; the weights pair with them in the
    order given and are rationals or their strings: an integer, "p/q" or
    a plain decimal such as "0.5", without an exponent.  The face is
    found by one scan of the vertices, and the canonical spec holds the
    facets sorted, each weight moved with its facet, and the new vector,
    the weighted sum of the facets' vectors.  BlowupError names the
    first fault, in this order: a facet index token is not an integer;
    the facets are not a face (no vertex holds them all); its
    codimension is below 2; a weight token is not a rational; the
    weights are not one per facet; a weight is not strictly positive;
    the new vector, ``lambda0`` or the weighted sum, has an entry of
    more digits than Python prints (``sys.get_int_max_str_digits()``, 0
    or absent for no limit); the sum is not ``lambda0``, when one is
    given; the sum is not integral, named by the face and the positions
    of its fractional coordinates; it is not primitive."""
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
    entries = point + tuple(lambda0 or ())
    if limit and any(abs(c).bit_length() > 3 * limit and abs(c) >= 10**limit for c in entries):
        raise BlowupError(
            f"new characteristic vector on face {list(key)} has an entry of more than "
            f"{limit} digits, the limit for printing an integer"
        )
    if lambda0 is not None and sums != [denom * c for c in lambda0]:
        raise BlowupError(f"weights on {list(key)} do not give the new vector {list(lambda0)}")
    fractional = [r for r, t in enumerate(sums) if t % denom]
    if fractional:
        raise BlowupError(
            f"new characteristic vector on face {list(key)} is not integral "
            f"at coordinates {fractional}"
        )
    if not is_primitive(point):
        raise BlowupError(f"new characteristic vector {list(point)} is not primitive")
    face = Face(facet_set=key, dim=model.n - len(key), vertex_ids=on_face)
    return Blowup(model, face, BlowupSpec(face=key, weights=tuple(ws), lambda0=point))


def is_crepant(blowup: Blowup) -> bool:
    """True iff the weights sum to exactly 1."""
    return sum(blowup.spec.weights) == 1


def _crepant(blowup: Blowup) -> None:
    """BlowupError unless ``blowup`` is crepant: the refusal of
    ``star_subdivide`` and ``mckay_check``."""
    if not is_crepant(blowup):
        raise BlowupError(
            f"weights sum to {sum(blowup.spec.weights)}, expected 1 for a crepant blowup"
        )


def blow_up(blowup: Blowup) -> Model:
    """Truncate the face: one extra facet m, and every vertex v containing
    the face splits into one vertex (v - {j}) + {m} per facet j of the
    face.  The model is derived from the checked one without validating
    it afresh: the new vector is the spec's weighted sum, so by
    multilinearity the split vertex's determinant is w_j det(v), signed
    by moving the new column from j's position to the end; every other
    vertex keeps its determinant.  The spec check
    (:func:`make_blowup_spec`) found a face of codimension at least 2,
    one strictly positive weight per facet, and the new vector, a
    primitive integer vector.  Given these, no vertex repeats, every
    facet stays in use and no determinant vanishes, so full validation,
    the oracle :func:`validated_blowup`, cannot fail."""
    model, face, spec = blowup.model, blowup.face, blowup.spec
    n, new = model.n, model.m
    weight = dict(zip(spec.face, spec.weights))
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
        char_vectors=model.char_vectors + (spec.lambda0,),
        name=model.name,
        vertex_dets=vertex_dets,
    )


def blow_up_table(table: LocalGroupTable, blowup: Blowup) -> LocalGroupTable:
    """The table of the blown-up model.  Faces away from the new facet
    keep the groups ``table`` has built; only the faces on it are new."""
    return LocalGroupTable(blow_up(blowup), table)


def crepant_candidates(table: LocalGroupTable) -> list[BlowupSpec]:
    """Every crepant blowup the table's model admits: interior box
    elements of age exactly 1 with a primitive lattice point, over all
    faces of codimension at least 2."""
    out = []
    for group in table.groups:
        if group.face.codim < 2:
            continue
        for i in group.interior:
            if sum(group.numerators[i]) == group.exponent:
                element = group.box_element(i)
                if is_primitive(element.point):
                    out.append(BlowupSpec(group.face.facet_set, element.coeffs, element.point))
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
    (:func:`validated_star_interior`).

    The blowup must be crepant: its weights, strictly positive with sum
    1, are the point's coordinates on the face simplex.  Maximal
    simplices swap the point in for each vertex in turn; all their
    faces join them.
    """
    _crepant(blowup)
    face, spec = blowup.face, blowup.spec
    whole = face_simplex(face, blowup.model)
    pool_points = whole.verts + (spec.lambda0,)
    pool_coords = whole.coords + (spec.weights,)
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
    interior: Sequence[LatticeSimplex], sub: Face, spec: BlowupSpec, model: Model
) -> list[tuple[int, tuple[int, ...]]]:
    """The sorted (codimension, blown facet set) of each simplex in
    ``interior``, those of a triangulation of ``sub``'s simplex through
    the new vector that meet its interior: ``sub``'s vectors, which are
    independent, map to their facets and the new one, a positive
    combination of at least two of them, to m."""
    facet = {model.char_vectors[i]: i for i in sub.facet_set}
    facet[spec.lambda0] = model.m
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
    checked :class:`Blowup` (the model ``before`` reports on, the face
    and the canonical spec), the blown-up table and, when that stays
    quasi-SL, its report, and the triangulation identity of every
    subface of the face."""

    before: CrReport
    blowup: Blowup
    blown_groups: LocalGroupTable
    after: CrReport | None
    triangulation_checks: tuple[TriangulationCheck, ...]

    @property
    def blown(self) -> Model:
        return self.blown_groups.model

    @property
    def quasi_sl_after(self) -> bool:
        return self.blown_groups.quasi_sl

    @property
    def pp_cr_match(self) -> bool:
        return self.after is not None and self.before.pp_cr == self.after.pp_cr

    @property
    def verdict(self) -> bool:
        return (
            self.after is not None
            and self.before.all_pass
            and self.after.all_pass
            and self.pp_cr_match
            and all(check.passed for check in self.triangulation_checks)
        )


def mckay_check(
    before: CrReport, blowup: Blowup, lender: LocalGroupTable | None = None
) -> McKayReport:
    """Blow up the model that ``before`` reports on, certify the result
    stays quasi-SL, compute the Chen-Ruan polynomial of the blown-up
    model by all three routes, and run the triangulation identity on the
    subdivided face simplex and on every subface's simplex.  The report
    holds ``blowup``, whose model, face and spec the oracles read.
    BlowupError refuses, before anything is built, a blowup that is not
    crepant and then one checked against another model than
    ``before``'s.  Each identity reads its cones from the blown-up table
    by facet set (:func:`_star_cones`) and builds no simplex.  The
    validated star subdivision and each validated induced triangulation
    are built only by the oracles :func:`validated_star_interior` and
    :func:`induced_triangulation_sums`.

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
    blown_groups = blow_up_table(lender or groups, blowup)
    after = cr_report(blown_groups) if blown_groups.quasi_sl else None
    checks = tuple(
        check_triangulation_identity(sub, _star_cones(face, sub, blowup.model.m), groups, blown_groups)
        for sub in subfaces(face, groups.faces)
    )
    return McKayReport(before, blowup, blown_groups, after, checks)


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
            yield (
                f"group order {vertex.order} is not |det| {index} "
                f"at vertex {list(vertex.face.facet_set)}"
            )


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


# The checks every table must pass, with whether each is an oracle, run
# only on request; in the order their failures are reported.  Each takes
# a table and the groups of the faces to check, and yields failure texts.
TABLE_CHECKS = (
    (vertex_orders, False),
    (box_partition, False),
    (box_enumeration, True),
    (dilate_numerators, True),
)


def table_failures(table: LocalGroupTable, groups: Sequence[LocalGroup], include_oracle: bool) -> list[str]:
    """The failure texts of every table check, the oracles only with
    ``include_oracle``, on the faces of ``groups``."""
    return [
        text
        for check, oracle in TABLE_CHECKS
        if include_oracle or not oracle
        for text in check(table, groups)
    ]


def validated_star_interior(mckay: McKayReport, tau: Subdivision) -> Iterator[str]:
    """Oracle: the cones ``mckay`` read for the face of its blowup are
    those of the interior of ``tau``, the validated star subdivision of
    that blowup."""
    model, face = mckay.blowup.model, mckay.blowup.face
    derived = _star_cones(face, face, model.m)
    if sorted(derived) != _subdivision_cones(tau.interior, face, mckay.blowup.spec, model):
        yield (
            f"the derived interior of the star subdivision of {list(face.facet_set)} "
            f"({len(derived)} simplices) is not the validated one "
            f"({len(tau.interior)} simplices)"
        )


def induced_triangulation_sums(mckay: McKayReport, tau: Subdivision) -> Iterator[str]:
    """Oracle: each subface's triangulation sum in ``mckay`` equals the
    one read from the validated induced triangulation, built whole from
    ``tau``, the validated star subdivision of ``mckay``'s blowup."""
    model, face, spec = mckay.blowup.model, mckay.blowup.face, mckay.blowup.spec
    lazy = {check.face: check.rhs for check in mckay.triangulation_checks}
    for sub in subfaces(face, mckay.before.groups.faces):
        induced = induced_triangulation(sub, tau, model)
        cones = _subdivision_cones(induced.interior, sub, spec, model)
        rhs = check_triangulation_identity(sub, cones, mckay.before.groups, mckay.blown_groups).rhs
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


def identity_failures(table: LocalGroupTable, include_oracle: bool = False) -> list[str]:
    """Run the full identity suite on the model of one table, the table
    its caller built (``generate_test_tables`` for ``qtorb fuzz``);
    returns failure messages.

    The base model's report passes every :data:`REPORT_CHECKS` entry
    (routes, identities, age partition) and its table every
    :data:`TABLE_CHECKS` entry on every face.  Every crepant candidate
    is checked once, by :func:`make_blowup_spec`, and its McKay check
    must pass, which runs the report checks on the blown-up model's
    report; a blown-up table that stays quasi-SL then runs the table
    checks on the faces of the new facet, the others being the base
    table's.  With ``include_oracle``, the table checks include the
    oracles, and the validated star subdivision of each McKay report's
    blowup is built once: the cones of its interior are compared with
    those the check read and each subface's triangulation sum with the
    validated induced triangulation's, and the blown-up model is
    compared with its full validation.

    A blown-up model's vertex list depends on the face alone, and
    :func:`crepant_candidates` yields the candidates of one face one
    after another.  So each blown-up table after the first at a face is
    built on the one before it when that one stayed quasi-SL, its report
    having built every group: the two share one face lattice, and the
    groups off the new facet.  Otherwise it is built on the base table.
    At most two blown-up tables are alive at a time.
    """
    model = table.model
    label = model.name or "<model>"
    report = cr_report(table)
    failures = [f"{label}: {text}" for text in report.failures()]
    failures += [f"{label}: {text}" for text in table_failures(table, table.groups, include_oracle)]
    mckay = None
    for spec in crepant_candidates(table):
        lender = None
        if mckay is not None and mckay.blowup.spec.face == spec.face and mckay.quasi_sl_after:
            lender = mckay.blown_groups
        mckay = mckay_check(report, make_blowup_spec(model, spec.face, spec.weights, spec.lambda0), lender)
        prefix = f"{label}: crepant blowup at {list(spec.face)}"
        if not mckay.quasi_sl_after:
            failures.append(f"{prefix} loses integral ages")
        if not mckay.verdict:
            failures.append(f"{prefix} changes the Betti numbers")
        if mckay.quasi_sl_after:
            blown = mckay.blown_groups
            on_new_facet = [g for g in blown.groups if model.m in g.face.facet_set]
            failures += [f"{prefix}: {text}" for text in table_failures(blown, on_new_facet, include_oracle)]
        if include_oracle:
            failures += [f"{prefix}: {text}" for text in validated_blowup(mckay)]
            tau = star_subdivide(mckay.blowup)
            failures += [f"{prefix}: {text}" for text in validated_star_interior(mckay, tau)]
            failures += [f"{prefix}: {text}" for text in induced_triangulation_sums(mckay, tau)]
    return failures
