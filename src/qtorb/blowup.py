"""Combinatorial blowups: face truncation with an extended characteristic
function, the induced subdivisions of face simplices, the end-to-end
check that a crepant blowup preserves the Chen-Ruan Betti numbers, and
the identity suite that runs that check for every crepant candidate.

A blowup replaces the chosen face by a new facet whose characteristic
vector is a positive combination of the vectors meeting at the face.
Combinatorially, every vertex on the face splits into one vertex per
dropped facet; no geometric hyperplane is ever materialized, and the
result is accepted exactly when it passes full model validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .cohomology import CrReport, _sum, cr_report, e_torus
from .ehrhart import LatticeSimplex, ehrhart_numerator, face_simplex
from .exact import Poly
from .intlat import IntVec, coords_in_basis, det, is_primitive, mat_from_cols
from .model import (
    Face,
    Model,
    ModelValidationError,
    face_by_indices,
    make_model,
    subfaces,
)
from .sectors import LocalGroupTable, box_by_exhaustion


class BlowupError(ValueError):
    """The blowup data is invalid for the given model."""


@dataclass(frozen=True)
class BlowupSpec:
    """Face to truncate, positive weights, and the resulting new vector."""

    face: tuple[int, ...]
    weights: tuple[Fraction, ...]
    lambda0: IntVec


def make_blowup_spec(
    model: Model, face_indices: Sequence[int], weights: Sequence
) -> BlowupSpec:
    """Validated blowup data.

    The face must be a genuine face of codimension at least 2, the
    weights strictly positive, and the weighted combination of the
    face's characteristic vectors an integral primitive vector.  The
    weights pair with ``face_indices`` in the order given; the spec
    holds both sorted by facet index.
    """
    indices = [int(i) for i in face_indices]
    key = tuple(sorted(indices))
    try:
        face = face_by_indices(model, key)
    except ValueError as exc:
        raise BlowupError(str(exc)) from exc
    if face.codim < 2:
        raise BlowupError(
            f"blowup requires a face of codimension >= 2, got codimension {face.codim}"
        )
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != face.codim:
        raise BlowupError(f"expected {face.codim} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise BlowupError("blowup weights must be strictly positive")
    ws = tuple(w for _, w in sorted(zip(indices, ws)))
    combo = [Fraction(0)] * model.n
    for w, i in zip(ws, key):
        vec = model.char_vectors[i]
        for r in range(model.n):
            combo[r] += w * vec[r]
    if any(c.denominator != 1 for c in combo):
        raise BlowupError(
            f"new characteristic vector {[str(c) for c in combo]} is not integral"
        )
    lambda0 = tuple(c.numerator for c in combo)
    if not is_primitive(lambda0):
        raise BlowupError(f"new characteristic vector {list(lambda0)} is not primitive")
    return BlowupSpec(face=key, weights=ws, lambda0=lambda0)


def is_crepant(spec: BlowupSpec) -> bool:
    """True iff the weights sum to exactly 1."""
    return sum(spec.weights) == 1


def blow_up(model: Model, spec: BlowupSpec) -> Model:
    """Truncate the face: one extra facet, and every vertex containing the
    face splits into one vertex per facet dropped from it.  The result
    must pass full model validation."""
    cut = set(spec.face)
    new_index = model.m
    new_vertices: list[tuple[int, ...]] = []
    for vertex in model.vertices:
        vs = set(vertex)
        if cut <= vs:
            for j in spec.face:
                new_vertices.append(tuple(sorted((vs - {j}) | {new_index})))
        else:
            new_vertices.append(vertex)
    try:
        return make_model(
            model.n,
            model.m + 1,
            new_vertices,
            list(model.char_vectors) + [spec.lambda0],
            name=model.name,
        )
    except ModelValidationError as exc:
        raise BlowupError(f"blown-up model fails validation: {exc}") from exc


def crepant_candidates(table: LocalGroupTable) -> list[BlowupSpec]:
    """Every crepant blowup the table's model admits: interior box
    elements of age exactly 1 with a primitive lattice point, over all
    faces of codimension at least 2."""
    out = []
    for group in table.groups:
        if group.face.codim < 2:
            continue
        for i in group.interior:
            if sum(group.numerators[i]) == group.exponent and is_primitive(group.points[i]):
                element = group.box_element(i)
                out.append(
                    BlowupSpec(
                        face=group.face.facet_set, weights=element.coeffs, lambda0=element.point
                    )
                )
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


def star_subdivide(face: Face, lambda0: IntVec, model: Model) -> Subdivision:
    """Star subdivision of the face simplex at an interior lattice point.

    The point must be a strictly positive combination of the face's
    characteristic vectors with coefficient sum 1.  Maximal simplices
    swap the point in for each vertex in turn; all their faces join them.
    """
    cols = [model.char_vectors[i] for i in face.facet_set]
    k = len(cols)
    weights = coords_in_basis(mat_from_cols(cols), lambda0)
    if any(w <= 0 for w in weights):
        raise ValueError(
            f"{list(lambda0)} is not interior to the face simplex (weights {[str(w) for w in weights]})"
        )
    if sum(weights) != 1:
        raise ValueError(f"{list(lambda0)} does not lie on the face simplex")
    pool_points = [tuple(c) for c in cols] + [tuple(lambda0)]
    unit = [tuple(Fraction(1 if j == i else 0) for j in range(k)) for i in range(k)]
    pool_coords = unit + [tuple(weights)]
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
    passed: bool
    lhs: Poly
    rhs: Poly


def check_triangulation_identity(
    face: Face,
    subdivision: Subdivision,
    groups: LocalGroupTable,
    cones: LocalGroupTable,
    extra: tuple[IntVec, ...] = (),
) -> TriangulationCheck:
    """The age polynomial of a face simplex must equal the sum, over the
    simplices of its triangulation that meet its interior, of
    (s-1)^codim times the age polynomial of the cone over the simplex.

    ``subdivision`` triangulates the simplex of a face F whose facets are
    among those of ``face``, and ``extra`` holds the characteristic
    vectors of ``face``'s other facets (``extra=()`` when F is ``face``).
    The triangulation of ``face``'s simplex is the join of the two, and
    its simplices meeting the interior are exactly theta + extra for
    theta in ``subdivision.interior``, each of theta's codimension in F.
    The face side
    is read from ``groups``, the table of the model, and each cone from
    ``cones``, the table of a model that has every interior cone as a
    face (the blown-up model's, for a star subdivision)."""
    lhs = groups.group(face).age_polynomial
    rhs = _sum(
        e_torus(sx.codim) * cones.cone(sx.verts + extra).age_polynomial
        for sx in subdivision.interior
    )
    return TriangulationCheck(face=face, passed=lhs == rhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class McKayReport:
    """Everything the crepant-blowup invariance check produces, with the
    star subdivision it validated."""

    before: CrReport
    spec: BlowupSpec
    blown_groups: LocalGroupTable
    after: CrReport | None
    subdivision: Subdivision
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
            self.quasi_sl_after
            and self.after is not None
            and self.before.all_pass
            and self.after.all_pass
            and self.pp_cr_match
            and all(check.passed for check in self.triangulation_checks)
        )


def mckay_check(before: CrReport, spec: BlowupSpec) -> McKayReport:
    """Blow up the model that ``before`` reports on, certify the result
    stays quasi-SL, compute the Chen-Ruan polynomial of the blown-up
    model by all three routes, and run the triangulation identity on the
    subdivided face simplex and on every subface's simplex.  The star
    subdivision is validated in full; each subface's triangulation is its
    join with the subface's extra vectors, so its identity reads the
    interior simplices of the star subdivision and builds nothing else
    (``induced_triangulation`` builds it whole, as the oracle)."""
    groups = before.groups
    model = groups.model
    if not is_crepant(spec):
        raise BlowupError(
            f"weights sum to {sum(spec.weights)}, expected 1 for a crepant blowup"
        )
    blown = blow_up(model, spec)
    # Faces away from the new facet keep the base model's groups; the
    # faces on it are the interior cones of the triangulations below.
    blown_groups = LocalGroupTable(blown, groups)
    after = cr_report(blown_groups) if blown_groups.quasi_sl else None
    face = face_by_indices(model, spec.face)
    tau = star_subdivide(face, spec.lambda0, model)
    checks = []
    for sub in subfaces(face, model):
        extra = tuple(model.char_vectors[i] for i in sub.facet_set if i not in face.facet_set)
        checks.append(check_triangulation_identity(sub, tau, groups, blown_groups, extra))
    return McKayReport(
        before=before,
        spec=spec,
        blown_groups=blown_groups,
        after=after,
        subdivision=tau,
        triangulation_checks=tuple(checks),
    )


def identity_failures(model: Model, include_oracle: bool = False) -> list[str]:
    """Run the full identity suite on one model; returns failure messages.

    Covers each vertex group's order against the determinant of its
    columns, the box partition over vertices, the per-face age
    partition, the torus stratification, three-route agreement, and the
    crepant blowup invariance for every candidate.  With `include_oracle`, the
    table's box enumeration and the dilate-series numerators are also
    cross-checked against the exhaustive search paths, and each subface's
    triangulation identity in a McKay check against the validated
    induced triangulation built whole from the star subdivision that the
    check kept.
    """
    failures: list[str] = []
    label = model.name or "<model>"
    groups = LocalGroupTable(model)
    report = cr_report(groups)
    if not report.routes_agree:
        failures.append(f"{label}: the three Chen-Ruan routes disagree")
    for check in report.identities:
        if not check.passed:
            failures.append(f"{label}: identity {check.name} fails ({check.lhs} != {check.rhs})")
    for face, ok in report.morestrat:
        if not ok:
            failures.append(f"{label}: age partition fails at face {list(face.facet_set)}")

    for vertex in groups.groups:
        if vertex.face.codim != model.n:
            continue
        # |det| as validation computed it, by Bareiss elimination,
        # independent of the triangular basis the group came from.  The table
        # reads the same determinants: a face is smooth when some vertex
        # through it has |det| = 1.
        index = abs(model.vertex_dets[vertex.face.vertex_ids[0]])
        if vertex.order != index:
            failures.append(
                f"{label}: group order {vertex.order} is not |det| {index} "
                f"at vertex {list(vertex.face.facet_set)}"
            )
        whole = sorted(vertex.points)
        containing = groups.sector_groups_containing(vertex.face)
        pieces = sorted(other.points[i] for other in containing for i in other.interior)
        if whole != pieces:
            failures.append(
                f"{label}: box partition fails at vertex {list(vertex.face.facet_set)}"
            )

    if include_oracle:
        for group in groups.groups:
            face = group.face
            if face.codim == 0 or group.order > 200:
                continue
            exhaustive = box_by_exhaustion(group.columns, model.n)
            if [replace(e, face=face) for e in exhaustive] != group.box_elements():
                failures.append(
                    f"{label}: box enumeration disagrees with exhaustion at {list(face.facet_set)}"
                )
            sx = face_simplex(face, model)
            psi = ehrhart_numerator(sx)
            w_coeffs = group.age_polynomial.coeffs
            if tuple(psi[: len(w_coeffs)]) != w_coeffs or any(p for p in psi[len(w_coeffs):]):
                failures.append(
                    f"{label}: dilate-series numerator {list(psi)} does not match ages at {list(face.facet_set)}"
                )

    for spec in crepant_candidates(groups):
        mckay = mckay_check(report, spec)
        if not mckay.quasi_sl_after:
            failures.append(
                f"{label}: crepant blowup at {list(spec.face)} loses integral ages"
            )
        if not mckay.verdict:
            failures.append(
                f"{label}: crepant blowup at {list(spec.face)} changes the Betti numbers"
            )
        if include_oracle:
            lazy = {check.face: check.rhs for check in mckay.triangulation_checks}
            for sub in subfaces(mckay.subdivision.ambient_face, model):
                induced = induced_triangulation(sub, mckay.subdivision, model)
                rhs = check_triangulation_identity(sub, induced, groups, mckay.blown_groups).rhs
                if lazy.get(sub) != rhs:
                    failures.append(
                        f"{label}: crepant blowup at {list(spec.face)}: the induced "
                        f"triangulation of {list(sub.facet_set)} sums to {rhs}, "
                        f"the star subdivision's join to {lazy.get(sub)}"
                    )
    return failures
