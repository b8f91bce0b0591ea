import pathlib
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import qtorb.blowup as blowup_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    BlowupError,
    LocalGroupTable,
    NonIntegralAgeError,
    blow_up,
    check_age_partition,
    check_triangulation_identity,
    cr_report,
    crepant_candidates,
    face_by_indices,
    faces,
    generate_test_models,
    identity_failures,
    induced_triangulation,
    is_crepant,
    make_blowup_spec,
    make_model,
    mckay_check,
    model_to_json,
    parse_model,
    star_subdivide,
    vertex_matrix,
)
from qtorb.blowup import _maximal_volumes, _validated_subdivision
from qtorb.exact import Poly
from qtorb.intlat import coords_in_basis, det, mat_from_cols

ROOT = pathlib.Path(__file__).resolve().parent.parent


def blown_tables(model, spec):
    """The model's table and the blown-up model's, which has every
    interior cone of the star subdivision at ``spec.lambda0`` as a face."""
    groups = LocalGroupTable(model)
    return groups, LocalGroupTable(blow_up(model, spec), groups)


def _fraction_det(rows):
    """Determinant of a square matrix of rationals by Gaussian elimination;
    the reference for subdivision volumes."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= factor * a[c][j]
    return result


def test_make_spec_validations(wp112):
    with pytest.raises(BlowupError, match="not integral"):
        make_blowup_spec(wp112, (0, 1), [Fraction(1, 3), Fraction(1, 3)])
    with pytest.raises(BlowupError, match="codimension"):
        make_blowup_spec(wp112, (0,), [1])
    with pytest.raises(BlowupError, match="not a face"):
        make_blowup_spec(wp112, (0, 1, 2), [1, 1, 1])
    with pytest.raises(BlowupError, match="positive"):
        make_blowup_spec(wp112, (0, 2), [Fraction(1, 2), Fraction(-1, 2)])
    with pytest.raises(BlowupError, match="not primitive"):
        make_blowup_spec(wp112, (0, 1), [2, 2])
    with pytest.raises(BlowupError, match="weights"):
        make_blowup_spec(wp112, (0, 2), [1])


def test_is_crepant(wp112):
    assert is_crepant(make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"]))
    assert not is_crepant(make_blowup_spec(wp112, (0, 1), [1, 1]))
    z3_spec_weights = ["1/3", "1/3", "1/3"]
    z3 = make_model(
        3,
        4,
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(1, 0, 0), (0, 1, 0), (-1, -1, 3), (0, 0, -1)],
    )
    assert is_crepant(make_blowup_spec(z3, (0, 1, 2), z3_spec_weights))


def test_blow_up_wp112_gives_square(wp112):
    spec = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    assert spec.lambda0 == (0, -1)
    blown = blow_up(wp112, spec)
    assert blown.m == 4
    assert blown.vertices == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert blown.char_vectors == ((1, 0), (0, 1), (-1, -2), (0, -1))
    # Round-trips through serialization and full validation.
    assert parse_model(model_to_json(blown)) == blown


def test_blow_up_z3_resolves(z3):
    spec = make_blowup_spec(z3, (0, 1, 2), ["1/3", "1/3", "1/3"])
    assert spec.lambda0 == (0, 0, 1)
    blown = blow_up(z3, spec)
    assert blown.m == 5
    assert len(blown.vertices) == 6
    assert all(abs(det(vertex_matrix(blown, v))) == 1 for v in blown.vertices)
    assert LocalGroupTable(blown).quasi_sl


def test_blow_up_vertex_count_formula(corpus):
    for model in corpus:
        for spec in crepant_candidates(LocalGroupTable(model)):
            touched = sum(
                1 for v in model.vertices if set(spec.face) <= set(v)
            )
            blown = blow_up(model, spec)
            assert blown.m == model.m + 1
            assert len(blown.vertices) == len(model.vertices) + touched * (
                len(spec.face) - 1
            )
            assert parse_model(model_to_json(blown)) == blown


def test_star_subdivide_segment(wp112):
    vertex = face_by_indices(wp112, (0, 2))
    tau = star_subdivide(vertex, (0, -1), wp112)
    assert len(tau.simplices) == 5
    assert len(tau.interior) == 3
    interior_verts = {sx.verts for sx in tau.interior}
    assert ((0, -1),) in interior_verts
    assert all((0, -1) in sx.verts for sx in tau.interior)


def test_star_subdivide_triangle(z3):
    vertex = face_by_indices(z3, (0, 1, 2))
    tau = star_subdivide(vertex, (0, 0, 1), z3)
    maximal = [sx for sx in tau.simplices if sx.dim == 2]
    assert len(maximal) == 3
    assert len(tau.interior) == 7
    # volumes of the maximal pieces add up to the whole simplex
    total = sum(
        (abs(_fraction_det(sx.coords)) for sx in maximal),
        Fraction(0),
    )
    assert total == 1


def test_star_subdivide_rejects_boundary_point(z3):
    vertex = face_by_indices(z3, (0, 1, 2))
    with pytest.raises(ValueError, match="interior"):
        star_subdivide(vertex, (1, 0, 0), z3)
    with pytest.raises(ValueError, match="simplex"):
        star_subdivide(vertex, (0, 0, 2), z3)


def test_induced_triangulation_identity_case(z3):
    vertex = face_by_indices(z3, (0, 1, 2))
    tau = star_subdivide(vertex, (0, 0, 1), z3)
    assert induced_triangulation(vertex, tau, z3) is tau


def test_induced_triangulation_on_prism_vertices(prism):
    edge = face_by_indices(prism, (0, 1))
    tau = star_subdivide(edge, (1, 1, 0), prism)
    assert len(tau.interior) == 3
    for vertex_key in ((0, 1, 3), (0, 1, 4)):
        vertex = face_by_indices(prism, vertex_key)
        induced = induced_triangulation(vertex, tau, prism)
        assert len(induced.interior) == len(tau.interior)
        # Oracle: a simplex meets the interior iff its barycenter has
        # strictly positive coordinates over the vertex's vectors.
        for sx in induced.simplices:
            k = len(sx.coords[0])
            bary = [
                sum((c[i] for c in sx.coords), Fraction(0)) / len(sx.coords)
                for i in range(k)
            ]
            assert (all(b > 0 for b in bary)) == (sx in induced.interior)


def test_induced_triangulation_rejects_non_subface(prism):
    edge = face_by_indices(prism, (0, 1))
    tau = star_subdivide(edge, (1, 1, 0), prism)
    other = face_by_indices(prism, (2, 3))
    with pytest.raises(ValueError, match="subface"):
        induced_triangulation(other, tau, prism)


def test_triangulation_identity_wp112(wp112):
    vertex = face_by_indices(wp112, (0, 2))
    tau = star_subdivide(vertex, (0, -1), wp112)
    groups, cones = blown_tables(wp112, make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"]))
    check = check_triangulation_identity(vertex, tau, groups, cones)
    assert check.passed
    assert check.lhs == Poly([1, 1])
    assert check.rhs == Poly([1, 1])


def test_triangulation_identity_names_a_missing_cone(z3):
    """The base model's table lacks the cones through the new vertex of a
    star subdivision; the first interior one is that vertex alone."""
    vertex = face_by_indices(z3, (0, 1, 2))
    tau = star_subdivide(vertex, (0, 0, 1), z3)
    groups = LocalGroupTable(z3)
    with pytest.raises(ValueError, match=re.escape("cone over [(0, 0, 1)] is not a face")):
        check_triangulation_identity(vertex, tau, groups, groups)


def test_triangulation_identity_z3(z3):
    vertex = face_by_indices(z3, (0, 1, 2))
    tau = star_subdivide(vertex, (0, 0, 1), z3)
    groups, cones = blown_tables(z3, make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3))
    check = check_triangulation_identity(vertex, tau, groups, cones)
    assert check.passed
    assert check.lhs == Poly([1, 1, 1])


def test_weights_pair_with_the_face_as_given(wp112):
    # 1 * lambda_2 + 2 * lambda_0 = (-1, -2) + (2, 0)
    spec = make_blowup_spec(wp112, (2, 0), [1, 2])
    assert spec == make_blowup_spec(wp112, (0, 2), [2, 1])
    assert spec.face == (0, 2) and spec.weights == (2, 1)
    assert spec.lambda0 == (1, -2)


def test_mckay_wp112(wp112):
    spec = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    report = mckay_check(cr_report(LocalGroupTable(wp112)), spec)
    assert report.verdict
    assert report.quasi_sl_after
    assert report.before.pp_cr == Poly([1, 2, 1])
    assert report.after.pp_cr == Poly([1, 2, 1])
    assert len(report.triangulation_checks) == 1


def test_mckay_z3(z3):
    spec = make_blowup_spec(z3, (0, 1, 2), ["1/3", "1/3", "1/3"])
    report = mckay_check(cr_report(LocalGroupTable(z3)), spec)
    assert report.verdict
    assert report.before.pp_cr == Poly([1, 2, 2, 1])
    assert report.after.pp_cr == Poly([1, 2, 2, 1])
    # the blown-up model is smooth, so its polynomial is purely ordinary
    assert report.after.pp == report.after.pp_cr


def test_mckay_prism_edge(prism):
    spec = make_blowup_spec(prism, (0, 1), ["1/2", "1/2"])
    report = mckay_check(cr_report(LocalGroupTable(prism)), spec)
    assert report.verdict
    assert report.before.pp_cr == Poly([1, 3, 3, 1])
    # the edge and the two vertices on it each get a triangulation check
    assert sorted(c.face.facet_set for c in report.triangulation_checks) == [
        (0, 1),
        (0, 1, 3),
        (0, 1, 4),
    ]


def test_mckay_rejects_bad_inputs(wp112):
    with pytest.raises(BlowupError, match="crepant"):
        mckay_check(cr_report(LocalGroupTable(wp112)), make_blowup_spec(wp112, (0, 1), [1, 1]))
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    with pytest.raises(NonIntegralAgeError):
        mckay_check(cr_report(LocalGroupTable(bad)), make_blowup_spec(bad, (0, 1), [1, 1]))


def test_smooth_model_crepant_blowup(cp2):
    # A smooth corner: the only crepant centers have unit-sum integer
    # coordinates; (1,1) weights are not crepant, so build one by hand on
    # a model with an A_1 vertex whose blowup is again handled generically.
    candidates = crepant_candidates(LocalGroupTable(cp2))
    assert candidates == []


def test_lemma_quasi_sl_preserved_on_corpus(corpus):
    for model in corpus:
        for spec in crepant_candidates(LocalGroupTable(model)):
            assert LocalGroupTable(blow_up(model, spec)).quasi_sl


def test_mckay_on_corpus(corpus):
    checked = 0
    for model in corpus:
        before = cr_report(LocalGroupTable(model))
        for spec in crepant_candidates(before.groups):
            report = mckay_check(before, spec)
            assert report.verdict, (model.name, spec)
            checked += 1
    assert checked > 0


def test_iterated_blowups(z3):
    model = z3
    for _ in range(3):
        report = cr_report(LocalGroupTable(model))
        candidates = crepant_candidates(report.groups)
        if not candidates:
            break
        before = report.pp_cr
        model = blow_up(model, candidates[0])
        assert LocalGroupTable(model).quasi_sl
        assert cr_report(LocalGroupTable(model)).pp_cr == before


def test_induced_triangulation_solves_no_vertex(monkeypatch, prism):
    import qtorb.blowup as blowup_mod

    solved = []
    real = blowup_mod.coords_in_basis
    monkeypatch.setattr(
        blowup_mod, "coords_in_basis", lambda basis, w: solved.append(tuple(w)) or real(basis, w)
    )
    edge = face_by_indices(prism, (0, 1))
    tau = star_subdivide(edge, (1, 1, 0), prism)
    solved.clear()
    induced = induced_triangulation(face_by_indices(prism, (0, 1, 3)), tau, prism)
    assert solved == []
    assert len({v for sx in induced.simplices for v in sx.verts}) == 4


def test_blown_table_from_base_equals_fresh_table(crepant_blowups):
    assert crepant_blowups
    for model, _, blown in crepant_blowups:
        reused = LocalGroupTable(blown, LocalGroupTable(model))
        fresh = LocalGroupTable(blown)
        assert reused.sector_h_vectors == fresh.sector_h_vectors
        assert len(reused.groups) == len(fresh.groups)
        for a, b in zip(reused.groups, fresh.groups):
            assert a.face == b.face
            assert a.exponent == b.exponent
            assert a.numerators == b.numerators
            assert a.points == b.points
            assert a.age_polynomial == b.age_polynomial
            assert a.interior_age_polynomial == b.interior_age_polynomial
            assert a.box_elements() == b.box_elements()


def _mislabel_as_trivial(monkeypatch, facet_set):
    """Make every table build the group of the face ``facet_set`` as the
    trivial group, as a faulty smoothness test would.  Every other group
    is built as usual, the faces through a mislabelled vertex included."""
    real_build = LocalGroupTable._build

    def build(self, face):
        if face.facet_set != facet_set:
            return real_build(self, face)
        columns = [self.model.char_vectors[i] for i in face.facet_set]
        return sectors_mod.LocalGroup._trivial(columns, self.model.n, face)

    monkeypatch.setattr(LocalGroupTable, "_build", build)


def test_partition_checks_catch_a_wrongly_trivial_face(monkeypatch, prism):
    """The prism's edge (0, 1) has order 2, and so do both vertices on it;
    built as the trivial group, the edge loses the sector that both vertex
    boxes, computed from their own triangular bases, still hold."""
    assert LocalGroupTable(prism).group(face_by_indices(prism, (0, 1))).order == 2
    assert identity_failures(prism, include_oracle=True) == []
    _mislabel_as_trivial(monkeypatch, (0, 1))
    failures = identity_failures(prism, include_oracle=True)
    for vertex in ([0, 1, 3], [0, 1, 4]):
        assert f"prism: box partition fails at vertex {vertex}" in failures
        assert f"prism: age partition fails at face {vertex}" in failures
    assert "prism: box enumeration disagrees with exhaustion at [0, 1]" in failures
    failing = [face.facet_set for face, ok in check_age_partition(LocalGroupTable(prism)) if not ok]
    assert failing == [(0, 1, 3), (0, 1, 4)]


def test_age_partition_catches_every_wrongly_trivial_face(monkeypatch, corpus):
    """Whichever face other than a vertex has a nontrivial group, building
    it as the trivial group fails the age partition: a lost element lies in
    the face's interior, and so in the box of every vertex through it, or
    in the interior of a larger face, and so in the face's own box."""
    mutated = 0
    for model in corpus[::3]:
        for group in LocalGroupTable(model).groups:
            if group.order == 1 or group.face.codim == model.n:
                continue
            with monkeypatch.context() as patch:
                _mislabel_as_trivial(patch, group.face.facet_set)
                failing = [face for face, ok in check_age_partition(LocalGroupTable(model)) if not ok]
            assert failing, (model.name, group.face)
            mutated += 1
    assert mutated > 0


@pytest.mark.parametrize("first", ["edge", "vertex"])
def test_a_wrongly_trivial_vertex_does_not_spread(monkeypatch, prism, first):
    """The prism's vertex (0, 1, 3) has order 2.  Built as the trivial
    group, it leaves the order-2 edge (0, 1) as it is, whichever of the two
    is built first: a face's smoothness is read from the determinants that
    validation stored, never from another face's group."""
    edge = face_by_indices(prism, (0, 1))
    vertex = face_by_indices(prism, (0, 1, 3))
    _mislabel_as_trivial(monkeypatch, vertex.facet_set)
    table = LocalGroupTable(prism)
    order = [edge, vertex] if first == "edge" else [vertex, edge]
    assert {face.facet_set: table.group(face).order for face in order} == {
        (0, 1): 2,
        (0, 1, 3): 1,
    }


def test_identity_failures_takes_vertex_dets_from_the_model(monkeypatch, corpus):
    """The order check reads |det| from the model; the only determinants
    left in the module are the subdivision volumes."""
    callers = set()

    def recording_det(mat):
        callers.add(sys._getframe(1).f_code.co_name)
        return det(mat)

    monkeypatch.setattr(blowup_mod, "det", recording_det)
    for model in corpus:
        assert identity_failures(model) == [], model.name
    assert callers == {"_maximal_volumes"}


def test_vertex_order_is_checked_against_the_determinant(monkeypatch, z3):
    """The order-3 vertex (0, 1, 2) of the tetrahedron built as the trivial
    group gives a wrong PP_CR that both partition checks accept: its lower
    faces are all trivial.  The vertex order against |det| flags it
    without the oracle."""
    assert identity_failures(z3) == []
    _mislabel_as_trivial(monkeypatch, (0, 1, 2))
    assert cr_report(LocalGroupTable(z3)).pp_cr == Poly([1, 1, 1, 1])
    assert all(ok for _, ok in check_age_partition(LocalGroupTable(z3)))
    assert identity_failures(z3) == [
        "z3-tetrahedron: group order 1 is not |det| 3 at vertex [0, 1, 2]"
    ]


def test_mckay_runs_one_smith_form_per_face_on_the_new_facet(
    monkeypatch, crepant_blowups, basis_faces
):
    """The blown table takes every face off the new facet m from the base
    table; the faces on m are exactly the interior cones of the star
    subdivision joined with each subface's extra vectors, which the
    identity reads from that table.  Of those, the faces through no
    smooth vertex compute a triangular basis."""
    inside: list[bool] = []
    calls: list[bool] = []
    cones: list[frozenset] = []
    real_basis = sectors_mod.triangular_form
    real_check = blowup_mod.check_triangulation_identity

    def check(face, subdivision, groups, cones_table, extra=()):
        cones.extend(frozenset(sx.verts + extra) for sx in subdivision.interior)
        inside.append(True)
        try:
            return real_check(face, subdivision, groups, cones_table, extra)
        finally:
            inside.pop()

    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: calls.append(bool(inside)) or real_basis(m))
    monkeypatch.setattr(blowup_mod, "check_triangulation_identity", check)
    for model, spec, blown in crepant_blowups:
        before = cr_report(LocalGroupTable(model))
        calls.clear()
        cones.clear()
        assert mckay_check(before, spec).verdict
        on_new_facet = [f for f in faces(blown) if model.m in f.facet_set]
        assert len(calls) == len(basis_faces(blown, model))
        assert all(model.m in f.facet_set for f in basis_faces(blown, model))
        assert not any(calls)
        assert len(cones) == len(set(cones)) == len(on_new_facet)
        assert set(cones) == {
            frozenset(blown.char_vectors[i] for i in f.facet_set) for f in on_new_facet
        }


def _subfaces(model, spec):
    return [sub for sub in faces(model) if set(spec.face) <= set(sub.facet_set)]


def _z4_tetra_blowups():
    """A tetrahedron whose order-2 edge (0, 1), w = 1 + s, lies on an
    order-4 vertex (0, 1, 2), w = 1 + 2s + s^2, and on an order-2 vertex
    (0, 1, 3), w = 1 + s.  No fuzz corpus model has a crepant blowup with
    a subface whose age polynomial differs from the blown-up face's."""
    model = make_model(
        3,
        4,
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(1, 0, 0), (1, 2, 0), (1, 1, 2), (-1, -1, -1)],
        name="z4-tetrahedron",
    )
    return [(model, spec, blow_up(model, spec)) for spec in crepant_candidates(LocalGroupTable(model))]


def test_join_equals_induced_triangulation_on_every_subface(crepant_blowups):
    """The interior simplices of each subface's induced triangulation are
    the star subdivision's joined with the subface's extra vectors, of the
    same codimension, so the lazy right-hand sides of ``mckay_check``
    equal those of the validated induced triangulations."""
    proper = 0
    for model, spec, _ in crepant_blowups + _z4_tetra_blowups():
        report = mckay_check(cr_report(LocalGroupTable(model)), spec)
        tau = report.subdivision
        subfaces = _subfaces(model, spec)
        assert [check.face for check in report.triangulation_checks] == subfaces
        for check, sub in zip(report.triangulation_checks, subfaces):
            extra = tuple(model.char_vectors[i] for i in sub.facet_set if i not in spec.face)
            induced = induced_triangulation(sub, tau, model)
            assert sorted((sx.codim, sorted(sx.verts)) for sx in induced.interior) == sorted(
                (sx.codim, sorted(sx.verts + extra)) for sx in tau.interior
            )
            oracle = check_triangulation_identity(
                sub, induced, report.before.groups, report.blown_groups
            )
            assert check.rhs == oracle.rhs
            assert check.passed and oracle.passed
            proper += bool(extra)
    assert proper > 0
    z4_tetra = _z4_tetra_blowups()[0][0]
    assert identity_failures(z4_tetra, include_oracle=True) == []


def _drop_interior_simplex(monkeypatch, index):
    """Make ``mckay_check`` read a star subdivision that lacks its
    ``index``-th interior simplex."""
    real = blowup_mod.star_subdivide

    def star(face, lambda0, model):
        tau = real(face, lambda0, model)
        return replace(tau, interior=tau.interior[:index] + tau.interior[index + 1:])

    monkeypatch.setattr(blowup_mod, "star_subdivide", star)


def test_mckay_fails_without_an_interior_simplex(monkeypatch, crepant_blowups):
    """Every dropped simplex drops a nonzero term (s-1)^codim w(cone) from
    every subface's sum, so every identity fails."""
    mutated = 0
    for model, spec, _ in crepant_blowups:
        before = cr_report(LocalGroupTable(model))
        size = len(star_subdivide(face_by_indices(model, spec.face), spec.lambda0, model).interior)
        for index in range(size):
            with monkeypatch.context() as patch:
                _drop_interior_simplex(patch, index)
                report = mckay_check(before, spec)
            assert not report.verdict, (model.name, spec, index)
            assert not any(check.passed for check in report.triangulation_checks)
            mutated += 1
    assert mutated > len(crepant_blowups)


def test_mckay_fails_without_the_extra_vectors(monkeypatch, crepant_blowups):
    """Passing ``extra=()`` for a proper subface S sums the face F's own
    right-hand side, w(F), so S's identity fails exactly when w(S) differs
    from w(F)."""
    real = blowup_mod.check_triangulation_identity
    monkeypatch.setattr(
        blowup_mod,
        "check_triangulation_identity",
        lambda face, subdivision, groups, cones, extra=(): real(face, subdivision, groups, cones),
    )
    flipped = []
    for model, spec, _ in crepant_blowups + _z4_tetra_blowups():
        groups = LocalGroupTable(model)
        report = mckay_check(cr_report(groups), spec)
        own = groups.group(face_by_indices(model, spec.face)).age_polynomial
        differ = [
            sub for sub in _subfaces(model, spec) if groups.group(sub).age_polynomial != own
        ]
        assert [c.face for c in report.triangulation_checks if not c.passed] == differ
        assert report.verdict == (not differ)
        if differ:
            flipped.append((model.name, spec.face, [sub.facet_set for sub in differ]))
    assert flipped == [("z4-tetrahedron", (0, 1), [(0, 1, 2)])]


def test_oracle_reports_a_lazy_sum_that_disagrees(monkeypatch, prism):
    """With a simplex missing from the star subdivision that the identities
    of ``mckay_check`` read, every subface's lazy sum differs from the one
    the oracle gets from the validated induced triangulation of the star
    subdivision the report keeps."""
    assert identity_failures(prism, include_oracle=True) == []
    real_mckay = blowup_mod.mckay_check
    real_check = blowup_mod.check_triangulation_identity

    def lossy_check(face, subdivision, groups, cones, extra=()):
        lossy = replace(subdivision, interior=subdivision.interior[1:])
        return real_check(face, lossy, groups, cones, extra)

    def mckay(before, spec):
        with monkeypatch.context() as patch:
            patch.setattr(blowup_mod, "check_triangulation_identity", lossy_check)
            return real_mckay(before, spec)

    monkeypatch.setattr(blowup_mod, "mckay_check", mckay)
    betti = "prism: crepant blowup at [0, 1] changes the Betti numbers"
    assert identity_failures(prism) == [betti]
    failures = identity_failures(prism, include_oracle=True)
    assert failures[0] == betti
    subfaces = [[0, 1], [0, 1, 3], [0, 1, 4]]
    assert len(failures) == 1 + len(subfaces)
    for message, sub in zip(failures[1:], subfaces):
        assert message.startswith(
            f"prism: crepant blowup at [0, 1]: the induced triangulation of {sub} sums to "
        )


def test_oracle_reads_the_star_subdivision_from_the_report(monkeypatch, corpus):
    """Under the oracle, each crepant candidate runs one star subdivision:
    the one ``mckay_check`` validated, which its report keeps."""
    calls = []
    real = blowup_mod.star_subdivide
    monkeypatch.setattr(
        blowup_mod, "star_subdivide", lambda *args: calls.append(args) or real(*args)
    )
    checked = 0
    for model in corpus[::4]:
        candidates = crepant_candidates(LocalGroupTable(model))
        calls.clear()
        assert identity_failures(model, include_oracle=True) == []
        assert len(calls) == len(candidates)
        checked += len(candidates)
    assert checked > 0


def test_induced_coordinates_equal_the_solve(crepant_blowups):
    for model, spec, _ in crepant_blowups:
        face = face_by_indices(model, spec.face)
        tau = star_subdivide(face, spec.lambda0, model)
        for sub in faces(model):
            if not set(spec.face) <= set(sub.facet_set):
                continue
            cols = mat_from_cols([model.char_vectors[i] for i in sub.facet_set])
            for sx in induced_triangulation(sub, tau, model).simplices:
                for v, c in zip(sx.verts, sx.coords):
                    assert c == coords_in_basis(cols, v)


def _z3tetra_star():
    model = parse_model((ROOT / "models" / "z3tetra.json").read_text(encoding="utf-8"))
    face = face_by_indices(model, (0, 1, 2))
    return face, star_subdivide(face, (0, 0, 1), model)


def _fuzz_codim4_induced():
    """An induced triangulation of a vertex (codimension 4) of a fuzz n = 4
    model, from the crepant blowup of an edge with weights 1/6, 5/6: two
    maximal simplices of volumes 1/6 and 5/6."""
    (model,) = generate_test_models(11, 1, n=4)
    spec = next(
        s for s in crepant_candidates(LocalGroupTable(model))
        if s.face == (0, 4) and s.weights == (Fraction(1, 6), Fraction(5, 6))
    )
    tau = star_subdivide(face_by_indices(model, spec.face), spec.lambda0, model)
    vertex = face_by_indices(model, (0, 1, 2, 4))
    return vertex, induced_triangulation(vertex, tau, model)


@pytest.mark.parametrize(
    "build, short_volumes",
    [(_z3tetra_star, {"2/3"}), (_fuzz_codim4_induced, {"1/6", "5/6"})],
    ids=["z3tetra-star", "fuzz-n4-codim4"],
)
def test_subdivision_missing_any_simplex_is_rejected(build, short_volumes):
    face, tau = build()
    top_dim = face.codim - 1
    dims = set()
    volumes = set()
    for removed in tau.simplices:
        dims.add(removed.dim)
        rest = [sx for sx in tau.simplices if sx is not removed]
        if removed.dim == top_dim:
            volume = 1 - abs(_fraction_det(removed.coords))
            volumes.add(str(volume))
            message = f"maximal simplices cover volume {volume}, expected 1"
        else:
            message = "subdivision is not closed under faces"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _validated_subdivision(face, rest)
    assert dims == set(range(top_dim + 1))
    assert volumes == short_volumes


@pytest.mark.parametrize(
    "bad",
    [
        (Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)),
    ],
    ids=["negative", "sum-not-one"],
)
def test_subdivision_vertex_outside_face_simplex_is_rejected(bad):
    face, tau = _z3tetra_star()
    apex = (0, 0, 1)
    moved = [
        replace(sx, coords=tuple(bad if v == apex else c for v, c in zip(sx.verts, sx.coords)))
        for sx in tau.simplices
    ]
    message = f"vertex {bad} lies outside the face simplex"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _validated_subdivision(face, moved)
    # The last simplex holding the apex is the only one with the bad
    # coordinates: every coordinate tuple is checked, not each vertex once.
    last = max(i for i, sx in enumerate(tau.simplices) if apex in sx.verts)
    alone = list(tau.simplices)
    alone[last] = moved[last]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _validated_subdivision(face, alone)


def test_integer_volumes_equal_fraction_determinants(crepant_blowups):
    checked = 0
    for model, spec, _ in crepant_blowups:
        face = face_by_indices(model, spec.face)
        tau = star_subdivide(face, spec.lambda0, model)
        for sub in faces(model):
            if not set(spec.face) <= set(sub.facet_set):
                continue
            sub_tau = induced_triangulation(sub, tau, model)
            maximal = [sx for sx in sub_tau.simplices if sx.dim == sub.codim - 1]
            volumes, whole = _maximal_volumes(sub, sub_tau.simplices)
            assert [Fraction(v, whole) for v in volumes] == [
                abs(_fraction_det(sx.coords)) for sx in maximal
            ]
            assert sum(volumes) == whole
            checked += 1
    assert checked > 0
