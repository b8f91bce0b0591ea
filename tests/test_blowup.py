import gc
import json
import pathlib
import re
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import qtorb.blowup as blowup_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    BlowupError,
    LocalGroupTable,
    NonIntegralAgeError,
    apply_unimodular,
    blow_up,
    blow_up_table,
    check_age_partition,
    check_triangulation_identity,
    cr_report,
    crepant_candidates,
    faces,
    generate_test_models,
    generate_test_tables,
    identity_failures,
    induced_triangulation,
    is_crepant,
    make_blowup_spec,
    make_model,
    mckay_check,
    model_to_json,
    parse_model,
    random_unimodular,
    star_subdivide,
)
from qtorb.blowup import (
    _maximal_volumes,
    _star_cones,
    _subdivision_cones,
    _validated_subdivision,
    table_failures,
)
from qtorb.cli import main
from qtorb.exact import Poly
from qtorb.intlat import det
from tests import test_model
from tests.conftest import checked, crepant_blowups_of, face_by_indices
from tests.test_model import vertex_matrix
from tests.test_sectors import group_points, record_points

ROOT = pathlib.Path(__file__).resolve().parent.parent


def blown_tables(model, blowup):
    """The model's table and the blown-up model's, which has every
    interior cone of the star subdivision at the new vector as a face."""
    groups = LocalGroupTable(model)
    return groups, blow_up_table(groups, blowup)


def combination(cols, coeffs):
    """The point sum(c * col) of rational coefficients over integer columns."""
    return tuple(sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(len(cols[0])))


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
    blowup = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    assert blowup.spec.lambda0 == (0, -1)
    blown = blow_up(blowup)
    assert blown.m == 4
    assert blown.vertices == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert blown.char_vectors == ((1, 0), (0, 1), (-1, -2), (0, -1))
    # Round-trips through serialization and full validation.
    assert parse_model(model_to_json(blown)) == blown


def test_blow_up_z3_resolves(z3):
    blowup = make_blowup_spec(z3, (0, 1, 2), ["1/3", "1/3", "1/3"])
    assert blowup.spec.lambda0 == (0, 0, 1)
    blown = blow_up(blowup)
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
            blown = blow_up(checked(model, spec))
            assert blown.m == model.m + 1
            assert len(blown.vertices) == len(model.vertices) + touched * (
                len(spec.face) - 1
            )
            assert parse_model(model_to_json(blown)) == blown


# Hand-built specs that do not fit wp112, each with the one text the spec
# check gives for it, and whether the check without the new vector, which
# builds that vector itself, can express the fault.
SPEC_FAULTS = [
    ((0,), (Fraction(1),), (1, 0), "blowup requires a face of codimension >= 2, got codimension 1", True),
    ((0, 1, 2), (Fraction(1, 3),) * 3, (0, 0), "[0, 1, 2] is not a face of the model", True),
    ((0, 2), (Fraction(1, 2),), (0, -1), "expected 2 weights, got 1", True),
    ((0, 2), (Fraction(0), Fraction(1)), (-1, -2), "blowup weights must be strictly positive", True),
    ((0, 2), (Fraction(1, 2),) * 2, (0, 1), "weights on [0, 2] do not give the new vector [0, 1]", False),
    ((0, 2), (Fraction(1), Fraction(1)), (0, -2), "new characteristic vector [0, -2] is not primitive", True),
    (
        (0, 2),
        (Fraction(1, 2),) * 2,
        (0, -(10 ** sys.get_int_max_str_digits())),
        f"new characteristic vector on face [0, 2] has an entry of more than "
        f"{sys.get_int_max_str_digits()} digits, the limit for printing an integer",
        False,
    ),
]


@pytest.mark.parametrize(
    "face, weights, lambda0, error, expressible",
    SPEC_FAULTS,
    ids=["facet", "not a face", "weight count", "zero weight", "wrong sum", "not primitive", "too long"],
)
def test_blow_up_checks_the_spec_against_the_model(
    wp112, face, weights, lambda0, error, expressible
):
    """The derivation trusts the checked blowup, so a hand-built spec that
    does not fit the model is refused before anything is derived from it,
    by ``make_blowup_spec`` given the spec's new vector and, where it can
    be asked for, without it, each with the same text."""
    calls = [lambda: make_blowup_spec(wp112, face, weights, lambda0)]
    if expressible:
        calls.append(lambda: make_blowup_spec(wp112, face, weights))
    for call in calls:
        with pytest.raises(BlowupError, match=f"^{re.escape(error)}$"):
            call()
    fitting = make_blowup_spec(wp112, (0, 2), (Fraction(1, 2),) * 2, (0, -1))
    assert blow_up(fitting) == blow_up(make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"]))


def _unit_truncations(table):
    """The checked blowup of every unit-weight truncation of a face of
    codimension at least 2 whose new vector is primitive: the
    generator's non-crepant blowups."""
    model = table.model
    for face in table.faces:
        if face.codim >= 2:
            try:
                yield make_blowup_spec(model, face.facet_set, [1] * face.codim)
            except BlowupError:
                pass


def _validated_blowup(model, spec):
    """The blown-up model as full validation makes it from the split
    vertices: the reference for the derived one."""
    cut, new = set(spec.face), model.m
    vertices = []
    for vertex in model.vertices:
        if cut <= set(vertex):
            vertices += [tuple(sorted(set(vertex) - {j} | {new})) for j in spec.face]
        else:
            vertices.append(vertex)
    return make_model(model.n, model.m + 1, vertices, model.char_vectors + (spec.lambda0,), name=model.name)


def test_derived_blowups_are_the_validated_models(corpus):
    """Every crepant candidate and unit-weight truncation of the corpus and
    of ``generate_test_models(s, 20, n)``, s = 1..10, n = 2, 3, 4, derives
    the model that full validation makes, vertex determinants included,
    which equality ignores; every crepant candidate also derives the
    cones of the interior simplices of the validated star subdivision,
    as facet sets of the blown-up model."""
    models = list(corpus) + [
        model for n in (2, 3, 4) for seed in range(1, 11) for model in generate_test_models(seed, 20, n)
    ]
    derived = stars = 0
    for model in models:
        table = LocalGroupTable(model)
        candidates = [checked(model, spec) for spec in crepant_candidates(table)]
        for blowup in candidates:
            face, tau = blowup.face, star_subdivide(blowup)
            assert sorted(_star_cones(face, face, model.m)) == _subdivision_cones(tau.interior, face, blowup.spec, model)
            stars += 1
        for blowup in candidates + list(_unit_truncations(table)):
            blown, validated = blow_up(blowup), _validated_blowup(model, blowup.spec)
            assert blown == validated, (model, blowup.spec)
            assert blown.vertex_dets == validated.vertex_dets, (model, blowup.spec)
            derived += 1
    assert derived > 9000 and stars > 700


def _flip_a_derived_sign(monkeypatch):
    """Mutation: ``blow_up`` derives the first vertex on the new facet with
    its determinant's sign flipped."""
    real = blowup_mod.Model

    def flipped(**fields):
        dets = list(fields["vertex_dets"])
        i = next(i for i, v in enumerate(fields["vertices"]) if fields["m"] - 1 in v)
        dets[i] = -dets[i]
        return real(**{**fields, "vertex_dets": tuple(dets)})

    monkeypatch.setattr(blowup_mod, "Model", flipped)


def test_a_flipped_derived_sign_is_reported(monkeypatch, capsys, corpus):
    """The default path reads only |det|, so a wrong sign passes it; the
    oracle and the determinants' definition both report it."""
    _flip_a_derived_sign(monkeypatch)
    argv = ["fuzz", "--seed", "1", "--count", "5", "--n", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--oracle"]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert failures and all("are not validation's" in text for text in failures)
    with pytest.raises(AssertionError):
        test_model.test_stored_vertex_dets_match_the_definition(corpus, crepant_blowups_of(corpus))


def test_star_subdivide_segment(wp112):
    tau = star_subdivide(make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"]))
    assert tau.ambient_face == face_by_indices(wp112, (0, 2))
    assert len(tau.simplices) == 5
    assert len(tau.interior) == 3
    interior_verts = {sx.verts for sx in tau.interior}
    assert ((0, -1),) in interior_verts
    assert all((0, -1) in sx.verts for sx in tau.interior)


def test_star_subdivide_triangle(z3):
    tau = star_subdivide(make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3))
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
    one, zero, two_thirds = Fraction(1), Fraction(0), Fraction(2, 3)
    with pytest.raises(BlowupError, match="^blowup weights must be strictly positive$"):
        star_subdivide(make_blowup_spec(z3, (0, 1, 2), (one, zero, zero), (1, 0, 0)))
    with pytest.raises(BlowupError, match=re.escape("new characteristic vector [0, 0, 2] is not primitive")):
        star_subdivide(make_blowup_spec(z3, (0, 1, 2), (two_thirds,) * 3, (0, 0, 2)))


def test_star_subdivide_rejects_weights_that_miss_the_point(z3):
    third = Fraction(1, 3)
    with pytest.raises(BlowupError, match=re.escape("do not give the new vector [0, 0, 2]")):
        star_subdivide(make_blowup_spec(z3, (0, 1, 2), (third,) * 3, (0, 0, 2)))
    with pytest.raises(BlowupError, match="^expected 3 weights, got 2$"):
        star_subdivide(make_blowup_spec(z3, (0, 1, 2), (Fraction(1, 2),) * 2, (0, 0, 1)))
    with pytest.raises(BlowupError, match="not a face"):
        star_subdivide(make_blowup_spec(z3, (0, 1, 2, 3), (Fraction(1, 4),) * 4, (0, 0, 1)))


def test_every_built_spec_gives_its_star_point(corpus):
    """The weights of every spec that ``crepant_candidates`` and
    ``make_blowup_spec`` build give its new vector: crepant specs
    subdivide, and unit weights fail only for their sum."""
    crepant = unit = 0
    for model in corpus:
        for spec in crepant_candidates(LocalGroupTable(model)):
            assert make_blowup_spec(model, spec.face, spec.weights).spec == spec
            assert star_subdivide(checked(model, spec)).ambient_face.facet_set == spec.face
            crepant += 1
        for face in faces(model):
            if face.codim < 2:
                continue
            try:
                blowup = make_blowup_spec(model, face.facet_set, [1] * face.codim)
            except BlowupError:
                continue
            text = f"weights sum to {face.codim}, expected 1 for a crepant blowup"
            with pytest.raises(BlowupError, match=f"^{text}$"):
                star_subdivide(blowup)
            unit += 1
    assert crepant and unit


def test_induced_triangulation_identity_case(z3):
    tau = star_subdivide(make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3))
    assert induced_triangulation(face_by_indices(z3, (0, 1, 2)), tau, z3) is tau


def test_induced_triangulation_on_prism_vertices(prism):
    tau = star_subdivide(make_blowup_spec(prism, (0, 1), ["1/2", "1/2"]))
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
    tau = star_subdivide(make_blowup_spec(prism, (0, 1), ["1/2", "1/2"]))
    other = face_by_indices(prism, (2, 3))
    with pytest.raises(ValueError, match="subface"):
        induced_triangulation(other, tau, prism)


def test_triangulation_identity_wp112(wp112):
    blowup = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    tau = star_subdivide(blowup)
    vertex = tau.ambient_face
    groups, blown = blown_tables(wp112, blowup)
    cones = _subdivision_cones(tau.interior, vertex, blowup.spec, wp112)
    assert cones == [(0, (0, 3)), (0, (2, 3)), (1, (3,))]
    check = check_triangulation_identity(vertex, cones, groups, blown)
    assert check.passed
    assert check.lhs == Poly([1, 1])
    assert check.rhs == Poly([1, 1])


def test_triangulation_identity_names_a_missing_cone(z3):
    """The base model's table lacks the cones on the new facet of a star
    subdivision; the first one the identity reads is named, the first
    time its facet set is asked for."""
    blowup = make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3)
    tau = star_subdivide(blowup)
    vertex = tau.ambient_face
    groups = LocalGroupTable(z3)
    cones = _subdivision_cones(tau.interior, vertex, blowup.spec, z3)
    assert cones[0] == (0, (0, 1, 4))
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape("[0, 1, 4] is not a face of the model")):
            check_triangulation_identity(vertex, cones, groups, groups)


def test_triangulation_identity_z3(z3):
    blowup = make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3)
    tau = star_subdivide(blowup)
    vertex = tau.ambient_face
    groups, blown = blown_tables(z3, blowup)
    check = check_triangulation_identity(vertex, _subdivision_cones(tau.interior, vertex, blowup.spec, z3), groups, blown)
    assert check.passed
    assert check.lhs == Poly([1, 1, 1])


def test_weights_pair_with_the_face_as_given(wp112):
    # 1 * lambda_2 + 2 * lambda_0 = (-1, -2) + (2, 0)
    blowup = make_blowup_spec(wp112, (2, 0), [1, 2])
    assert blowup == make_blowup_spec(wp112, (0, 2), [2, 1])
    assert blowup.spec.face == (0, 2) and blowup.spec.weights == (2, 1)
    assert blowup.spec.lambda0 == (1, -2)


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


def test_mckay_check_refuses_a_blowup_checked_against_another_model(wp112):
    """A checked blowup belongs to the model it was checked against:
    ``mckay_check`` refuses it with a report on another model, and takes
    it with a report on an equal one."""
    blowup = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    flipped = apply_unimodular(wp112, ((-1, 0), (0, -1)))
    text = "the blowup of [0, 2] was checked against another model than the report's"
    with pytest.raises(BlowupError, match=f"^{re.escape(text)}$"):
        mckay_check(cr_report(LocalGroupTable(flipped)), blowup)
    assert mckay_check(cr_report(LocalGroupTable(parse_model(model_to_json(wp112)))), blowup).verdict


def test_smooth_model_crepant_blowup(cp2):
    # A smooth corner: the only crepant centers have unit-sum integer
    # coordinates; (1,1) weights are not crepant, so build one by hand on
    # a model with an A_1 vertex whose blowup is again handled generically.
    candidates = crepant_candidates(LocalGroupTable(cp2))
    assert candidates == []


def test_crepant_candidates_compute_the_points_of_age_one_elements(monkeypatch, corpus):
    """Only an interior element of age 1 can give a crepant blowup, and
    only its point is computed, once, to test it for primitivity."""
    computed = record_points(monkeypatch)
    candidates = skipped = 0
    for model in corpus:
        table = LocalGroupTable(model)
        table.groups
        computed.clear()
        candidates += len(crepant_candidates(table))
        expected = []
        for group in table.groups:
            if group.face.codim < 2:
                continue
            for i in group.interior:
                if sum(group.numerators[i]) == group.exponent:
                    expected.append((group, i))
                else:
                    skipped += 1
        assert computed == expected, model.name
    assert candidates > 0 and skipped > 0


def test_box_partition_computes_each_point_once(monkeypatch, corpus):
    """One box_partition call computes each point of each group at most
    once, though a sector group of positive dimension, the polytope at
    least, is a piece at each of its vertices."""
    computed = record_points(monkeypatch)
    for model in corpus:
        table = LocalGroupTable(model)
        vertices = [table.group(face) for face in faces(model) if face.codim == model.n]
        computed.clear()
        assert list(blowup_mod.box_partition(table, table.groups)) == []
        pieces = {(g, i) for v in vertices for g in table.sector_groups_containing(v.face) for i in g.interior}
        whole = {(v, i) for v in vertices for i in range(v.order)}
        assert len(computed) == len(set(computed)) and set(computed) == whole | pieces, model.name


def test_lemma_quasi_sl_preserved_on_corpus(corpus):
    for model in corpus:
        for spec in crepant_candidates(LocalGroupTable(model)):
            assert LocalGroupTable(blow_up(checked(model, spec))).quasi_sl


def test_mckay_on_corpus(corpus):
    count = 0
    for model in corpus:
        before = cr_report(LocalGroupTable(model))
        for spec in crepant_candidates(before.groups):
            report = mckay_check(before, checked(model, spec))
            assert report.verdict, (model.name, spec)
            count += 1
    assert count > 0


def test_iterated_blowups(z3):
    model = z3
    for _ in range(3):
        report = cr_report(LocalGroupTable(model))
        candidates = crepant_candidates(report.groups)
        if not candidates:
            break
        before = report.pp_cr
        model = blow_up(checked(model, candidates[0]))
        assert LocalGroupTable(model).quasi_sl
        assert cr_report(LocalGroupTable(model)).pp_cr == before


def test_induced_triangulation_solves_no_vertex(prism):
    """The induced coordinates are the star subdivision's, placed at the
    parent facets' positions, and unit vectors for the extra facets; each
    gives its vertex back over the subface's vectors."""
    tau = star_subdivide(make_blowup_spec(prism, (0, 1), ["1/2", "1/2"]))
    vertex = face_by_indices(prism, (0, 1, 3))
    induced = induced_triangulation(vertex, tau, prism)
    cols = [prism.char_vectors[i] for i in vertex.facet_set]
    coords = {v: c for sx in induced.simplices for v, c in zip(sx.verts, sx.coords)}
    assert coords == {
        (1, 0, 0): (1, 0, 0),
        (1, 2, 0): (0, 1, 0),
        (1, 1, 0): (Fraction(1, 2), Fraction(1, 2), 0),
        (0, 0, 1): (0, 0, 1),
    }
    assert all(combination(cols, c) == v for v, c in coords.items())


def _assert_equals_fresh(table):
    """``table`` holds what a table of its model built afresh holds: the
    faces, every group with its points and age polynomials, the
    h-vectors, the report and the table checks' verdicts."""
    fresh = LocalGroupTable(table.model)
    assert table.faces == fresh.faces
    assert len(table.groups) == len(fresh.groups)
    for a, b in zip(table.groups, fresh.groups):
        assert a.face == b.face
        assert a.columns == b.columns
        assert a.exponent == b.exponent
        assert a.numerators == b.numerators
        assert group_points(a) == group_points(b)
        assert a.age_polynomial == b.age_polynomial
        assert a.interior_age_polynomial == b.interior_age_polynomial
        assert a.box_elements() == b.box_elements()
    assert table.sector_h_vectors == fresh.sector_h_vectors
    assert cr_report(table) == cr_report(fresh)
    assert table_failures(table, table.groups, False) == table_failures(fresh, fresh.groups, False) == []


def test_blown_table_from_base_equals_fresh_table(crepant_blowups):
    assert crepant_blowups
    for model, spec, blown in crepant_blowups:
        base = LocalGroupTable(model)
        base.groups  # a table lends only the groups it has built
        reused = blow_up_table(base, spec)
        assert reused.model == blown
        _assert_equals_fresh(reused)


def test_a_blown_table_built_on_a_sibling_equals_a_fresh_table(crepant_blowups):
    """Two crepant blowups of one face have one vertex list.  The second's
    table, built on the first's once its report has built every group,
    shares that table's face lattice and, as they are, the groups of
    every face off the new facet, whose columns are the same; the faces
    on it, whose columns differ, are built anew.  It equals the table
    built afresh."""
    siblings = 0
    for (model, first_spec, _), (other, spec, blown) in zip(crepant_blowups, crepant_blowups[1:]):
        if other is not model or first_spec.face != spec.face:
            continue
        first = blow_up_table(LocalGroupTable(model), first_spec)
        cr_report(first)
        table = LocalGroupTable(blown, first)
        assert table.faces is first.faces
        shared = {g.face.facet_set for g in table.groups if first.group(g.face) is g}
        assert shared == {f.facet_set for f in table.faces if model.m not in f.facet_set}
        _assert_equals_fresh(table)
        siblings += 1
    assert siblings > 0


def test_a_blown_table_lets_go_of_the_groups_it_did_not_take(wp112):
    """A blown-up table holds the groups of the table it was built on
    until it has built all of its own: then the group of the blown-up
    vertex, which it does not take, is freed with that table."""
    base = LocalGroupTable(wp112)
    base.groups
    blowup = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    blown = blow_up_table(base, blowup)
    lent = weakref.ref(base.group(blowup.face))
    del base
    gc.collect()
    assert lent() is not None
    assert all(group.face.facet_set != (0, 2) for group in blown.groups)
    gc.collect()
    assert lent() is None


def test_a_table_built_on_a_unimodular_change_equals_a_fresh_table(corpus, rng):
    """A unimodular change keeps the vertex list: the new table shares the
    face lattice of the table it is built on, and takes a group only
    where the columns are unchanged, every group under the identity and
    few under a random change.  It equals the table built afresh."""
    for model in corpus:
        table = LocalGroupTable(model)
        table.groups  # a table lends only the groups it has built
        identity = tuple(tuple(int(i == j) for j in range(model.n)) for i in range(model.n))
        for u in (identity, random_unimodular(rng, model.n)):
            changed = LocalGroupTable(apply_unimodular(model, u), table)
            assert changed.faces is table.faces
            _assert_equals_fresh(changed)
        unchanged = LocalGroupTable(apply_unimodular(model, identity), table)
        assert all(table.group(g.face) is g for g in unchanged.groups)


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
    assert identity_failures(LocalGroupTable(prism), include_oracle=True) == []
    _mislabel_as_trivial(monkeypatch, (0, 1))
    failures = identity_failures(LocalGroupTable(prism), include_oracle=True)
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
    """The order check reads |det| from the model, so the default path
    computes no determinant in this module; the only ones left are the
    volumes of the validated subdivisions, which the oracles build."""
    callers = set()

    def recording_det(mat):
        callers.add(sys._getframe(1).f_code.co_name)
        return det(mat)

    monkeypatch.setattr(blowup_mod, "det", recording_det)
    for model in corpus:
        assert identity_failures(LocalGroupTable(model)) == [], model.name
    assert callers == set()
    for model in corpus:
        assert identity_failures(LocalGroupTable(model), include_oracle=True) == [], model.name
    assert callers == {"_maximal_volumes"}


def _record_calls(monkeypatch, *names):
    """Patch each named function of the blowup module to record its calls;
    the name of every call made, in order."""
    calls = []

    def recording(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in names:
        monkeypatch.setattr(blowup_mod, name, recording(name, getattr(blowup_mod, name)))
    return calls


def test_mckay_check_checks_its_spec_once(monkeypatch, crepant_blowups):
    """One spec check and one crepant check per McKay check: the blown-up
    model and the star interior are derived from the one checked blowup
    that ``make_blowup_spec`` returns."""
    calls = _record_calls(monkeypatch, "make_blowup_spec", "_crepant")
    for model, blowup, _ in crepant_blowups:
        before = cr_report(LocalGroupTable(model))
        spec = blowup.spec
        calls.clear()
        assert mckay_check(before, blowup_mod.make_blowup_spec(model, spec.face, spec.weights, spec.lambda0)).verdict
        assert sorted(calls) == ["_crepant", "make_blowup_spec"], (model.name, spec)


@pytest.mark.parametrize("include_oracle", [False, True], ids=["default", "oracle"])
def test_identity_failures_checks_each_candidate_once(monkeypatch, include_oracle):
    """``identity_failures`` runs one spec check per crepant candidate,
    with or without the oracle: the McKay check and the oracle's star
    subdivision take the one checked blowup."""
    tables = list(generate_test_tables(3, 40, n=4))
    candidates = sum(len(crepant_candidates(table)) for table in tables)
    calls = _record_calls(monkeypatch, "make_blowup_spec")
    for table in tables:
        assert identity_failures(table, include_oracle=include_oracle) == []
    assert candidates > 0 and len(calls) == candidates


def test_default_identity_failures_validate_no_subdivision(monkeypatch, corpus):
    """The default path derives every star interior and validates no
    subdivision; the oracle validates one star subdivision per McKay
    check, and the induced triangulation of each proper subface."""
    calls = _record_calls(monkeypatch, "_validated_subdivision", "_maximal_volumes")
    validated = 0
    for model in corpus:
        table = LocalGroupTable(model)
        candidates = crepant_candidates(table)
        calls.clear()
        assert identity_failures(table) == []
        assert calls == []
        assert identity_failures(LocalGroupTable(model), include_oracle=True) == []
        expected = sum(len(_subfaces(model, spec)) for spec in candidates)
        assert calls.count("_validated_subdivision") == calls.count("_maximal_volumes") == expected
        validated += expected
    assert validated > 0


def test_vertex_order_is_checked_against_the_determinant(monkeypatch, z3):
    """The order-3 vertex (0, 1, 2) of the tetrahedron built as the trivial
    group gives a wrong PP_CR that both partition checks accept: its lower
    faces are all trivial.  The vertex order against |det| flags it
    without the oracle, and so does the orbifold Euler number, the sum
    of the |det|."""
    assert identity_failures(LocalGroupTable(z3)) == []
    _mislabel_as_trivial(monkeypatch, (0, 1, 2))
    assert cr_report(LocalGroupTable(z3)).pp_cr == Poly([1, 1, 1, 1])
    assert all(ok for _, ok in check_age_partition(LocalGroupTable(z3)))
    assert identity_failures(LocalGroupTable(z3)) == [
        "z3-tetrahedron: the Chen-Ruan Betti numbers sum to 4, not the orbifold Euler number 6",
        "z3-tetrahedron: group order 1 is not |det| 3 at vertex [0, 1, 2]",
    ]


def _fuzz_n4_1():
    """The second model of ``generate_test_models(1, ..., n=4)``.  Its first
    crepant candidate blows up the face (0, 4), and the new facet 5 of the
    blown-up model carries the order-4 vertex (0, 1, 2, 5) and the order-4
    edge (0, 5).  The hand-built models blow up to smooth faces on their
    new facets only."""
    model = generate_test_models(1, 2, n=4)[1]
    assert model.name == "fuzz-n4-1" and model.m == 5
    return model


def test_blown_table_vertex_order_is_checked_without_the_oracle(monkeypatch):
    """The order-4 vertex (0, 1, 2, 5) of the blown-up model built as the
    trivial group fails its order against |det| on the default path,
    reported with the blowup, after the candidate's verdict."""
    model = _fuzz_n4_1()
    assert identity_failures(LocalGroupTable(model), include_oracle=True) == []
    _mislabel_as_trivial(monkeypatch, (0, 1, 2, 5))
    failures = identity_failures(LocalGroupTable(model))
    prefix = "fuzz-n4-1: crepant blowup at [0, 4]"
    order = f"{prefix}: group order 1 is not |det| 4 at vertex [0, 1, 2, 5]"
    assert failures[:2] == [f"{prefix} changes the Betti numbers", order]
    assert all(f.startswith(prefix) for f in failures)


def test_blown_table_box_enumeration_is_an_oracle(monkeypatch):
    """The order-4 edge (0, 5) of the blown-up model built as the trivial
    group disagrees with the exhaustive search, which runs on the faces of
    the new facet under the oracle and only there."""
    model = _fuzz_n4_1()
    _mislabel_as_trivial(monkeypatch, (0, 5))
    message = "fuzz-n4-1: crepant blowup at [0, 4]: box enumeration disagrees with exhaustion at [0, 5]"
    assert message not in identity_failures(LocalGroupTable(model))
    assert message in identity_failures(LocalGroupTable(model), include_oracle=True)


@pytest.mark.parametrize("order", [1000, 1])
def test_a_wrong_group_order_is_reported_by_the_oracle(monkeypatch, order):
    """The oracles skip a face by the lattice index of its columns, not by
    the group order they check: a wrong order on the order-2 edge (0, 1)
    of the z4 tetrahedron, above the bound or below the index, is
    reported by the box oracle, and the edge's dilate series is still
    checked.  No default check reads an edge's order."""
    model = _z4_tetra_blowups()[0][0]
    table = LocalGroupTable(model)
    edge = table.group(face_by_indices(model, (0, 1)))
    assert edge.order == 2
    edge.order = order
    series: list[tuple] = []
    real = blowup_mod.ehrhart_numerator
    monkeypatch.setattr(blowup_mod, "ehrhart_numerator", lambda sx: series.append(sx.verts) or real(sx))
    text = f"group order {order} is not the lattice index 2 at [0, 1]"
    assert list(blowup_mod.box_enumeration(table, table.groups)) == [text]
    assert list(blowup_mod.dilate_numerators(table, table.groups)) == []
    assert edge.columns in series
    assert identity_failures(table) == []
    assert identity_failures(table, include_oracle=True) == [f"z4-tetrahedron: {text}"]


@pytest.mark.parametrize("include_oracle", [False, True], ids=["default", "oracle"])
def test_table_checks_run_once_per_table(monkeypatch, corpus, include_oracle):
    """The base table runs the table checks on every face; each quasi-SL
    blown-up table runs them on the faces of its new facet, whose other
    faces are the base table's.  The oracles run only when asked for."""
    runs = []

    def recording(check):
        def run(table, groups):
            runs.append((check.__name__, table.model, [g.face for g in groups]))
            return check(table, groups)

        return run

    checks = blowup_mod.TABLE_CHECKS
    names = [check.__name__ for check, oracle in checks if include_oracle or not oracle]
    monkeypatch.setattr(blowup_mod, "TABLE_CHECKS", tuple((recording(check), oracle) for check, oracle in checks))
    blown_runs = 0
    for model in corpus[::3]:
        table = LocalGroupTable(model)
        expected = [(name, model, list(faces(model))) for name in names]
        for spec in crepant_candidates(table):
            blown = blow_up_table(table, checked(model, spec))
            if blown.quasi_sl:
                on_new_facet = [f for f in faces(blown.model) if model.m in f.facet_set]
                expected += [(name, blown.model, on_new_facet) for name in names]
                blown_runs += 1
        runs.clear()
        assert identity_failures(LocalGroupTable(model), include_oracle) == []
        assert runs == expected, model.name
    assert blown_runs > 0


def test_mckay_runs_one_triangular_basis_per_face_on_the_new_facet(
    monkeypatch, crepant_blowups, basis_faces
):
    """The blown table takes every face off the new facet m from the base
    table; the faces on m are exactly the cones that the identities of
    the subfaces read from that table by facet set, each once.  Of
    those, the faces of codimension at least 2 through no smooth vertex
    compute a triangular basis; the facet m itself computes none."""
    inside: list[bool] = []
    calls: list[bool] = []
    cones: list[tuple[int, ...]] = []
    real_basis = sectors_mod.triangular_form
    real_check = blowup_mod.check_triangulation_identity

    def check(face, read, groups, blown_table):
        cones.extend(facets for _, facets in read)
        inside.append(True)
        try:
            return real_check(face, read, groups, blown_table)
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
        assert set(cones) == {f.facet_set for f in on_new_facet}


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
    blowups = [checked(model, spec) for spec in crepant_candidates(LocalGroupTable(model))]
    return [(model, blowup, blow_up(blowup)) for blowup in blowups]


def test_join_equals_induced_triangulation_on_every_subface(crepant_blowups):
    """The interior simplices of each subface's induced triangulation are
    those of the validated star subdivision joined with the subface's
    extra vectors, of the same codimension; their cones, as facet sets
    of the blown-up model, are the ones ``mckay_check`` reads for the
    subface, so its lazy right-hand sides equal those of the validated
    induced triangulations."""
    proper = 0
    for model, blowup, _ in crepant_blowups + _z4_tetra_blowups():
        spec = blowup.spec
        report = mckay_check(cr_report(LocalGroupTable(model)), blowup)
        tau = star_subdivide(blowup)
        assert report.blowup is blowup and blowup.face == tau.ambient_face
        subfaces = _subfaces(model, spec)
        assert [check.face for check in report.triangulation_checks] == subfaces
        for check, sub in zip(report.triangulation_checks, subfaces):
            extra = tuple(model.char_vectors[i] for i in sub.facet_set if i not in spec.face)
            induced = induced_triangulation(sub, tau, model)
            assert sorted((sx.codim, sorted(sx.verts)) for sx in induced.interior) == sorted(
                (sx.codim, sorted(sx.verts + extra)) for sx in tau.interior
            )
            cones = _subdivision_cones(induced.interior, sub, spec, model)
            assert sorted(_star_cones(blowup.face, sub, model.m)) == cones
            oracle = check_triangulation_identity(sub, cones, report.before.groups, report.blown_groups)
            assert check.rhs == oracle.rhs
            assert check.passed and oracle.passed
            proper += bool(extra)
    assert proper > 0
    z4_tetra = _z4_tetra_blowups()[0][0]
    assert identity_failures(LocalGroupTable(z4_tetra), include_oracle=True) == []


def _mutate_star_cones(monkeypatch, index, repeat=False):
    """Make ``mckay_check`` derive, for every subface, star cones that
    lack their ``index``-th cone or, with ``repeat``, hold it twice."""
    real = blowup_mod._star_cones

    def derived(face, sub, m):
        cones = real(face, sub, m)
        return cones[:index] + cones[index:index + 1] * (2 if repeat else 0) + cones[index + 1:]

    monkeypatch.setattr(blowup_mod, "_star_cones", derived)


def test_mckay_fails_without_an_interior_simplex(monkeypatch, crepant_blowups):
    """Every dropped cone of an interior simplex drops a nonzero term
    (s-1)^codim w(cone) from every subface's sum, so every identity
    fails, on the default path."""
    mutated = 0
    for model, blowup, _ in crepant_blowups:
        spec = blowup.spec
        before = cr_report(LocalGroupTable(model))
        size = len(star_subdivide(blowup).interior)
        assert size == 2 ** len(spec.face) - 1
        for index in range(size):
            with monkeypatch.context() as patch:
                _mutate_star_cones(patch, index)
                report = mckay_check(before, blowup)
            assert not report.verdict, (model.name, spec, index)
            assert not any(check.passed for check in report.triangulation_checks)
            mutated += 1
    assert mutated > len(crepant_blowups)


@pytest.mark.parametrize("repeat", [False, True], ids=["drop", "repeat"])
def test_a_wrong_star_interior_is_named_by_the_oracle(monkeypatch, crepant_blowups, prism, repeat):
    """Derived star cones that lack a cone or hold one twice fail the
    verdict on the default path, and the oracle that compares them with
    the validated star subdivision's names the face."""
    mutated = 0
    for model, blowup, _ in crepant_blowups[::3] + _z4_tetra_blowups():
        spec = blowup.spec
        table = LocalGroupTable(model)
        before = cr_report(table)
        size = 2 ** len(spec.face) - 1
        text = (
            f"the derived interior of the star subdivision of {list(spec.face)} "
            f"({size + (1 if repeat else -1)} simplices) is not the validated one ({size} simplices)"
        )
        for index in range(size):
            with monkeypatch.context() as patch:
                _mutate_star_cones(patch, index, repeat)
                report = mckay_check(before, blowup)
                assert not report.verdict, (model.name, spec, index)
                assert list(blowup_mod.validated_star_interior(report, star_subdivide(blowup))) == [text]
            mutated += 1
    assert mutated > 0
    prefix = "prism: crepant blowup at [0, 1]"
    row = (
        f"{prefix}: the derived interior of the star subdivision of [0, 1] "
        f"({3 + (1 if repeat else -1)} simplices) is not the validated one (3 simplices)"
    )
    with monkeypatch.context() as patch:
        _mutate_star_cones(patch, 0, repeat)
        default = identity_failures(LocalGroupTable(prism))
        oracle = identity_failures(LocalGroupTable(prism), include_oracle=True)
    assert default == [f"{prefix} changes the Betti numbers"]
    assert oracle[:2] == [f"{prefix} changes the Betti numbers", row]


def test_mckay_fails_without_the_extra_vectors(monkeypatch, crepant_blowups):
    """Star cones that ignore a proper subface S's facets outside the
    face F are F's own, so S's identity sums F's right-hand side, w(F),
    and fails exactly when w(S) differs from w(F); the oracle that reads
    the validated induced triangulation names those subfaces."""
    real = blowup_mod._star_cones
    monkeypatch.setattr(blowup_mod, "_star_cones", lambda face, sub, m: real(face, face, m))
    flipped = []
    for model, blowup, _ in crepant_blowups + _z4_tetra_blowups():
        spec = blowup.spec
        groups = LocalGroupTable(model)
        report = mckay_check(cr_report(groups), blowup)
        own = groups.group(face_by_indices(model, spec.face)).age_polynomial
        differ = [
            sub for sub in _subfaces(model, spec) if groups.group(sub).age_polynomial != own
        ]
        assert [c.face for c in report.triangulation_checks if not c.passed] == differ
        assert report.verdict == (not differ)
        named = [
            text.split(" sums to ")[0]
            for text in blowup_mod.induced_triangulation_sums(report, star_subdivide(blowup))
        ]
        assert named == [f"the induced triangulation of {list(sub.facet_set)}" for sub in differ]
        if differ:
            flipped.append((model.name, spec.face, [sub.facet_set for sub in differ]))
    assert flipped == [("z4-tetrahedron", (0, 1), [(0, 1, 2)])]


def test_oracle_reports_a_lazy_sum_that_disagrees(monkeypatch, prism):
    """With a cone missing from those the identities of ``mckay_check``
    read, every subface's lazy sum differs from the one the oracle gets
    from the validated induced triangulation of the validated star
    subdivision."""
    assert identity_failures(LocalGroupTable(prism), include_oracle=True) == []
    real_mckay = blowup_mod.mckay_check
    real_check = blowup_mod.check_triangulation_identity

    def lossy_check(face, cones, groups, blown):
        return real_check(face, list(cones)[1:], groups, blown)

    def mckay(before, spec, lender=None):
        with monkeypatch.context() as patch:
            patch.setattr(blowup_mod, "check_triangulation_identity", lossy_check)
            return real_mckay(before, spec, lender)

    monkeypatch.setattr(blowup_mod, "mckay_check", mckay)
    betti = "prism: crepant blowup at [0, 1] changes the Betti numbers"
    assert identity_failures(LocalGroupTable(prism)) == [betti]
    failures = identity_failures(LocalGroupTable(prism), include_oracle=True)
    assert failures[0] == betti
    subfaces = [[0, 1], [0, 1, 3], [0, 1, 4]]
    assert len(failures) == 1 + len(subfaces)
    for message, sub in zip(failures[1:], subfaces):
        assert message.startswith(
            f"prism: crepant blowup at [0, 1]: the induced triangulation of {sub} sums to "
        )


def test_oracle_builds_one_star_subdivision_per_mckay_check(monkeypatch, corpus):
    """Under the oracle, each crepant candidate runs one star subdivision,
    which both the star interior and the induced triangulation oracles
    read; the default path runs none."""
    calls = _record_calls(monkeypatch, "star_subdivide")
    checked = 0
    for model in corpus[::4]:
        candidates = crepant_candidates(LocalGroupTable(model))
        calls.clear()
        assert identity_failures(LocalGroupTable(model)) == []
        assert calls == []
        assert identity_failures(LocalGroupTable(model), include_oracle=True) == []
        assert len(calls) == len(candidates)
        checked += len(candidates)
    assert checked > 0


def test_induced_coordinates_equal_the_solve(crepant_blowups):
    """Each induced coordinate tuple c gives its vertex v as the sum of
    c * lambda over the subface's columns; they are independent, so c is
    the one solution."""
    for model, blowup, _ in crepant_blowups:
        tau = star_subdivide(blowup)
        for sub in faces(model):
            if not set(blowup.spec.face) <= set(sub.facet_set):
                continue
            cols = [model.char_vectors[i] for i in sub.facet_set]
            for sx in induced_triangulation(sub, tau, model).simplices:
                for v, c in zip(sx.verts, sx.coords):
                    assert combination(cols, c) == v


def _z3tetra_star():
    model = parse_model((ROOT / "models" / "z3tetra.json").read_text(encoding="utf-8"))
    tau = star_subdivide(make_blowup_spec(model, (0, 1, 2), ["1/3"] * 3))
    return tau.ambient_face, tau


def _fuzz_codim4_induced():
    """An induced triangulation of a vertex (codimension 4) of a fuzz n = 4
    model, from the crepant blowup of an edge with weights 1/6, 5/6: two
    maximal simplices of volumes 1/6 and 5/6."""
    (model,) = generate_test_models(11, 1, n=4)
    spec = next(
        s for s in crepant_candidates(LocalGroupTable(model))
        if s.face == (0, 4) and s.weights == (Fraction(1, 6), Fraction(5, 6))
    )
    tau = star_subdivide(checked(model, spec))
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
    for model, blowup, _ in crepant_blowups:
        tau = star_subdivide(blowup)
        for sub in faces(model):
            if not set(blowup.spec.face) <= set(sub.facet_set):
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
