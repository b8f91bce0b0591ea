import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtorb.intlat as intlat_mod
import qtorb.model as model_mod
from qtorb import (
    Face,
    Model,
    ModelValidationError,
    apply_unimodular,
    f_vector,
    faces,
    generate_test_models,
    h_vector,
    make_model,
    model_to_dict,
    model_to_json,
    parse_model,
    random_unimodular,
    relabel_facets,
    subfaces,
)
from qtorb.exact import Poly
from qtorb.intlat import det, mat_from_cols
from qtorb.sectors import LocalGroupTable, box_by_exhaustion
from tests.conftest import face_by_indices, prism_model, wp112_model, z3_model


def vertex_matrix(model, vertex):
    """Characteristic vectors at a vertex as columns, in increasing facet order."""
    return mat_from_cols([model.char_vectors[i] for i in sorted(vertex)])


def square_model():
    return make_model(
        2,
        4,
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(1, 0), (0, 1), (-1, -2), (0, -1)],
        name="square",
    )


def simplex_model(n):
    vertices = list(itertools.combinations(range(n + 1), n))
    lams = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return make_model(n, n + 1, vertices, lams + [tuple([-1] * n)])


def test_parse_valid_model(wp112):
    parsed = parse_model(model_to_json(wp112))
    assert parsed == wp112
    assert parsed.name == "wp112"


def test_parse_rejects_non_primitive(wp112):
    data = model_to_dict(wp112)
    data["lambda"][2] = [-2, -4]
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps(data))
    assert any("not primitive" in v for v in err.value.violations)


def test_parse_rejects_dependent_vectors(wp112):
    data = model_to_dict(wp112)
    data["lambda"][1] = [1, 0]
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps(data))
    assert any("dependent at vertex" in v for v in err.value.violations)


def test_parse_collects_all_violations(wp112):
    data = model_to_dict(wp112)
    data["lambda"][0] = [2, 4]
    data["vertices"].append([0, 1])
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps(data))
    messages = "\n".join(err.value.violations)
    assert "not primitive" in messages
    assert "coincide" in messages


def test_parse_structural_errors():
    with pytest.raises(ModelValidationError) as err:
        parse_model(b"{not json")
    assert "malformed JSON" in err.value.violations[0]
    with pytest.raises(ModelValidationError):
        parse_model(json.dumps([1, 2, 3]))
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps({"n": 2, "m": 3}))
    assert any("missing required field" in v for v in err.value.violations)
    bad = {
        "n": 2,
        "m": 3,
        "vertices": [[0, 1], [1, 2], [0, 0]],
        "lambda": [[1, 0], [0, 1], [-1, -2]],
    }
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps(bad))
    assert any("distinct facet indices" in v for v in err.value.violations)


# Bytes that json.loads rejects with something other than JSONDecodeError:
# invalid UTF-8, a truncated UTF-16 text, nesting past the recursion
# limit and an integer literal past the digit limit.
UNDECODABLE = [b"\x80", b"\xff\xfe{", b"[" * 100000, b"1" * 5000]


@pytest.mark.parametrize("raw", UNDECODABLE, ids=["utf8", "utf16", "nesting", "digits"])
def test_parse_undecodable_input_is_malformed_json(raw):
    with pytest.raises(ModelValidationError) as err:
        parse_model(raw)
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith("malformed JSON: ")


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=3)
)
_json_values = st.recursive(
    _json_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12
)
# Objects with the schema's keys and values of any JSON type, so the
# generated inputs reach the field checks and not only the decoder.
_near_models = st.fixed_dictionaries(
    {},
    optional={key: _json_values for key in ("name", "n", "m", "vertices", "lambda")},
).map(lambda data: json.dumps(data).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.sampled_from(UNDECODABLE), _near_models))
def test_parse_model_returns_model_or_validation_error(raw):
    try:
        model = parse_model(raw)
    except ModelValidationError as exc:
        assert exc.violations
    else:
        assert isinstance(model, Model)


def test_parse_rejects_unused_facet():
    bad = {
        "n": 2,
        "m": 4,
        "vertices": [[0, 1], [1, 2], [0, 2]],
        "lambda": [[1, 0], [0, 1], [-1, -2], [0, -1]],
    }
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps(bad))
    assert any("appear in no vertex" in v for v in err.value.violations)


def test_big_integers_roundtrip_as_strings():
    big = 2**53 + 1
    model = make_model(
        2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -big)]
    )
    payload = model_to_dict(model)
    assert payload["lambda"][2][1] == str(-big)
    assert parse_model(json.dumps(payload)) == model


def test_face_counts(wp112, z3):
    assert len(faces(wp112)) == 7
    assert len(faces(square_model())) == 9
    # tetrahedron: all subsets of size <= 3 of four facets
    assert len(faces(simplex_model(3))) == 15


def test_face_order_and_structure(wp112):
    all_faces = faces(wp112)
    assert all_faces[0].facet_set == ()
    assert [f.codim for f in all_faces] == [0, 1, 1, 1, 2, 2, 2]
    for face in all_faces:
        assert face.codim + face.dim == wp112.n
        assert face.vertex_ids


def _faces_by_two_passes(model):
    """The face list found in two passes: the facet subsets of every
    vertex first, then each subset's vertices by a test against every
    vertex."""
    vertex_sets = [frozenset(v) for v in model.vertices]
    found = set()
    for vert in model.vertices:
        for r in range(model.n + 1):
            found.update(itertools.combinations(vert, r))
    return tuple(
        Face(
            facet_set=fs,
            dim=model.n - len(fs),
            vertex_ids=tuple(i for i, vs in enumerate(vertex_sets) if vs.issuperset(fs)),
        )
        for fs in sorted(found, key=lambda s: (len(s), s))
    )


def _assert_one_pass_lattice(model):
    lattice = faces(model)
    for face in lattice:
        assert face.vertex_ids == tuple(
            i for i, vertex in enumerate(model.vertices) if set(face.facet_set) <= set(vertex)
        ), (model.name, face)
    assert lattice == _faces_by_two_passes(model), model.name


def _assert_one_containment_relation(model):
    """``sector_groups_containing`` gives the groups with interior
    elements over the faces whose facet set is part of the face's, in
    ``faces`` order."""
    table = LocalGroupTable(model)
    for face in table.faces:
        expected = [
            table.group(h)
            for h in table.faces
            if set(h.facet_set) <= set(face.facet_set) and table.group(h).interior
        ]
        assert table.sector_groups_containing(face) == expected, (model.name, face)


def test_face_lattice_and_containment_on_corpus_and_blowups(corpus, crepant_blowups):
    for model in list(corpus) + [blown for _, _, blown in crepant_blowups]:
        _assert_one_pass_lattice(model)
        _assert_one_containment_relation(model)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_face_lattice_and_containment_follow_relabelling(corpus, data):
    model = data.draw(st.sampled_from(corpus))
    relabeled = relabel_facets(model, data.draw(st.permutations(range(model.m))))
    _assert_one_pass_lattice(relabeled)
    _assert_one_containment_relation(relabeled)


def test_f_vectors(wp112):
    lattice = faces(wp112)
    assert f_vector(lattice[0], lattice) == (3, 3, 1)
    square = faces(square_model())
    assert f_vector(square[0], square) == (4, 4, 1)
    vertex = face_by_indices(wp112, (0, 1))
    assert f_vector(vertex, lattice) == (1,)
    edge = face_by_indices(wp112, (0,))
    assert f_vector(edge, lattice) == (2, 1)


def test_h_vectors(wp112, prism):
    lattice = faces(wp112)
    assert h_vector(lattice[0], lattice) == (1, 1, 1)
    square = faces(square_model())
    assert h_vector(square[0], square) == (1, 2, 1)
    assert h_vector(face_by_indices(wp112, (0, 1)), lattice) == (1,)
    prism_faces = faces(prism)
    assert h_vector(prism_faces[0], prism_faces) == (1, 2, 2, 1)


def test_h_vector_symmetry_and_nonnegativity(corpus):
    for model in corpus:
        lattice = faces(model)
        for face in lattice:
            h = h_vector(face, lattice)
            assert all(x >= 0 for x in h)
            assert h == tuple(reversed(h))
            assert sum(h) == len(face.vertex_ids)


def test_torus_stratification_sum(corpus):
    # Sum of (s-1)^dim over all faces recovers the h-polynomial.
    for model in corpus:
        lattice = faces(model)
        lhs = sum(
            (Poly((-1, 1)) ** f.dim for f in lattice), Poly([])
        )
        assert lhs == Poly(h_vector(lattice[0], lattice))


def test_vertex_matrix_and_sign(wp112, cp2):
    """The stored determinant of a vertex is that of its columns in
    increasing facet order, sign included; ``qtorb validate`` reports its
    sign."""
    assert cp2.vertex_dets[cp2.vertices.index((0, 1))] == 1
    mat = vertex_matrix(wp112, (0, 2))
    assert det(mat) == -2
    assert wp112.vertex_dets[wp112.vertices.index((0, 2))] == -2
    assert det(vertex_matrix(wp112, (1, 2))) == 1
    assert wp112.vertex_dets[wp112.vertices.index((1, 2))] == 1


def test_unimodular_invariance(wp112, rng):
    for _ in range(10):
        u = random_unimodular(rng, 2)
        moved = apply_unimodular(wp112, u)
        assert moved.vertices == wp112.vertices
        assert [f.facet_set for f in faces(moved)] == [
            f.facet_set for f in faces(wp112)
        ]
        for v in wp112.vertices:
            assert abs(det(vertex_matrix(moved, v))) == abs(
                det(vertex_matrix(wp112, v))
            )
    with pytest.raises(ValueError):
        apply_unimodular(wp112, ((2, 0), (0, 1)))


def test_relabel_facets(wp112):
    relabeled = relabel_facets(wp112, [2, 0, 1])
    assert relabeled.m == wp112.m
    assert len(faces(relabeled)) == len(faces(wp112))
    assert relabeled.char_vectors[2] == wp112.char_vectors[0]
    lattice = faces(relabeled)
    assert h_vector(lattice[0], lattice) == (1, 1, 1)
    with pytest.raises(ValueError):
        relabel_facets(wp112, [0, 0, 1])


def test_generator_deterministic():
    a = generate_test_models(3, 4, n=2)
    b = generate_test_models(3, 4, n=2)
    assert a == b


def test_generator_output_is_valid_and_quasi_sl():
    for n in (2, 3):
        for model in generate_test_models(5, 6, n=n):
            assert parse_model(model_to_json(model)) == model
            assert LocalGroupTable(model).quasi_sl


def test_generator_single_model():
    models = generate_test_models(0, 1, n=2)
    assert len(models) == 1
    assert models[0].n == 2


def test_generator_budget_exhaustion_is_not_fatal():
    assert generate_test_models(0, 50, n=2, budget=3) != []


def test_generator_rejects_bad_dimension():
    with pytest.raises(ValueError):
        generate_test_models(0, 1, n=5)


@pytest.mark.parametrize("k,expected", [(1, True), (2, True), (3, False)])
def test_quasi_sl_filter_matches_brute_force(k, expected):
    model = make_model(
        2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -k)]
    )
    assert LocalGroupTable(model).quasi_sl is expected
    # Cross-check with the exhaustive box search at the singular vertex.
    elements = box_by_exhaustion([(1, 0), (-1, -k)], 2)
    assert any(e.age.denominator > 1 for e in elements) is (not expected)


def test_model_is_hashable_and_frozen(wp112):
    fields = (wp112.n, wp112.m, wp112.vertices, wp112.char_vectors, wp112.name)
    assert hash(wp112) == hash(Model(*fields, vertex_dets=wp112.vertex_dets))
    # The determinants are derived from the other fields: a Model carrying
    # other ones still compares and hashes equal.
    other = Model(*fields, vertex_dets=(5,) * len(wp112.vertices))
    assert other == wp112 and hash(other) == hash(wp112)
    with pytest.raises(AttributeError):
        wp112.n = 3


def _dets_by_definition(model):
    return tuple(det(vertex_matrix(model, v)) for v in model.vertices)


def test_stored_vertex_dets_match_the_definition(corpus, crepant_blowups):
    models = list(corpus) + [blown for _, _, blown in crepant_blowups]
    for model in models:
        assert model.vertex_dets == _dets_by_definition(model), model.name


# Smooth and singular vertices, both signs of determinant, n = 2 to 4.
_SMALL_MODELS = [square_model(), simplex_model(2), simplex_model(3), wp112_model(), z3_model(), prism_model()]
_SMALL_MODELS += generate_test_models(1, 3, n=4)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stored_vertex_dets_follow_relabelling_and_basis_changes(data):
    model = data.draw(st.sampled_from(_SMALL_MODELS))
    relabeled = relabel_facets(model, data.draw(st.permutations(range(model.m))))
    assert relabeled.vertex_dets == _dets_by_definition(relabeled)
    u = random_unimodular(data.draw(st.randoms(use_true_random=False)), model.n, ops=data.draw(st.integers(0, 8)))
    moved = apply_unimodular(model, u)
    assert moved.vertex_dets == _dets_by_definition(moved)
    assert moved.vertex_dets == tuple(det(u) * d for d in model.vertex_dets)
    # The basis change is derived, not validated: it is the model that
    # full validation makes of the same vertices and vectors.
    validated = make_model(moved.n, moved.m, moved.vertices, moved.char_vectors, name=moved.name)
    assert moved == validated and moved.vertex_dets == validated.vertex_dets


def test_vertex_dets_stay_out_of_json_and_survive_replace(corpus):
    for model in corpus:
        assert "vertex_dets" not in model_to_dict(model)
        assert set(json.loads(model_to_json(model))) == {"n", "m", "vertices", "lambda", "name"}
        renamed = replace(model, name="renamed")
        assert renamed.vertex_dets == model.vertex_dets
        assert parse_model(model_to_json(model)).vertex_dets == model.vertex_dets


def test_make_model_computes_one_determinant_per_vertex(monkeypatch, corpus):
    calls = []

    def counting_det(mat):
        calls.append(mat)
        return det(mat)

    monkeypatch.setattr(model_mod, "det", counting_det)
    for model in corpus:
        calls.clear()
        parse_model(model_to_json(model))
        assert len(calls) == len(model.vertices), model.name


def test_make_model_converts_no_matrix(monkeypatch, corpus):
    """Validation takes each vertex determinant of the vectors as rows, as
    ``make_model`` converted them: no matrix is built or converted again."""
    calls = []
    real_as_mat = intlat_mod.as_mat
    monkeypatch.setattr(intlat_mod, "as_mat", lambda rows: calls.append("as_mat") or real_as_mat(rows))
    # Nor is a matrix built from columns: the module imports no builder.
    assert not hasattr(model_mod, "mat_from_cols")
    for model in corpus:
        made = make_model(model.n, model.m, model.vertices, model.char_vectors, name=model.name)
        assert made.vertex_dets == model.vertex_dets
    assert calls == []


def _h_vector_by_definition(face, lattice):
    """h_i = coefficient of t^(d-i) in sum_j f_j (t-1)^j, with the f-vector
    counted from the subfaces."""
    fv = [0] * (face.dim + 1)
    for h in subfaces(face, lattice):
        fv[h.dim] += 1
    acc = Poly([])
    for j, count in enumerate(fv):
        acc = acc + count * Poly((-1, 1)) ** j
    coeffs = list(acc.coeffs) + [0] * (face.dim + 1 - len(acc.coeffs))
    return tuple(reversed(coeffs[: face.dim + 1]))


def test_sector_h_vectors_match_definition(corpus, crepant_blowups):
    models = list(corpus) + [blown for _, _, blown in crepant_blowups]
    for model in models:
        lattice = faces(model)
        expected = tuple(_h_vector_by_definition(face, lattice) for face in lattice)
        assert tuple(h_vector(face, lattice) for face in lattice) == expected
        table = LocalGroupTable(model)
        assert table.sector_h_vectors == {
            face.facet_set: h
            for face, h in zip(faces(model), expected)
            if table.group(face).interior
        }
