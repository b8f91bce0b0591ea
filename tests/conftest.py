import random

import pytest

from qtorb import (
    LocalGroupTable,
    blow_up,
    crepant_candidates,
    faces,
    generate_test_models,
    make_model,
)
from qtorb.intlat import det, mat_from_cols

# Session-wide fuzz corpus sizes; acceptance wants at least 20 per dimension.
CORPUS_SEEDS = {2: 20240811, 3: 90125}
CORPUS_COUNT = 20


def wp112_model():
    """Triangle with an order-2 vertex; the smallest singular example."""
    return make_model(
        2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -2)], name="wp112"
    )


def cp2_model():
    """Smooth triangle model: no twisted sectors at all."""
    return make_model(
        2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -1)], name="cp2"
    )


def z3_model():
    """Tetrahedron with one order-3 vertex carrying ages 1 and 2."""
    return make_model(
        3,
        4,
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(1, 0, 0), (0, 1, 0), (-1, -1, 3), (0, 0, -1)],
        name="z3-tetrahedron",
    )


def prism_model():
    """Triangular prism with an order-2 edge; exercises induced
    triangulations on proper subfaces of a blown-up face."""
    return make_model(
        3,
        5,
        [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)],
        [(1, 0, 0), (1, 2, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)],
        name="prism",
    )


@pytest.fixture
def wp112():
    return wp112_model()


@pytest.fixture
def cp2():
    return cp2_model()


@pytest.fixture
def z3():
    return z3_model()


@pytest.fixture
def prism():
    return prism_model()


@pytest.fixture(scope="session")
def fuzz_corpus():
    models = []
    for n, seed in CORPUS_SEEDS.items():
        batch = generate_test_models(seed, CORPUS_COUNT, n=n)
        assert len(batch) == CORPUS_COUNT
        models.extend(batch)
    return models


@pytest.fixture(scope="session")
def corpus(fuzz_corpus):
    """Fuzz corpus plus the hand-built golden models."""
    return fuzz_corpus + [wp112_model(), cp2_model(), z3_model(), prism_model()]


def face_by_indices(model, facet_set):
    """The face of ``model`` whose facets are ``facet_set``, in any order."""
    key = tuple(sorted(facet_set))
    for face in faces(model):
        if face.facet_set == key:
            return face
    raise ValueError(f"{list(key)} is not a face of the model")


def crepant_blowups_of(models):
    """(model, blowup, blown-up model) for every crepant candidate of the
    models."""
    blowups = [
        (model, blowup)
        for model in models
        for blowup in crepant_candidates(LocalGroupTable(model))
    ]
    return [(model, blowup, blow_up(blowup)) for model, blowup in blowups]


@pytest.fixture(scope="session")
def crepant_blowups(corpus):
    """(model, blowup, blown-up model) for every crepant candidate of the
    corpus."""
    return crepant_blowups_of(corpus)


def basis_faces(model, base=None):
    """The faces for which ``LocalGroupTable(model, base)`` computes a
    triangular basis: every face of codimension at least 2 not taken
    from ``base`` (same facet set and columns) that passes through no
    vertex with |det| = 1, a vertex passing through itself.  A facet's
    primitive vector is part of a lattice basis, so the polytope and the
    facets are built trivial."""
    smooth = {
        i
        for i, vertex in enumerate(model.vertices)
        if abs(det(mat_from_cols([model.char_vectors[j] for j in vertex]))) == 1
    }
    base_columns = {}
    if base is not None:
        base_columns = {
            f.facet_set: [base.char_vectors[i] for i in f.facet_set] for f in faces(base)
        }
    return [
        f
        for f in faces(model)
        if f.codim >= 2
        and base_columns.get(f.facet_set) != [model.char_vectors[i] for i in f.facet_set]
        and smooth.isdisjoint(f.vertex_ids)
    ]


@pytest.fixture(name="basis_faces")
def basis_faces_fixture():
    return basis_faces


@pytest.fixture
def rng():
    return random.Random(1729)
