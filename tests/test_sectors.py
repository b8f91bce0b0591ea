import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qtorb.sectors as sectors_mod
from qtorb import (
    LocalGroup,
    LocalGroupTable,
    NonIntegralAgeError,
    RankDeficientError,
    age_polynomial,
    age_polynomial_of_columns,
    apply_unimodular,
    box_by_exhaustion,
    box_interior,
    box_of_columns,
    ensure_quasi_sl,
    enumerate_box,
    face_by_indices,
    faces,
    interior_age_polynomial,
    is_quasi_sl,
    lattice_index,
    local_group_order,
    make_model,
    quasi_sl_violations,
    random_unimodular,
    smith_normal_form,
)
from qtorb.exact import Poly
from qtorb.sectors import sectors

Z3_COLS = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]


def brute_box(cols, r, n):
    """Tiny independent enumeration: every coefficient denominator r."""
    out = set()
    for ts in itertools.product(range(r), repeat=len(cols)):
        point = [
            sum(Fraction(t, r) * c[i] for t, c in zip(ts, cols)) for i in range(n)
        ]
        if all(p.denominator == 1 for p in point):
            out.add(tuple(Fraction(t, r) for t in ts))
    return sorted(out)


def test_local_group_orders(wp112):
    assert local_group_order(faces(wp112)[0], wp112) == 1
    assert local_group_order(face_by_indices(wp112, (0,)), wp112) == 1
    assert local_group_order(face_by_indices(wp112, (0, 2)), wp112) == 2


def test_local_group_order_examples():
    assert box_of_columns([(1, 0), (1, 2)], 2)[0].is_identity
    assert len(box_of_columns([(1, 0), (1, 2)], 2)) == 2
    assert len(box_of_columns(Z3_COLS, 3)) == 3


def test_local_group_rejects_ragged_columns():
    with pytest.raises(ValueError):
        LocalGroup([(1, 0), (0, 1, 2)], 2)


def test_box_of_columns_order_two():
    elements = box_of_columns([(1, 0), (1, 2)], 2)
    identity, twist = elements
    assert identity.coeffs == (Fraction(0), Fraction(0))
    assert identity.point == (0, 0) and identity.height == 0
    assert twist.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert twist.point == (1, 1)
    assert twist.age == 1 and twist.height == 2


def test_box_of_columns_order_three():
    elements = box_of_columns(Z3_COLS, 3)
    assert [e.coeffs for e in elements] == [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
    ]
    assert [e.point for e in elements] == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    assert [e.age for e in elements] == [0, 1, 2]
    assert [e.height for e in elements] == [0, 3, 3]


def test_box_unimodular_face_is_trivial():
    elements = box_of_columns([(1, 0), (0, 1)], 2)
    assert len(elements) == 1 and elements[0].is_identity


def test_enumerate_box_attaches_face(wp112):
    face = face_by_indices(wp112, (0, 2))
    elements = enumerate_box(face, wp112)
    assert all(e.face == face for e in elements)
    assert [e.point for e in elements] == [(0, 0), (0, -1)]


def test_box_interior(wp112):
    face = face_by_indices(wp112, (0, 2))
    interior = box_interior(face, wp112)
    assert len(interior) == 1 and interior[0].age == 1
    facet = face_by_indices(wp112, (0,))
    assert box_interior(facet, wp112) == []
    whole = faces(wp112)[0]
    only = box_interior(whole, wp112)
    assert len(only) == 1 and only[0].is_identity


def test_age_polynomials():
    assert age_polynomial_of_columns(Z3_COLS, 3) == Poly([1, 1, 1])
    assert age_polynomial_of_columns([(1, 0), (1, 2)], 2) == Poly([1, 1])
    assert age_polynomial_of_columns([(1, 0), (0, 1)], 2) == Poly.one()


def test_face_age_polynomials(wp112, z3):
    vertex = face_by_indices(wp112, (0, 2))
    assert age_polynomial(vertex, wp112) == Poly([1, 1])
    assert interior_age_polynomial(vertex, wp112) == Poly([0, 1])
    smooth = face_by_indices(wp112, (0, 1))
    assert age_polynomial(smooth, wp112) == Poly.one()
    assert interior_age_polynomial(smooth, wp112) == Poly.zero()
    z3_vertex = face_by_indices(z3, (0, 1, 2))
    assert age_polynomial(z3_vertex, z3) == Poly([1, 1, 1])
    assert interior_age_polynomial(z3_vertex, z3) == Poly([0, 1, 1])
    whole = faces(wp112)[0]
    assert age_polynomial(whole, wp112) == Poly.one()
    assert interior_age_polynomial(whole, wp112) == Poly.one()


def test_age_polynomial_at_one_is_group_order(corpus):
    for model in corpus:
        for face in faces(model):
            assert age_polynomial(face, model)(1) == local_group_order(face, model)


def test_non_integral_age_error_names_face():
    model = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    vertex = face_by_indices(model, (0, 2))
    with pytest.raises(NonIntegralAgeError) as err:
        age_polynomial(vertex, model)
    assert "[0, 2]" in str(err.value)
    assert err.value.element.age.denominator == 3


def test_quasi_sl(wp112, cp2):
    assert is_quasi_sl(wp112)
    assert is_quasi_sl(cp2)
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    assert not is_quasi_sl(bad)
    witnesses = quasi_sl_violations(bad)
    assert witnesses and witnesses[0].age in (Fraction(2, 3), Fraction(4, 3))
    with pytest.raises(NonIntegralAgeError):
        ensure_quasi_sl(bad)


def test_sectors_listing(wp112, cp2, z3):
    assert len(sectors(cp2)) == 1
    wp_sectors = sectors(wp112)
    assert [(s.face.facet_set, s.age) for s in wp_sectors] == [((), 0), ((0, 2), 1)]
    z3_sectors = sectors(z3)
    assert [(s.face.facet_set, s.age) for s in z3_sectors] == [
        ((), 0),
        ((0, 1, 2), 1),
        ((0, 1, 2), 2),
    ]


def test_box_partition_over_vertices(corpus):
    # The box of a vertex is the disjoint union of the interiors of the
    # boxes of all faces containing it, as sets of lattice points.
    for model in corpus:
        interior = {
            f.facet_set: box_interior(f, model) for f in faces(model)
        }
        for face in faces(model):
            if face.codim != model.n:
                continue
            whole = sorted(e.point for e in enumerate_box(face, model))
            pieces = sorted(
                e.point
                for fs, elements in interior.items()
                if set(fs) <= set(face.facet_set)
                for e in elements
            )
            assert whole == pieces


def test_heights(corpus):
    for model in corpus:
        for face in faces(model):
            for e in enumerate_box(face, model):
                assert e.height <= face.codim
                assert (e.height == 0) == (e.point == (0,) * model.n)
                assert all(0 <= c < 1 for c in e.coeffs)


def test_box_count_matches_order(corpus):
    for model in corpus:
        for face in faces(model):
            assert len(enumerate_box(face, model)) == local_group_order(face, model)


def test_exhaustion_matches_snf_on_corpus(corpus):
    for model in corpus:
        for face in faces(model):
            if face.codim == 0 or local_group_order(face, model) > 200:
                continue
            cols = [model.char_vectors[i] for i in face.facet_set]
            assert box_of_columns(cols, model.n) == box_by_exhaustion(cols, model.n)


@pytest.mark.parametrize(
    "cols,n",
    [
        ([(1, 0), (1, 12)], 2),
        ([(1, 0), (3, 37)], 2),
        ([(2, 5), (3, 1)], 2),
        ([(1, 0), (1, 199)], 2),
        ([(1, 2, 0), (0, 3, 1), (4, 0, 5)], 3),
        ([(1, 0, 0), (0, 1, 0), (-1, -1, 60)], 3),
    ],
)
def test_exhaustion_matches_snf_synthetic(cols, n):
    fast = box_of_columns(cols, n)
    slow = box_by_exhaustion(cols, n)
    assert fast == slow


def test_exhaustion_matches_tiny_brute_force():
    from qtorb.intlat import lattice_index

    for cols, n in [([(1, 0), (1, 2)], 2), (list(map(tuple, Z3_COLS)), 3)]:
        r = lattice_index(cols)
        assert [e.coeffs for e in box_by_exhaustion(cols, n)] == brute_box(cols, r, n)


def test_unimodular_invariance_of_ages(z3, rng):
    for _ in range(5):
        u = random_unimodular(rng, 3)
        moved = apply_unimodular(z3, u)
        for face, moved_face in zip(faces(z3), faces(moved)):
            assert age_polynomial(face, z3) == age_polynomial(moved_face, moved)
            assert interior_age_polynomial(face, z3) == interior_age_polynomial(
                moved_face, moved
            )
            assert [e.coeffs for e in enumerate_box(face, z3)] == [
                e.coeffs for e in enumerate_box(moved_face, moved)
            ]


independent_columns = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, n).flatmap(
            lambda k: st.lists(
                st.tuples(*[st.integers(-6, 6)] * n), min_size=k, max_size=k
            )
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(independent_columns)
def test_generator_ages_decide_quasi_sl(data):
    # Reference: enumerate the whole group and look at every age.
    n, cols = data
    try:
        order = lattice_index(cols)
    except RankDeficientError:
        assume(False)
    assume(order <= 400)
    enumerated = all(e.age.denominator == 1 for e in box_of_columns(cols, n))
    assert LocalGroup(cols, n).integral_ages == enumerated


def test_local_group_matches_box_of_columns(corpus):
    for model in corpus:
        table = LocalGroupTable(model)
        for face, group in zip(faces(model), table.groups):
            assert group.face == face and table.group(face) is group
            assert group.order == local_group_order(face, model)
            assert group.box_elements() == enumerate_box(face, model)
            assert group.interior_elements() == box_interior(face, model)
            assert group.age_polynomial == age_polynomial(face, model)
            assert group.interior_age_polynomial == interior_age_polynomial(face, model)
        assert table.quasi_sl == is_quasi_sl(model)
        assert sectors(model, table) == sectors(model)


def test_table_reports_first_fractional_age():
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    table = LocalGroupTable(bad)
    assert not table.quasi_sl
    with pytest.raises(NonIntegralAgeError) as from_table:
        table.ensure_quasi_sl()
    with pytest.raises(NonIntegralAgeError) as from_model:
        ensure_quasi_sl(bad)
    assert str(from_table.value) == str(from_model.value)
    assert from_table.value.element == quasi_sl_violations(bad)[0]


def test_quasi_sl_enumerates_no_group(monkeypatch):
    # The order-10^6 vertex would take seconds to enumerate.
    big = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -10**6)])
    monkeypatch.setattr(LocalGroup, "numerators", property(lambda self: pytest.fail("enumerated")))
    assert not is_quasi_sl(big)
    assert not LocalGroupTable(big).quasi_sl


def test_table_groups_equal_smith_form_groups(corpus, crepant_blowups, smith_form_faces):
    """Every group a table holds, the trivial ones built without a Smith
    form included, equals the group of a Smith form on the same columns."""
    tables = [(model, LocalGroupTable(model)) for model in corpus]
    tables += [
        (blown, LocalGroupTable(blown, LocalGroupTable(model))) for model, _, blown in crepant_blowups
    ]
    skipped = 0
    for model, table in tables:
        skipped += sum(1 for f in faces(model) if f.codim > 0) - len(smith_form_faces(model))
        for group in table.groups:
            fresh = LocalGroup(group.columns, model.n, group.face)
            assert group.invariants == fresh.invariants
            assert group.order == fresh.order
            assert group.integral_ages == fresh.integral_ages
            assert group.numerators == fresh.numerators
            assert group.points == fresh.points
            assert group.age_polynomial == fresh.age_polynomial
            assert group.interior_age_polynomial == fresh.interior_age_polynomial
    assert skipped > 0


def test_package_attribute_is_the_sectors_module():
    # Patching this module's names must reach the code that reads them.
    import qtorb

    assert qtorb.sectors is sectors_mod
    assert sectors_mod.__name__ == "qtorb.sectors"
    assert sectors_mod.sectors is sectors


def test_repeated_cosets_raise(monkeypatch):
    def broken_smith(m):
        u, d, v = smith_normal_form(m)
        return u, d, tuple((0,) * len(row) for row in v)

    monkeypatch.setattr(sectors_mod, "smith_normal_form", broken_smith)
    with pytest.raises(ArithmeticError, match="repeat"):
        box_of_columns([(1, 0), (1, 2)], 2)


def test_fractional_box_point_raises(monkeypatch):
    monkeypatch.setattr(
        sectors_mod, "smith_normal_form", lambda m: (((1, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (0, 1)))
    )
    with pytest.raises(ArithmeticError, match="not integral"):
        box_of_columns([(1, 0), (1, 2)], 2)


def test_exhaustion_rejects_fractional_point(monkeypatch):
    monkeypatch.setattr(sectors_mod.kernels, "box_solutions", lambda cols_mod, r: [(0, 1)])
    with pytest.raises(ArithmeticError, match="not integral"):
        box_by_exhaustion([(1, 0), (1, 2)], 2)
