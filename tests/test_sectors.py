import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qtorb.intlat as intlat_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    LocalGroup,
    LocalGroupTable,
    NonIntegralAgeError,
    RankDeficientError,
    apply_unimodular,
    box_by_exhaustion,
    box_of_columns,
    count_from_ages,
    det,
    dilate_count,
    ehrhart_numerator,
    face_by_indices,
    face_simplex,
    faces,
    lattice_index,
    make_model,
    random_unimodular,
    triangular_form,
)
from qtorb.exact import Poly
from qtorb.intlat import mat_from_cols

Z3_COLS = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]


def interior_elements(group):
    """The box elements of ``group`` with every coefficient positive."""
    return [group.box_element(i) for i in group.interior]


def sectors(table):
    """All sectors of the table's model as BoxElements, in the order of the
    listings: the untwisted sector (identity over the whole polytope)
    first, then every interior box element of every proper face.  The
    reference the streamed sector listings are compared with."""
    return [element for group in table.groups for element in interior_elements(group)]


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
    table = LocalGroupTable(wp112)
    assert table.group(faces(wp112)[0]).order == 1
    assert table.group(face_by_indices(wp112, (0,))).order == 1
    assert table.group(face_by_indices(wp112, (0, 2))).order == 2


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
    elements = LocalGroupTable(wp112).group(face).box_elements()
    assert all(e.face == face for e in elements)
    assert [e.point for e in elements] == [(0, 0), (0, -1)]


def test_box_interior(wp112):
    table = LocalGroupTable(wp112)
    face = face_by_indices(wp112, (0, 2))
    interior = interior_elements(table.group(face))
    assert len(interior) == 1 and interior[0].age == 1
    facet = face_by_indices(wp112, (0,))
    assert interior_elements(table.group(facet)) == []
    whole = faces(wp112)[0]
    only = interior_elements(table.group(whole))
    assert len(only) == 1 and only[0].is_identity


def test_age_polynomials():
    assert LocalGroup(Z3_COLS, 3).age_polynomial == Poly([1, 1, 1])
    assert LocalGroup([(1, 0), (1, 2)], 2).age_polynomial == Poly([1, 1])
    assert LocalGroup([(1, 0), (0, 1)], 2).age_polynomial == Poly.one()


def test_face_age_polynomials(wp112, z3):
    table = LocalGroupTable(wp112)
    vertex = table.group(face_by_indices(wp112, (0, 2)))
    assert vertex.age_polynomial == Poly([1, 1])
    assert vertex.interior_age_polynomial == Poly([0, 1])
    smooth = table.group(face_by_indices(wp112, (0, 1)))
    assert smooth.age_polynomial == Poly.one()
    assert smooth.interior_age_polynomial == Poly.zero()
    z3_vertex = LocalGroupTable(z3).group(face_by_indices(z3, (0, 1, 2)))
    assert z3_vertex.age_polynomial == Poly([1, 1, 1])
    assert z3_vertex.interior_age_polynomial == Poly([0, 1, 1])
    whole = table.group(faces(wp112)[0])
    assert whole.age_polynomial == Poly.one()
    assert whole.interior_age_polynomial == Poly.one()


def test_age_polynomial_at_one_is_group_order(corpus):
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            assert group.age_polynomial(1) == group.order


def test_non_integral_age_error_names_face():
    model = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    vertex = face_by_indices(model, (0, 2))
    with pytest.raises(NonIntegralAgeError) as err:
        LocalGroupTable(model).group(vertex).age_polynomial
    assert "[0, 2]" in str(err.value)
    assert err.value.element.age.denominator == 3


def test_quasi_sl(wp112, cp2):
    assert LocalGroupTable(wp112).quasi_sl
    assert LocalGroupTable(cp2).quasi_sl
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    assert not LocalGroupTable(bad).quasi_sl
    with pytest.raises(NonIntegralAgeError) as err:
        LocalGroupTable(bad).ensure_quasi_sl()
    assert err.value.element.age in (Fraction(2, 3), Fraction(4, 3))


def test_sectors_listing(wp112, cp2, z3):
    assert len(sectors(LocalGroupTable(cp2))) == 1
    wp_sectors = sectors(LocalGroupTable(wp112))
    assert [(s.face.facet_set, s.age) for s in wp_sectors] == [((), 0), ((0, 2), 1)]
    z3_sectors = sectors(LocalGroupTable(z3))
    assert [(s.face.facet_set, s.age) for s in z3_sectors] == [
        ((), 0),
        ((0, 1, 2), 1),
        ((0, 1, 2), 2),
    ]


def test_box_partition_over_vertices(corpus):
    # The box of a vertex is the disjoint union of the interiors of the
    # boxes of all faces containing it, as sets of lattice points.
    for model in corpus:
        table = LocalGroupTable(model)
        interior = {
            f.facet_set: interior_elements(table.group(f)) for f in faces(model)
        }
        for face in faces(model):
            if face.codim != model.n:
                continue
            whole = sorted(e.point for e in table.group(face).box_elements())
            pieces = sorted(
                e.point
                for fs, elements in interior.items()
                if set(fs) <= set(face.facet_set)
                for e in elements
            )
            assert whole == pieces


def test_heights(corpus):
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            face = group.face
            for e in group.box_elements():
                assert e.height <= face.codim
                assert (e.height == 0) == (e.point == (0,) * model.n)
                assert all(0 <= c < 1 for c in e.coeffs)


def test_box_count_matches_order(corpus):
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            assert len(group.box_elements()) == group.order


def test_exhaustion_matches_snf_on_corpus(corpus):
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            if group.face.codim == 0 or group.order > 200:
                continue
            cols = group.columns
            assert box_of_columns(cols, model.n) == box_by_exhaustion(cols, model.n)


def test_oracles_run_without_the_smith_form(monkeypatch, corpus):
    """With the triangular basis patched to raise, the exhaustive box, the
    brute-force dilate counts and the dilate-series numerator of each
    face of order at most 200 still equal the table's values."""
    expected = []
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            face, d = group.face, group.face.codim
            if d == 0 or group.order > 200:
                continue
            ages = group.age_polynomial
            counts = [count_from_ages(ages, d, k) for k in range(d)]
            psi = ages.coeffs + (0,) * (d - len(ages.coeffs))
            expected.append((model, group, group.box_elements(), counts, psi))

    def no_basis(m):
        raise AssertionError("an oracle computed a triangular basis")

    monkeypatch.setattr(intlat_mod, "triangular_form", no_basis)
    monkeypatch.setattr(sectors_mod, "triangular_form", no_basis)
    for model, group, elements, counts, psi in expected:
        exhaustive = box_by_exhaustion(group.columns, model.n)
        assert [replace(e, face=group.face) for e in exhaustive] == elements
        sx = face_simplex(group.face, model)
        assert [dilate_count(sx, k) for k in range(len(counts))] == counts
        assert ehrhart_numerator(sx) == psi
    assert len(expected) > 100


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
    table = LocalGroupTable(z3)
    for _ in range(5):
        u = random_unimodular(rng, 3)
        moved = apply_unimodular(z3, u)
        moved_table = LocalGroupTable(moved)
        for face, moved_face in zip(faces(z3), faces(moved)):
            group, moved_group = table.group(face), moved_table.group(moved_face)
            assert group.age_polynomial == moved_group.age_polynomial
            assert group.interior_age_polynomial == moved_group.interior_age_polynomial
            assert [e.coeffs for e in group.box_elements()] == [
                e.coeffs for e in moved_group.box_elements()
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


columns_up_to_30 = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, n).flatmap(
            lambda k: st.lists(st.tuples(*[st.integers(-30, 30)] * n), min_size=k, max_size=k)
        ),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    )
)


@settings(max_examples=200, deadline=None)
@given(columns_up_to_30)
@example((2, [(2, 0), (0, 2)], [1, 1, 0, 0]))
@example((3, [(2, 4, 0), (0, 6, 0), (1, 1, 12)], [1, -1, 2, 0]))
def test_triangular_form_builds_the_box(data):
    """The triangular form of random columns is upper-triangular with a
    positive diagonal whose product is the gcd of the maximal minors, the
    group built from it has the box that exhaustive search finds, and
    columns with a dependent one added raise.  The examples are the
    non-cyclic groups Z/2 x Z/2 and Z/2 x Z/72."""
    n, cols, coefficients = data
    combination = tuple(sum(c * col[i] for c, col in zip(coefficients, cols)) for i in range(n))
    with pytest.raises(RankDeficientError):
        triangular_form(mat_from_cols(cols + [combination]))
    try:
        index = lattice_index(cols)
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            triangular_form(mat_from_cols(cols))
        return
    h = triangular_form(mat_from_cols(cols))
    k = len(cols)
    assert len(h) == k and all(len(row) == k for row in h)
    assert all(h[i][j] == 0 for i in range(k) for j in range(i))
    assert all(h[i][i] > 0 for i in range(k))
    assert math.prod(h[i][i] for i in range(k)) == index
    if index ** (k - 1) <= 20_000:
        assert LocalGroup(cols, n).box_elements() == box_by_exhaustion(cols, n)


def test_local_group_matches_box_of_columns(corpus):
    for model in corpus:
        table = LocalGroupTable(model)
        for face, group in zip(faces(model), table.groups):
            assert group.face == face and table.group(face) is group
            bare = box_of_columns(group.columns, model.n)
            assert group.box_elements() == [replace(e, face=face) for e in bare]
        # Reference: every age of the exhaustive box at every vertex.
        assert table.quasi_sl == all(
            e.age.denominator == 1
            for vertex in model.vertices
            for e in box_by_exhaustion([model.char_vectors[i] for i in vertex], model.n)
        )
        assert sectors(table) == sectors(LocalGroupTable(model))


def test_table_reports_first_fractional_age():
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    table = LocalGroupTable(bad)
    assert not table.quasi_sl
    with pytest.raises(NonIntegralAgeError) as err:
        table.ensure_quasi_sl()
    fractional = [
        element
        for group in table.groups
        if group.face.codim == bad.n
        for element in group.box_elements()
        if element.age.denominator != 1
    ]
    assert err.value.element == fractional[0]
    assert "[0, 2]" in str(err.value)


def test_fractional_age_report_computes_one_point(monkeypatch):
    """Reporting a fractional age computes the point of that element alone,
    not the points of its whole group."""
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -12)])
    vertex = LocalGroupTable(bad).group(face_by_indices(bad, [0, 2]))
    first = next(e for e in vertex.box_elements() if e.age.denominator != 1)
    monkeypatch.setattr(LocalGroup, "points", property(lambda self: pytest.fail("built every point")))
    table = LocalGroupTable(bad)
    with pytest.raises(NonIntegralAgeError) as err:
        table.ensure_quasi_sl()
    assert err.value.element == first
    with pytest.raises(NonIntegralAgeError) as err:
        table.group(first.face).age_polynomial
    assert err.value.element == first


def test_quasi_sl_enumerates_no_group(monkeypatch):
    # The order-10^6 vertex would take seconds to enumerate.
    big = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -10**6)])
    monkeypatch.setattr(LocalGroup, "numerators", property(lambda self: pytest.fail("enumerated")))
    assert not LocalGroupTable(big).quasi_sl


def test_quasi_sl_builds_the_vertices_alone(monkeypatch, corpus, cp2):
    """quasi-SL reads the vertex groups and builds no lower face; a
    triangular basis is computed only at a vertex with |det| != 1, so none
    is on the smooth cp2."""
    built, calls = [], []
    real_build = LocalGroupTable._build
    real_basis = sectors_mod.triangular_form
    monkeypatch.setattr(
        LocalGroupTable, "_build", lambda self, face: built.append(face) or real_build(self, face)
    )
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: calls.append(m) or real_basis(m))
    for model in corpus:
        built.clear()
        calls.clear()
        assert LocalGroupTable(model).quasi_sl
        assert built == [f for f in faces(model) if f.codim == model.n]
        assert len(calls) == sum(
            abs(det([model.char_vectors[i] for i in vertex.facet_set])) != 1 for vertex in built
        )
        assert all(abs(det(m)) != 1 for m in calls)

    def refuse(m):
        raise AssertionError("triangular basis on a smooth model")

    monkeypatch.setattr(sectors_mod, "triangular_form", refuse)
    assert LocalGroupTable(cp2).quasi_sl


def test_table_reads_smoothness_from_the_stored_determinants(wp112):
    """The table computes no determinant of its own: ``qtorb.sectors``
    binds none, and a face is smooth exactly when some vertex through it
    has |det| = 1 in ``model.vertex_dets``."""
    assert not hasattr(sectors_mod, "det")
    singular = face_by_indices(wp112, (0, 2))
    assert LocalGroupTable(wp112).group(singular).order == 2
    forged = replace(wp112, vertex_dets=(1,) * len(wp112.vertices))
    assert LocalGroupTable(forged).group(singular).order == 1


def test_table_groups_equal_smith_form_groups(corpus, crepant_blowups, basis_faces):
    """Every group a table holds, the trivial ones built without a
    triangular basis and the ones lent by a base table included, equals
    the group built afresh from a triangular basis of the same columns."""
    tables = [(model, LocalGroupTable(model)) for model in corpus]
    tables += [
        (blown, LocalGroupTable(blown, LocalGroupTable(model))) for model, _, blown in crepant_blowups
    ]
    skipped = 0
    for model, table in tables:
        skipped += sum(1 for f in faces(model) if f.codim > 0) - len(basis_faces(model))
        for group in table.groups:
            fresh = LocalGroup(group.columns, model.n, group.face)
            assert group.exponent == fresh.exponent
            assert group.order == fresh.order
            assert group.integral_ages == fresh.integral_ages
            assert group.numerators == fresh.numerators
            assert group.points == fresh.points
            assert group.age_polynomial == fresh.age_polynomial
            assert group.interior_age_polynomial == fresh.interior_age_polynomial
    assert skipped > 0


def test_table_builds_its_groups_without_converting_matrices(monkeypatch, corpus):
    """The triangular form copies the rows of the validated vectors as
    given: building every group of every table runs ``as_mat`` zero times."""
    conversions, bases = [], []
    real_as_mat = intlat_mod.as_mat
    monkeypatch.setattr(intlat_mod, "as_mat", lambda rows: conversions.append(rows) or real_as_mat(rows))
    real_basis = sectors_mod.triangular_form
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: bases.append(m) or real_basis(m))
    for model in corpus:
        LocalGroupTable(model).groups
    assert bases and conversions == []


def test_package_attribute_is_the_sectors_module():
    # Patching this module's names must reach the code that reads them.
    import qtorb

    assert qtorb.sectors is sectors_mod
    assert sectors_mod.__name__ == "qtorb.sectors"


def test_repeated_cosets_raise(monkeypatch):
    # No triangular basis gives a repeat, since stepping generator i
    # h_ii times is one step per coset; zero generators do.
    monkeypatch.setattr(sectors_mod, "_inverse_columns", lambda h, order: [[0] * len(h)] * len(h))
    with pytest.raises(ArithmeticError, match="repeat"):
        box_of_columns([(1, 0), (1, 2)], 2)


def test_fractional_box_point_raises(monkeypatch):
    # The basis of [(1, 0), (1, 2)] is ((1, 1), (0, 2)); without its
    # corner entry the generator (0, 1/2) has the point (1/2, 1).
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: ((1, 0), (0, 2)))
    with pytest.raises(ArithmeticError, match="not integral"):
        box_of_columns([(1, 0), (1, 2)], 2)


def test_exhaustion_rejects_fractional_point(monkeypatch):
    monkeypatch.setattr(sectors_mod.kernels, "box_solutions", lambda cols_mod, r: [(0, 1)])
    with pytest.raises(ArithmeticError, match="not integral"):
        box_by_exhaustion([(1, 0), (1, 2)], 2)
