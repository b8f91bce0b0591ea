import gc
import itertools
import math
import os
import re
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qtorb.intlat as intlat_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    BoxElement,
    LocalGroup,
    LocalGroupTable,
    NonIntegralAgeError,
    RankDeficientError,
    apply_unimodular,
    blow_up_table,
    box_by_exhaustion,
    box_of_columns,
    count_from_ages,
    cr_report,
    det,
    ehrhart_numerator,
    face_simplex,
    faces,
    generate_test_models,
    lattice_index,
    load_model,
    make_model,
    pp_cr_direct,
    random_unimodular,
    triangular_form,
)
from qtorb.blowup import ORACLE_MAX_ORDER, passes
from qtorb.exact import Poly
from qtorb.intlat import mat_from_cols
from tests.conftest import face_by_indices
from tests.test_ehrhart import dilate_count

Z3_COLS = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]


def interior_elements(group):
    """The box elements of ``group`` with every coefficient positive."""
    return [group.box_element(i) for i in group.interior]


def group_points(group):
    """The lattice point of every element of ``group``, in order."""
    return tuple(group.point(i) for i in range(group.order))


def record_points(monkeypatch):
    """A list that gets (group, i) for every point computed from now on,
    by ``point(i)`` or as one of the indices of a ``point_rows`` call;
    ``point_rows`` reads a short list through ``point(i)``, and those
    points are recorded once."""
    computed = []
    in_rows = []
    real_point, real_rows = LocalGroup.point, LocalGroup.point_rows

    def point(self, i):
        if not in_rows:
            computed.append((self, i))
        return real_point(self, i)

    def point_rows(self, indices):
        computed.extend((self, i) for i in indices)
        in_rows.append(self)
        try:
            return real_rows(self, indices)
        finally:
            in_rows.pop()

    monkeypatch.setattr(LocalGroup, "point", point)
    monkeypatch.setattr(LocalGroup, "point_rows", point_rows)
    return computed


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
    assert box_of_columns([(1, 0), (1, 2)], 2)[0].height == 0
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
    assert len(elements) == 1 and elements[0].height == 0


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
    assert len(only) == 1 and only[0].height == 0


def test_age_polynomials():
    assert LocalGroup(Z3_COLS, 3).age_polynomial == Poly([1, 1, 1])
    assert LocalGroup([(1, 0), (1, 2)], 2).age_polynomial == Poly([1, 1])
    assert LocalGroup([(1, 0), (0, 1)], 2).age_polynomial == Poly([1])


def test_face_age_polynomials(wp112, z3):
    table = LocalGroupTable(wp112)
    vertex = table.group(face_by_indices(wp112, (0, 2)))
    assert vertex.age_polynomial == Poly([1, 1])
    assert vertex.interior_age_polynomial == Poly([0, 1])
    smooth = table.group(face_by_indices(wp112, (0, 1)))
    assert smooth.age_polynomial == Poly([1])
    assert smooth.interior_age_polynomial == Poly([])
    z3_vertex = LocalGroupTable(z3).group(face_by_indices(z3, (0, 1, 2)))
    assert z3_vertex.age_polynomial == Poly([1, 1, 1])
    assert z3_vertex.interior_age_polynomial == Poly([0, 1, 1])
    whole = table.group(faces(wp112)[0])
    assert whole.age_polynomial == Poly([1])
    assert whole.interior_age_polynomial == Poly([1])


def test_age_polynomial_at_one_is_group_order(corpus):
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            assert sum(group.age_polynomial.coeffs) == group.order


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
            if group.face.codim == 0 or group.order > ORACLE_MAX_ORDER:
                continue
            cols = group.columns
            assert box_of_columns(cols, model.n) == box_by_exhaustion(cols, model.n)


def test_oracles_run_without_the_triangular_basis(monkeypatch, corpus):
    """With the triangular basis patched to raise, the exhaustive box, the
    brute-force dilate counts and the dilate-series numerator of each
    face of order at most ``ORACLE_MAX_ORDER`` still equal the table's
    values."""
    expected = []
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            face, d = group.face, group.face.codim
            if d == 0 or group.order > ORACLE_MAX_ORDER:
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
    """The refusal of a model that is not quasi-SL names its element
    without enumerating the group or computing any point of it by
    ``point`` or ``point_rows``; reading the age polynomial, which
    enumerates, computes the point of that element alone, not the
    points of its whole group."""
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -12)])
    vertex = LocalGroupTable(bad).group(face_by_indices(bad, [0, 2]))
    first = next(e for e in vertex.box_elements() if e.age.denominator != 1)
    index = vertex.box_elements().index(first)
    computed = record_points(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(LocalGroup, "_enumerate", lambda self: pytest.fail("enumerated"))
        table = LocalGroupTable(bad)
        with pytest.raises(NonIntegralAgeError) as err:
            table.ensure_quasi_sl()
    assert err.value.element == first
    assert computed == []
    group = table.group(first.face)
    with pytest.raises(NonIntegralAgeError) as err:
        group.age_polynomial
    assert err.value.element == first
    assert computed == [(group, index)]


@pytest.mark.parametrize("m", [50, 997])
def test_first_fractional_age_comes_late_in_sorted_order(monkeypatch, m):
    """Z/M x Z/2, columns (2, 0, 0), (0, M, 1 - M) and (0, 0, 1): every
    element with first coefficient 0 has an integral age, so the first
    fractional one, (1/2, 0, 0), is the element at sorted index M.  The
    descent names it with the enumeration patched to raise."""
    cols = [(2, 0, 0), (0, m, 1 - m), (0, 0, 1)]
    enumerated = LocalGroup(cols, 3)
    assert enumerated.order == 2 * m and not enumerated.integral_ages
    expected = enumerated.box_element(m)
    assert expected.coeffs == (Fraction(1, 2), 0, 0)
    assert all(sum(nums) % enumerated.exponent == 0 for nums in enumerated.numerators[:m])
    monkeypatch.setattr(LocalGroup, "_enumerate", lambda self: pytest.fail("enumerated"))
    assert LocalGroup(cols, 3).first_fractional_age() == expected


def test_interior_points_check_integrality(monkeypatch):
    """A basis of order 6 in place of the z3tetra vertex's gives the
    generator (2/6, 3/6, 1/6), with integral ages and the point
    (1/6, 1/3, 1/2).  The point of every interior element raises, and
    the listings' check raises at the first element, in sorted order,
    whose point is not integral."""
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: ((1, 0, -2), (0, 1, -3), (0, 0, 6)))
    group = LocalGroup([(1, 0, 0), (0, 1, 0), (-1, -1, 3)], 3)
    assert group.integral_ages and group.interior
    for i in group.interior:
        with pytest.raises(ArithmeticError, match="not integral"):
            group.point(i)
    with pytest.raises(ArithmeticError, match="not integral") as err:
        group.point(1)  # the first element after the identity
    with pytest.raises(ArithmeticError, match="not integral") as again:
        group.ensure_integral_points()
    assert str(again.value) == str(err.value)


def test_point_rows_equal_the_points_of_their_elements(corpus):
    """point_rows(indices) is [point(i) for i in indices] on lists no
    longer than the group has columns, which are read through point(i),
    and on longer ones, summed one numerator column at a time; in any
    order, with repeats, on the polytope's group without columns and on
    groups of order 1200 and 900."""
    groups = [group for model in corpus for group in LocalGroupTable(model).groups]
    groups.append(LocalGroup([(1, 0), (-1, -1200)], 2))
    groups.append(LocalGroup([(0, 0, 1), (30, 0, 1), (0, 30, 1)], 3))
    assert any(not group.columns for group in groups)
    sizes = Counter()
    for group in groups:
        k = len(group.columns)
        everything = list(range(group.order))
        for indices in (everything, everything[::-1], list(group.interior), everything[:k], [group.order - 1] * (k + 1)):
            assert group.point_rows(indices) == [group.point(i) for i in indices]
            sizes[len(indices) <= k] += 1
    assert sizes[True] > 0 and sizes[False] > 0


def test_point_rows_raise_at_the_first_bad_element(monkeypatch):
    """On the faulty basis of test_interior_points_check_integrality,
    where only the identity's point is integral, point_rows raises
    point(i)'s error for the first other element in list order, on both
    sides of the size selection."""
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: ((1, 0, -2), (0, 1, -3), (0, 0, 6)))
    group = LocalGroup([(1, 0, 0), (0, 1, 0), (-1, -1, 3)], 3)
    assert group.order == 6
    for indices in ([0, 4], [5, 0, 1], [0, 0, 5, 2], [0, 3, 1, 2, 4, 5], [0, 0, 0, 0, 2]):
        first = next(i for i in indices if i)
        with pytest.raises(ArithmeticError, match="not integral") as expected:
            group.point(first)
        with pytest.raises(ArithmeticError) as err:
            group.point_rows(indices)
        assert str(err.value) == str(expected.value)
    assert group.point_rows([0] * 4) == [(0, 0, 0)] * 4


def test_quasi_sl_enumerates_no_group(monkeypatch):
    # The order-10^6 vertex would take seconds to enumerate.
    big = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -10**6)])
    monkeypatch.setattr(LocalGroup, "_enumerate", lambda self: pytest.fail("enumerated"))
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


def test_table_names_a_facet_set_that_is_not_a_face(z3):
    """A facet set that is no face of the model is refused by name, with a
    ValueError, where the table would otherwise fail on a missing key;
    nothing is built for it.  A built face is returned as it is."""
    table = LocalGroupTable(z3)
    for facets in [(0, 1, 4), (0, 1, 2, 3), (2, 1)]:
        with pytest.raises(ValueError, match=f"^{re.escape(str(list(facets)))} is not a face of the model$"):
            table._group(facets)
    assert table._by_facets == {}
    vertex = table._group((0, 1, 2))
    assert table._group((0, 1, 2)) is vertex and vertex.order == 3


def test_table_groups_equal_triangular_basis_groups(corpus, crepant_blowups, basis_faces):
    """Every group a table holds, the trivial ones built without a
    triangular basis and the ones lent by a base table included, equals
    the group built afresh from a triangular basis of the same columns."""

    def built(model):
        table = LocalGroupTable(model)
        table.groups  # a table lends only the groups it has built
        return table

    tables = [(model, LocalGroupTable(model)) for model in corpus]
    tables += [(blown, blow_up_table(built(model), blowup)) for model, blowup, blown in crepant_blowups]
    skipped = 0
    for model, table in tables:
        skipped += sum(1 for f in table.faces if f.codim > 0) - len(basis_faces(model))
        for group in table.groups:
            fresh = LocalGroup(group.columns, model.n, group.face)
            assert group.exponent == fresh.exponent
            assert group.order == fresh.order
            assert group.integral_ages == fresh.integral_ages
            assert group.numerators == fresh.numerators
            assert group_points(group) == group_points(fresh)
            assert group.age_polynomial == fresh.age_polynomial
            assert group.interior_age_polynomial == fresh.interior_age_polynomial
    assert skipped > 0


def test_a_dropped_table_keeps_no_model_alive():
    """A table and its face lattice live as long as their caller keeps
    them: once the report is dropped, nothing holds the model."""
    model = load_model(os.path.join(os.path.dirname(__file__), os.pardir, "models", "z3tetra.json"))
    ref = weakref.ref(model)
    cr_report(LocalGroupTable(model))
    del model
    gc.collect()
    assert ref() is None


def test_no_face_of_codimension_at_most_one_computes_a_basis(
    monkeypatch, corpus, crepant_blowups, basis_faces
):
    """The polytope and the facets are built trivial: on the corpus and on
    every quasi-SL blown table, built afresh and from its base table, the
    faces that compute a triangular basis are exactly the basis faces, all
    of codimension at least 2.  Some facets pass through no smooth vertex,
    so smoothness alone would not spare them."""
    building, bases = [], []
    real_build = LocalGroupTable._build
    real_basis = sectors_mod.triangular_form

    def build(self, face):
        building.append(face)
        try:
            return real_build(self, face)
        finally:
            building.pop()

    monkeypatch.setattr(LocalGroupTable, "_build", build)
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: bases.append(building[-1]) or real_basis(m))

    def check(table, base=None):
        bases.clear()
        assert table.quasi_sl
        table.groups
        assert sorted(bases, key=lambda f: (f.codim, f.facet_set)) == basis_faces(table.model, base)
        assert all(face.codim >= 2 for face in bases)

    for model in corpus:
        check(LocalGroupTable(model))
    singular_facets = 0
    for model, blowup, blown in crepant_blowups:
        check(LocalGroupTable(blown))
        base = LocalGroupTable(model)
        base.groups  # a table lends only the groups it has built
        check(blow_up_table(base, blowup), model)
        singular_facets += sum(
            f.codim == 1 and all(abs(blown.vertex_dets[i]) != 1 for i in f.vertex_ids) for f in faces(blown)
        )
    assert singular_facets > 0


def test_a_unit_diagonal_computes_no_adjugate_column(monkeypatch):
    """Only the columns j of the adjugate with h_jj > 1 are back-substituted,
    so the entries above a unit diagonal entry are never read (``None``
    would fail any arithmetic), and a triangular basis with a unit
    diagonal builds the trivial group without enumerating it."""
    assert sectors_mod._inverse_columns(((1, None, None), (0, 1, None), (0, 0, 1)), 1) == []
    assert sectors_mod._inverse_columns(((2, None), (0, 1)), 2) == [(2, [1, 0])]
    assert sectors_mod._inverse_columns(((1, 1), (0, 2)), 2) == [(2, [-1, 1])]
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: ((1, None), (0, 1)))
    monkeypatch.setattr(LocalGroup, "_enumerate", lambda self: pytest.fail("enumerated"))
    group = LocalGroup([(1, 0), (1, 1)], 2)
    assert (group.order, group.exponent, group._cycles) == (1, 1, ())
    assert group.numerators == ((0, 0),)
    assert group.age_polynomial == Poly([1])


class _PerElement:
    """The data of ``group`` computed one element at a time, from its
    generators: one generator-built tuple per step, one point per
    element, and each element's age summed wherever it is read.  A
    test-local copy of the enumeration that bulk enumeration replaced,
    the reference for the data the group computes in bulk or, when it is
    trivial, is given at construction."""

    def __init__(self, group):
        self.group = group
        e = self.exponent = group.exponent
        elements = [(0,) * len(group.columns)]
        for step, gen in group._cycles:
            grown = []
            for element in elements:
                for _ in range(step):
                    grown.append(element)
                    element = tuple((a + b) % e for a, b in zip(element, gen))
            elements = grown
        elements.sort()
        assert all(a != b for a, b in zip(elements, elements[1:]))
        self.numerators = tuple(elements)
        rows = [[col[r] for col in group.columns] for r in range(group.ambient_dim)]
        self.points = tuple(self._point(nums, rows) for nums in elements)
        self.interior = tuple(i for i, nums in enumerate(elements) if all(nums))

    def _point(self, nums, rows):
        point = []
        for row in rows:
            q, rem = divmod(sum(a * b for a, b in zip(nums, row)), self.exponent)
            assert rem == 0
            point.append(q)
        return tuple(point)

    def age(self, i):
        """The age of element i, or ("fractional", i)."""
        q, rem = divmod(sum(self.numerators[i]), self.exponent)
        return ("fractional", i) if rem else q

    def age_counts(self, indices):
        """The polynomial of the ages of ``indices``, or ("fractional", i)
        for the first of them with a fractional age."""
        counts = []
        for i in indices:
            age = self.age(i)
            if isinstance(age, tuple):
                return age
            counts.extend([0] * (age + 1 - len(counts)))
            counts[age] += 1
        return Poly(counts)


def _outcome(group, read):
    """``read(group)``, or ("fractional", i) for the element i that its
    NonIntegralAgeError names."""
    try:
        return read(group)
    except NonIntegralAgeError as err:
        i = group.numerators.index(tuple(c * group.exponent for c in err.element.coeffs))
        assert err.element == group.box_element(i)
        return ("fractional", i)


def _assert_matches_per_element(group):
    ref = _PerElement(group)
    assert group.numerators == ref.numerators
    assert group_points(group) == ref.points
    assert group.interior == ref.interior
    assert group.order == len(ref.numerators)
    for i in range(len(ref.numerators)):
        assert _outcome(group, lambda g: g.age(i)) == ref.age(i)
    assert _outcome(group, lambda g: g.age_polynomial) == ref.age_counts(range(len(ref.numerators)))
    assert _outcome(group, lambda g: g.interior_age_polynomial) == ref.age_counts(ref.interior)
    if not group.integral_ages:
        first = next(i for i in range(group.order) if isinstance(ref.age(i), tuple))
        assert group.first_fractional_age() == group.box_element(first)


@settings(max_examples=200, deadline=None)
@given(independent_columns)
@example((2, [(2, 0), (0, 2)]))
@example((3, [(2, 4, 0), (0, 6, 0), (1, 1, 12)]))
@example((3, [(1, 0, 0), (1, 1, 0)]))
@example((3, []))
@example((2, [(1, 0), (-1, -3)]))
def test_group_data_match_the_per_element_reference(data):
    """Numerators, points, interior, both age polynomials and every age,
    or the element whose fractional age each of them reports, equal the
    per-element reference: for the group from a triangular basis and for
    the trivial group of the same columns.  The examples are Z/2 x Z/2,
    Z/2 x Z/72, a trivial group from a basis of order 1, the polytope
    (k = 0) and Z/3 with fractional ages."""
    n, cols = data
    if cols:
        try:
            order = lattice_index(cols)
        except RankDeficientError:
            assume(False)
        assume(order <= 2000)
    columns = tuple(map(tuple, cols))
    groups = [LocalGroup(columns, n), LocalGroup._trivial(columns, n, None)]
    for group in groups:
        _assert_matches_per_element(group)
    assert groups[1].order == 1
    assert groups[1].interior == (() if cols else (0,))


def _per_element_direct(table):
    """pp_cr_direct summed one shifted Poly per sector, from the
    per-element reference."""
    total = Poly()
    for facet_set, group in table.sector_groups.items():
        ref = _PerElement(group)
        pp_face = Poly(table.sector_h_vectors[facet_set])
        for i in ref.interior:
            total = total + pp_face.shifted(ref.age(i))
    return total


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_direct_route_matches_the_per_element_reference(seed, n):
    """pp_cr_direct, which adds each sector's shifted h-vector into one
    coefficient list, equals the sum of one shifted polynomial per sector
    on generated models, whose groups are also checked element by
    element."""
    for model in generate_test_models(seed, 1, n=n):
        table = LocalGroupTable(model)
        for group in table.groups:
            _assert_matches_per_element(group)
        if table.quasi_sl:
            assert pp_cr_direct(table) == _per_element_direct(table)


def test_direct_route_on_the_corpus_matches_the_per_element_reference(corpus, crepant_blowups):
    models = list(corpus) + [blown for _, _, blown in crepant_blowups]
    for model in models:
        table = LocalGroupTable(model)
        assert table.quasi_sl
        assert pp_cr_direct(table) == _per_element_direct(table)


def test_trivial_groups_enumerate_nothing(monkeypatch, cp2, corpus):
    """A group without cycles, from ``_trivial`` or from a triangular basis
    of order 1, is given its one element's data when it is built: reading
    all of it, and running every route on the smooth cp2, enumerates no
    group.  The polytope's identity is its interior element."""
    monkeypatch.setattr(LocalGroup, "_enumerate", lambda self: pytest.fail("enumerated"))
    face = face_by_indices(cp2, [0])
    for group in (
        LocalGroup((), 3),
        LocalGroup([(1, 0, 0), (1, 1, 0)], 3),
        LocalGroup([(2, 1), (1, 1)], 2),
        LocalGroup._trivial(((1, 0), (1, 2)), 2, face),
    ):
        k = len(group.columns)
        assert group.order == 1
        assert group.numerators == ((0,) * k,)
        assert group.point(0) == (0,) * group.ambient_dim
        assert group.interior == (() if k else (0,))
        assert group.age(0) == 0
        assert group.age_polynomial == Poly([1])
        assert group.interior_age_polynomial == Poly([] if k else [1])
        assert group.box_elements() == [
            BoxElement((Fraction(0),) * k, (0,) * group.ambient_dim, Fraction(0), 0, group.face)
        ]
        group.ensure_integral_points()
    assert passes(cr_report(LocalGroupTable(cp2)))
    trivial = [g for model in corpus for g in LocalGroupTable(model).groups if g.order == 1]
    assert len(trivial) > 100
    for group in trivial:
        group.numerators, group.point(0), group.age_polynomial, group.interior_age_polynomial


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


def _zero_generators(real):
    """``_inverse_columns`` with every generator's column replaced by
    zeros, each still stepped h_jj times."""
    return lambda h, order: [(step, [0] * len(column)) for step, column in real(h, order)]


def test_repeated_cosets_raise(monkeypatch):
    # No triangular basis gives a repeat, since stepping generator i
    # h_ii times is one step per coset; zero generators do.
    monkeypatch.setattr(sectors_mod, "_inverse_columns", _zero_generators(sectors_mod._inverse_columns))
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
