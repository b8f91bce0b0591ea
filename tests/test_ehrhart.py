import math
from fractions import Fraction

import pytest

import qtorb.ehrhart as ehrhart_mod
from qtorb import (
    LocalGroup,
    LocalGroupTable,
    count_from_ages,
    dilate_counts,
    ehrhart_numerator,
    face_simplex,
    faces,
    numerator_from_counts,
)
from qtorb.blowup import ORACLE_MAX_ORDER
from qtorb.ehrhart import LatticeSimplex
from tests.conftest import face_by_indices

Z3_COLS = ((1, 0, 0), (0, 1, 0), (-1, -1, 3))


def simplex_from_cols(cols):
    """Standalone lattice simplex; only `verts` matter for counting."""
    k = len(cols)
    unit = tuple(
        tuple(Fraction(1 if j == i else 0) for j in range(k)) for i in range(k)
    )
    face = None

    class _Stub:
        codim = k

    face = _Stub()
    return LatticeSimplex(ambient_face=face, verts=tuple(cols), coords=unit)


def dilate_count(sx, k):
    """Lattice points of the k-th dilate of ``sx``, by exhaustion: one
    count of the plan that ``dilate_counts`` makes once per simplex."""
    return ehrhart_mod._DilatePlan(sx.verts).count(k)


def test_face_simplex(wp112):
    facet = face_by_indices(wp112, (1,))
    sx = face_simplex(facet, wp112)
    assert sx.verts == ((0, 1),)
    assert sx.dim == 0 and sx.codim == 0
    vertex = face_by_indices(wp112, (0, 2))
    sx = face_simplex(vertex, wp112)
    assert sx.verts == ((1, 0), (-1, -2))
    assert sx.dim == 1


def test_face_simplex_rejects_whole_polytope(wp112):
    with pytest.raises(ValueError):
        face_simplex(faces(wp112)[0], wp112)


def test_dilate_count_unimodular_segment():
    sx = simplex_from_cols([(1, 0), (0, 1)])
    for k in range(6):
        assert dilate_count(sx, k) == k + 1


def test_dilate_count_singular_segment():
    sx = simplex_from_cols([(1, 0), (1, 2)])
    for k in range(5):
        assert dilate_count(sx, k) == 2 * k + 1


def test_dilate_count_at_zero():
    for cols in ([(1, 0), (1, 2)], list(Z3_COLS)):
        assert dilate_count(simplex_from_cols(cols), 0) == 1


def fast_count(sx, k):
    """The box-formula count that ``qtorb ehrhart`` runs without --oracle."""
    ages = LocalGroup(sx.verts, len(sx.verts[0])).age_polynomial
    return count_from_ages(ages, len(sx.verts), k)


def test_dilate_count_fast_examples():
    sx = simplex_from_cols([(1, 0), (1, 2)])
    assert fast_count(sx, 3) == 7
    for d in (2, 3):
        cols = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        unimod = simplex_from_cols(cols)
        for k in range(5):
            assert fast_count(unimod, k) == math.comb(k + d - 1, d - 1)
            assert dilate_count(unimod, k) == math.comb(k + d - 1, d - 1)


def test_fast_equals_brute_force_synthetic():
    for cols in (
        [(1, 0), (1, 2)],
        [(1, 0), (1, 12)],
        list(Z3_COLS),
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 0), (1, 5)],
    ):
        sx = simplex_from_cols(cols)
        d = len(cols)
        for k in range(d + 3):
            assert fast_count(sx, k) == dilate_count(sx, k)


def test_fast_count_rejects_fractional_ages():
    from qtorb import NonIntegralAgeError

    with pytest.raises(NonIntegralAgeError):
        fast_count(simplex_from_cols([(2, 1), (1, 3)]), 2)


def test_fast_equals_brute_force_on_corpus(corpus):
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            face = group.face
            if face.codim == 0 or group.order > ORACLE_MAX_ORDER:
                continue
            sx = face_simplex(face, model)
            d = face.codim
            for k in range(d + 3):
                assert fast_count(sx, k) == dilate_count(sx, k)


def _count_plans(monkeypatch):
    """Record each dilate plan built from now on, by its vertices."""
    plans = []

    class Counted(ehrhart_mod._DilatePlan):
        def __init__(self, verts):
            plans.append(tuple(verts))
            super().__init__(verts)

    monkeypatch.setattr(ehrhart_mod, "_DilatePlan", Counted)
    return plans


def _corpus_simplices(corpus):
    return [face_simplex(face, model) for model in corpus for face in faces(model) if face.codim]


def test_dilate_counts_plan_once_per_simplex(monkeypatch, corpus):
    """One plan per simplex of dim >= 1; a one-vertex simplex needs none,
    its only count being l(0 Delta) = 1, which every plan still gives."""
    simplices = _corpus_simplices(corpus)
    expected = [[dilate_count(sx, k) for k in range(sx.dim + 1)] for sx in simplices]
    assert all(counts[0] == 1 for counts in expected)
    plans = _count_plans(monkeypatch)
    assert [dilate_counts(sx) for sx in simplices] == expected
    assert [numerator_from_counts(c) for c in expected] == [ehrhart_numerator(sx) for sx in simplices]
    assert plans == [sx.verts for sx in simplices if sx.dim] * 2


def test_dilate_counts_never_scan_the_zeroth_dilate(monkeypatch, corpus):
    scanned = []

    class Counted(ehrhart_mod._DilatePlan):
        def count(self, k):
            scanned.append(k)
            return super().count(k)

    monkeypatch.setattr(ehrhart_mod, "_DilatePlan", Counted)
    simplices = _corpus_simplices(corpus)
    for sx in simplices:
        dilate_counts(sx)
    assert scanned == [k for sx in simplices for k in range(1, sx.dim + 1)]
    assert scanned and 0 not in scanned


def test_one_vertex_simplex_builds_no_plan(monkeypatch):
    from qtorb import RankDeficientError

    plans = _count_plans(monkeypatch)
    assert dilate_counts(simplex_from_cols([(0, 1)])) == [1]
    assert dilate_counts(simplex_from_cols([(-1, 2, 5)])) == [1]
    assert plans == []
    with pytest.raises(RankDeficientError, match="dependent"):
        dilate_counts(simplex_from_cols([(0, 0)]))
    assert plans == []


def test_oracle_fuzz_plans_once_per_checked_face(monkeypatch, corpus):
    """One plan per face of codim >= 2 and order at most
    ``ORACLE_MAX_ORDER`` of the base table, then, for each crepant
    candidate in turn, one per such face on the new facet of its
    blown-up table.  A facet's one-vertex simplex needs no plan."""
    from qtorb import blow_up_table, crepant_candidates, identity_failures

    def checked(table, keep=lambda face: True):
        return [
            face_simplex(g.face, table.model).verts
            for g in table.groups
            if g.face.codim >= 2 and g.order <= ORACLE_MAX_ORDER and keep(g.face)
        ]

    plans = _count_plans(monkeypatch)
    blown_checked = 0
    for model in corpus:
        table = LocalGroupTable(model)
        expected = checked(table)
        for blowup in crepant_candidates(table):
            blown = blow_up_table(table, blowup)
            if blown.quasi_sl:
                expected += checked(blown, lambda face: model.m in face.facet_set)
        blown_checked += len(expected) - len(checked(table))
        plans.clear()
        assert identity_failures(LocalGroupTable(model), include_oracle=True) == []
        assert plans == expected
    assert blown_checked > 0


def test_dilate_counts_refuse_a_scan_over_the_limit_before_scanning(monkeypatch):
    import qtorb.kernels as kernels_mod

    def refused(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(kernels_mod, "count_in_dilate", refused)
    # The first dilate of the segment scans 10**7 + 1 points.
    with pytest.raises(ValueError, match=f"scan 10000001 points, above the limit of {2**20}"):
        dilate_counts(simplex_from_cols([(1, 0), (1, 10**7)]))
    assert ehrhart_mod.DILATE_SCAN_LIMIT == 2**20
    # A plan's scan size sums the dilates 1, ..., dim; here two coordinates
    # of range [-1, 1] are scanned, (2k + 1)**2 points for the k-th dilate.
    assert ehrhart_mod._DilatePlan(Z3_COLS).scan_size(2) == 3**2 + 5**2


def test_the_oracles_build_no_local_group_and_no_triangular_basis(monkeypatch, corpus):
    """The oracles stay independent of the local-group construction: with
    every way into it refused, they still run on every proper face, and
    their group orders agree."""
    import qtorb.intlat as intlat_mod
    import qtorb.sectors as sectors_mod
    from qtorb import box_by_exhaustion

    def refused(*args):
        raise AssertionError("an oracle reached the local-group construction")

    checked = [(model, face_simplex(face, model)) for model in corpus for face in faces(model) if face.codim]
    monkeypatch.setattr(intlat_mod, "triangular_form", refused)
    monkeypatch.setattr(sectors_mod, "triangular_form", refused)
    monkeypatch.setattr(LocalGroup, "__init__", refused)
    monkeypatch.setattr(LocalGroup, "_trivial", refused)
    with pytest.raises(AssertionError, match="local-group construction"):
        LocalGroupTable(corpus[0]).groups
    for model, sx in checked:
        counts = dilate_counts(sx)
        psi = ehrhart_numerator(sx)
        assert psi == numerator_from_counts(counts)
        assert sum(psi) == len(box_by_exhaustion(list(sx.verts), model.n))


def test_ehrhart_numerator_examples():
    assert ehrhart_numerator(simplex_from_cols([(1, 0), (0, 1)])) == (1, 0)
    assert ehrhart_numerator(simplex_from_cols([(1, 0), (1, 2)])) == (1, 1)
    assert ehrhart_numerator(simplex_from_cols(list(Z3_COLS))) == (1, 1, 1)
    assert ehrhart_numerator(simplex_from_cols([(1,)])) == (1,)


def test_numerator_from_counts_rejects_negative():
    # No segment has a first dilate without lattice points:
    # psi_1 = l(1) - 2 l(0) = -2 exposes the bad count.
    assert numerator_from_counts([1, 3]) == (1, 1)
    with pytest.raises(ArithmeticError, match="psi_1 = -2"):
        numerator_from_counts([1, 0])


def test_numerator_matches_ages_on_corpus(corpus):
    # The dilate-count route and the box-age route must produce the same
    # numerator coefficients; they share no code.
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            face = group.face
            if face.codim == 0 or group.order > ORACLE_MAX_ORDER:
                continue
            sx = face_simplex(face, model)
            psi = ehrhart_numerator(sx)
            ages = group.age_polynomial.coeffs
            assert psi[: len(ages)] == ages
            assert all(p == 0 for p in psi[len(ages) :])
            assert sum(psi) == group.order
            assert all(p >= 0 for p in psi)


def test_subdivision_simplex_codim(z3):
    from qtorb import make_blowup_spec, star_subdivide

    tau = star_subdivide(make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3))
    vertex = tau.ambient_face
    for sx in tau.simplices:
        assert sx.codim == (vertex.codim - 1) - sx.dim
        assert sx.codim >= 0


def test_dilate_count_rejects_dependent_vertices(wp112):
    from qtorb import RankDeficientError

    sx = LatticeSimplex(
        ambient_face=face_by_indices(wp112, (0, 2)),
        verts=((1, 0), (2, 0)),
        coords=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    with pytest.raises(RankDeficientError, match="dependent"):
        dilate_count(sx, 1)


def test_fast_counts_from_the_table_equal_the_oracle(crepant_blowups):
    checked = 0
    for _, _, blown in crepant_blowups:
        for group in LocalGroupTable(blown).groups:
            face = group.face
            if face.codim == 0 or group.order > 12:
                continue
            sx = face_simplex(face, blown)
            for k in range(face.codim + 1):
                fast = count_from_ages(group.age_polynomial, face.codim, k)
                assert fast == dilate_count(sx, k) == fast_count(sx, k)
            checked += 1
    assert checked > 0
