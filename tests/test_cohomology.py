import pytest
from hypothesis import given
from hypothesis import strategies as st

import qtorb.sectors as sectors_mod
from qtorb import (
    LocalGroupTable,
    NonIntegralAgeError,
    apply_unimodular,
    check_age_partition,
    check_torus_stratification,
    cr_report,
    e_torus,
    faces,
    h_vector,
    make_model,
    pp_cr_direct,
    pp_cr_via_closures,
    pp_cr_via_strata,
    random_unimodular,
    relabel_facets,
)
from qtorb.cohomology import _sum
from qtorb.exact import Poly
from tests.test_sectors import sectors


def square_model():
    return make_model(
        2,
        4,
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(1, 0), (0, 1), (-1, -2), (0, -1)],
        name="square",
    )


def test_e_torus():
    assert e_torus(0) == Poly.one()
    assert e_torus(1) == Poly([-1, 1])
    assert e_torus(2) == Poly([1, -2, 1])
    for k in range(10):
        assert e_torus(k) == Poly((-1, 1)) ** k
    with pytest.raises(ValueError):
        e_torus(-1)


def test_pp_cr_golden_values(wp112, cp2, z3):
    assert pp_cr_direct(LocalGroupTable(cp2)) == Poly([1, 1, 1])
    assert pp_cr_direct(LocalGroupTable(wp112)) == Poly([1, 2, 1])
    assert pp_cr_direct(LocalGroupTable(z3)) == Poly([1, 2, 2, 1])


def test_three_routes_agree_on_goldens(wp112, cp2, z3, prism):
    for model in (wp112, cp2, z3, prism):
        table = LocalGroupTable(model)
        direct = pp_cr_direct(table)
        assert direct == pp_cr_via_closures(table)
        assert direct == pp_cr_via_strata(table)


def test_three_routes_agree_on_corpus(corpus):
    for model in corpus:
        table = LocalGroupTable(model)
        direct = pp_cr_direct(table)
        assert direct == pp_cr_via_closures(table)
        assert direct == pp_cr_via_strata(table)


def test_age_partition_per_face(wp112, z3, corpus):
    # Spot values first: the order-2 vertex decomposes as
    # 1 + s = [interior of the vertex] + [whole-polytope term].
    results = dict(
        ((f.facet_set, ok) for f, ok in check_age_partition(LocalGroupTable(wp112)))
    )
    assert all(results.values())
    for model in corpus:
        assert all(ok for _, ok in check_age_partition(LocalGroupTable(model)))


def test_torus_stratification(wp112, corpus):
    ok, lhs, rhs = check_torus_stratification(LocalGroupTable(wp112))
    assert ok and lhs == Poly([1, 1, 1]) and rhs == Poly([1, 1, 1])
    ok, lhs, _ = check_torus_stratification(LocalGroupTable(square_model()))
    assert ok and lhs == Poly([1, 2, 1])
    for model in corpus:
        assert check_torus_stratification(LocalGroupTable(model))[0]


def _chained_sum(polys):
    total = Poly.zero()
    for p in polys:
        total = total + p
    return total


# Small ranges and cancelling pairs make sums that end in zeros.
sum_inputs = st.lists(
    st.lists(st.integers(-3, 3), max_size=5).map(Poly), max_size=6
).flatmap(lambda ps: st.permutations(ps + [-p for p in ps[:2]]))


@given(sum_inputs)
def test_one_pass_sum_equals_chained_addition(polys):
    total = _sum(iter(polys))
    assert total == _chained_sum(polys)
    assert not total.coeffs or total.coeffs[-1] != 0


def test_one_pass_sum_edge_cases():
    assert _sum([]).coeffs == ()
    assert _sum([Poly([1, 2, 3]), Poly([0, 0, -3])]).coeffs == (1, 2)
    assert _sum([Poly([1, -1]), Poly([-1, 1])]).coeffs == ()
    assert _sum([Poly([0, 5]), Poly([-2])]).coeffs == (-2, 5)


def test_sector_sums_equal_all_face_definitions(corpus, crepant_blowups):
    """Summed over the faces that carry sectors, the age partition, the
    closure and strata routes and the torus sum equal their definitions
    over every face."""
    models = list(corpus) + [blown for _, _, blown in crepant_blowups]
    for model in models:
        table = LocalGroupTable(model)
        all_faces = faces(model)
        groups = [table.group(face) for face in all_faces]
        assert list(table.sector_groups) == [
            g.face.facet_set for g in groups if g.interior_age_polynomial
        ]
        partition = []
        for face, group in zip(all_faces, groups):
            above = [g for g in groups if set(g.face.facet_set) <= set(face.facet_set)]
            rhs = _chained_sum(g.interior_age_polynomial for g in above)
            assert group.age_polynomial == rhs, (model.name, face)
            partition.append((face, True))
        assert check_age_partition(table) == partition
        closures = _chained_sum(
            Poly(h_vector(g.face, model)) * g.interior_age_polynomial for g in groups
        )
        strata = _chained_sum(e_torus(g.face.dim) * g.age_polynomial for g in groups)
        assert pp_cr_via_closures(table) == closures
        assert pp_cr_via_strata(table) == strata
        torus = _chained_sum(e_torus(face.dim) for face in all_faces)
        pp = Poly(h_vector(all_faces[0], model))
        assert check_torus_stratification(table) == (pp == torus, pp, torus)
        assert cr_report(table).pp == pp


def test_pp_cr_at_one_counts_sectors_with_vertices(corpus):
    for model in corpus:
        total = 0
        for group in LocalGroupTable(model).groups:
            total += len(group.interior) * len(group.face.vertex_ids)
        assert pp_cr_direct(LocalGroupTable(model))(1) == total


def test_pp_cr_constant_term_is_one(corpus):
    for model in corpus:
        assert pp_cr_direct(LocalGroupTable(model)).coeffs[0] == 1


def test_invariance_under_relabeling(corpus, rng):
    for model in corpus[:8]:
        perm = list(range(model.m))
        rng.shuffle(perm)
        relabeled = relabel_facets(model, perm)
        assert pp_cr_direct(LocalGroupTable(relabeled)) == pp_cr_direct(LocalGroupTable(model))
        assert h_vector(faces(relabeled)[0], relabeled) == h_vector(faces(model)[0], model)


def test_invariance_under_basis_change(corpus, rng):
    for model in corpus[:8]:
        table = LocalGroupTable(model)
        moved = LocalGroupTable(apply_unimodular(model, random_unimodular(rng, model.n)))
        assert pp_cr_direct(moved) == pp_cr_direct(table)
        assert pp_cr_via_strata(moved) == pp_cr_via_strata(table)


def test_pp_cr_rejects_non_quasi_sl():
    bad = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -3)])
    for route in (pp_cr_direct, pp_cr_via_closures, pp_cr_via_strata):
        with pytest.raises(NonIntegralAgeError):
            route(LocalGroupTable(bad))


def test_cr_report(wp112):
    report = cr_report(LocalGroupTable(wp112))
    assert report.routes_agree and report.all_pass
    assert report.pp == Poly([1, 1, 1])
    assert report.pp_cr == Poly([1, 2, 1])
    assert [name for name in (c.name for c in report.identities)] == [
        "h_identity",
        "newpon",
        "closures",
    ]
    assert all(c.passed for c in report.identities)
    # untwisted sector first, then the age-1 vertex sector, which adds s
    assert [(e.face.facet_set, e.age) for e in sectors(report.groups)] == [((), 0), ((0, 2), 1)]
    assert report.pp_cr - report.pp == Poly([0, 1])


def test_cr_report_runs_one_smith_form_per_proper_face(monkeypatch, corpus, basis_faces):
    """One triangular basis per proper face through no smooth vertex; a
    vertex with |det| = 1 and every face through it compute none."""

    calls = []
    real = sectors_mod.triangular_form
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: calls.append(m) or real(m))
    skipped = 0
    for model in corpus[::5]:
        calls.clear()
        cr_report(LocalGroupTable(model))
        assert len(calls) == len(basis_faces(model))
        skipped += sum(1 for f in faces(model) if f.codim > 0) - len(calls)
    assert skipped > 0


def test_identity_lookup_by_name(wp112):
    report = cr_report(LocalGroupTable(wp112))
    for check in report.identities:
        assert report.identity(check.name) is check
    with pytest.raises(KeyError):
        report.identity("no-such-identity")
