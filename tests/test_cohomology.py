from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qtorb.cohomology as cohomology_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    LocalGroupTable,
    NonIntegralAgeError,
    apply_unimodular,
    blow_up_table,
    check_age_partition,
    check_torus_stratification,
    cr_report,
    crepant_candidates,
    e_torus,
    faces,
    generate_test_models,
    h_vector,
    make_model,
    passes,
    pp_cr_direct,
    pp_cr_via_closures,
    pp_cr_via_strata,
    random_unimodular,
    relabel_facets,
    run_checks,
)
from qtorb.cohomology import _sum
from qtorb.exact import Poly
from tests.conftest import face_by_indices
from tests.test_blowup import _mislabel_as_trivial
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
    assert e_torus(0) == Poly([1])
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


def test_pp_is_palindromic_and_counts_the_vertices(corpus, crepant_blowups):
    """The ordinary polynomial PP of every corpus model and of every
    crepant blowup of one is the polytope's h-vector: palindromic of
    degree n (Dehn-Sommerville), and PP(1) = f_0, the number of
    vertices.  ``perfbench/reference.py`` (``check_pp``) requires both of
    every ``cr`` and ``betti`` output."""
    models = list(corpus) + [blown for _, _, blown in crepant_blowups]
    assert len(models) > len(corpus)
    for model in models:
        coeffs = cr_report(LocalGroupTable(model)).pp.coeffs
        assert len(coeffs) == model.n + 1 and coeffs == coeffs[::-1], (model.name, coeffs)
        assert sum(coeffs) == len(model.vertices), (model.name, coeffs)


@pytest.mark.parametrize(
    "coeffs", [[1, 2, 0, 1], [2, 1, 1, 2], [2, 2]], ids=["not-palindromic", "not-the-vertex-count", "not-degree-n"]
)
def test_a_doctored_pp_fails_dehn_sommerville_alone(z3, coeffs):
    """A report of the tetrahedron, whose PP is 1 + s + s^2 + s^3 over 4
    vertices, with PP doctored to fail one of the three conditions of
    the check ``dehn_sommerville`` (palindromic, summing to the vertex
    count, of degree n), fails that check alone.  The torus-strata sum is
    doctored alike, so the identity h_identity that compares the two
    holds."""
    report = cr_report(LocalGroupTable(z3))
    assert list(run_checks({"report": (report,)})) == []
    doctored = replace(report, pp=Poly(coeffs), torus_strata=Poly(coeffs))
    assert list(run_checks({"report": (doctored,)})) == [
        f"PP {coeffs} is not palindromic of degree 3 with sum 4, the vertex count"
    ]
    assert not passes(doctored)


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
    lhs, rhs = check_torus_stratification(LocalGroupTable(wp112))
    assert lhs == rhs == Poly([1, 1, 1])
    lhs, rhs = check_torus_stratification(LocalGroupTable(square_model()))
    assert lhs == rhs == Poly([1, 2, 1])
    for model in corpus:
        lhs, rhs = check_torus_stratification(LocalGroupTable(model))
        assert lhs == rhs


def _chained_sum(polys):
    total = Poly([])
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
            Poly(h_vector(g.face, all_faces)) * g.interior_age_polynomial for g in groups
        )
        strata = _chained_sum(e_torus(g.face.dim) * g.age_polynomial for g in groups)
        assert pp_cr_via_closures(table) == closures
        assert pp_cr_via_strata(table) == strata
        torus = _chained_sum(e_torus(face.dim) for face in all_faces)
        pp = Poly(h_vector(all_faces[0], all_faces))
        assert pp == torus
        assert check_torus_stratification(table) == (pp, torus)
        assert cr_report(table).pp == pp


def test_pp_cr_at_one_counts_sectors_with_vertices(corpus):
    for model in corpus:
        total = 0
        for group in LocalGroupTable(model).groups:
            total += len(group.interior) * len(group.face.vertex_ids)
        assert sum(pp_cr_direct(LocalGroupTable(model)).coeffs) == total


def test_pp_cr_constant_term_is_one(corpus):
    for model in corpus:
        assert pp_cr_direct(LocalGroupTable(model)).coeffs[0] == 1


def test_invariance_under_relabeling(corpus, rng):
    for model in corpus[:8]:
        perm = list(range(model.m))
        rng.shuffle(perm)
        relabeled = relabel_facets(model, perm)
        assert pp_cr_direct(LocalGroupTable(relabeled)) == pp_cr_direct(LocalGroupTable(model))
        relabeled_faces, model_faces = faces(relabeled), faces(model)
        assert h_vector(relabeled_faces[0], relabeled_faces) == h_vector(model_faces[0], model_faces)


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
    assert report.routes_agree and passes(report)
    assert report.pp == Poly([1, 1, 1])
    assert report.pp_cr == Poly([1, 2, 1])
    assert [name for name, _, _ in report.identity_sides] == ["h_identity", "newpon", "closures"]
    assert all(lhs == rhs for _, lhs, rhs in report.identity_sides)
    # untwisted sector first, then the age-1 vertex sector, which adds s
    assert [(e.face.facet_set, e.age) for e in sectors(report.groups)] == [((), 0), ((0, 2), 1)]
    assert report.pp_cr - report.pp == Poly([0, 1])


def test_cr_report_runs_one_triangular_basis_per_proper_face(monkeypatch, corpus, basis_faces):
    """One triangular basis per face of codimension at least 2 through no
    smooth vertex; the polytope, the facets, a vertex with |det| = 1 and
    every face through it compute none."""

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


def _per_face_partition(table):
    """check_age_partition with one ``_sum`` per face."""
    return [
        (
            group.face,
            group.age_polynomial
            == _sum(other.interior_age_polynomial for other in table.sector_groups_containing(group.face)),
        )
        for group in table.groups
    ]


def test_age_partition_sums_each_list_of_pieces_once(monkeypatch, corpus):
    """check_age_partition equals the per-face sum, face for face, on the
    corpus, on generate_test_models(s, 20, n=4) for s = 1..3 and on every
    quasi-SL crepant blowup of those, with the blown table built from its
    base's.  It runs one ``_sum`` per distinct list of containing sector
    groups, fewer than there are faces.  With 1 added to the interior age
    polynomial of any one sector group, both flag the same faces: those
    contained in that group's face."""
    tables = [LocalGroupTable(model) for model in corpus]
    for seed in (1, 2, 3):
        for model in generate_test_models(seed, 20, n=4):
            table = LocalGroupTable(model)
            tables.append(table)
            for blowup in crepant_candidates(table):
                blown = blow_up_table(table, blowup)
                if blown.quasi_sl:
                    tables.append(blown)
    sums = []
    real_sum = cohomology_mod._sum
    monkeypatch.setattr(cohomology_mod, "_sum", lambda polys: sums.append(None) or real_sum(polys))
    calls = total_faces = 0
    for table in tables:
        sums.clear()
        checked = check_age_partition(table)
        calls += len(sums)
        total_faces += len(checked)
        assert checked == _per_face_partition(table)
        assert all(ok for _, ok in checked)
        lists = {tuple(g.face.facet_set for g in table.sector_groups_containing(face)) for face, _ in checked}
        assert len(sums) == len(lists)
    assert calls < total_faces
    mutations = 0
    for table in tables:
        for mutated in table.sector_groups.values():
            original = mutated.interior_age_polynomial
            mutated.interior_age_polynomial = original + Poly([1])
            try:
                flagged = [face for face, ok in check_age_partition(table) if not ok]
                assert flagged == [face for face, ok in _per_face_partition(table) if not ok]
                inside = set(mutated.face.facet_set)
                assert flagged == [g.face for g in table.groups if inside.issubset(g.face.facet_set)]
            finally:
                mutated.interior_age_polynomial = original
            mutations += 1
    assert mutations > len(tables)


def test_a_wrong_torus_strata_sum_fails_h_identity_alone(monkeypatch, corpus):
    """A torus-strata sum off by one fails the identity h_identity and no
    other report check: the routes, the age partitions, the Euler number
    and duality read no torus-strata sum."""

    def off_by_one(table):
        lhs, rhs = check_torus_stratification(table)
        return lhs, rhs + Poly([1])

    monkeypatch.setattr(cohomology_mod, "check_torus_stratification", off_by_one)
    for model in corpus:
        report = cr_report(LocalGroupTable(model))
        torus = report.pp + Poly([1])
        assert report.torus_strata == torus
        assert list(run_checks({"report": (report,)})) == [f"identity h_identity fails ({report.pp} != {torus})"]


def test_passes_is_no_report_check_failing(monkeypatch, corpus, z3):
    """``passes`` is "no report check fails", which is the conjunction
    of route agreement, every identity, every age partition, the
    orbifold Euler number and Poincare duality, over the corpus and under
    mutations that fail the routes and an identity, the age partition or
    the Euler number."""

    def conjunction(report):
        coeffs, model = report.pp_cr.coeffs, report.groups.model
        return (
            report.routes_agree
            and all(lhs == rhs for _, lhs, rhs in report.identity_sides)
            and all(ok for _, ok in report.morestrat)
            and sum(coeffs) == sum(abs(d) for d in model.vertex_dets)
            and len(coeffs) == model.n + 1
            and coeffs == coeffs[::-1]
        )

    reports = [cr_report(LocalGroupTable(model)) for model in corpus]
    base = reports[0]
    # A closures or strata route off by one fails the identity that
    # compares it with the direct route.
    for route in ("pp_cr_via_closures", "pp_cr_via_strata"):
        with monkeypatch.context() as patch:
            real = getattr(cohomology_mod, route)
            patch.setattr(cohomology_mod, route, lambda table, real=real: real(table) + Poly([1]))
            reports.append(cr_report(base.groups))
    # A wrongly trivial face fails the age partition; the order-3 vertex
    # of the tetrahedron built trivial fails only the Euler number.
    for model in corpus[::3]:
        lower = [g.face for g in LocalGroupTable(model).groups if g.order > 1 and g.face.codim < model.n]
        if lower:
            with monkeypatch.context() as patch:
                _mislabel_as_trivial(patch, lower[0].facet_set)
                reports.append(cr_report(LocalGroupTable(model)))
    with monkeypatch.context() as patch:
        _mislabel_as_trivial(patch, (0, 1, 2))
        reports.append(cr_report(LocalGroupTable(z3)))
    verdicts = set()
    for report in reports:
        failures = list(run_checks({"report": (report,)}))
        assert passes(report) == (not failures) == conjunction(report)
        verdicts.add(passes(report))
    assert verdicts == {True, False}
    wrong = base.pp_cr + Poly([1])
    assert list(run_checks({"report": (reports[len(corpus)],)})) == [
        f"identity closures fails ({base.pp_cr} != {wrong})",
    ]
    assert list(run_checks({"report": (reports[len(corpus) + 1],)})) == [
        f"identity newpon fails ({base.pp_cr} != {wrong})",
    ]
    assert any(f.startswith("age partition fails at face ") for r in reports for f in run_checks({"report": (r,)}))


def test_the_euler_number_alone_catches_a_vertex_built_trivial(monkeypatch, z3):
    """The order-3 vertex (0, 1, 2) of the tetrahedron built as the trivial
    group loses its two sectors.  PP_CR = 1 + s + s^2 + s^3 is
    palindromic, and the routes, the identities and the age partition
    agree on it; but it sums to 4, not to the orbifold Euler number,
    |det| summed over the vertices, 3 + 1 + 1 + 1."""
    assert list(run_checks({"report": (cr_report(LocalGroupTable(z3)),)})) == []
    _mislabel_as_trivial(monkeypatch, (0, 1, 2))
    assert list(run_checks({"report": (cr_report(LocalGroupTable(z3)),)})) == [
        "the Chen-Ruan Betti numbers sum to 4, not the orbifold Euler number 6"
    ]


def test_poincare_duality_alone_catches_an_age_without_its_inverse(z3):
    """The order-3 vertex's elements of ages 1 and 2 are given age 1
    both, which every route reads alike: PP_CR = 1 + 3s + s^2 + s^3
    still sums to 6 and every partition holds, but it is not
    palindromic."""
    table = LocalGroupTable(z3)
    vertex = table.group(face_by_indices(z3, (0, 1, 2)))
    assert [vertex.age(i) for i in range(vertex.order)] == [0, 1, 2]
    vertex._sums = [0, 3, 3]
    assert list(run_checks({"report": (cr_report(table),)})) == [
        "the Chen-Ruan polynomial [1, 3, 1, 1] is not palindromic of degree 3"
    ]
