"""Acceptance suite.

One test per criterion; each prints a PASS line when its assertions go
through (run with -s to see them).  Expected polynomial values were
frozen from the brute-force box and dilate-count oracles exercised in
the unit tests.
"""

import contextlib
import io
import json
import pathlib
import time

from qtorb import (
    LocalGroupTable,
    blow_up,
    box_by_exhaustion,
    box_of_columns,
    check_age_partition,
    check_torus_stratification,
    check_triangulation_identity,
    cr_report,
    crepant_candidates,
    ehrhart_numerator,
    face_simplex,
    faces,
    make_blowup_spec,
    mckay_check,
    pp_cr_direct,
    pp_cr_via_closures,
    pp_cr_via_strata,
    relabel_facets,
    star_subdivide,
)
from qtorb.blowup import ORACLE_MAX_ORDER, _subdivision_cones
from qtorb.cli import main
from qtorb.exact import Poly
from qtorb.intlat import det
from qtorb.model import apply_unimodular, random_unimodular
from tests.conftest import checked
from tests.test_model import vertex_matrix
from tests.test_sectors import interior_elements


def report(criterion: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"{criterion} took {elapsed:.2f}s, limit {limit}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_1_wp112_mckay(wp112):
    started = time.perf_counter()
    expected = Poly([1, 2, 1])
    table = LocalGroupTable(wp112)
    assert pp_cr_direct(table) == expected
    assert pp_cr_via_closures(table) == expected
    assert pp_cr_via_strata(table) == expected
    spec = make_blowup_spec(wp112, (0, 2), ["1/2", "1/2"])
    result = mckay_check(cr_report(table), spec)
    assert result.verdict
    assert result.after.pp_cr == expected
    golden = pathlib.Path(__file__).parent.parent / "models" / "wp112.json"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = main(["mckay", str(golden), "--face", "0,2", "--weights", "1/2,1/2"])
    assert rc == 0
    cli_report = json.loads(captured.getvalue())
    assert cli_report["pp_cr"] == {"before": [1, 2, 1], "after": [1, 2, 1]}
    report("1 (weighted-triangle blowup)", started, limit=1.0)


def test_criterion_2_z3_resolution(z3):
    started = time.perf_counter()
    expected = Poly([1, 2, 2, 1])
    groups = LocalGroupTable(z3)
    assert pp_cr_direct(groups) == expected
    blowup = make_blowup_spec(z3, (0, 1, 2), ["1/3", "1/3", "1/3"])
    result = mckay_check(cr_report(groups), blowup)
    assert result.verdict
    blown = result.blown
    assert all(abs(det(vertex_matrix(blown, v))) == 1 for v in blown.vertices)
    assert result.after.pp_cr == expected
    tau = star_subdivide(blowup)
    vertex = tau.ambient_face
    cones = _subdivision_cones(tau.interior, vertex, blowup.spec, z3)
    assert check_triangulation_identity(vertex, cones, groups, result.blown_groups).passed
    report("2 (order-3 corner resolution)", started, limit=1.0)


def test_criterion_3_oracle_equivalence(corpus):
    started = time.perf_counter()
    boxes = numerators = 0
    for model in corpus:
        for group in LocalGroupTable(model).groups:
            face = group.face
            if face.codim == 0 or group.order > ORACLE_MAX_ORDER:
                continue
            cols = [model.char_vectors[i] for i in face.facet_set]
            assert box_of_columns(cols, model.n) == box_by_exhaustion(cols, model.n)
            boxes += 1
            sx = face_simplex(face, model)
            psi = ehrhart_numerator(sx)
            ages = group.age_polynomial.coeffs
            assert psi[: len(ages)] == ages
            assert all(p == 0 for p in psi[len(ages) :])
            numerators += 1
    assert boxes > 100 and numerators > 100
    report(f"3 (oracle equivalence on {boxes} faces)", started, limit=60.0)


def test_criterion_4_identity_suite(corpus):
    started = time.perf_counter()
    for model in corpus:
        table = LocalGroupTable(model)
        assert all(ok for _, ok in check_age_partition(table))
        assert check_torus_stratification(table)[0]
        rep = cr_report(table)
        assert rep.routes_agree and rep.all_pass
        interior = {f.facet_set: interior_elements(table.group(f)) for f in faces(model)}
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
    report("4 (identity suite)", started)


def test_criterion_5_blowup_lemmas(corpus):
    started = time.perf_counter()
    blowups = 0
    for model in corpus:
        before = cr_report(LocalGroupTable(model))
        expected = before.pp_cr_direct
        for spec in crepant_candidates(before.groups):
            blowup = checked(model, spec)
            blown = blow_up(blowup)
            assert LocalGroupTable(blown).quasi_sl
            assert pp_cr_direct(LocalGroupTable(blown)) == expected
            assert mckay_check(before, blowup).verdict
            blowups += 1
    assert blowups > 0
    report(f"5 (quasi-SL and Betti invariance over {blowups} blowups)", started)


def test_criterion_6_metamorphic_invariance(corpus, rng):
    started = time.perf_counter()
    for model in corpus:
        expected = pp_cr_direct(LocalGroupTable(model))
        moved = apply_unimodular(model, random_unimodular(rng, model.n))
        assert pp_cr_direct(LocalGroupTable(moved)) == expected
        perm = list(range(model.m))
        rng.shuffle(perm)
        assert pp_cr_direct(LocalGroupTable(relabel_facets(model, perm))) == expected
    report("6 (metamorphic invariance)", started)
