import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtorb.cli as cli_mod
import qtorb.kernels as kernels_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    LocalGroup,
    LocalGroupTable,
    blow_up,
    cr_report,
    load_model,
    make_blowup_spec,
    make_model,
    model_to_json,
    parse_model,
)
from qtorb.cli import main
from qtorb.intlat import det
from tests.test_ehrhart import _count_plans
from tests.test_sectors import sectors

GOLDEN_MODELS = os.path.join(os.path.dirname(__file__), "golden", "models")


@pytest.fixture
def wp112_path(tmp_path, wp112):
    path = tmp_path / "wp112.json"
    path.write_text(model_to_json(wp112))
    return str(path)


@pytest.fixture
def z3_path(tmp_path, z3):
    path = tmp_path / "z3.json"
    path.write_text(model_to_json(z3))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_validate_ok(capsys, wp112_path):
    rc, out = run(capsys, "validate", wp112_path)
    assert rc == 0
    report = json.loads(out)
    assert report["valid"] and report["quasi_sl"]
    assert report["vertex_signs"] == [1, -1, 1]


def _record_det_calls(monkeypatch):
    """Wrap ``det`` in every qtorb module that binds it; each call records
    the names of the functions on the stack."""
    stacks = []

    def recording_det(mat):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return det(mat)

    for name, module in list(sys.modules.items()):
        if name.startswith("qtorb") and getattr(module, "det", None) is det:
            monkeypatch.setattr(module, "det", recording_det)
    return stacks


def test_validate_and_mckay_compute_determinants_only_in_validation(
    monkeypatch, capsys, z3_path
):
    """Vertex signs and smoothness read the determinants that model
    validation stored: one per vertex of each model made.  mckay's other
    determinants are the volumes of its validated subdivision."""
    stacks = _record_det_calls(monkeypatch)
    assert run(capsys, "validate", z3_path)[0] == 0
    assert len(stacks) == 4 and all("validate_model" in names for names in stacks)
    stacks.clear()
    assert run(capsys, "mckay", z3_path, "--face", "0,1,2", "--weights", "1/3,1/3,1/3")[0] == 0
    # 4 vertices of the tetrahedron and 6 of its blowup.
    assert sum("validate_model" in names for names in stacks) == 4 + 6
    assert all(names & {"validate_model", "_validated_subdivision"} for names in stacks)


def test_validate_broken_model(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 3,
                "vertices": [[0, 1], [1, 2], [0, 2]],
                "lambda": [[1, 0], [0, 1], [-2, -4]],
            }
        )
    )
    rc, out = run(capsys, "validate", str(path))
    assert rc == 2
    report = json.loads(out)
    assert not report["valid"]
    assert any("not primitive" in v for v in report["violations"])


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.sampled_from([b"\x80", b"\xff\xfe{", b"[" * 100000])))
def test_validate_any_bytes_reports_json(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as handle:
            handle.write(raw)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["validate", path])
    assert rc in (0, 2)
    report = json.loads(buf.getvalue())
    assert report["valid"] is (rc == 0)
    if rc == 2:
        assert report["violations"]


def test_missing_file(capsys, tmp_path):
    rc, out = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "error" in json.loads(out)


def test_faces_report(capsys, wp112_path):
    rc, out = run(capsys, "faces", wp112_path)
    assert rc == 0
    report = json.loads(out)
    assert len(report["faces"]) == 7
    assert report["faces"][0] == {"codim": 0, "dim": 2, "facet_set": [], "vertices": [0, 1, 2]}


def test_sectors_report(capsys, wp112_path):
    rc, out = run(capsys, "sectors", wp112_path)
    assert rc == 0
    report = json.loads(out)
    assert report == [
        {"age": 0, "coeffs": [], "face": [], "height": 0, "point": [0, 0]},
        {
            "age": 1,
            "coeffs": ["1/2", "1/2"],
            "face": [0, 2],
            "height": 2,
            "point": [0, -1],
        },
    ]


def test_sectors_report_rational_ages(capsys, tmp_path):
    path = tmp_path / "nonsl.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 3,
                "vertices": [[0, 1], [1, 2], [0, 2]],
                "lambda": [[1, 0], [0, 1], [-1, -3]],
            }
        )
    )
    rc, out = run(capsys, "sectors", str(path))
    assert rc == 0
    ages = [entry["age"] for entry in json.loads(out)]
    assert "2/3" in ages and "4/3" in ages


def test_betti_report(capsys, wp112_path):
    rc, out = run(capsys, "betti", wp112_path)
    assert rc == 0
    report = json.loads(out)
    assert report["pp"]["s_coeffs"] == [1, 1, 1]
    assert report["pp"]["by_degree"] == [1, 0, 1, 0, 1]
    assert report["pp_cr"]["s_coeffs"] == [1, 2, 1]
    assert report["pp_cr"]["by_degree"] == [1, 0, 2, 0, 1]


def test_cr_report_schema(capsys, wp112_path):
    rc, out = run(capsys, "cr", wp112_path)
    assert rc == 0
    report = json.loads(out)
    assert set(report) == {"pp", "pp_cr", "routes_agree", "sectors", "identities"}
    assert report["pp"] == [1, 1, 1]
    assert report["pp_cr"] == [1, 2, 1]
    assert report["routes_agree"] is True
    assert report["identities"] == {
        "h_identity": True,
        "morestrat": True,
        "newpon": True,
    }


def test_cr_rejects_non_quasi_sl(capsys, tmp_path):
    path = tmp_path / "nonsl.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 3,
                "vertices": [[0, 1], [1, 2], [0, 2]],
                "lambda": [[1, 0], [0, 1], [-1, -3]],
            }
        )
    )
    rc, out = run(capsys, "cr", str(path))
    assert rc == 2
    assert "non-integral age" in json.loads(out)["error"]


def test_ehrhart_report(capsys, wp112_path):
    rc, out = run(capsys, "ehrhart", wp112_path)
    assert rc == 0
    report = json.loads(out)
    by_face = {tuple(entry["face"]): entry for entry in report}
    assert by_face[(0, 2)]["psi"] == [1, 1]
    assert by_face[(0, 2)]["order"] == 2
    assert by_face[(0, 2)]["dilates"] == [1, 3]
    rc, oracle_out = run(capsys, "ehrhart", wp112_path, "--oracle")
    assert rc == 0 and json.loads(oracle_out) == report


def test_ehrhart_rejects_non_quasi_sl(capsys, tmp_path):
    path = tmp_path / "nonsl.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 3,
                "vertices": [[0, 1], [1, 2], [0, 2]],
                "lambda": [[1, 0], [0, 1], [-1, -3]],
            }
        )
    )
    rc, out = run(capsys, "ehrhart", str(path), "--oracle")
    assert rc == 2
    assert "non-integral age" in json.loads(out)["error"]


def test_blowup_writes_model(capsys, tmp_path, wp112, wp112_path):
    out_path = tmp_path / "blown.json"
    rc, out = run(
        capsys,
        "blowup",
        wp112_path,
        "--face",
        "0,2",
        "--weights",
        "1/2,1/2",
        "-o",
        str(out_path),
    )
    assert rc == 0
    report = json.loads(out)
    assert report["crepant"] is True
    assert report["lambda0"] == [0, -1]
    blown = parse_model(out_path.read_text())
    assert blown.m == 4 and len(blown.vertices) == 4
    spec = make_blowup_spec(wp112, [0, 2], ["1/2", "1/2"])
    assert out_path.read_text(encoding="utf-8") == model_to_json(blow_up(wp112, spec))


def test_blowup_invalid_weights(capsys, wp112_path):
    rc, out = run(capsys, "blowup", wp112_path, "--face", "0,1", "--weights", "1/3,1/3")
    assert rc == 2
    assert "not integral" in json.loads(out)["error"]


def test_mckay_pass(capsys, wp112_path):
    rc, out = run(capsys, "mckay", wp112_path, "--face", "0,2", "--weights", "1/2,1/2")
    assert rc == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["pp_cr"] == {"before": [1, 2, 1], "after": [1, 2, 1]}
    assert report["quasi_sl_after_blowup"] is True
    assert all(c["pass"] for c in report["triangulation_checks"])


def test_mckay_non_crepant_is_usage_error(capsys, wp112_path):
    rc, out = run(capsys, "mckay", wp112_path, "--face", "0,1", "--weights", "1,1")
    assert rc == 2
    assert "crepant" in json.loads(out)["error"]


def test_mckay_z3(capsys, z3_path):
    rc, out = run(capsys, "mckay", z3_path, "--face", "0,1,2", "--weights", "1/3,1/3,1/3")
    assert rc == 0
    report = json.loads(out)
    assert report["pp_cr"]["before"] == [1, 2, 2, 1]
    assert report["pp_cr"]["after"] == [1, 2, 2, 1]


def test_fuzz_passes(capsys):
    rc, out = run(capsys, "fuzz", "--seed", "7", "--count", "4", "--n", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["all_pass"] and report["models_generated"] == 4


def test_fuzz_with_oracle(capsys):
    rc, out = run(capsys, "fuzz", "--seed", "11", "--count", "2", "--n", "3", "--oracle")
    assert rc == 0
    assert json.loads(out)["failures"] == []


def test_reports_are_byte_identical(capsys, wp112_path):
    _, first = run(capsys, "cr", wp112_path)
    _, second = run(capsys, "cr", wp112_path)
    assert first == second
    _, third = run(capsys, "mckay", wp112_path, "--face", "0,2", "--weights", "1/2,1/2")
    _, fourth = run(capsys, "mckay", wp112_path, "--face", "0,2", "--weights", "1/2,1/2")
    assert third == fourth


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


def test_arithmetic_error_is_structured(capsys, monkeypatch, wp112_path):
    import qtorb.cli as cli_mod

    def negative(*args, **kwargs):
        raise ArithmeticError("negative numerator coefficient psi_1 = -1")

    monkeypatch.setattr(cli_mod, "numerator_from_counts", negative)
    rc, out = run(capsys, "ehrhart", wp112_path)
    assert rc == 2
    assert json.loads(out) == {"error": "negative numerator coefficient psi_1 = -1"}


def test_runtime_error_is_structured(capsys, monkeypatch, wp112_path):
    def diverges(m):
        raise RuntimeError("triangular form failed")

    monkeypatch.setattr(sectors_mod, "triangular_form", diverges)
    rc, out = run(capsys, "betti", wp112_path)
    assert rc == 2
    assert json.loads(out) == {"error": "triangular form failed"}


def test_cr_reads_identities_by_name(capsys, monkeypatch, wp112_path):
    import dataclasses

    import qtorb.cli as cli_mod
    from qtorb.cohomology import cr_report

    def reordered(table):
        report = cr_report(table)
        failing = dataclasses.replace(report.identity("newpon"), passed=False)
        others = [c for c in report.identities if c.name != "newpon"]
        return dataclasses.replace(report, identities=(failing, *reversed(others)))

    monkeypatch.setattr(cli_mod, "cr_report", reordered)
    rc, out = run(capsys, "cr", wp112_path)
    assert rc == 1
    assert json.loads(out)["identities"] == {"h_identity": True, "morestrat": True, "newpon": False}


def test_identity_failures_reports_each_model_once(monkeypatch, z3, prism):
    import qtorb.blowup as blowup_mod
    from qtorb import crepant_candidates

    reported = []

    def counting(real):
        return lambda table: reported.append(table.model) or real(table)

    monkeypatch.setattr(blowup_mod, "cr_report", counting(blowup_mod.cr_report))
    for model in (z3, prism):
        reported.clear()
        assert blowup_mod.identity_failures(model) == []
        blown = [blowup_mod.blow_up(model, spec) for spec in crepant_candidates(LocalGroupTable(model))]
        assert blown
        assert reported == [model] + [b for b in blown if LocalGroupTable(b).quasi_sl]


def record_tables(monkeypatch):
    """Patch the table constructor to record the model of every table built."""
    built = []
    real = LocalGroupTable.__init__

    def init(self, model, base=None):
        built.append(model)
        real(self, model, base)

    monkeypatch.setattr(LocalGroupTable, "__init__", init)
    return built


@pytest.mark.parametrize(
    "command, options, tables",
    [
        ("validate", [], 1),
        ("sectors", [], 1),
        ("betti", [], 1),
        ("cr", [], 1),
        ("ehrhart", [], 1),
        ("ehrhart", ["--oracle"], 1),
        ("mckay", ["--face", "0,2", "--weights", "1/2,1/2"], 2),
    ],
    ids=["validate", "sectors", "betti", "cr", "ehrhart", "ehrhart-oracle", "mckay"],
)
def test_each_command_builds_one_table_per_model(
    capsys, monkeypatch, wp112, wp112_path, command, options, tables
):
    built = record_tables(monkeypatch)
    rc, _ = run(capsys, command, wp112_path, *options)
    assert rc == 0
    assert len(built) == tables
    # mckay builds the base model's table, then the blown-up model's.
    assert [model.m for model in built] == [wp112.m, wp112.m + 1][:tables]


def test_identity_failures_builds_one_table_per_model(monkeypatch, corpus):
    from qtorb import crepant_candidates, identity_failures

    for model in corpus[::4]:
        candidates = crepant_candidates(LocalGroupTable(model))
        with monkeypatch.context() as patch:
            built = record_tables(patch)
            assert identity_failures(model) == []
        # The base model's table, then one blown-up table per candidate.
        assert len(built) == 1 + len(candidates)
        assert built[0] == model


def test_ehrhart_runs_one_smith_form_per_proper_face(capsys, monkeypatch, basis_faces):
    calls = []
    real = sectors_mod.triangular_form
    monkeypatch.setattr(sectors_mod, "triangular_form", lambda m: calls.append(m) or real(m))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "models", "z3tetra.json")
    with open(path, encoding="utf-8") as handle:
        expected = len(basis_faces(parse_model(handle.read())))
    rc, out = run(capsys, "ehrhart", path)
    assert rc == 0
    assert len(json.loads(out)) == 14
    assert len(calls) == expected == 1
    calls.clear()
    rc, oracle_out = run(capsys, "ehrhart", path, "--oracle")
    assert rc == 0 and oracle_out == out
    assert len(calls) == expected


def test_mckay_verdict_reads_the_blown_models_identities(capsys, monkeypatch, z3):
    """An identity that fails on the blown-up model alone fails the McKay
    verdict, in ``qtorb mckay`` and in ``identity_failures``, although
    the three routes agree and PP_CR is kept."""
    import qtorb.cohomology as cohomology_mod
    from qtorb import identity_failures

    real = cohomology_mod.check_age_partition

    def failing_after_the_blowup(table):
        checks = real(table)
        if table.model.m == z3.m:
            return checks
        return [(face, False) for face, _ in checks]

    monkeypatch.setattr(cohomology_mod, "check_age_partition", failing_after_the_blowup)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "models", "z3tetra.json")
    rc, out = run(capsys, "mckay", path, "--face", "0,1,2", "--weights", "1/3,1/3,1/3")
    assert rc == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["routes_agree"] == {"before": True, "after": True}
    assert report["pp_cr"]["before"] == report["pp_cr"]["after"]
    failures = identity_failures(z3)
    assert failures and all("changes the Betti numbers" in f for f in failures)


def test_ehrhart_oracle_plans_once_per_proper_face(capsys, monkeypatch):
    plans = _count_plans(monkeypatch)
    calls = []
    kernel = kernels_mod.count_in_dilate
    monkeypatch.setattr(kernels_mod, "count_in_dilate", lambda *a: calls.append(a) or kernel(*a))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "models", "z3tetra.json")
    rc, out = run(capsys, "ehrhart", path, "--oracle")
    assert rc == 0
    entries = json.loads(out)
    assert len(plans) == len(entries) == 14
    assert len(calls) == sum(len(e["dilates"]) for e in entries)


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    """The reader closes the pipe after one line of a 20000-sector listing:
    the command stops with exit 2 and writes no error report to it."""
    import pathlib
    import subprocess
    import sys

    path = tmp_path / "tri.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 3,
                "vertices": [[0, 1], [1, 2], [0, 2]],
                "lambda": [[1, 0], [0, 1], [1, 20000]],
            }
        )
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtorb", "sectors", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert b"Traceback" not in stderr
    assert b"BrokenPipeError" not in stderr


def _sector_dict(element) -> dict:
    """One sector in the shape of the listing, built from its BoxElement."""
    return {
        "face": list(element.face.facet_set),
        "coeffs": [str(c) for c in element.coeffs],
        "point": list(element.point),
        "age": element.age.numerator if element.age.denominator == 1 else str(element.age),
        "height": element.height,
    }


def _cr_dict(table) -> dict:
    report = cr_report(table)
    return {
        "pp": list(report.pp.coeffs),
        "pp_cr": list(report.pp_cr.coeffs),
        "routes_agree": report.routes_agree,
        "sectors": [_sector_dict(e) for e in sectors(table)],
        "identities": {
            "morestrat": all(ok for _, ok in report.morestrat),
            "h_identity": report.identity("h_identity").passed,
            "newpon": report.identity("newpon").passed,
        },
    }


def _json_text(ref) -> str:
    return json.dumps(ref, sort_keys=True, indent=2) + "\n"


def test_sector_listings_equal_the_json_of_their_box_elements(
    capsys, monkeypatch, tmp_path, corpus, crepant_blowups
):
    """The listings of sectors and cr, written from integer numerators, are
    byte for byte the indented JSON of the sectors' BoxElements, and they
    build no BoxElement."""
    models = list(corpus) + [blown for _, _, blown in crepant_blowups]
    models.append(load_model(os.path.join(GOLDEN_MODELS, "tri-m1-m100.json")))
    models.append(make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -10**4)]))
    cases = []
    for i, model in enumerate(models):
        path = tmp_path / f"model-{i}.json"
        path.write_text(model_to_json(model))
        table = LocalGroupTable(load_model(path))
        cases.append((str(path), "sectors", _json_text([_sector_dict(e) for e in sectors(table)])))
        if table.quasi_sl:
            cases.append((str(path), "cr", _json_text(_cr_dict(table))))
    assert sum(command == "cr" for _, command, _ in cases) > len(corpus)

    def checked():
        for path, command, expected in cases:
            rc, out = run(capsys, command, path)
            assert rc in (0, 1)
            assert out == expected, (command, path)

    checked()

    def no_box_element(self, i):
        raise AssertionError("the listing built a BoxElement")

    monkeypatch.setattr(LocalGroup, "box_element", no_box_element)
    checked()


def _raise_off_the_polytope(real):
    """``LocalGroup._point`` that raises for every group but the polytope's,
    so the failure comes after the untwisted sector is known."""

    def point(self, nums):
        if self.face.codim:
            raise ArithmeticError(f"box point of {list(nums)} is not integral")
        return real(self, nums)

    return point


@pytest.mark.parametrize("command", ["sectors", "cr"])
@pytest.mark.parametrize("fault", ["points", "numerators"])
def test_sector_listing_fails_before_any_output(capsys, monkeypatch, z3_path, command, fault):
    """A failure while the sectors are enumerated prints the error report
    alone: no part of the listing is written before it."""
    if fault == "points":
        monkeypatch.setattr(LocalGroup, "_point", _raise_off_the_polytope(LocalGroup._point))
    else:
        # Zero generators step the identity h_ii times.
        monkeypatch.setattr(sectors_mod, "_inverse_columns", lambda h, order: [[0] * len(h)] * len(h))
    rc, out = run(capsys, command, z3_path)
    assert rc == 2
    report = json.loads(out)
    assert list(report) == ["error"]
    assert ("not integral" if fault == "points" else "repeat") in report["error"]
    assert out == _json_text(report)


def test_sectors_sorts_after_every_other_cr_key(capsys, monkeypatch, wp112_path):
    """The cr listing is written after the rest of the payload, which is
    right only while "sectors" is the largest key."""
    payloads = []
    real = cli_mod._emit
    monkeypatch.setattr(cli_mod, "_emit", lambda payload, *rest: payloads.append(payload) or real(payload, *rest))
    rc, out = run(capsys, "cr", wp112_path)
    assert rc == 0
    [payload] = payloads
    assert "sectors" not in payload
    assert max(payload) < "sectors"
    report = json.loads(out)
    assert list(report) == sorted(report)
    assert max(report) == "sectors"
