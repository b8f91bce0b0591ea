import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtorb.blowup as blowup_mod
import qtorb.cli as cli_mod
import qtorb.ehrhart as ehrhart_mod
import qtorb.kernels as kernels_mod
import qtorb.model as model_mod
import qtorb.sectors as sectors_mod
from qtorb import (
    LocalGroup,
    LocalGroupTable,
    apply_unimodular,
    blow_up,
    blow_up_table,
    cr_report,
    crepant_candidates,
    generate_test_models,
    generate_test_tables,
    load_model,
    make_blowup_spec,
    make_model,
    model_to_json,
    parse_model,
    random_unimodular,
)
from qtorb.cli import main
from qtorb.intlat import det
from tests.test_ehrhart import _count_plans
from tests.test_sectors import _zero_generators, sectors

GOLDEN_MODELS = os.path.join(os.path.dirname(__file__), "golden", "models")
Z3TETRA = os.path.join(os.path.dirname(__file__), os.pardir, "models", "z3tetra.json")


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


def timed_run(capsys, limit, *argv):
    """``run`` of ``argv``, which must return within ``limit`` seconds."""
    started = time.perf_counter()
    rc, out = run(capsys, *argv)
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{' '.join(argv)} took {elapsed:.2f}s, limit {limit}s"
    return rc, out


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
    validation stored: one per vertex of the model loaded.  The blown-up
    model's are derived from them, so mckay's other determinants are the
    volumes of its validated subdivision."""
    stacks = _record_det_calls(monkeypatch)
    assert run(capsys, "validate", z3_path)[0] == 0
    assert len(stacks) == 4 and all("validate_model" in names for names in stacks)
    stacks.clear()
    assert run(capsys, "mckay", z3_path, "--face", "0,1,2", "--weights", "1/3,1/3,1/3")[0] == 0
    # 4 vertices of the tetrahedron; the 6 of its blowup are derived.
    assert sum("validate_model" in names for names in stacks) == 4
    assert all(names & {"validate_model", "_validated_subdivision"} for names in stacks)


def test_derived_models_compute_no_vertex_determinant(monkeypatch, corpus, rng):
    """blow_up_table derives every vertex determinant of the blown-up model
    from the base model's, and apply_unimodular from det(u), the one
    determinant it computes, which refuses a u that is not unimodular."""
    blowups = [
        (table, blowup) for table in map(LocalGroupTable, corpus) for blowup in crepant_candidates(table)
    ]
    assert blowups
    stacks = _record_det_calls(monkeypatch)
    for table, blowup in blowups:
        blow_up_table(table, blowup)
    assert stacks == []
    for model in corpus:
        apply_unimodular(model, random_unimodular(rng, model.n))
        assert len(stacks) == 1 and "validate_model" not in stacks.pop()


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
    blowup = make_blowup_spec(wp112, [0, 2], ["1/2", "1/2"])
    assert out_path.read_text(encoding="utf-8") == model_to_json(blow_up(blowup))


def test_blowup_invalid_weights(capsys, wp112_path):
    rc, out = run(capsys, "blowup", wp112_path, "--face", "0,1", "--weights", "1/3,1/3")
    assert rc == 2
    assert "not integral" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["blowup", "mckay"])
def test_a_combination_too_long_to_print_is_named_by_its_coordinates(capsys, wp112_path, command):
    """Two weights with about 4,000-digit denominators, each under Python's
    4,300-digit limit for parsing, combine to a vector whose first
    coordinate's denominator has about 8,000 digits: the error names the
    face and the fractional coordinates instead of printing it."""
    weights = f"1/{'7' * 4000},1/{'9' * 3999}1"
    rc, out = timed_run(capsys, 1, command, wp112_path, "--face", "0,2", "--weights", weights)
    assert rc == 2
    assert json.loads(out) == {
        "error": "new characteristic vector on face [0, 2] is not integral at coordinates [0, 1]"
    }


def test_a_new_vector_too_long_to_print_is_refused_by_the_limit(capsys, tmp_path):
    """A model file holds entries of 4,000 digits, under Python's 4,300-digit
    limit, but a 4,000-digit weight times a 4,000-digit entry gives a new
    vector with an entry of about 8,000: the spec is refused with the
    limit named, before a model is derived or written."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "n": 2, "m": 3, "vertices": [[0, 1], [1, 2], [0, 2]],
        "lambda": [[1, 0], [0, 1], [-1, "-1" + "0" * 3999]],
    }))
    out_path = tmp_path / "blown.json"
    rc, out = timed_run(
        capsys, 1, "blowup", str(path), "--face", "1,2", "--weights", "1," + "2" * 4000, "-o", str(out_path)
    )
    assert rc == 2
    limit = sys.get_int_max_str_digits()
    assert json.loads(out) == {
        "error": f"new characteristic vector on face [1, 2] has an entry of more than "
        f"{limit} digits, the limit for printing an integer"
    }
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["blowup", "mckay"])
@pytest.mark.parametrize(
    "face, weights, error",
    [
        ("0,2", "1/0,1", "invalid weight '1/0'"),
        ("0,2", "x,1", "invalid weight 'x'"),
        ("0,x", "1,1", "invalid facet index 'x'"),
        # A bad face is reported before a bad weight token.
        ("0,1,2", "x,1,1", "[0, 1, 2] is not a face of the model"),
        # Fraction would expand the exponent to 10**(10**7) first.
        ("0,2", "1e-10000000,1", "invalid weight '1e-10000000'"),
    ],
)
def test_spec_errors_name_the_bad_token(capsys, wp112_path, command, face, weights, error):
    rc, out = timed_run(capsys, 1, command, wp112_path, "--face", face, "--weights", weights)
    assert rc == 2
    assert json.loads(out) == {"error": error}


@pytest.mark.parametrize("command", ["blowup", "mckay"])
@pytest.mark.parametrize(
    "face, weights, error",
    [
        ("-1,2", "1,1", "[-1, 2] is not a face of the model"),
        ("0,2", "-1,1", "blowup weights must be strictly positive"),
        ("0,2", "-1/2,3/2", "blowup weights must be strictly positive"),
        ("-1", "1", "[-1] is not a face of the model"),
    ],
)
def test_negative_spec_tokens_reach_the_spec(capsys, wp112_path, command, face, weights, error):
    """A value after --face or --weights, or a prefix of either, that
    starts with "-" and a digit is a value, not an option:
    make_blowup_spec rejects it with a JSON error, as it does when the
    value is attached with "="."""
    for argv in (
        ["--face", face, "--weights", weights],
        ["--fa", face, "--weight", weights],
        [f"--face={face}", f"--weights={weights}"],
    ):
        rc, out = run(capsys, command, wp112_path, *argv)
        assert rc == 2
        assert json.loads(out) == {"error": error}


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


@pytest.mark.parametrize("command", ["mckay", "blowup"])
def test_a_spec_is_checked_once_per_command(capsys, monkeypatch, z3_path, command):
    """``qtorb mckay`` and ``qtorb blowup`` run the one spec check,
    ``make_blowup_spec``, once: the checked blowup it returns is what the
    McKay check and the blowup work from."""
    calls = []
    real = blowup_mod.make_blowup_spec
    for module in (blowup_mod, cli_mod):
        monkeypatch.setattr(module, "make_blowup_spec", lambda *args: calls.append(args) or real(*args))
    rc, out = run(capsys, command, z3_path, "--face", "0,1,2", "--weights", "1/3,1/3,1/3")
    assert rc == 0 and json.loads(out)["lambda0"] == [0, 0, 1]
    assert len(calls) == 1


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


COMMANDS = list(cli_mod._COMMANDS)


def _parse_stop(capsys, parse) -> tuple[str, str, object]:
    """stdout, stderr and exit code of a parse that must exit."""
    with pytest.raises(SystemExit) as err:
        parse()
    out, errs = capsys.readouterr()
    return out, errs, err.value.code


def _reference_parser() -> argparse.ArgumentParser:
    """The qtorb parser as it was before each command got a parser of its
    own: the top-level parser with the subparsers of all nine commands.
    ``main`` must parse every command line as this parser does."""
    parser = argparse.ArgumentParser(
        prog="qtorb",
        description=(
            "Chen-Ruan Betti numbers of quasitoric orbifolds from combinatorial "
            "models, with exact verification of crepant blowup invariance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, takes_model, options) in cli_mod._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if takes_model:
            p.add_argument("model", help="path to a model JSON file")
        for flags, keywords in options:
            p.add_argument(*flags.split(), **keywords)
    return parser


def _reference_parse(argv):
    return _reference_parser().parse_args(cli_mod._spec_values(argv))


SPEC = ["--face", "0,2", "--weights", "1/2,1/2"]

# Command lines that exit while they are parsed, with help or a usage error.
USAGE_VECTORS = (
    [[], ["nosuch"], ["--help"], ["-h", "validate"]]
    + [[name, "--help"] for name in COMMANDS]
    + [[name] for name in COMMANDS if name != "fuzz"]
    + [[name, "MODEL", "--face", "0,2"] for name in ("blowup", "mckay")]
    + [["validate", "MODEL", "--bogus"], ["validate", "MODEL", "extra"]]
    + [["fuzz", "--n", "5"], ["fuzz", "--count", "x"], ["fuzz", "--count", "-1"]]
    + [
        ["--", "validate", "MODEL"],
        ["--he"],
        ["fuzz", "--"],
        ["validate", "--", "MODEL", "--bogus"],
        ["validate", "MODEL", "-h"],
        ["cr", "MODEL", "--he"],
        ["validate", "MODEL", "--bogus=1"],
        ["validate", "--bogus", "MODEL"],
        ["validate", "MODEL", "MODEL"],
        ["ehrhart", "MODEL", "--oracle", "--oracle=1"],
        ["blowup", "MODEL", "--fa", "0,2", "--we", "1/2,1/2", "--bogus"],
        ["blowup", "MODEL", *SPEC, "extra"],
        ["mckay", "MODEL", "--face", "0,2", "--weights"],
        ["mckay", "MODEL", *SPEC, "--"],
        ["mckay", "MODEL", "--face", "0,2", "--weights", "--face"],
        ["fuzz", "--seed", "1", "extra"],
        ["fuzz", "--count", "0"],
        ["fuzz", "--seed=-x"],
        ["fuzz", "--n=-2"],
        ["fuzz", "--budget", "-5", "--count", "2"],
    ]
)

# Command lines that parse, and reach the command's handler.
PARSED_VECTORS = (
    [[name, "MODEL"] for name in COMMANDS if name not in ("blowup", "mckay", "fuzz")]
    + [[name, "MODEL", *SPEC] for name in ("blowup", "mckay")]
    + [
        ["fuzz"],
        ["validate", "--", "MODEL"],
        ["ehrhart", "--oracle", "MODEL"],
        ["ehrhart", "MODEL", "--ora"],
        ["ehrhart", "MODEL", "--"],
        ["blowup", "MODEL", "--fa", "0,2", "--we", "1/2,1/2", "--out", "out.json"],
        ["blowup", "MODEL", *SPEC, "-o", "out.json"],
        ["blowup", "--face=0,2", "--weights=-1,2", "MODEL"],
        ["mckay", "MODEL", "--face", "0,2", "--weights", "-1,2"],
        ["mckay", "MODEL", "--fa", "-1,2", "--we", "1/2,1/2"],
        ["mckay", "MODEL", "--face", "0,1", *SPEC],
        ["fuzz", "--seed", "1", "--seed", "2"],
        ["fuzz", "--seed=-3", "--count", "2", "--n", "4", "--oracle"],
        ["fuzz", "--se", "4", "--co", "3", "--bu", "50", "--or"],
    ]
)


def _with_model(argv, wp112_path):
    return [wp112_path if a == "MODEL" else a for a in argv]


@pytest.mark.parametrize("argv", USAGE_VECTORS, ids=" ".join)
def test_usage_surface_equals_the_full_parser(capsys, monkeypatch, wp112_path, argv):
    """Parsing a command with its own parser changes no help text, usage
    error or exit code: main prints what the parser of all commands prints."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = _with_model(argv, wp112_path)
    full = _parse_stop(capsys, lambda: _reference_parse(argv))
    assert _parse_stop(capsys, lambda: main(list(argv))) == full
    assert full[2] in (0, 2)
    if not argv:
        assert full[1].endswith("error: the following arguments are required: command\n")


@pytest.mark.parametrize("argv", PARSED_VECTORS, ids=" ".join)
def test_parsed_arguments_equal_the_full_parser(monkeypatch, wp112_path, argv):
    """A command line that parses reaches its handler with the arguments
    that the parser of all commands gives."""
    argv = _with_model(argv, wp112_path)
    expected = vars(_reference_parse(argv))
    parsed = []
    monkeypatch.setattr(cli_mod, "_run", lambda args: parsed.append(args) or 0)
    assert main(list(argv)) == 0
    assert [vars(args) for args in parsed] == [expected]


def _count_parsers(monkeypatch) -> list:
    """The prog of every ArgumentParser built from now on, in order."""
    built = []
    real = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    return built


def test_a_named_command_builds_its_parser_alone(capsys, monkeypatch, wp112_path):
    """A command that parses builds one ArgumentParser, its own.  Help, an
    unknown first word and leftover words build the full tree as well:
    the top-level parser and the nine subparsers."""
    built = _count_parsers(monkeypatch)
    full = ["qtorb"] + [f"qtorb {name}" for name in COMMANDS]
    assert len(full) == 10
    rc, _ = run(capsys, "validate", wp112_path)
    assert rc == 0
    assert built == ["qtorb validate"]
    built.clear()
    rc, _ = run(capsys, "fuzz", "--seed", "1", "--count", "1", "--n", "2")
    assert rc == 0
    assert built == ["qtorb fuzz"]
    for argv, before in (
        (["--help"], []),
        (["nosuch"], []),
        (["validate", wp112_path, "--bogus"], ["qtorb validate"]),
    ):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert built == before + full, argv


def test_every_command_dispatches_to_its_handler(monkeypatch, wp112_path):
    called = []
    for name, (help_text, handler, takes_model, options) in list(cli_mod._COMMANDS.items()):
        assert handler is getattr(cli_mod, f"_cmd_{name}")
        argv = [name] + [wp112_path] * takes_model
        for flags, keywords in options:
            if keywords.get("required"):
                argv += [flags.split()[-1], "1"]

        def stub(args, handler=handler):
            called.append((args.command, handler))
            return 0

        monkeypatch.setitem(cli_mod._COMMANDS, name, (help_text, stub, takes_model, options))
        assert main(argv) == 0
    assert called == [(name, getattr(cli_mod, f"_cmd_{name}")) for name in COMMANDS]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, wp112_path):
    rc, expected = run(capsys, "validate", wp112_path)
    monkeypatch.setattr(sys, "argv", ["qtorb", "validate", wp112_path])
    assert main() == rc == 0
    assert capsys.readouterr().out == expected
    with pytest.raises(SystemExit) as err:
        cli_mod.entry()
    assert err.value.code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [["--count", "-1"], ["--count", "0"], ["--count", "3", "--budget", "0"], ["--budget", "-400"]],
    ids=" ".join,
)
def test_fuzz_rejects_counts_and_budgets_below_one(capsys, argv):
    """A fuzz run that would check no model is a usage error, not a pass."""
    out, errs, code = _parse_stop(capsys, lambda: main(["fuzz"] + argv))
    assert (out, code) == ("", 2)
    flag = argv[-2]
    assert f"error: argument {flag}: must be at least 1: '{argv[-1]}'" in errs


def test_fuzz_that_generates_no_model_is_an_error(capsys):
    """A run whose budget yields no model checks nothing: exit 2 with an
    error naming the seed, n and budget, instead of a pass."""
    rc, out = run(capsys, "fuzz", "--seed", "2", "--count", "3", "--n", "4", "--budget", "1")
    assert rc == 2
    assert json.loads(out) == {"error": "no model generated", "seed": 2, "n": 4, "budget": 1}
    rc, out = run(capsys, "fuzz", "--seed", "1", "--count", "3", "--n", "4", "--budget", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["all_pass"] and report["models_generated"] == 2 < report["models_requested"]


def test_fuzz_count_must_be_an_integer(capsys):
    out, errs, code = _parse_stop(capsys, lambda: main(["fuzz", "--count", "x"]))
    assert (out, code) == ("", 2)
    assert errs.endswith("error: argument --count: invalid int value: 'x'\n")


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


def test_cr_reads_identities_from_the_routes(capsys, monkeypatch, wp112_path):
    """A strata route off by one fails newpon and the route agreement,
    and leaves h_identity and the age partitions holding."""
    import qtorb.cohomology as cohomology_mod
    from qtorb.exact import Poly

    real = cohomology_mod.pp_cr_via_strata
    monkeypatch.setattr(cohomology_mod, "pp_cr_via_strata", lambda table: real(table) + Poly([1]))
    rc, out = run(capsys, "cr", wp112_path)
    assert rc == 1
    report = json.loads(out)
    assert report["routes_agree"] is False
    assert report["identities"] == {"h_identity": True, "morestrat": True, "newpon": False}


def test_identity_failures_reports_each_model_once(monkeypatch, z3, prism):
    import qtorb.blowup as blowup_mod
    from qtorb import crepant_candidates

    reported = []

    def counting(real):
        return lambda table: reported.append(table.model) or real(table)

    monkeypatch.setattr(blowup_mod, "cr_report", counting(blowup_mod.cr_report))
    for model in (z3, prism):
        reported.clear()
        assert blowup_mod.identity_failures(LocalGroupTable(model)) == []
        blown = [blowup_mod.blow_up(blowup) for blowup in crepant_candidates(LocalGroupTable(model))]
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
        table = LocalGroupTable(model)
        candidates = crepant_candidates(table)
        with monkeypatch.context() as patch:
            built = record_tables(patch)
            assert identity_failures(table) == []
        # One blown-up table per candidate; the base table is the caller's.
        assert len(built) == len(candidates)
        assert all(blown.m == model.m + 1 for blown in built)


def test_identity_failures_builds_one_face_lattice_per_blown_vertex_list(monkeypatch, corpus):
    """A blown-up model's vertex list depends on the face alone, and the
    crepant candidates of one face come one after another: the McKay
    checks build one face lattice per distinct blown-up vertex list, in
    the candidates' order, and some face has more than one candidate."""
    from qtorb import identity_failures

    shared = 0
    for model in corpus:
        table = LocalGroupTable(model)
        blown = [blow_up(blowup).vertices for blowup in crepant_candidates(table)]
        with monkeypatch.context() as patch:
            lattices = record_face_lattices(patch)
            assert identity_failures(table) == []
        assert [lattice.vertices for lattice in lattices] == list(dict.fromkeys(blown))
        shared += len(blown) - len(lattices)
    assert shared > 0


def record_face_lattices(monkeypatch):
    """Patch a wrapper of ``faces`` into every qtorb module that binds it,
    recording the model of every face lattice built."""
    built = []
    real = model_mod.faces

    def counted(model):
        built.append(model)
        return real(model)

    bound = [
        module for name, module in sys.modules.items()
        if name.split(".")[0] == "qtorb" and getattr(module, "faces", None) is real
    ]
    assert {"qtorb.model", "qtorb.sectors", "qtorb.cli"} <= {m.__name__ for m in bound}
    for module in bound:
        monkeypatch.setattr(module, "faces", counted)
    return built


_Z3_SPEC = ["--face", "0,1,2", "--weights", "1/3,1/3,1/3"]


@pytest.mark.parametrize(
    "command, options, lattices",
    [
        ("validate", [], 1),
        ("faces", [], 1),
        ("sectors", [], 1),
        ("betti", [], 1),
        ("cr", [], 1),
        ("mckay", _Z3_SPEC, 2),
        ("blowup", _Z3_SPEC, 0),
    ],
    ids=["validate", "faces", "sectors", "betti", "cr", "mckay", "blowup"],
)
def test_each_command_builds_each_face_lattice_once(capsys, monkeypatch, command, options, lattices):
    """A table builds its model's face lattice once, and every h-vector
    and subface list reads it; mckay builds the base model's and the
    blown-up model's, and blowup finds its face by the spec check's
    vertex scan.  A second run in the same process builds as many."""
    built = record_face_lattices(monkeypatch)
    for _ in range(2):
        built.clear()
        rc, _ = run(capsys, command, Z3TETRA, *options)
        assert rc == 0
        assert len(built) == lattices


def test_fuzz_checks_the_tables_the_generator_built(capsys, monkeypatch):
    """``qtorb fuzz`` checks each model on the table the generator built
    and screened it with: the run builds the generator's tables, then
    one blown-up table per crepant candidate, and no second table of any
    generated model.  Each table builds its face lattice once, unless it
    is built on a table over the same vertex list, whose lattice it
    shares: after a unimodular change, and at a face's second crepant
    candidate and later ones."""
    argv = ["fuzz", "--seed", "1", "--count", "10", "--n", "4"]
    with monkeypatch.context() as patch:
        generator_tables = record_tables(patch)
        generated = list(generate_test_tables(1, 10, n=4))
    candidates = sum(len(crepant_candidates(table)) for table in generated)
    assert len(generated) == 10 and candidates > 0
    lattices = record_face_lattices(monkeypatch)
    tables = []
    real = LocalGroupTable.__init__

    def init(self, model, base=None):
        tables.append((model, None if base is None else base.model.vertices))
        real(self, model, base)

    monkeypatch.setattr(LocalGroupTable, "__init__", init)
    rc, out = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["all_pass"]
    assert len(tables) == len(generator_tables) + candidates
    assert lattices == [model for model, lender in tables if lender != model.vertices]
    assert len(lattices) < len(tables)


def test_fuzz_keeps_one_generated_table_alive(capsys, monkeypatch):
    """The generator hands its tables over one at a time, and each is
    dropped once checked: when a model is checked, no earlier model's
    table is alive."""
    import gc
    import weakref

    import qtorb.cli as cli_mod

    real = cli_mod.identity_failures
    checked = []

    def check(table, include_oracle=False):
        gc.collect()
        assert all(ref() is None for ref in checked), len(checked)
        checked.append(weakref.ref(table))
        return real(table, include_oracle)

    monkeypatch.setattr(cli_mod, "identity_failures", check)
    rc, _ = run(capsys, "fuzz", "--seed", "3", "--count", "20", "--n", "4")
    assert rc == 0 and len(checked) == 20


def _simplex_path(tmp_path, n):
    """The n-simplex model, λ_i = e_i for i < n and λ_n = (-1, ..., -1), as a file."""
    path = tmp_path / f"simplex-{n}.json"
    path.write_text(json.dumps({
        "n": n,
        "m": n + 1,
        "vertices": [list(v) for v in itertools.combinations(range(n + 1), n)],
        "lambda": [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n],
    }))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "cr"])
def test_a_face_lattice_over_the_limit_is_refused_before_listing(capsys, tmp_path, command):
    """The 18-simplex's 19 vertices have 19 * 2**18 facet subsets, above
    the limit: the command exits 2 at once instead of listing them."""
    rc, out = timed_run(capsys, 1, command, _simplex_path(tmp_path, 18))
    assert rc == 2
    assert json.loads(out) == {
        "error": f"the face lattice of 19 vertices in dimension 18 exceeds the limit of "
        f"{model_mod.FACE_SUBSET_LIMIT} vertex facet subsets"
    }


def test_a_face_lattice_under_the_limit_is_listed(capsys, tmp_path):
    rc, out = run(capsys, "validate", _simplex_path(tmp_path, 12))
    assert rc == 0
    report = json.loads(out)
    assert report["valid"] and report["quasi_sl"]
    assert report["num_faces"] == 2**13 - 1


def test_ehrhart_runs_one_triangular_basis_per_proper_face(capsys, monkeypatch, basis_faces):
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
    the three routes agree and PP_CR is kept: ``identity_failures``
    names the blown-up model's age partition at each of its faces, and
    no change of the Betti numbers."""
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
    blown = LocalGroupTable(blow_up(make_blowup_spec(z3, (0, 1, 2), ["1/3"] * 3)))
    prefix = "z3-tetrahedron: crepant blowup at [0, 1, 2]: blown-up model"
    assert identity_failures(LocalGroupTable(z3)) == [
        f"{prefix}: age partition fails at face {list(face.facet_set)}" for face in blown.faces
    ]


def test_ehrhart_oracle_plans_once_per_proper_face(capsys, monkeypatch):
    plans = _count_plans(monkeypatch)
    calls = []
    kernel = kernels_mod.count_in_dilate
    monkeypatch.setattr(kernels_mod, "count_in_dilate", lambda *a: calls.append(a) or kernel(*a))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "models", "z3tetra.json")
    rc, out = run(capsys, "ehrhart", path, "--oracle")
    assert rc == 0
    entries = json.loads(out)
    assert len(entries) == 14
    # The four facets need no plan, and no dilate scans l(0 Delta) = 1.
    assert len(plans) == sum(len(e["face"]) >= 2 for e in entries) == 10
    assert len(calls) == sum(len(e["dilates"]) - 1 for e in entries) == 14


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
    with subprocess.Popen(
        [sys.executable, "-m", "qtorb", "sectors", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
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
            "h_identity": report.pp == report.torus_strata,
            "newpon": report.pp_cr_direct == report.pp_cr_strata,
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


def _box_element_listing(table) -> list:
    """The sectors of ``table`` as dicts built from ``box_element(i)``,
    in listing order."""
    return [
        _sector_dict(group.box_element(i))
        for group in table.sector_groups.values()
        for i in group.interior
    ]


# Groups with more interior elements than one chunk of the listing: the
# vertex (0, 2) of the triangle with lambda_2 = (-1, -1200) has 1199, with
# fractional ages, and the tetrahedron over the plane z = 1 has vertices of
# order 900 and 840, with 812 and 810, every age an integer.
MULTI_CHUNK_MODELS = {
    "fractional": make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -1200)]),
    "tetrahedron": make_model(
        3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], [(0, 0, 1), (30, 0, 1), (0, 30, 1), (1, 1, 1)]
    ),
}


@pytest.mark.parametrize("name", list(MULTI_CHUNK_MODELS))
def test_multi_chunk_listings_equal_the_json_of_their_box_elements(capsys, tmp_path, name):
    """Listings that span several chunks, at depth 0 (sectors) and at
    depth 1 (the "sectors" key of cr, on the quasi-SL tetrahedron), are
    byte for byte the indented JSON of box_element(i) of every sector."""
    model = MULTI_CHUNK_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(model_to_json(model))
    table = LocalGroupTable(load_model(path))
    assert max(len(g.interior) for g in table.sector_groups.values()) > cli_mod._CHUNK
    expected = _box_element_listing(table)
    rc, out = run(capsys, "sectors", str(path))
    assert rc == 0
    assert out == _json_text(expected)
    assert table.quasi_sl == (name == "tetrahedron")
    if table.quasi_sl:
        rc, out = run(capsys, "cr", str(path))
        assert rc in (0, 1)
        report = json.loads(out)
        assert report["sectors"] == expected
        assert out == _json_text(report)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_sector_listings_do_not_depend_on_the_chunk_size(capsys, monkeypatch, tmp_path, corpus, chunk):
    """Chunks that end inside every group, and between every two sectors,
    write the same bytes as the default."""
    for i, model in enumerate(corpus):
        path = tmp_path / f"model-{i}.json"
        path.write_text(model_to_json(model))
        table = LocalGroupTable(model)
        commands = ["sectors", "cr"] if table.quasi_sl else ["sectors"]
        expected = [run(capsys, command, str(path)) for command in commands]
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "_CHUNK", chunk)
            assert [run(capsys, command, str(path)) for command in commands] == expected, model.name


# z3tetra computes a triangular basis at the vertex (0, 1, 2) alone.
Z3_VERTEX_BASIS = ((1, 0, -1), (0, 1, -1), (0, 0, 3))
# A basis of order 6 in its place gives that vertex the generator
# (2/6, 3/6, 1/6): every age of the group is an integer, so the model
# stays quasi-SL and cr_report runs through, but the generator's point
# (1/6, 1/3, 1/2) is not integral.
INTEGRAL_AGE_FAULT = ((1, 0, -2), (0, 1, -3), (0, 0, 6))


def _integral_age_fault(real):
    """``triangular_form`` with z3tetra's vertex basis replaced by
    INTEGRAL_AGE_FAULT.  The polytope computes no basis, so the failure
    comes after the untwisted sector is known."""

    def basis(m):
        assert real(m) == Z3_VERTEX_BASIS
        return INTEGRAL_AGE_FAULT

    return basis


@pytest.mark.parametrize("command", ["sectors", "cr"])
@pytest.mark.parametrize("fault", ["points", "numerators"])
def test_sector_listing_fails_before_any_output(capsys, monkeypatch, z3_path, command, fault):
    """A failure while the sectors are enumerated prints the error report
    alone: no part of the listing is written before it.  The fault in the
    points passes every check on ages, so it is found by the listing's
    own integrality check, which must run before the cr payload is
    written."""
    raised = []
    if fault == "points":
        monkeypatch.setattr(sectors_mod, "triangular_form", _integral_age_fault(sectors_mod.triangular_form))
        real_check = LocalGroup.ensure_integral_points

        def check(group):
            try:
                real_check(group)
            except ArithmeticError:
                raised.append(group.face.facet_set)
                raise

        monkeypatch.setattr(LocalGroup, "ensure_integral_points", check)
    else:
        # Zero generators step the identity h_ii times.
        monkeypatch.setattr(sectors_mod, "_inverse_columns", _zero_generators(sectors_mod._inverse_columns))
    rc, out = run(capsys, command, z3_path)
    assert rc == 2
    report = json.loads(out)
    assert list(report) == ["error"]
    assert ("not integral" if fault == "points" else "repeat") in report["error"]
    assert out == _json_text(report)
    assert raised == ([(0, 1, 2)] if fault == "points" else [])


def test_integral_age_fault_reaches_the_listing(monkeypatch, z3_path):
    """The points fault above leaves the model quasi-SL and cr_report
    passing, so only the listing can report it."""
    monkeypatch.setattr(sectors_mod, "triangular_form", _integral_age_fault(sectors_mod.triangular_form))
    table = LocalGroupTable(load_model(z3_path))
    assert table.quasi_sl
    cr_report(table)
    [vertex] = [g for g in table.sector_groups.values() if g.face.facet_set == (0, 1, 2)]
    assert vertex.exponent == 6
    assert [vertex.numerators[i] for i in vertex.interior] == [(2, 3, 1), (4, 3, 5)]
    with pytest.raises(ArithmeticError, match="not integral"):
        vertex.ensure_integral_points()


# The listing below peaked at 2.63 MiB when every point of the group was
# computed and kept, and at 2.35 MiB once points are computed as they are
# written, one sector at a time (Python 3.11.7, first listing of the
# process).  Points computed row by row, with the per-coordinate lists
# alive together, peaked at 3.26 MiB.  Written in chunks of _CHUNK sectors,
# it peaks at 2.53 MiB with chunks of 256, 2.70 MiB with 512 and 3.05 MiB
# with 1024; a later listing in the same process peaks 0.25 MiB lower.
# The test makes one untraced listing of wp112 first, so it measures a
# later listing whatever ran before it: 2.37 MiB in a process of its own,
# 2.28 MiB after the other tests, against 2.52 MiB for a first listing.
SECTORS_PEAK_BOUND = 2.75 * 2**20


def test_sector_listing_memory_is_bounded(tmp_path, wp112_path):
    """The tracemalloc peak of ``qtorb sectors`` on the triangle with
    lambda_2 = (-1, -10^4), whose vertex group has 10^4 elements, with the
    output sent to the null device.  A listing of wp112 runs first,
    untraced, so the one-time cost of a process's first ``main`` call
    (argument parser, regular expressions) is not counted."""
    model = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -10**4)])
    path = tmp_path / "tri.json"
    path.write_text(model_to_json(model))
    tracing = tracemalloc.is_tracing()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["sectors", wp112_path]) == 0
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            rc = main(["sectors", str(path)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
    assert rc == 0
    assert peak < SECTORS_PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"


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


@pytest.fixture
def huge_triangle_path(tmp_path):
    """The triangle with lambda_2 = (-1, -10^5): one vertex group of order
    10^5, every nontrivial element of fractional age."""
    model = make_model(2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (-1, -10**5)])
    path = tmp_path / "tri-huge.json"
    path.write_text(model_to_json(model))
    return str(path)


def test_sectors_lists_a_group_of_order_10_5_within_the_bound(capsys, huge_triangle_path):
    rc, out = timed_run(capsys, 20, "sectors", huge_triangle_path)
    assert rc == 0
    assert len(json.loads(out)) == 100000


def test_betti_names_a_non_integral_age_of_a_group_of_order_10_5_within_the_bound(
    capsys, huge_triangle_path
):
    rc, out = timed_run(capsys, 20, "betti", huge_triangle_path)
    assert rc == 2
    assert "non-integral age" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        # Every identity and McKay check of the default path.
        ["--seed", "3", "--count", "200", "--n", "4"],
        # The oracles on more n = 4 models than the golden run's five.
        ["--seed", "1", "--count", "20", "--n", "4", "--oracle"],
        # The oracles compare every McKay sum, read from blown-up tables
        # that share a face lattice and groups, with the validated
        # triangulations; the installed-script CI step runs it too.
        ["--seed", "3", "--count", "40", "--n", "4", "--oracle"],
    ],
    ids=" ".join,
)
def test_fuzz_of_n4_models_passes_within_the_bound(capsys, argv):
    rc, out = timed_run(capsys, 60, "fuzz", *argv)
    assert rc == 0
    assert json.loads(out)["all_pass"] is True


def test_oracle_dilate_counts_equal_the_box_formula_within_the_bound(capsys, tmp_path):
    """Six facets with lambda entries up to 22: the oracle's dilate counts
    finish within the bound and print what the box formula prints."""
    path = tmp_path / "seed-207.json"
    path.write_text(model_to_json(generate_test_models(207, 1, n=4)[0]))
    rc, oracle = timed_run(capsys, 10, "ehrhart", "--oracle", str(path))
    assert rc == 0
    assert run(capsys, "ehrhart", str(path)) == (rc, oracle)


def _triangle_path(tmp_path, entry):
    """The triangle lambda = (1, 0), (0, 1), (1, entry): the first dilate
    of its vertex {0, 2}, of order entry, scans entry + 1 points."""
    path = tmp_path / f"triangle-{entry}.json"
    lam = [[1, 0], [0, 1], [1, entry]]
    path.write_text(json.dumps({"n": 2, "m": 3, "vertices": [[0, 1], [1, 2], [0, 2]], "lambda": lam}))
    return str(path)


def test_a_dilate_scan_over_the_limit_is_refused_before_scanning(capsys, tmp_path):
    rc, out = timed_run(capsys, 1, "ehrhart", "--oracle", _triangle_path(tmp_path, 10**7))
    assert rc == 2
    assert json.loads(out) == {
        "error": "the dilates of simplex [(1, 0), (1, 10000000)] scan 10000001 points, "
        f"above the limit of {ehrhart_mod.DILATE_SCAN_LIMIT}"
    }


def _ehrhart_dicts(model, oracle):
    """The ehrhart report as a list of dicts, from the library: the dilate
    counts of every proper face, by the oracle or from the box ages."""
    entries = []
    for group in LocalGroupTable(model).groups:
        face = group.face
        if face.codim == 0:
            continue
        if oracle:
            counts = ehrhart_mod.dilate_counts(ehrhart_mod.face_simplex(face, model))
        else:
            counts = [ehrhart_mod.count_from_ages(group.age_polynomial, face.codim, k) for k in range(face.codim)]
        entries.append({
            "face": list(face.facet_set),
            "psi": list(ehrhart_mod.numerator_from_counts(counts)),
            "order": group.order,
            "dilates": counts,
        })
    return entries


def test_ehrhart_writes_what_json_writes(capsys, tmp_path, corpus, crepant_blowups):
    """On every corpus model and crepant blowup, both ehrhart reports are
    the bytes json.dumps writes for the list of dicts."""
    models = corpus + [blown for _, _, blown in crepant_blowups]
    for index, model in enumerate(models):
        path = tmp_path / f"model-{index}.json"
        path.write_text(model_to_json(model))
        for oracle in (False, True):
            expected = json.dumps(_ehrhart_dicts(model, oracle), sort_keys=True, indent=2) + "\n"
            argv = ["ehrhart", str(path)] + ["--oracle"] * oracle
            assert run(capsys, *argv) == (0, expected), f"{' '.join(argv)} on {model.name}"


def test_ehrhart_errors_print_only_the_error_object(capsys, monkeypatch, z3_path):
    """An error on the last face still prints the error object alone: no
    entry is written before every entry is computed.  The dilate limit's
    error is pinned by
    test_a_dilate_scan_over_the_limit_is_refused_before_scanning."""
    proper = sum(1 for group in LocalGroupTable(load_model(z3_path)).groups if group.face.codim)
    numerator = cli_mod.numerator_from_counts
    calls = []

    def raises_on_the_last_face(counts):
        calls.append(counts)
        if len(calls) == proper:
            raise ArithmeticError("negative numerator coefficient on the last face")
        return numerator(counts)

    monkeypatch.setattr(cli_mod, "numerator_from_counts", raises_on_the_last_face)
    for argv in (["ehrhart", z3_path], ["ehrhart", "--oracle", z3_path]):
        calls.clear()
        rc, out = run(capsys, *argv)
        error = {"error": "negative numerator coefficient on the last face"}
        assert (rc, out) == (2, json.dumps(error, indent=2) + "\n")
        assert len(calls) == proper


def test_a_dilate_scan_under_the_limit_is_counted(capsys, tmp_path):
    path = _triangle_path(tmp_path, 10**5)
    rc, oracle = run(capsys, "ehrhart", "--oracle", path)
    assert rc == 0
    assert run(capsys, "ehrhart", path) == (rc, oracle)
    by_face = {tuple(entry["face"]): entry for entry in json.loads(oracle)}
    assert by_face[(0, 2)]["dilates"] == [1, 10**5 + 1]


TEN_MILLION_REFUSAL = {
    "error": "non-integral age 1/5000000 at face [0, 2] for coefficients ['1/10000000', '1/10000000']"
}


@pytest.mark.parametrize(
    "argv",
    [
        ["betti"],
        ["cr"],
        ["ehrhart"],
        ["ehrhart", "--oracle"],
        # lambda0 = (0, -1): a valid spec, refused for the model's ages
        # before its weights are found not crepant.
        ["mckay", "--face", "0,2", "--weights", "1/10000000,1/10000000"],
    ],
    ids=lambda argv: "-".join(word.strip("-") for word in argv[:2]),
)
def test_a_refusal_of_order_ten_million_enumerates_nothing(capsys, monkeypatch, tmp_path, argv):
    """The triangle lambda = (1, 0), (0, 1), (-1, -10^7) is not quasi-SL:
    every command that needs integral ages names the first fractional
    age of its vertex group [0, 2], of order 10^7, at once, and neither
    the group nor any oracle enumerates anything."""
    path = tmp_path / "triangle-m1e7.json"
    lam = [[1, 0], [0, 1], [-1, -10**7]]
    path.write_text(json.dumps({"n": 2, "m": 3, "vertices": [[0, 1], [1, 2], [0, 2]], "lambda": lam}))
    monkeypatch.setattr(LocalGroup, "_enumerate", lambda self: pytest.fail("enumerated"))
    monkeypatch.setattr(kernels_mod, "box_solutions", lambda *a: pytest.fail("searched the box"))
    monkeypatch.setattr(kernels_mod, "count_in_dilate", lambda *a: pytest.fail("counted a dilate"))
    rc, out = timed_run(capsys, 1, argv[0], str(path), *argv[1:])
    assert (rc, json.loads(out)) == (2, TEN_MILLION_REFUSAL)


def test_oracle_computes_each_lattice_index_twice_per_proper_face(capsys, monkeypatch):
    """Under ``--oracle`` each proper face's lattice index is computed once
    for the box search, which skips by it and then searches by it, and
    once for the dilate counts; the polytope computes none."""
    calls = []
    real = blowup_mod.lattice_index
    for module in (blowup_mod, sectors_mod):
        monkeypatch.setattr(module, "lattice_index", lambda cols: calls.append(cols) or real(cols))
    checked = []
    box_enumeration = blowup_mod.box_enumeration

    def recording(table, groups):
        checked.extend(group.face for group in groups if group.face.codim)
        return box_enumeration(table, groups)

    checks = tuple((lv, o, recording if c is box_enumeration else c) for lv, o, c in blowup_mod.CHECKS)
    monkeypatch.setattr(blowup_mod, "CHECKS", checks)
    rc, out = run(capsys, "fuzz", "--seed", "1", "--count", "5", "--n", "4", "--oracle")
    assert rc == 0 and json.loads(out)["all_pass"]
    assert checked and len(calls) == 2 * len(checked)
