"""Golden CLI outputs: the exact stdout bytes and exit code of every command
on a fixed set of models, frozen as the behaviour contract for refactors.

``mckay-digests.json`` holds, for every crepant candidate of a fixed set
of generated models, the SHA-256 of ``qtorb mckay`` stdout and the exit
code: the mckay reports of many more models than the ``.stdout`` files
hold, at the cost of one hash each.  ``blowup-digests.json`` holds the
same for ``qtorb blowup`` on each of those candidates and on each model's
unit-weight truncation of its first face of codimension at least 2,
which is not crepant and may be refused.  ``ehrhart-digests.json`` holds the
same for ``qtorb ehrhart`` and ``qtorb ehrhart --oracle`` on every model
of that set, and ``cr-digests.json`` for ``qtorb cr`` and ``qtorb betti``.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a
change of output is intended; a refactor must leave these files untouched.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

MODELS = {
    "wp112": ("models/wp112.json", "0,2", "1/2,1/2"),
    "z3tetra": ("models/z3tetra.json", "0,1,2", "1/3,1/3,1/3"),
    # Both blowups are smooth, so their blowups cannot be crepant: mckay
    # freezes the usage error.
    "wp112-blown": ("tests/golden/models/wp112-blown.json", "0,1", "1,1"),
    "z3tetra-blown": ("tests/golden/models/z3tetra-blown.json", "0,1,3", "1,1,1"),
    # The order-2 edge (0, 1) lies on the order-4 vertex (0, 1, 2): the
    # one model here whose McKay check reads a subface whose age
    # polynomial differs from the blown-up face's.
    "z4tetra": ("tests/golden/models/z4tetra.json", "0,1", "1/2,1/2"),
}
# One refusal of ``qtorb blowup`` on wp112 per fault of a spec, each with
# its own error: (face, weights) after the model path.
BLOWUP_REFUSALS = {
    "not-integral": ("--face", "0,2", "--weights", "1/3,2/3"),
    "not-primitive": ("--face", "0,2", "--weights", "2,2"),
    "codim-1": ("--face", "0", "--weights", "1"),
    "not-a-face": ("--face", "0,1,3", "--weights", "1/2,1/2"),
    "weight-count": ("--face", "0,2", "--weights", "1"),
    "not-positive": ("--face", "0,2", "--weights=-1,2"),
}
NON_QUASI_SL = "tests/golden/models/tri-m1-m100.json"
# Its vertex group [0, 2] has order 10^5; the refusals name its first
# element of fractional age.
NON_QUASI_SL_1E5 = "tests/golden/models/tri-m1-m1e5.json"
MCKAY_DIGESTS = GOLDEN / "mckay-digests.json"
BLOWUP_DIGESTS = GOLDEN / "blowup-digests.json"
EHRHART_DIGESTS = GOLDEN / "ehrhart-digests.json"
CR_DIGESTS = GOLDEN / "cr-digests.json"
EHRHART_COMMANDS = (["ehrhart"], ["ehrhart", "--oracle"])
CR_COMMANDS = (["cr"], ["betti"])
# Every model of generate_test_models(seed, MCKAY_COUNT, n), and every
# crepant candidate of those models.
MCKAY_SEEDS = (1, 2, 3, 4)
MCKAY_DIMS = (2, 3, 4)
MCKAY_COUNT = 10


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, (path, face, weights) in MODELS.items():
        for command in ("validate", "faces", "sectors", "betti", "cr", "ehrhart"):
            cases[f"{name}-{command}"] = [command, path]
        cases[f"{name}-ehrhart-oracle"] = ["ehrhart", "--oracle", path]
        for command in ("blowup", "mckay"):
            cases[f"{name}-{command}"] = [command, path, "--face", face, "--weights", weights]
    for fault, argv in BLOWUP_REFUSALS.items():
        cases[f"wp112-blowup-{fault}"] = ["blowup", MODELS["wp112"][0], *argv]
    for command in ("betti", "cr", "sectors"):
        cases[f"tri-m1-m100-{command}"] = [command, NON_QUASI_SL]
    for command in ("betti", "cr", "ehrhart"):
        cases[f"tri-m1-m1e5-{command}"] = [command, NON_QUASI_SL_1E5]
    for n in (2, 3, 4):
        cases[f"fuzz-n{n}"] = ["fuzz", "--seed", "1", "--count", "5", "--n", str(n)]
    cases["fuzz-n3-oracle"] = ["fuzz", "--seed", "7", "--count", "5", "--n", "3", "--oracle"]
    cases["fuzz-n4-oracle"] = ["fuzz", "--seed", "1", "--count", "5", "--n", "4", "--oracle"]
    return cases


CASES = _cases()


def _run_in_process(argv: list[str]) -> tuple[int, str]:
    import contextlib
    import io

    from qtorb.cli import main

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return rc, buf.getvalue()


def _expected(name: str) -> tuple[int, str]:
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    text = (GOLDEN / f"{name}.stdout").read_bytes().decode("utf-8")
    return codes[name], text


def _generated_models(workdir):
    """Every model of the digest set, in generation order, written to
    ``workdir``: (n, seed, index, model, path)."""
    from qtorb import generate_test_models, model_to_json

    for n in MCKAY_DIMS:
        for seed in MCKAY_SEEDS:
            for index, model in enumerate(generate_test_models(seed, MCKAY_COUNT, n=n)):
                path = pathlib.Path(workdir) / f"n{n}-s{seed}-{index}.json"
                path.write_text(model_to_json(model), encoding="utf-8")
                yield n, seed, index, model, path


def _digest(argv: list[str]) -> dict:
    rc, out = _run_in_process(argv)
    return {"exit": rc, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


def _mckay_digests(workdir) -> list[dict]:
    """One entry per crepant candidate of the generated models, in
    generation order: where the model came from, the spec as ``qtorb
    mckay`` takes it, and the exit code and stdout digest of that run on
    the model written to ``workdir``."""
    from qtorb import LocalGroupTable, crepant_candidates

    entries = []
    for n, seed, index, model, path in _generated_models(workdir):
        for blowup in crepant_candidates(LocalGroupTable(model)):
            face = ",".join(map(str, blowup.face.facet_set))
            weights = ",".join(map(str, blowup.weights))
            entries.append({
                "n": n, "seed": seed, "model": index, "face": face, "weights": weights,
                **_digest(["mckay", str(path), "--face", face, "--weights", weights]),
            })
    return entries


def _blowup_digests(workdir) -> list[dict]:
    """One entry per crepant candidate of the generated models, as in
    :func:`_mckay_digests`, and after a model's candidates one for its
    unit-weight truncation of its first face of codimension at least 2:
    the exit code and stdout digest of ``qtorb blowup`` on each."""
    from qtorb import LocalGroupTable, crepant_candidates, faces

    entries = []
    for n, seed, index, model, path in _generated_models(workdir):
        specs = [(blowup.face.facet_set, blowup.weights) for blowup in crepant_candidates(LocalGroupTable(model))]
        face = next(face for face in faces(model) if face.codim >= 2)
        specs.append((face.facet_set, [1] * face.codim))
        for facets, weights in specs:
            face, weights = ",".join(map(str, facets)), ",".join(map(str, weights))
            entries.append({
                "n": n, "seed": seed, "model": index, "face": face, "weights": weights,
                **_digest(["blowup", str(path), "--face", face, "--weights", weights]),
            })
    return entries


def _command_digests(workdir, commands) -> list[dict]:
    """One entry per generated model and command of ``commands``, in
    generation order: where the model came from, the command, and the
    exit code and stdout digest of that run on the model written to
    ``workdir``."""
    return [
        {"n": n, "seed": seed, "model": index, "command": " ".join(argv), **_digest([*argv, str(path)])}
        for n, seed, index, _, path in _generated_models(workdir)
        for argv in commands
    ]


def _ehrhart_digests(workdir) -> list[dict]:
    return _command_digests(workdir, EHRHART_COMMANDS)


def _cr_digests(workdir) -> list[dict]:
    return _command_digests(workdir, CR_COMMANDS)


def _entry_name(entry: dict) -> str:
    model = f"model {entry['model']} of generate_test_models({entry['seed']}, {MCKAY_COUNT}, n={entry['n']})"
    if "command" in entry:
        return f"qtorb {entry['command']} on {model}"
    return f"{model}, face {entry['face']}, weights {entry['weights']}"


def _check_digests(stored: list[dict], computed: list[dict], what: str) -> None:
    """A failure names the first entry whose exit code or digest differs,
    or the first one missing from either side."""
    for old, new in zip(stored, computed):
        if _entry_name(new) != _entry_name(old):
            raise AssertionError(f"{_entry_name(new)} is computed where {_entry_name(old)} is stored")
        assert new == old, f"the output of {_entry_name(new)} changed"
    assert len(computed) == len(stored), (
        f"{len(computed)} {what} computed, {len(stored)} stored; the first unmatched is "
        f"{_entry_name(max(computed, stored, key=len)[min(len(computed), len(stored))])}"
    )


def test_mckay_digests(tmp_path):
    """Every crepant candidate's mckay report is the committed one."""
    stored = json.loads(MCKAY_DIGESTS.read_text(encoding="utf-8"))
    _check_digests(stored, _mckay_digests(tmp_path), "crepant candidates")


def test_blowup_digests(tmp_path):
    """Every crepant candidate's blowup, and every generated model's
    unit-weight truncation, is the committed one."""
    stored = json.loads(BLOWUP_DIGESTS.read_text(encoding="utf-8"))
    _check_digests(stored, _blowup_digests(tmp_path), "blowups")


def test_ehrhart_digests(tmp_path):
    """Every generated model's ehrhart report, with and without
    ``--oracle``, is the committed one."""
    stored = json.loads(EHRHART_DIGESTS.read_text(encoding="utf-8"))
    _check_digests(stored, _ehrhart_digests(tmp_path), "ehrhart runs")


def test_cr_digests(tmp_path):
    """Every generated model's cr and betti reports are the committed
    ones."""
    stored = json.loads(CR_DIGESTS.read_text(encoding="utf-8"))
    _check_digests(stored, _cr_digests(tmp_path), "cr and betti runs")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert _run_in_process(CASES[name]) == _expected(name)


@pytest.mark.parametrize(
    "name",
    ["z3tetra-ehrhart-oracle", "fuzz-n4", "z3tetra-validate", "z3tetra-mckay", "z3tetra-cr", "tri-m1-m100-sectors"],
)
def test_golden_output_under_optimize_flag(name):
    # ``python -O`` strips asserts, so a check that relies on one would
    # change the output here.  fuzz-n4 runs crepant blowups and their
    # subdivision checks; validate reads the vertex signs from the stored
    # determinants; cr reads its identities from the routes; the sector
    # listing is written from integer data.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qtorb", *CASES[name]],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout.decode("utf-8")) == _expected(name)


def test_every_golden_file_has_a_case():
    stored = {p.stem for p in GOLDEN.glob("*.stdout")}
    assert stored == set(CASES)


if __name__ == "__main__":
    codes = {}
    for case, argv in sorted(CASES.items()):
        rc, out = _run_in_process(argv)
        codes[case] = rc
        (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
    EXIT_CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    digest_files = (
        (MCKAY_DIGESTS, _mckay_digests),
        (BLOWUP_DIGESTS, _blowup_digests),
        (EHRHART_DIGESTS, _ehrhart_digests),
        (CR_DIGESTS, _cr_digests),
    )
    for path, compute in digest_files:
        with tempfile.TemporaryDirectory() as workdir:
            digests = compute(workdir)
        path.write_text(
            "[\n" + ",\n".join(json.dumps(entry, sort_keys=True) for entry in digests) + "\n]\n",
            encoding="utf-8",
        )
