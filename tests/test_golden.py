"""Golden CLI outputs: the exact stdout bytes and exit code of every command
on a fixed set of models, frozen as the behaviour contract for refactors.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a
change of output is intended; a refactor must leave these files untouched.
"""

import json
import os
import pathlib
import subprocess
import sys

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
}
NON_QUASI_SL = "tests/golden/models/tri-m1-m100.json"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, (path, face, weights) in MODELS.items():
        for command in ("validate", "faces", "sectors", "betti", "cr", "ehrhart"):
            cases[f"{name}-{command}"] = [command, path]
        cases[f"{name}-ehrhart-oracle"] = ["ehrhart", "--oracle", path]
        for command in ("blowup", "mckay"):
            cases[f"{name}-{command}"] = [command, path, "--face", face, "--weights", weights]
    for command in ("betti", "cr", "sectors"):
        cases[f"tri-m1-m100-{command}"] = [command, NON_QUASI_SL]
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert _run_in_process(CASES[name]) == _expected(name)


@pytest.mark.parametrize(
    "name",
    ["z3tetra-ehrhart-oracle", "fuzz-n4", "z3tetra-validate", "z3tetra-mckay", "tri-m1-m100-sectors"],
)
def test_golden_output_under_optimize_flag(name):
    # ``python -O`` strips asserts, so a check that relies on one would
    # change the output here.  fuzz-n4 runs crepant blowups and their
    # subdivision checks; validate reads the vertex signs from the stored
    # determinants; the sector listing is written from integer data.
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
