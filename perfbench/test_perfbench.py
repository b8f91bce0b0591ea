"""The benchmark's checks accept qtorb's real outputs and reject corrupted ones.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
try:
    import qtorb
except ImportError:  # run without the package installed
    sys.path.insert(0, str(ROOT / "src"))
    import qtorb

import qtorb.cli
import qtorb.kernels
import reference as ref
import workloads
from reference import CheckFailure


@pytest.fixture
def program():
    return workloads.Program(pkg=qtorb, cli=qtorb.cli, kernels=qtorb.kernels)


def corrupt(op, mutate):
    """Run the operation, check the real output, then check a mutated copy."""
    rc, text = op.run()
    op.check((rc, text))
    payload = json.loads(text)
    bad = copy.deepcopy(payload)
    mutate(bad)
    assert bad != payload
    with pytest.raises(CheckFailure):
        op.check((rc, json.dumps(bad)))


def bump_pp_cr(out):
    out["pp_cr"]["s_coeffs"][1] += 1


def twisted(sectors):
    return next(s for s in sectors if s["face"])


def shift_coeff(sector):
    sector["coeffs"][0] = str(Fraction(sector["coeffs"][0]) / 2)


CLI_MUTATIONS = {
    "validate": lambda out: out["vertex_signs"].__setitem__(0, -out["vertex_signs"][0]),
    "faces": lambda out: out["faces"].pop(),
    "sectors": lambda out: shift_coeff(twisted(out)),
    "betti": bump_pp_cr,
    "cr": lambda out: out["sectors"].remove(twisted(out["sectors"])),
    "blowup": lambda out: out["lambda0"].__setitem__(0, out["lambda0"][0] + 1),
    "mckay": lambda out: out["pp_cr"]["after"].__setitem__(1, out["pp_cr"]["after"][1] + 1),
}


@pytest.mark.parametrize("command", sorted(CLI_MUTATIONS))
@pytest.mark.parametrize("base", [0, 1], ids=["wp112", "z3tetra"])
def test_cli_models_checks_reject_corruption(program, tmp_path, command, base):
    wl = workloads.CliModels(program, 1, tmp_path, ROOT)
    base = wl.bases[base]
    op = wl._op(base, command, wl.variant(base.model, shear=True))
    corrupt(op, CLI_MUTATIONS[command])


def test_cli_models_sectors_must_match_earlier_variants(program, tmp_path):
    wl = workloads.CliModels(program, 2, tmp_path, ROOT)
    base = wl.bases[1]
    op = wl._op(base, "sectors", wl.variant(base.model, shear=True))
    result = op.run()
    op.check(result)
    wl.sector_summary[base.name] = Counter({("0", 0): 1})
    with pytest.raises(CheckFailure):
        op.check(result)


def test_rejected_model_needs_exit_2_and_error(program, tmp_path):
    wl = workloads.CliModels(program, 3, tmp_path, ROOT)
    [op] = [op for op in wl.next_round() if op.label == "betti:reject"]
    rc, text = op.run()
    op.check((rc, text))
    with pytest.raises(CheckFailure):
        op.check((0, text))
    with pytest.raises(CheckFailure):
        op.check((2, json.dumps({"violations": []})))


def test_oracle_checks_reject_corruption(program, tmp_path):
    wl = workloads.Oracle(program, 1, tmp_path, ROOT)
    slow, fast, exhaust = wl._ops("tet", wl.tets[0])

    def bump_psi(out):
        out[-1]["psi"][-1] += 1

    corrupt(slow, bump_psi)
    rc, text = fast.run()
    fast.check((rc, text))
    out = json.loads(text)
    out[-1]["dilates"][-1] += 1  # consistent on its own, but not with --oracle
    with pytest.raises(CheckFailure):
        fast.check((rc, json.dumps(out)))

    boxes = exhaust.run()
    exhaust.check(boxes)
    with pytest.raises(CheckFailure):
        exhaust.check([elements[:-1] for elements in boxes])
    e = boxes[-1][-1]
    bad = type(e)(coeffs=(e.coeffs[0] / 2,) + e.coeffs[1:], point=e.point, age=e.age, height=e.height)
    with pytest.raises(CheckFailure):
        exhaust.check(boxes[:-1] + [boxes[-1][:-1] + [bad]])


def test_fuzz_check_rejects_failures(program, tmp_path):
    wl = workloads.FuzzN4(program, 1, tmp_path, ROOT)
    [(seed, _)] = wl.take_strata({(5, 5): []}, [(5, 5)], workloads.fuzz_stratum, 4)
    op = wl.cli_op("fuzz", ["fuzz", "--seed", str(seed), "--count", "1", "--n", "4"],
                   workloads.cli_check(0, ref.check_fuzz))

    def fail(out):
        out["all_pass"] = False
        out["failures"] = ["fuzz-n4-0: the three Chen-Ruan routes disagree"]

    corrupt(op, fail)


def test_reference_determinant_and_group_order():
    assert ref.det([[2, 0, 0], [0, 3, 0], [1, 1, 5]]) == 30
    assert ref.det([[0, 1], [1, 0]]) == -1
    assert ref.group_order([[1, 0, 0], [1, 6, 6]]) == 6
    assert ref.group_order([[1, 0], [-1, -2]]) == 2
    assert ref.face_lattice({"vertices": [[0, 1], [1, 2], [0, 2]]}) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)
    ]
