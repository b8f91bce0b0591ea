"""The failure texts of the identity suite under a fixed list of faults.

Every fuzz golden holds ``"failures": []``, so no golden output pins a
failure text, its prefix or its place in the list.
``golden/failure-texts.json`` holds, for each fault of :data:`FAULTS`,
the list ``identity_failures(table, include_oracle)`` returns over the
models of :func:`_models`, without and with the oracles.  Each table is
built afresh under the fault.  Each fault is named with the check it is
written to fail; the texts are whatever every check reports under it,
in the suite's order.

Regenerate with ``PYTHONPATH=src python -m tests.test_failure_texts``
only when a change of failure text is intended; a refactor of the checks
must leave the file untouched.
"""

import json
import pathlib
import weakref

import pytest

import qtorb.blowup as blowup_mod
import qtorb.cohomology as cohomology_mod
import qtorb.sectors as sectors_mod
from qtorb import LocalGroupTable, generate_test_tables, identity_failures, parse_model
from qtorb.exact import Poly
from tests.test_blowup import (
    _containing_without_the_polytope,
    _flip_a_derived_sign,
    _lossy_triangulation_checks,
    _mislabel_as_trivial,
    _mutate_star_cones,
    _one_off_in_a_long_point_list,
    _plus_one_at_psi0,
    _without_the_last_element,
    _z4_tetra_blowups,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "failure-texts.json"


def _models():
    """The shipped models, the z4 tetrahedron and the models of
    ``generate_test_tables(1, 10, n=3)``."""
    models = [parse_model(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "models").glob("*.json"))]
    models.append(_z4_tetra_blowups()[0][0])
    return models + [table.model for table in generate_test_tables(1, 10, n=3)]


def _wrong_torus_strata_sum(patch):
    """The torus-strata sum plus 1 on every table."""
    real = cohomology_mod.check_torus_stratification
    patch.setattr(cohomology_mod, "check_torus_stratification", lambda t: (real(t)[0], real(t)[1] + Poly([1])))


def _pp_plus_s(patch):
    """Both sides of the torus identity plus s on every table: the
    identity holds, and PP is not palindromic."""
    real = cohomology_mod.check_torus_stratification
    s = Poly([0, 1])
    patch.setattr(cohomology_mod, "check_torus_stratification", lambda t: tuple(side + s for side in real(t)))


def _every_route_plus(patch, extra):
    """Every Chen-Ruan route of every table plus ``extra(table)``: the
    routes still agree."""
    for route in ("pp_cr_direct", "pp_cr_via_closures", "pp_cr_via_strata"):
        real = getattr(cohomology_mod, route)
        patch.setattr(cohomology_mod, route, lambda t, real=real: real(t) + extra(t))


def _s_to_the(k):
    return Poly([0] * k + [1])


def _unit_at_both_ends(patch):
    """Every route plus 1 + s^n: palindromic of degree n, so only the sum,
    the orbifold Euler number, is off."""
    _every_route_plus(patch, lambda t: 1 + _s_to_the(t.model.n))


def _one_minus_s(patch):
    """Every route plus 1 - s: of sum 0, but not palindromic."""
    _every_route_plus(patch, lambda t: Poly([1, -1]))


def _blown_tables(patch):
    """Record the tables ``blow_up_table`` returns; the set of them."""
    blown = weakref.WeakSet()
    real = blowup_mod.blow_up_table

    def recording(table, blowup):
        out = real(table, blowup)
        blown.add(out)
        return out

    patch.setattr(blowup_mod, "blow_up_table", recording)
    return blown


def _polytope_partition_fails_after_the_blowup(patch):
    """The age partition fails at the polytope on every blown-up table."""
    blown = _blown_tables(patch)
    real = cohomology_mod.check_age_partition
    patch.setattr(
        cohomology_mod,
        "check_age_partition",
        lambda t: [(face, ok and (t not in blown or face.codim > 0)) for face, ok in real(t)],
    )


def _betti_numbers_moved_by_the_blowup(patch):
    """Every route of every blown-up table plus (1 - s)(1 - s^(n-1)):
    palindromic of degree n and of sum 0, so the blown-up report passes
    and only the Chen-Ruan polynomial before and after differ."""
    blown = _blown_tables(patch)
    _every_route_plus(patch, lambda t: Poly([1, -1]) * (1 - _s_to_the(t.model.n - 1)) if t in blown else Poly())


def _patched(owner, name, mutate):
    """A fault that replaces ``owner.name`` by ``mutate`` of it."""
    return lambda patch: patch.setattr(owner, name, mutate(getattr(owner, name)))


# (fault, the check it is written to fail, the fault applied to a
# monkeypatch), in the order of the golden file.
FAULTS = (
    ("wrong_torus_strata_sum", "named_identities", _wrong_torus_strata_sum),
    (
        "containing_without_the_polytope",
        "age_partition",
        _patched(cohomology_mod, "check_age_partition", _containing_without_the_polytope),
    ),
    ("unit_at_both_ends", "orbifold_euler_number", _unit_at_both_ends),
    ("one_minus_s", "poincare_duality", _one_minus_s),
    ("polytope_partition_fails_after_the_blowup", "blown_up_report", _polytope_partition_fails_after_the_blowup),
    ("betti_numbers_moved_by_the_blowup", "betti_numbers_kept", _betti_numbers_moved_by_the_blowup),
    (
        "lossy_triangulation_identities",
        "triangulation_identities",
        lambda patch: _lossy_triangulation_checks(patch, None),
    ),
    ("vertex_0_1_2_built_trivial", "vertex_orders", lambda patch: _mislabel_as_trivial(patch, (0, 1, 2))),
    # (0, 2, 4) is an order-2 vertex on the new facet of the z4
    # tetrahedron's blowup at [0, 1]: its McKay check and the table check
    # on the new facet both fail.
    ("vertex_0_2_4_built_trivial", "vertex_orders", lambda patch: _mislabel_as_trivial(patch, (0, 2, 4))),
    (
        "one_off_in_a_long_point_list",
        "box_partition",
        _patched(sectors_mod.LocalGroup, "point_rows", _one_off_in_a_long_point_list),
    ),
    (
        "without_the_last_element",
        "box_enumeration",
        _patched(blowup_mod, "box_by_exhaustion", _without_the_last_element),
    ),
    ("plus_one_at_psi0", "dilate_numerators", _patched(blowup_mod, "ehrhart_numerator", _plus_one_at_psi0)),
    ("flip_a_derived_sign", "validated_blowup", _flip_a_derived_sign),
    ("without_the_first_star_cone", "star_subdivision", lambda patch: _mutate_star_cones(patch, 0)),
    ("pp_plus_s", "dehn_sommerville", _pp_plus_s),
)


def compute() -> list[dict]:
    """The golden entries: for each fault, the failure texts over every
    model without and with the oracles."""
    models = _models()
    entries = []
    for name, check, fault in FAULTS:
        entry = {"fault": name, "check": check}
        with pytest.MonkeyPatch.context() as patch:
            fault(patch)
            for flag, include_oracle in (("default", False), ("oracle", True)):
                entry[flag] = [
                    text for model in models for text in identity_failures(LocalGroupTable(model), include_oracle)
                ]
        entries.append(entry)
    return entries


def _text(entries: list[dict]) -> str:
    return json.dumps(entries, indent=2) + "\n"


def test_failure_texts_are_the_golden_ones():
    """Every fault's failure texts, without and with the oracles, are the
    golden file's, line for line; the first fault and line that differ
    are named."""
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    computed = compute()
    assert [(e["fault"], e["check"]) for e in computed] == [(e["fault"], e["check"]) for e in stored]
    for old, new in zip(stored, computed):
        for flag in ("default", "oracle"):
            for i, (want, got) in enumerate(zip(old[flag], new[flag])):
                assert got == want, f"{old['fault']} ({flag}), line {i}"
            assert len(new[flag]) == len(old[flag]), f"{old['fault']} ({flag}): {len(new[flag])} lines"
    assert _text(computed) == GOLDEN.read_text(encoding="utf-8")


# Every entry of the registry of checks, as (name, level, oracle), in its
# order.
REGISTRY = [
    ("named_identities", "report", False),
    ("age_partition", "report", False),
    ("orbifold_euler_number", "report", False),
    ("poincare_duality", "report", False),
    ("dehn_sommerville", "report", False),
    ("blown_up_report", "mckay", False),
    ("betti_numbers_kept", "mckay", False),
    ("triangulation_identities", "mckay", False),
    ("vertex_orders", "table", False),
    ("box_partition", "table", False),
    ("box_enumeration", "table", True),
    ("dilate_numerators", "table", True),
    ("validated_blowup", "mckay", True),
    ("star_subdivision", "mckay", True),
]


def test_the_registry_lists_every_check_once():
    """The registry holds the checks of :data:`REGISTRY`, by name, level
    and oracle flag, in that order, so a check added without being listed
    there fails this test.  The names are unique, and each names the
    check of at least one fault of the golden file."""
    entries = [(check.__name__, level, oracle) for level, oracle, check in blowup_mod.CHECKS]
    assert entries == REGISTRY
    names = [name for name, _, _ in entries]
    assert len(set(names)) == len(names)
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {entry["check"] for entry in stored} == set(names)


def test_each_fault_fails_the_check_it_is_named_with():
    """Without a fault no check fails.  Under each fault, with the
    oracles, the check the fault is named with yields at least one of
    the texts: every check can fail."""
    checks, models = blowup_mod.CHECKS, _models()
    assert all(identity_failures(LocalGroupTable(model), True) == [] for model in models)

    def recording(check, failed):
        def run(*args):
            for text in check(*args):
                failed.add(check.__name__)
                yield text

        return run

    for name, target, fault in FAULTS:
        failed: set[str] = set()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blowup_mod, "CHECKS", tuple((lv, o, recording(c, failed)) for lv, o, c in checks))
            fault(patch)
            for model in models:
                identity_failures(LocalGroupTable(model), True)
        assert target in failed, (name, sorted(failed))


if __name__ == "__main__":
    GOLDEN.write_text(_text(compute()), encoding="utf-8")
