"""Command line interface.

Every command reads a model JSON file (schema in qtorb.model), writes a
canonical JSON report to stdout (sorted keys, fixed face order) and
signals through the exit code: 0 for success or a passing verdict, 1 for
a failing verdict or identity violation, 2 for usage or validation
errors.  Identical invocations produce byte-identical reports.

The commands are declared once, in ``_COMMANDS``: help text, handler,
whether a model path is read, and options.  ``main`` parses a command
named first with that command's parser alone; the parser of all nine
commands is built only for help, a first word that names no command, or
words left over after the command's parser has run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import kernels
from .blowup import blow_up, identity_failures, is_crepant, make_blowup_spec, mckay_check, passes
from .cohomology import cr_report
from .ehrhart import count_from_ages, dilate_counts, face_simplex, numerator_from_counts
from .model import (
    Model,
    ModelValidationError,
    faces,
    generate_test_tables,
    load_model,
    model_to_dict,
    model_to_json,
    positively_omnioriented,
)
from .sectors import LocalGroupTable


def _emit(payload, sectors=None) -> None:
    """Write ``payload`` as JSON with sorted keys, indented by 2, and a
    newline.  With ``sectors``, a listing from :func:`_sector_listing`,
    the payload is a dict whose keys all sort before "sectors", and the
    listing is written after them as the value of "sectors"."""
    # Sector listings, the only output that grows with a group's order,
    # are written by _write_sectors; what json writes here is small.
    if sectors is None:
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    else:
        head = json.dumps(payload, sort_keys=True, indent=2)
        sys.stdout.write(head[: -len("\n}")] + ',\n  "sectors": ')
        _write_sectors(sectors, 1)
        sys.stdout.write("\n}")
    sys.stdout.write("\n")


def _sector_listing(table: LocalGroupTable) -> list:
    """Every group that carries sectors, in ``faces(model)`` order.
    Everything that can raise while the sectors are enumerated, the
    repeat check of the numerators and the integrality of the points,
    runs here, before any output."""
    groups = list(table.sector_groups.values())
    for group in groups:
        group.ensure_integral_points()
    return groups


def _json_list(texts, indent: str) -> str:
    """A JSON list of already-encoded items, as ``json.dump(..., indent=2)``
    writes it when ``indent`` is the newline and indent of its key."""
    body = f",{indent}  ".join(texts)
    return f"[{indent}  {body}{indent}]" if body else "[]"


# Sectors are formatted and written this many at a time.  A chunk's texts
# are alive together until it is written, about 0.7 KiB a sector with two
# coefficients.
_CHUNK = 256


def _fraction_text(x: int, e: int) -> str:
    """The JSON text of x/e: an integer, or the reduced fraction in quotes."""
    g = math.gcd(x, e)
    return str(x // e) if g == e else f'"{x // g}/{e // g}"'


def _write_sectors(listing: list, depth: int) -> None:
    """Write the sectors of ``listing`` as ``json.dump(..., sort_keys=True,
    indent=2)`` writes a list nested ``depth`` levels deep, from each
    group's integer numerators.  The interior elements of a group are
    formatted :data:`_CHUNK` at a time, one column at a time: the ages
    from the coefficient sums, the coefficients from texts formatted once
    per distinct numerator of the group, and the points, computed for the
    chunk by ``point_rows`` and not kept.  Each chunk is one write.  Every
    sector is an interior element of its face, so its height is the
    face's codimension.  The listing is never empty: the polytope's group
    comes first, and its identity is the untwisted sector."""
    write = sys.stdout.write
    item = "\n" + "  " * (depth + 1)
    key = item + "  "
    sep = f",{key}  "
    # Every sector of the listing but the first starts with a comma.
    head = f',{item}{{{key}"age": '
    tail = f"{key}]{item}}}"
    first = True
    for group in listing:
        face = _json_list(map(str, group.face.facet_set), key)
        # Every sector of a group has as many coefficients as the group
        # has columns, and a point with n >= 1 coordinates: the texts
        # around its coefficients and its point are the same for all.
        coeffs_open, coeffs_close = (f"[{key}  ", f"{key}]") if group.columns else ("[", "]")
        before = f',{key}"coeffs": {coeffs_open}'
        between = f'{coeffs_close},{key}"face": {face},{key}"height": {group.face.codim},{key}"point": [{key}  '
        e = group.exponent
        numerators = group.numerators
        texts: list[str | None] = [None] * e
        interior = group.interior
        for start in range(0, len(interior), _CHUNK):
            chunk = interior[start : start + _CHUNK]
            nums = list(map(numerators.__getitem__, chunk))
            for c in set(itertools.chain.from_iterable(nums)):
                if texts[c] is None:
                    texts[c] = _fraction_text(c, e)
            ages = map(_fraction_text, map(sum, nums), itertools.repeat(e))
            # Each sector's texts are joined from one text per column.
            if group.columns:
                coeffs = map(sep.join, zip(*[map(texts.__getitem__, column) for column in zip(*nums)]))
            else:
                coeffs = itertools.repeat("")  # the polytope's sector has no coefficient
            points = map(sep.join, zip(*[map(str, column) for column in zip(*group.point_rows(chunk))]))
            text = "".join(itertools.chain.from_iterable(zip(
                itertools.repeat(head), ages, itertools.repeat(before), coeffs,
                itertools.repeat(between), points, itertools.repeat(tail),
            )))
            write("[" + text[1:] if first else text)
            first = False
    write("\n" + "  " * depth + "]")


def _cmd_validate(args) -> int:
    try:
        model = load_model(args.model)
    except ModelValidationError as exc:
        _emit({"valid": False, "violations": exc.violations})
        return 2
    table = LocalGroupTable(model)
    report = {
        "valid": True,
        "name": model.name,
        "n": model.n,
        "m": model.m,
        "num_vertices": len(model.vertices),
        "num_faces": len(table.faces),
        "quasi_sl": table.quasi_sl,
        # Signs of the vertex determinants under the fixed increasing
        # facet index column order.  That order is a choice; only |det|
        # is convention-free, so signs are reported but never asserted
        # against.
        "vertex_signs": [1 if d > 0 else -1 for d in model.vertex_dets],
        "positively_omnioriented": positively_omnioriented(model),
    }
    _emit(report)
    return 0


def _cmd_faces(args) -> int:
    model = load_model(args.model)
    _emit({"faces": [
        {"facet_set": list(f.facet_set), "dim": f.dim, "codim": f.codim,
         "vertices": list(f.vertex_ids)}
        for f in faces(model)
    ]})
    return 0


def _cmd_sectors(args) -> int:
    model = load_model(args.model)
    _write_sectors(_sector_listing(LocalGroupTable(model)), 0)
    sys.stdout.write("\n")
    return 0


def _cmd_betti(args) -> int:
    model = load_model(args.model)
    report = cr_report(LocalGroupTable(model))
    _emit({
        key: {"s_coeffs": list(poly.coeffs), "by_degree": poly.even_expansion()}
        for key, poly in (("pp", report.pp), ("pp_cr", report.pp_cr))
    })
    return 0


def _cmd_cr(args) -> int:
    model = load_model(args.model)
    table = LocalGroupTable(model)
    report = cr_report(table)
    holds = {name: lhs == rhs for name, lhs, rhs in report.identity_sides}
    payload = {
        "pp": list(report.pp.coeffs),
        "pp_cr": list(report.pp_cr.coeffs),
        "routes_agree": report.routes_agree,
        "identities": {
            "morestrat": all(ok for _, ok in report.morestrat),
            "h_identity": holds["h_identity"],
            "newpon": holds["newpon"],
        },
    }
    _emit(payload, _sector_listing(table))
    return 0 if passes(report) else 1


def _cmd_ehrhart(args) -> int:
    model = load_model(args.model)
    table = LocalGroupTable(model)
    table.ensure_quasi_sl()
    entries = []
    for group in table.groups:
        face = group.face
        if face.codim == 0:
            continue
        if args.oracle:
            counts = dilate_counts(face_simplex(face, model))
        else:
            ages = group.age_polynomial
            counts = [count_from_ages(ages, face.codim, k) for k in range(face.codim)]
        entries.append((counts, face.facet_set, group.order, numerator_from_counts(counts)))
    # Every entry is computed before the first byte is written, so an
    # error still prints only the error object.  The list is written as
    # json.dump(..., sort_keys=True, indent=2) writes it, one dict with
    # the keys dilates, face, order and psi per entry.
    key = "\n    "
    texts = (
        f'{{{key}"dilates": {_json_list(map(str, counts), key)},{key}"face": {_json_list(map(str, face), key)},'
        f'{key}"order": {order},{key}"psi": {_json_list(map(str, psi), key)}\n  }}'
        for counts, face, order, psi in entries
    )
    sys.stdout.write(_json_list(texts, "\n") + "\n")
    return 0


def _parse_spec(args, model: Model):
    """The checked blowup of ``--face`` and ``--weights``: the one spec
    check, which the blowup and the McKay check do not repeat."""
    face = [tok for tok in args.face.split(",") if tok]
    weights = [tok for tok in args.weights.split(",") if tok]
    return make_blowup_spec(model, face, weights)


def _cmd_blowup(args) -> int:
    model = load_model(args.model)
    blowup = _parse_spec(args, model)
    blown = blow_up(blowup)
    payload = {
        "crepant": is_crepant(blowup),
        "lambda0": list(blowup.lambda0),
        "model": model_to_dict(blown),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(model_to_json(blown))
    _emit(payload)
    return 0


def _cmd_mckay(args) -> int:
    model = load_model(args.model)
    blowup = _parse_spec(args, model)
    # A model that is not quasi-SL is refused, by cr_report, before a
    # spec that is not crepant.
    before = cr_report(LocalGroupTable(model))
    report = mckay_check(before, blowup)
    payload = {
        "verdict": passes(report),
        "lambda0": list(blowup.lambda0),
        "quasi_sl_after_blowup": report.after.groups.quasi_sl,
        "pp_cr": {
            "before": list(report.before.pp_cr.coeffs),
            "after": list(report.after.pp_cr.coeffs),
        },
        "routes_agree": {
            "before": report.before.routes_agree,
            "after": report.after.routes_agree,
        },
        "triangulation_checks": [
            {"face": list(c.face.facet_set), "pass": c.passed}
            for c in report.triangulation_checks
        ],
        # Convention-dependent report; never part of the verdict.
        "positively_omnioriented": {
            "before": positively_omnioriented(model),
            "after": positively_omnioriented(report.blown),
        },
    }
    _emit(payload)
    return 0 if passes(report) else 1


def _cmd_fuzz(args) -> int:
    # Each table is checked before the next is generated, so one model's
    # tables are alive at a time.
    generated = 0
    failures: list[str] = []
    for table in generate_test_tables(args.seed, args.count, n=args.n, budget=args.budget):
        generated += 1
        failures.extend(identity_failures(table, include_oracle=args.oracle))
    if not generated:
        # A run that checks no model proves nothing.
        _emit({"error": "no model generated", "seed": args.seed, "n": args.n, "budget": args.budget})
        return 2
    payload = {
        "backend": kernels.backend_name(),
        "models_requested": args.count,
        "models_generated": generated,
        "failures": failures,
        "all_pass": not failures,
    }
    _emit(payload)
    return 0 if not failures else 1


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


_SPEC = (
    ("--face", dict(required=True, help="facet indices, e.g. 0,2")),
    ("--weights", dict(required=True, help="weights, e.g. 1/2,1/2")),
)
_SPEC_FLAGS = tuple(flags for flags, _ in _SPEC)
_ORACLE_HELP = "count dilate points by brute force instead of the box formula"

# Per command: help text, handler, whether it reads a model path, options.
_COMMANDS = {
    "validate": ("validate a model file", _cmd_validate, True, ()),
    "faces": ("list the face lattice", _cmd_faces, True, ()),
    "sectors": ("list all sectors with ages and heights", _cmd_sectors, True, ()),
    "betti": ("ordinary and Chen-Ruan Betti numbers", _cmd_betti, True, ()),
    "cr": ("Chen-Ruan report: three routes plus identity checks", _cmd_cr, True, ()),
    "ehrhart": ("dilate-series numerators per face", _cmd_ehrhart, True, (
        ("--oracle", dict(action="store_true", help=_ORACLE_HELP)),
    )),
    "blowup": ("truncate a face and emit the blown-up model", _cmd_blowup, True, _SPEC + (
        ("-o --output", dict(help="write the blown-up model here")),
    )),
    "mckay": ("verify Betti invariance under a crepant blowup", _cmd_mckay, True, _SPEC),
    "fuzz": ("generate models and run the identity suite", _cmd_fuzz, False, (
        ("--seed", dict(type=int, default=0)),
        ("--count", dict(type=_positive_int, default=10)),
        ("--n", dict(type=int, default=2, choices=(2, 3, 4))),
        ("--budget", dict(type=_positive_int, default=400)),
        ("--oracle", dict(action="store_true", help="include the exhaustive cross-checks")),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` given the model path, when command ``name`` reads one,
    and the options of ``name``."""
    _, _, takes_model, options = _COMMANDS[name]
    if takes_model:
        parser.add_argument("model", help="path to a model JSON file")
    for flags, keywords in options:
        parser.add_argument(*flags.split(), **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The qtorb parser, with the subparsers of all nine commands."""
    parser = argparse.ArgumentParser(
        prog="qtorb",
        description=(
            "Chen-Ruan Betti numbers of quasitoric orbifolds from combinatorial "
            "models, with exact verification of crepant blowup invariance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``.  A command named first is parsed by a
    parser of its own, built as ``build_parser`` builds its subparser, so
    its help and errors read the same.  Help, a first word that names no
    command, and words that the command's parser leaves over go to the
    parser of all commands, which prints the usage error of qtorb itself."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _add_arguments(argparse.ArgumentParser(prog=f"qtorb {name}"), name)
        parser.set_defaults(command=name)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def _discard_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's last
    flush of what is still buffered does not hit the closed pipe again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _spec_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--face`` or ``--weights``, or a prefix of either
    that argparse accepts, and a next word that starts with "-" and a
    digit made one word, ``--face=-1,2``.  argparse reads such a word as
    an option; it is a value, a negative facet index or weight, which
    make_blowup_spec rejects by name."""
    words: list[str] = []
    for word in argv:
        last = words[-1] if words else ""
        spec_flag = len(last) > 2 and any(flag.startswith(last) for flag in _SPEC_FLAGS)
        if spec_flag and word[:1] == "-" and word[1:2].isdigit():
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    args = _parse(_spec_values(sys.argv[1:] if argv is None else argv))
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``qtorb sectors m.json | head``):
        # nothing more can be written, an error report included.
        _discard_stdout()
        return 2
    return code


def _run(args) -> int:
    try:
        return _COMMANDS[args.command][1](args)
    except BrokenPipeError:
        raise
    except ModelValidationError as exc:
        _emit({"error": "invalid model", "violations": exc.violations})
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        _emit({"error": str(exc)})
        return 2


def entry() -> None:  # console-script hook
    raise SystemExit(main())
