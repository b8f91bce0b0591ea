"""The three workloads: how each draws its inputs from the seed, which
operations a round runs, and how each output is checked.

A round is a fixed list of operations; a run repeats whole rounds, so the
mix of operations is the same in every run whatever its length.  Every
operation gets a model no earlier operation in the process has seen:
``qtorb.model.faces`` is an ``lru_cache``, and a real command-line user
starts a fresh process each time, so repeats must not turn into cache hits.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import reference as ref
from reference import require


@dataclass
class Program:
    """The imported qtorb package and the modules the benchmark calls."""

    pkg: Any
    cli: Any
    kernels: Any


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Variant:
    """A model as written for one operation, with back[new facet] = base facet."""

    path: str
    model: dict
    back: list[int]

    def base_face(self, face) -> tuple[int, ...]:
        return tuple(sorted(self.back[j] for j in face))

    def face_of(self, base_face) -> tuple[int, ...]:
        return tuple(sorted(self.back.index(i) for i in base_face))


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one command through ``qtorb.cli.main``, capturing its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_check(expected_rc: int, check: Callable[[Any], None]) -> Callable[[tuple[int, str]], None]:
    def run_check(result):
        rc, text = result
        require(rc == expected_rc, f"exit code {rc}, expected {expected_rc}: {text[:300]}")
        check(json.loads(text))

    return run_check


def model_key(model: dict) -> tuple:
    return (
        tuple(sorted(tuple(sorted(v)) for v in model["vertices"])),
        tuple(tuple(v) for v in model["lambda"]),
    )


def signed_permutation(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A random signed permutation matrix: unimodular, and it keeps the
    size of every coordinate bounding box, so brute-force counts cost the
    same on every variant."""
    perm = rng.sample(range(n), n)
    return tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )


# Seeds screened at a time; set-up screens one batch per dimension, so its
# work does not depend on the seed.
SCREEN_BATCH = 32


class Workload:
    name = ""

    def __init__(self, program: Program, seed: int, workdir: Path, root: Path):
        self.q = program
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.root = root
        self.seen: set[tuple] = set()
        self.files = itertools.count()
        self.ready: list[Op] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Input generation before timing starts: the first round."""
        self.ready = self.next_round()

    def rounds(self):
        if self.ready:
            yield self.ready
        while True:
            yield self.next_round()

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def cli_op(self, label: str, argv: list[str], check) -> Op:
        cli = self.q.cli
        return Op(label, lambda: call_cli(cli, argv), check)

    def variant(self, base, shear: bool) -> Variant:
        """A model no earlier operation saw: ``base`` under a random basis
        change and facet relabelling, written to its own file."""
        pkg = self.q.pkg
        for attempt in itertools.count():
            if shear:
                u = pkg.random_unimodular(self.rng, base.n, ops=3 + attempt // 50)
            else:
                u = signed_permutation(self.rng, base.n)
            perm = self.rng.sample(range(base.m), base.m)
            model = pkg.relabel_facets(pkg.apply_unimodular(base, u), perm)
            text = pkg.model_to_json(model)
            data = json.loads(text)
            key = model_key(data)
            if key not in self.seen:
                break
        self.seen.add(key)
        path = self.workdir / f"{next(self.files)}.json"
        path.write_text(text, encoding="utf-8")
        back = [0] * base.m
        for old, new in enumerate(perm):
            back[new] = old
        return Variant(str(path), data, back)

    def screen(self, strata: dict, stratum_of, n: int) -> None:
        """Sort a fixed batch of seeds of ``generate_test_models(seed, 1, n)``
        into strata by a property that sets their cost, keeping unseen
        models of the strata wanted."""
        pkg = self.q.pkg
        for _ in range(SCREEN_BATCH):
            seed = self.rng.randrange(2**31)
            models = pkg.generate_test_models(seed, 1, n=n)
            if not models:
                continue
            data = json.loads(pkg.model_to_json(models[0]))
            key = model_key(data)
            found = stratum_of(data)
            if found in strata and key not in self.seen:
                self.seen.add(key)
                strata[found].append((seed, models[0]))

    def take_strata(self, strata: dict, wanted, stratum_of, n: int) -> list:
        """A queued (seed, model) for each stratum in ``wanted``, screening
        more as needed."""
        need = Counter(wanted)
        while any(len(strata[s]) < k for s, k in need.items()):
            self.screen(strata, stratum_of, n)
        return [strata[s].pop(0) for s in wanted]


# --- fuzz-n4 ------------------------------------------------------------------

# (facets, sum over vertices of |det|): the sum is PP_CR(1), the number of
# box elements over the vertices, and with the facet count it sets how many
# crepant blowups fuzz verifies.  A fixed list of strata per round keeps the
# cost of a round steady across seeds; they run from a smooth simplex (50 ms)
# to models with three or four crepant blowups (1 s).  Strata whose cost
# varies least between models sit where the median and the 90th percentile
# fall: (5, 11) in the middle, (6, 17) and (5, 17) at the top.
FUZZ_STRATA = ((5, 5), (6, 8), (5, 8), (5, 11), (5, 14), (6, 17), (5, 17))


def fuzz_stratum(model: dict) -> tuple[int, int]:
    return model["m"], sum(abs(d) for d in ref.vertex_dets(model))


class FuzzN4(Workload):
    """``qtorb fuzz --n 4 --count 1`` on distinct seeds."""

    name = "fuzz-n4"

    def __init__(self, *args):
        super().__init__(*args)
        self.queues = {s: [] for s in set(FUZZ_STRATA)}

    def setup(self) -> None:
        self.screen(self.queues, fuzz_stratum, 4)

    def next_round(self) -> list[Op]:
        return [
            self.cli_op(f"fuzz:{stratum}", ["fuzz", "--seed", str(seed), "--count", "1", "--n", "4"],
                        cli_check(0, ref.check_fuzz))
            for stratum, (seed, _) in zip(
                FUZZ_STRATA, self.take_strata(self.queues, FUZZ_STRATA, fuzz_stratum, 4)
            )
        ]


# --- cli-models ---------------------------------------------------------------

TRI_K = (300, 1000)
TET_K = (100,)
REJECT_LAMBDA = (-1, -10**4)


@dataclass
class Base:
    """A model with the facts the benchmark knows about it: PP_CR and one
    crepant blowup (a face and weights summing to 1)."""

    name: str
    model: Any
    pp_cr: tuple[int, ...]
    face: tuple[int, ...]
    weights: tuple[Fraction, ...]


def triangle(k: int):
    return 2, 3, [(0, 1), (1, 2), (0, 2)], [(1, 0), (0, 1), (1, k)]


def tetrahedron(last):
    return 3, 4, list(itertools.combinations(range(4), 3)), [(1, 0, 0), (0, 1, 0), (0, 0, 1), last]


class CliModels(Workload):
    """Every model command on small shipped models and on two families
    with one large local group each, plus one rejected model."""

    name = "cli-models"
    COMMANDS = ("validate", "faces", "sectors", "betti", "cr", "blowup", "mckay")

    def __init__(self, *args):
        super().__init__(*args)
        pkg = self.q.pkg
        self.bases = [
            Base("wp112", pkg.load_model(self.root / "models" / "wp112.json"), (1, 2, 1),
                 (0, 2), (Fraction(1, 2),) * 2),
            Base("z3tetra", pkg.load_model(self.root / "models" / "z3tetra.json"), (1, 2, 2, 1),
                 (0, 1, 2), (Fraction(1, 3),) * 3),
        ]
        for k in TRI_K:
            self.bases.append(Base(f"tri{k}", pkg.make_model(*triangle(k)), (1, k, 1),
                                   (0, 2), (Fraction(k - 1, k), Fraction(1, k))))
        for k in TET_K:
            self.bases.append(Base(f"tet{k}", pkg.make_model(*tetrahedron((1, k, k))), (1, k, k, 1),
                                   (0, 3), (Fraction(k - 1, k), Fraction(1, k))))
        n, m, vertices, lams = triangle(0)
        self.reject = pkg.make_model(n, m, vertices, lams[:2] + [REJECT_LAMBDA], name="reject")
        self.sector_summary: dict[str, Counter] = {}

    def next_round(self) -> list[Op]:
        ops = []
        for base in self.bases:
            for command in self.COMMANDS:
                ops.append(self._op(base, command, self.variant(base.model, shear=True)))
        path = self.variant(self.reject, shear=True).path
        ops.append(self.cli_op("betti:reject", ["betti", path], cli_check(2, check_rejected)))
        v = self.variant(self.reject, shear=True)
        ops.append(self.cli_op("sectors:reject", ["sectors", v.path], cli_check(0, lambda out: ref.check_sectors(v.model, out))))
        return ops

    def _op(self, base: Base, command: str, v: Variant) -> Op:
        model = v.model
        face = v.face_of(base.face)
        weights = tuple(base.weights[base.face.index(v.back[j])] for j in face)
        argv = [command, v.path]
        if command == "validate":
            check = lambda out: ref.check_validate(model, out)
        elif command == "faces":
            check = lambda out: ref.check_faces(model, out)
        elif command == "sectors":
            check = lambda out: self._check_sectors(base, model, out)
        elif command == "betti":
            check = lambda out: ref.check_betti(model, out, base.pp_cr)
        elif command == "cr":
            def check(out):
                ref.check_cr(model, out, base.pp_cr)
                self._check_sectors(base, model, out["sectors"])
        else:
            argv += ["--face", ",".join(map(str, face)), "--weights", ",".join(map(str, weights))]
            if command == "blowup":
                check = lambda out: ref.check_blowup(model, face, weights, out)
            else:
                check = lambda out: ref.check_mckay(model, face, weights, out, base.pp_cr)
        return self.cli_op(f"{command}:{base.name}", argv, cli_check(0, check))

    def _check_sectors(self, base: Base, model: dict, sectors: list) -> None:
        """Valid and complete sectors, with the same (age, height) multiset
        on every variant of the base model."""
        ref.check_sectors(model, sectors)
        summary = Counter((str(s["age"]), s["height"]) for s in sectors)
        expected = self.sector_summary.setdefault(base.name, summary)
        require(summary == expected, f"sectors of {base.name} vary under basis change: {summary} != {expected}")


def check_rejected(out: dict) -> None:
    require(isinstance(out, dict) and "error" in out, "rejected model: no error key in the output")


# --- oracle -------------------------------------------------------------------

# Hand-built tetrahedra with lambda_4 = (2, -1, k): vertex orders 1, k, 1, 2,
# quasi-SL for even k.  The order-k vertex costs the exhaustive box search
# k^3 steps.
ORACLE_TET_K = (20, 50, 100)
# (facets, largest |entry| of lambda) for seeded models: the entries set the
# bounding box the brute-force dilate count scans, so these strata keep the
# cost of a round steady across seeds.
ORACLE_STRATA = {3: ((4, 2), (5, 3), (6, 3)), 4: ((5, 1), (6, 1), (6, 2))}
# Faces above this order are skipped by the exhaustive box search, as in
# ``qtorb fuzz --oracle``.
BOX_ORACLE_MAX_ORDER = 200


def oracle_stratum(model: dict) -> tuple[int, int]:
    return model["m"], max(abs(e) for vec in model["lambda"] for e in vec)


class Oracle(Workload):
    """Brute-force and fast dilate series, each on its own variant of a base
    model, and the exhaustive box search on a third variant, checked against
    the Smith-form enumeration of the same columns."""

    name = "oracle"

    def __init__(self, *args):
        super().__init__(*args)
        pkg = self.q.pkg
        self.tets = [pkg.make_model(*tetrahedron((2, -1, k)), name=f"tet2m1-{k}") for k in ORACLE_TET_K]
        self.queues = {n: {s: [] for s in strata} for n, strata in ORACLE_STRATA.items()}

    def setup(self) -> None:
        for n, queues in self.queues.items():
            self.screen(queues, oracle_stratum, n)

    def next_round(self) -> list[Op]:
        bases = [(model.name, model) for model in self.tets]
        for n, strata in ORACLE_STRATA.items():
            taken = self.take_strata(self.queues[n], strata, oracle_stratum, n)
            bases.extend((f"n{n}{stratum}", model) for stratum, (_, model) in zip(strata, taken))
        ops = []
        for name, base in bases:
            ops.extend(self._ops(name, base))
        return ops

    def _ops(self, name: str, base) -> list[Op]:
        pkg = self.q.pkg
        slow, fast, exhaust = (self.variant(base, shear=False) for _ in range(3))
        psi: dict = {}

        def ehrhart_check(v: Variant):
            def check(out):
                ref.check_ehrhart(v.model, out)
                mine = {v.base_face(e["face"]): (e["psi"], e["dilates"]) for e in out}
                other = psi.setdefault("entries", mine)
                require(mine == other, "ehrhart: --oracle and fast dilate series disagree")
            return check

        model = exhaust.model
        cols = [
            ref.face_columns(model, face)
            for face in ref.face_lattice(model)
            if face and ref.group_order(ref.face_columns(model, face)) <= BOX_ORACLE_MAX_ORDER
        ]

        def exhaust_check(result):
            for c, elements in zip(cols, result, strict=True):
                ref.check_box(c, elements)
                require(elements == pkg.box_of_columns(c, model["n"]),
                        f"box_by_exhaustion and box_of_columns disagree on {c}")

        return [
            self.cli_op(f"ehrhart-oracle:{name}", ["ehrhart", "--oracle", slow.path],
                        cli_check(0, ehrhart_check(slow))),
            self.cli_op(f"ehrhart:{name}", ["ehrhart", fast.path], cli_check(0, ehrhart_check(fast))),
            Op(f"box_by_exhaustion:{name}",
               lambda: [pkg.box_by_exhaustion(c, model["n"]) for c in cols], exhaust_check),
        ]


WORKLOADS = {w.name: w for w in (FuzzN4, Oracle, CliModels)}
