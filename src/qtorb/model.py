"""Combinatorial models of quasitoric orbifolds.

A model is a simple n-polytope given purely by vertex-facet incidence,
together with one primitive integer vector per facet whose restrictions
to every face are linearly independent.  Faces are identified with the
facet subsets realized at vertices; no convex realization is ever built
or checked.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .intlat import IntMat, IntVec, as_vec, det, is_primitive, mat_vec

if TYPE_CHECKING:
    from .sectors import LocalGroupTable

JSON_INT_LIMIT = 2**53
# faces() refuses a model whose vertices have more facet subsets than this.
FACE_SUBSET_LIMIT = 2**20


class ModelValidationError(ValueError):
    """Carries the full list of violated model constraints."""

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid model")


@dataclass(frozen=True)
class Face:
    """A face of the polytope, named by the facets meeting along it.

    The whole polytope is the empty facet set; vertices carry n facets.
    ``vertex_ids`` indexes into the model's vertex list.
    """

    facet_set: tuple[int, ...]
    dim: int
    vertex_ids: tuple[int, ...]

    @property
    def codim(self) -> int:
        return len(self.facet_set)


@dataclass(frozen=True)
class Model:
    """Simple polytope plus characteristic vectors, one per facet, and the
    determinant validation computed at each vertex (columns in increasing
    facet order), which equality, hashing and the JSON form ignore."""

    n: int
    m: int
    vertices: tuple[tuple[int, ...], ...]
    char_vectors: tuple[IntVec, ...]
    name: str | None = None
    vertex_dets: tuple[int, ...] = field(kw_only=True, compare=False, repr=False)


def _coerce_int(value, what: str, violations: list[str]) -> int | None:
    # JSON numbers above 2**53 may arrive as strings; accept both.
    if isinstance(value, bool):
        violations.append(f"{what}: expected an integer, got a boolean")
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            violations.append(f"{what}: cannot parse integer from {value!r}")
            return None
    violations.append(f"{what}: expected an integer, got {type(value).__name__}")
    return None


def _int_to_json(value: int):
    return value if abs(value) < JSON_INT_LIMIT else str(value)


def validate_model(
    n: int,
    m: int,
    vertices: Sequence[Sequence[int]],
    char_vectors: Sequence[Sequence[int]],
) -> tuple[list[str], list[int]]:
    """All violated constraints, in a fixed order (empty means valid), and
    the determinants computed at the vertices, in the order given: of the
    vectors as rows, which is det of the columns, since det A^T = det A."""
    violations: list[str] = []
    dets: list[int] = []
    if n < 1:
        violations.append(f"dimension n must be at least 1, got {n}")
    if m < 1:
        violations.append(f"facet count m must be at least 1, got {m}")
    if violations:
        return violations, dets

    structural = True
    for vid, vert in enumerate(vertices):
        idx = list(vert)
        if len(idx) != n or len(set(idx)) != n:
            violations.append(
                f"vertex {vid}: needs exactly {n} distinct facet indices, got {list(vert)}"
            )
            structural = False
            continue
        bad = [i for i in idx if not (0 <= i < m)]
        if bad:
            violations.append(f"vertex {vid}: facet indices {bad} out of range [0, {m})")
            structural = False
    if not vertices:
        violations.append("model has no vertices")
        structural = False

    if len(char_vectors) != m:
        violations.append(f"expected {m} characteristic vectors, got {len(char_vectors)}")
        structural = False
    for i, vec in enumerate(char_vectors):
        if len(vec) != n:
            violations.append(
                f"characteristic vector {i}: length {len(vec)} does not match n={n}"
            )
            structural = False
    if not structural:
        return violations, dets

    normalized = [tuple(sorted(v)) for v in vertices]
    seen: dict[tuple[int, ...], int] = {}
    for vid, vert in enumerate(normalized):
        if vert in seen:
            violations.append(f"vertices {seen[vert]} and {vid} coincide: {list(vert)}")
        else:
            seen[vert] = vid

    used = set(itertools.chain.from_iterable(normalized))
    missing = sorted(set(range(m)) - used)
    if missing:
        violations.append(f"facets {missing} appear in no vertex")

    vectors_ok = True
    for i, vec in enumerate(char_vectors):
        if all(e == 0 for e in vec):
            violations.append(f"characteristic vector {i} is zero")
            vectors_ok = False
        elif not is_primitive(vec):
            violations.append(f"characteristic vector {i} = {list(vec)} is not primitive")
            vectors_ok = False

    # Independence at every face follows from independence at the vertices,
    # since every face's facet set sits inside some vertex's.
    if vectors_ok:
        for vid, vert in enumerate(normalized):
            dets.append(det([char_vectors[i] for i in vert]))
            if dets[-1] == 0:
                violations.append(
                    f"characteristic vectors are dependent at vertex {vid} = {list(vert)}"
                )
    return violations, dets


def make_model(
    n: int,
    m: int,
    vertices: Sequence[Sequence[int]],
    char_vectors: Sequence[Sequence[int]],
    name: str | None = None,
) -> Model:
    """Validated model; raises ModelValidationError listing every defect."""
    verts = tuple(tuple(int(i) for i in v) for v in vertices)
    lams = tuple(as_vec(v) for v in char_vectors)
    violations, dets = validate_model(n, m, verts, lams)
    if violations:
        raise ModelValidationError(violations)
    vertices, vertex_dets = zip(*sorted(zip((tuple(sorted(v)) for v in verts), dets)))
    return Model(
        n=n, m=m, vertices=vertices, char_vectors=lams, name=name, vertex_dets=vertex_dets
    )


def parse_model(text: str | bytes) -> Model:
    """Parse and validate the JSON model format.

    Schema: {"name": str?, "n": int, "m": int, "vertices": [[int, ...], ...],
    "lambda": [[int, ...], ...]}.  Integers of magnitude >= 2**53 may be
    given as decimal strings.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError, undecodable bytes and over-long integer
        # literals raise ValueError; deep nesting exhausts the recursion limit.
        raise ModelValidationError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ModelValidationError(["top-level JSON value must be an object"])

    violations: list[str] = []
    for key in ("n", "m", "vertices", "lambda"):
        if key not in data:
            violations.append(f"missing required field {key!r}")
    if violations:
        raise ModelValidationError(violations)

    n = _coerce_int(data["n"], "n", violations)
    m = _coerce_int(data["m"], "m", violations)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        violations.append("name must be a string")

    def parse_rows(key: str) -> list[tuple[int, ...]]:
        rows = data[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            violations.append(f"{key} must be a list of lists")
            return []
        out = []
        for ri, row in enumerate(rows):
            entries = []
            for value in row:
                entry = _coerce_int(value, f"{key}[{ri}]", violations)
                entries.append(0 if entry is None else entry)
            out.append(tuple(entries))
        return out

    vertices = parse_rows("vertices")
    lams = parse_rows("lambda")
    if violations or n is None or m is None:
        raise ModelValidationError(violations)
    return make_model(n, m, vertices, lams, name=name)


def load_model(path) -> Model:
    with open(path, "rb") as handle:
        return parse_model(handle.read())


def model_to_dict(model: Model) -> dict:
    out: dict = {
        "n": model.n,
        "m": model.m,
        "vertices": [list(v) for v in model.vertices],
        "lambda": [[_int_to_json(e) for e in vec] for vec in model.char_vectors],
    }
    if model.name is not None:
        out["name"] = model.name
    return out


def model_to_json(model: Model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def faces(model: Model) -> tuple[Face, ...]:
    """Every face, ordered by (codimension, facet set).

    In a simple polytope the faces through a vertex are exactly the
    subsets of its facet set, so one pass over the vertices finds every
    face together with its ``vertex_ids``, the vertices it occurs at.
    The subsets of each size r, the faces of codimension r, go into one
    dict per codimension, and each dict is sorted by facet set alone.
    ValueError when the |V| 2^n subsets exceed :data:`FACE_SUBSET_LIMIT`.
    """
    n = model.n
    if len(model.vertices) * 2**n > FACE_SUBSET_LIMIT:
        raise ValueError(
            f"the face lattice of {len(model.vertices)} vertices in dimension {n} "
            f"exceeds the limit of {FACE_SUBSET_LIMIT} vertex facet subsets"
        )
    by_codim: list[dict[tuple[int, ...], list[int]]] = [{} for _ in range(n + 1)]
    for vid, vert in enumerate(model.vertices):
        for r, vertex_ids in enumerate(by_codim):
            for facet_set in itertools.combinations(vert, r):
                ids = vertex_ids.get(facet_set)
                if ids is None:
                    vertex_ids[facet_set] = [vid]
                else:
                    ids.append(vid)
    return tuple(
        Face(facet_set=fs, dim=n - r, vertex_ids=tuple(vertex_ids[fs]))
        for r, vertex_ids in enumerate(by_codim)
        for fs in sorted(vertex_ids)
    )


def subfaces(face: Face, lattice: Sequence[Face]) -> list[Face]:
    """Faces of the sub-polytope: faces of ``lattice`` whose facet set contains this one's."""
    fs = set(face.facet_set)
    return [h for h in lattice if fs.issubset(h.facet_set)]


def f_vector(face: Face, lattice: Sequence[Face]) -> tuple[int, ...]:
    """(f_0, ..., f_d): counts of i-dimensional faces of the sub-polytope."""
    counts = [0] * (face.dim + 1)
    for h in subfaces(face, lattice):
        counts[h.dim] += 1
    return tuple(counts)


def h_from_f(fv: Sequence[int]) -> tuple[int, ...]:
    """h-vector from the f-vector (f_0, ..., f_d) of a simple polytope:
    h_i is the coefficient of t^(d-i) in sum_j f_j (t-1)^j, that is
    sum_j f_j C(j, d-i) (-1)^(j-d+i)."""
    d = len(fv) - 1
    return tuple(
        sum(
            count * math.comb(j, d - i) * (-1) ** (j - d + i)
            for j, count in enumerate(fv)
            if j >= d - i
        )
        for i in range(d + 1)
    )


def h_vector(face: Face, lattice: Sequence[Face]) -> tuple[int, ...]:
    """h-vector of the (simple) face, counted in ``lattice``.  These are
    the even Betti numbers of the orbifold piece living over the face."""
    return h_from_f(f_vector(face, lattice))


def positively_omnioriented(model: Model) -> bool:
    """True when every vertex sign is +1 under the fixed convention."""
    return all(d > 0 for d in model.vertex_dets)


def apply_unimodular(model: Model, u: IntMat) -> Model:
    """Change basis of the ambient lattice: every vector becomes u @ vector.
    A unimodular u keeps every vector primitive and every vertex's
    vectors independent, so the model is derived without validating it
    afresh: each vertex determinant is det(u) times its own, and u's is
    the one determinant computed."""
    if len(u) != model.n:
        raise ValueError(f"basis change must be {model.n} x {model.n}")
    unit = det(u)
    if abs(unit) != 1:
        raise ValueError("basis change must be unimodular")
    return Model(
        n=model.n,
        m=model.m,
        vertices=model.vertices,
        char_vectors=tuple(mat_vec(u, vec) for vec in model.char_vectors),
        name=model.name,
        vertex_dets=tuple(unit * d for d in model.vertex_dets),
    )


def relabel_facets(model: Model, perm: Sequence[int]) -> Model:
    """Apply a facet permutation consistently: perm[old] = new."""
    if sorted(perm) != list(range(model.m)):
        raise ValueError("perm must be a permutation of the facet indices")
    new_lams = [None] * model.m
    for old, vec in enumerate(model.char_vectors):
        new_lams[perm[old]] = vec
    new_vertices = [tuple(sorted(perm[i] for i in v)) for v in model.vertices]
    return make_model(model.n, model.m, new_vertices, new_lams, name=model.name)


def random_unimodular(rng: random.Random, n: int, ops: int = 3) -> IntMat:
    """Product of a few elementary matrices; always determinant +-1."""
    mat = [list(row) for row in
           [[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-1, 1))
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        elif kind == 1 and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == 2:
            mat[i] = [-a for a in mat[i]]
    return tuple(tuple(row) for row in mat)


def _random_simplex_model(rng: random.Random, n: int, index: int):
    """The LocalGroupTable of a simplex over n+1 facets: unit vectors plus
    one random last vector, kept only when it validates and every age is
    integral."""
    from .sectors import LocalGroupTable

    vertices = list(itertools.combinations(range(n + 1), n))
    lams = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roll = rng.random()
    if roll < 0.25:
        last = tuple([-1] * n)
    elif roll < 0.55:
        # Cyclic-quotient pattern: integral ages for every k.
        k = rng.randrange(2, 8)
        last = (1,) + (k,) * (n - 1)
    else:
        last = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n))
    try:
        if not is_primitive(last):
            return None
        model = make_model(n, n + 1, vertices, lams + [last], name=f"fuzz-n{n}-{index}")
    except ValueError:
        return None
    table = LocalGroupTable(model)
    return table if table.quasi_sl else None


def _mutated_table(rng: random.Random, table: LocalGroupTable, n: int) -> LocalGroupTable:
    """The table of the model that up to two random blowups and unimodular
    changes make of ``table``'s.  Each new table is built on the current
    one: a blowup's borrows the groups the current table has built, and
    a unimodular change's, over the same vertex list, shares its face
    lattice and h-vectors.  A crepant blowup is drawn from the table's
    candidates, Blowups that need no check; a unit-weight truncation,
    whose new vector may not be integral or primitive, is checked by
    ``make_blowup_spec``.  A function of its own, so that the
    generator's frame keeps no table of a model it has already
    yielded."""
    from . import blowup as blowup_mod
    from .sectors import LocalGroupTable

    for _ in range(rng.randrange(3)):
        model = table.model
        roll = rng.random()
        if roll < 0.45 and model.m < n + 4:
            candidates = blowup_mod.crepant_candidates(table)
            if not candidates:
                continue
            blowup = rng.choice(candidates)
        elif roll < 0.85:
            table = LocalGroupTable(apply_unimodular(model, random_unimodular(rng, n)), table)
            continue
        else:
            # Non-crepant truncation: unit weights on a random face.
            chosen = [f for f in table.faces if f.codim >= 2]
            if not chosen:
                continue
            face = rng.choice(chosen)
            try:
                blowup = blowup_mod.make_blowup_spec(model, face.facet_set, [1] * face.codim)
            except ValueError:
                continue
        blown_table = blowup_mod.blow_up_table(table, blowup)
        if blown_table.quasi_sl:
            table = blown_table
    return table


def generate_test_tables(
    seed: int, count: int, n: int = 2, budget: int = 400
) -> Iterator[LocalGroupTable]:
    """Deterministic pseudo-random family of valid quasi-SL models, as the
    LocalGroupTable each was built and screened with, yielded one at a
    time: a caller that checks each table before asking for the next,
    and drops it, holds one model's tables at a time.

    Starts from simplex models with a random compatible last vector and
    mutates with valid blowups and unimodular basis changes.  Stops
    quietly when `budget` construction attempts are spent, so there can
    be fewer than `count`.  The table yielded is the last one built,
    with every group it and the tables it borrowed from have built.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"generator supports n in {{2, 3, 4}}, got {n}")
    rng = random.Random(seed)
    generated = attempts = 0
    while generated < count and attempts < budget:
        attempts += 1
        table = _random_simplex_model(rng, n, generated)
        if table is not None:
            table = _mutated_table(rng, table, n)
            generated += 1
            yield table


def generate_test_models(
    seed: int, count: int, n: int = 2, budget: int = 400
) -> list[Model]:
    """The models of :func:`generate_test_tables`, as a list."""
    return [table.model for table in generate_test_tables(seed, count, n, budget)]
