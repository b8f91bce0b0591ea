"""Independent facts the benchmark checks qtorb's outputs against.

Nothing here imports qtorb.  Determinants are cofactor expansions, group
orders are gcds of maximal minors and sector points are recomputed in
Fraction arithmetic, so a fault in ``qtorb.intlat`` or ``qtorb.sectors``
cannot also corrupt the reference it is checked against.

A model is handled as the plain dict written to its JSON file:
``{"n": int, "m": int, "vertices": [[facet, ...], ...], "lambda": [[int, ...], ...]}``.
Every ``check_*`` function raises :class:`CheckFailure` on the first
disagreement and returns ``None`` otherwise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


class CheckFailure(Exception):
    """An output of the program disagrees with an independent fact."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- integer lattice facts -------------------------------------------------


def det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * entry * det(minor)
    return total


def group_order(cols) -> int:
    """Order of Z-span(cols) saturated, modulo Z-span(cols): the gcd of the
    maximal minors of the matrix with ``cols`` as columns."""
    k = len(cols)
    if k == 0:
        return 1
    rows = [list(r) for r in zip(*cols)]
    g = 0
    for chosen in itertools.combinations(range(len(rows)), k):
        g = gcd(g, det([rows[r] for r in chosen]))
    require(g != 0, f"columns {cols} are dependent")
    return g


def face_columns(model: dict, facet_set) -> list[list[int]]:
    return [list(model["lambda"][i]) for i in facet_set]


def sorted_vertices(model: dict) -> list[tuple[int, ...]]:
    """Vertices as qtorb orders them: each facet set sorted, then the list."""
    return sorted(tuple(sorted(v)) for v in model["vertices"])


def vertex_dets(model: dict) -> list[int]:
    """det of the characteristic vectors at each vertex, as columns in
    increasing facet order, in sorted vertex order."""
    return [det([list(r) for r in zip(*face_columns(model, v))]) for v in sorted_vertices(model)]


def face_lattice(model: dict) -> list[tuple[int, ...]]:
    """Every face as its facet set, ordered by (codimension, facet set).  In a
    simple polytope the faces at a vertex are the subsets of its facets."""
    found = set()
    for vertex in sorted_vertices(model):
        for r in range(len(vertex) + 1):
            found.update(itertools.combinations(vertex, r))
    return sorted(found, key=lambda s: (len(s), s))


def rat(value) -> Fraction:
    """A rational as qtorb writes it: an int, or a string "p" or "p/q"."""
    return Fraction(value)


def palindromic(coeffs) -> bool:
    return list(coeffs) == list(coeffs)[::-1]


# --- output checks -----------------------------------------------------------


def check_validate(model: dict, out: dict) -> None:
    dets = vertex_dets(model)
    signs = [1 if d > 0 else -1 for d in dets]
    require(out.get("valid") is True, "validate: model reported invalid")
    require(out["n"] == model["n"] and out["m"] == model["m"], "validate: wrong n or m")
    require(out["num_vertices"] == len(model["vertices"]), "validate: wrong vertex count")
    require(out["num_faces"] == len(face_lattice(model)), "validate: wrong face count")
    require(out["quasi_sl"] is True, "validate: quasi-SL model reported not quasi-SL")
    require(out["vertex_signs"] == signs, f"validate: vertex signs {out['vertex_signs']} != {signs}")
    require(
        out["positively_omnioriented"] == all(s == 1 for s in signs),
        "validate: positively_omnioriented disagrees with the vertex signs",
    )


def check_faces(model: dict, out: dict) -> None:
    vertices = sorted_vertices(model)
    expected = [
        {
            "facet_set": list(fs),
            "dim": model["n"] - len(fs),
            "codim": len(fs),
            "vertices": [i for i, v in enumerate(vertices) if set(fs) <= set(v)],
        }
        for fs in face_lattice(model)
    ]
    require(out["faces"] == expected, "faces: face lattice differs from the reference")


def check_box_element(cols, coeffs, point, age, height, where: str) -> None:
    """One box element: coefficients in [0, 1), an integral point equal to
    sum c_j * col_j, age the coefficient sum, height the nonzero count."""
    require(len(coeffs) == len(cols), f"{where}: {len(coeffs)} coefficients for {len(cols)} columns")
    require(all(0 <= c < 1 for c in coeffs), f"{where}: coefficient outside [0, 1): {coeffs}")
    recomputed = [sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0)) for i in range(len(point))]
    require(recomputed == [Fraction(p) for p in point], f"{where}: point {list(point)} != sum c_j lambda_j")
    require(age == sum(coeffs, Fraction(0)), f"{where}: age {age} != coefficient sum")
    require(height == sum(1 for c in coeffs if c), f"{where}: wrong height {height}")


def check_sectors(model: dict, sectors: list) -> None:
    """Every sector is a valid interior box element of its face, the sectors
    are distinct, and over each vertex v the sectors on faces inside v number
    |det lambda_v|: distinct valid elements that many are the whole group."""
    faces = set(face_lattice(model))
    seen = set()
    for s in sectors:
        face = tuple(s["face"])
        where = f"sectors: face {list(face)}"
        require(face in faces, f"{where} is not a face")
        coeffs = [rat(c) for c in s["coeffs"]]
        require(all(c > 0 for c in coeffs), f"{where}: coefficient not in (0, 1): {s['coeffs']}")
        check_box_element(face_columns(model, face), coeffs, s["point"], rat(s["age"]), s["height"], where)
        key = (face, tuple(coeffs))
        require(key not in seen, f"{where}: repeated sector {s['coeffs']}")
        seen.add(key)
    for vertex, d in zip(sorted_vertices(model), vertex_dets(model)):
        inside = sum(1 for face, _ in seen if set(face) <= set(vertex))
        require(inside == abs(d), f"sectors: {inside} sectors inside vertex {list(vertex)}, |det| = {abs(d)}")


def check_pp_cr(model: dict, pp_cr: list, expected=None) -> None:
    """The Chen-Ruan Poincare polynomial in s."""
    require(len(pp_cr) == model["n"] + 1 and palindromic(pp_cr), f"PP_CR {pp_cr}: not palindromic of length n+1")
    total = sum(abs(d) for d in vertex_dets(model))
    require(sum(pp_cr) == total, f"PP_CR(1) = {sum(pp_cr)} != sum of |det| = {total}")
    if expected is not None:
        require(pp_cr == list(expected), f"PP_CR {pp_cr} != expected {list(expected)}")


def check_pp(model: dict, pp: list, pp_cr: list, expected_pp_cr=None) -> None:
    """Ordinary and Chen-Ruan Poincare polynomials in s."""
    require(palindromic(pp) and sum(pp) == len(model["vertices"]), f"PP {pp}: not palindromic or PP(1) != vertices")
    check_pp_cr(model, pp_cr, expected_pp_cr)


def even_expansion(coeffs) -> list[int]:
    out = [0] * max(2 * len(coeffs) - 1, 0)
    out[::2] = coeffs
    return out


def check_betti(model: dict, out: dict, expected_pp_cr=None) -> None:
    pp, pp_cr = out["pp"], out["pp_cr"]
    check_pp(model, pp["s_coeffs"], pp_cr["s_coeffs"], expected_pp_cr)
    for poly in (pp, pp_cr):
        require(poly["by_degree"] == even_expansion(poly["s_coeffs"]), "betti: by_degree disagrees with s_coeffs")


def check_cr(model: dict, out: dict, expected_pp_cr=None) -> None:
    check_pp(model, out["pp"], out["pp_cr"], expected_pp_cr)
    require(out["routes_agree"] is True, "cr: the three routes disagree")
    require(all(out["identities"].values()), f"cr: identity fails: {out['identities']}")
    check_sectors(model, out["sectors"])


def blown_lambda0(model: dict, face, weights) -> list[int]:
    combo = [sum((w * model["lambda"][i][r] for w, i in zip(weights, face)), Fraction(0)) for r in range(model["n"])]
    require(all(c.denominator == 1 for c in combo), f"weights {weights} give a non-integral vector")
    return [int(c) for c in combo]


def check_blowup(model: dict, face, weights, out: dict) -> None:
    """The blown-up model: one new facet with lambda0 = sum w_j lambda_j,
    every vertex on the face split into one per facet of the face, and,
    the blowup being crepant, the same sum of |det| over vertices."""
    lambda0 = blown_lambda0(model, face, weights)
    blown = out["model"]
    require(out["crepant"] is True, "blowup: crepant weights reported not crepant")
    require(out["lambda0"] == lambda0 and blown["lambda"][-1] == lambda0, f"blowup: lambda0 != {lambda0}")
    require(blown["n"] == model["n"] and blown["m"] == model["m"] + 1, "blowup: wrong n or m")
    require(blown["lambda"][:-1] == model["lambda"], "blowup: old characteristic vectors changed")
    on_face = sum(1 for v in model["vertices"] if set(face) <= set(v))
    expected = len(model["vertices"]) + (len(face) - 1) * on_face
    require(len(blown["vertices"]) == expected, f"blowup: {len(blown['vertices'])} vertices, expected {expected}")
    before = sum(abs(d) for d in vertex_dets(model))
    after = sum(abs(d) for d in vertex_dets(blown))
    require(before == after, f"blowup: sum of |det| went from {before} to {after}")


def check_mckay(model: dict, face, weights, out: dict, expected_pp_cr=None) -> None:
    before, after = out["pp_cr"]["before"], out["pp_cr"]["after"]
    require(out["verdict"] is True, "mckay: verdict is not true")
    require(out["lambda0"] == blown_lambda0(model, face, weights), "mckay: wrong lambda0")
    require(out["quasi_sl_after_blowup"] is True, "mckay: blowup lost quasi-SL")
    require(before == after, f"mckay: PP_CR changed from {before} to {after}")
    require(out["routes_agree"] == {"before": True, "after": True}, "mckay: routes disagree")
    require(all(c["pass"] for c in out["triangulation_checks"]), "mckay: a triangulation identity fails")
    require(out["triangulation_checks"], "mckay: no triangulation identity checked")
    check_pp_cr(model, before, expected_pp_cr)


def check_fuzz(out: dict) -> None:
    require(out["all_pass"] is True and out["failures"] == [], f"fuzz: failures {out['failures']}")
    require(out["models_generated"] == out["models_requested"], "fuzz: fewer models generated than requested")


def check_ehrhart(model: dict, out: list) -> None:
    """One entry per proper face, in face order; sum psi equals the group
    order, psi_0 = 1 and the zeroth dilate holds one point."""
    faces = [fs for fs in face_lattice(model) if fs]
    require([e["face"] for e in out] == [list(fs) for fs in faces], "ehrhart: faces differ from the reference")
    for entry in out:
        order = group_order(face_columns(model, entry["face"]))
        where = f"ehrhart: face {entry['face']}"
        require(entry["order"] == order, f"{where}: order {entry['order']} != {order}")
        require(sum(entry["psi"]) == order, f"{where}: sum psi = {sum(entry['psi'])} != order {order}")
        require(len(entry["psi"]) == len(entry["face"]) and entry["psi"][0] == 1, f"{where}: bad psi {entry['psi']}")
        require(entry["dilates"][0] == 1, f"{where}: zeroth dilate has {entry['dilates'][0]} points")


def check_box(cols, elements) -> None:
    """A full box enumeration: valid, distinct, as many as the group order."""
    order = group_order(cols)
    where = f"box of {cols}"
    require(len(elements) == order, f"{where}: {len(elements)} elements, group order {order}")
    require(len({tuple(e.coeffs) for e in elements}) == order, f"{where}: repeated elements")
    for e in elements:
        check_box_element(cols, list(e.coeffs), e.point, e.age, e.height, where)
