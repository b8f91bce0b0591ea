"""The enumeration kernels on known values, including inputs far beyond
64-bit range, which the big-integer arithmetic must count exactly, and
against direct test-local references on small random inputs."""

import itertools

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qtorb import face_by_indices, kernels, make_model
from qtorb.ehrhart import dilate_count
from qtorb.sectors import box_by_exhaustion, box_of_columns
from tests.test_ehrhart import simplex_from_cols


def _dilate_args(cols, k):
    from qtorb.intlat import adjugate, det, mat_from_cols, transpose

    verts = [tuple(c) for c in cols]
    n = len(verts[0])
    lo = [min(k * v[i] for v in verts) for i in range(n)]
    hi = [max(k * v[i] for v in verts) for i in range(n)]
    vmat = mat_from_cols(verts)
    vt = transpose(vmat)
    gram = tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in verts) for row in verts
    )
    det_g = det(gram)
    adj = adjugate(gram)
    return (
        lo,
        hi,
        [list(r) for r in vt],
        [list(r) for r in adj],
        det_g,
        k * det_g,
        [list(r) for r in vmat],
    )


def _box_solutions_reference(cols, r):
    """Every t in [0, r)^k, kept when sum_j t_j * cols[j] == 0 (mod r)."""
    n = len(cols[0]) if cols else 0
    return [
        t
        for t in itertools.product(range(r), repeat=len(cols))
        if all(sum(tj * col[i] for tj, col in zip(t, cols)) % r == 0 for i in range(n))
    ]


def _count_in_dilate_reference(lo, hi, vt, adj, det_g, level, vmat):
    """The membership tests evaluated from scratch at every box point."""
    n, d = len(lo), len(vt)
    count = 0
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        w = [sum(vt[i][j] * x[j] for j in range(n)) for i in range(d)]
        c = [sum(adj[i][j] * w[j] for j in range(d)) for i in range(d)]
        if all(ci >= 0 for ci in c) and sum(c) == level and all(
            sum(vmat[i][j] * c[j] for j in range(d)) == det_g * x[i] for i in range(n)
        ):
            count += 1
    return count


def test_backend_name_is_pure():
    assert kernels.backend_name() == "pure"
    sx = simplex_from_cols([(1, 0), (1, 2)])
    assert dilate_count(sx, 3) == 7


def test_big_integers_count_exactly():
    # Entries near 2**40 put every intermediate far past 64 bits; the
    # count must still be exact.
    big = 2**40
    sx = simplex_from_cols([(big, 0), (big, 2)])
    assert dilate_count(sx, 3) == 7


def test_kernels_known_values():
    # The k-th dilate of the segment from (1,0) to (1,2) holds 2k+1 points.
    assert kernels.count_in_dilate(*_dilate_args([(1, 0), (1, 2)], 4)) == 9
    cols_mod = [[1, 0], [1, 0]]  # the columns (1,0) and (1,2) reduced mod 2
    assert kernels.box_solutions(cols_mod, 2) == [(0, 0), (1, 1)]


def test_box_solutions_without_columns():
    # The empty product has the one solution t = ().
    assert kernels.box_solutions([], 1) == [()]
    assert kernels.box_solutions([], 5) == [()]


@st.composite
def _box_inputs(draw):
    k, n, r = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-10, 10), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=k, max_size=k)), r


@st.composite
def _dilate_inputs(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, n))
    verts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=d, max_size=d))
    widen = draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n))
    return verts, draw(st.integers(0, 3)), widen


@settings(max_examples=200, deadline=None)
@given(_box_inputs())
@example(([[-3, 4]], 1))  # r = 1, k = 1
@example(([[-3, 4], [5, -1], [0, 7]], 6))
def test_box_solutions_match_reference(inputs):
    cols, r = inputs
    cols_mod = [[e % r for e in col] for col in cols]
    assert kernels.box_solutions(cols_mod, r) == _box_solutions_reference(cols, r)


@settings(max_examples=200, deadline=None)
@given(_dilate_inputs())
@example(([(1, 0), (1, 2)], 0, [0, 0, 0, 0]))  # dilate 0
@example(([(2, -1, 0)], 3, [1, 0, 0, 1, 1, 0]))  # d < n
@example(([(-1, -1, 3), (1, 0, 0)], 2, [1, 1, 1, 1, 1, 1]))
def test_count_in_dilate_matches_reference(inputs):
    verts, k, widen = inputs
    lo, hi, *rest = _dilate_args(verts, k)
    assume(rest[2] > 0)  # independent vertices: positive Gram determinant
    # Widen the box by up to one step on each side: the scan must reject
    # the extra points itself.
    n = len(lo)
    lo = [a - w for a, w in zip(lo, widen[:n])]
    hi = [b + w for b, w in zip(hi, widen[n:])]
    args = (lo, hi, *rest)
    assert kernels.count_in_dilate(*args) == _count_in_dilate_reference(*args)


def test_box_by_exhaustion_on_order_100_vertex():
    # The vertex where facets 0, 1 and 3 meet has a local group of order
    # 100; the exhaustive search tries 10^4 + 100 digit vectors, not 10^6.
    model = make_model(
        3,
        4,
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 100)],
        name="order-100-tetrahedron",
    )
    vertex = face_by_indices(model, (0, 1, 3))
    cols = [model.char_vectors[i] for i in vertex.facet_set]
    exhaustive = box_by_exhaustion(cols, model.n)
    assert len(exhaustive) == 100
    assert exhaustive == box_of_columns(cols, model.n)
