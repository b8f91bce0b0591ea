"""The enumeration kernels on known values, including inputs far beyond
64-bit range, which the big-integer arithmetic must count exactly, and
against direct test-local references on small random inputs: the dilate
count against membership tests at every point of the bounding box, and
the fiber scan against testing the points of each line one at a time."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorb import RankDeficientError, kernels, make_model
from qtorb.ehrhart import _DilatePlan
from qtorb.intlat import mat_from_cols, transpose
from qtorb.sectors import box_by_exhaustion, box_of_columns
from tests.conftest import face_by_indices
from tests.test_ehrhart import dilate_count, simplex_from_cols

BIG = 2**40


def _leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def _cofactor_adjugate(m):
    """The transposed matrix of cofactors, each a ``_leibniz_det``; the
    reference shares no code with the elimination in qtorb.intlat."""
    n = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j) * _leibniz_det([row[:j] + row[j + 1 :] for r, row in enumerate(m) if r != i])
            for i in range(n)
        )
        for j in range(n)
    )


def _dilate_args(cols, k):
    """The reference's inputs: the dilate's bounding box, and the Gram
    matrix's adjugate and determinant, which give the barycentric
    coordinates of any point of the span."""
    verts = [tuple(c) for c in cols]
    n = len(verts[0])
    lo = [min(k * v[i] for v in verts) for i in range(n)]
    hi = [max(k * v[i] for v in verts) for i in range(n)]
    vmat = mat_from_cols(verts)
    vt = transpose(vmat)
    gram = tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in verts) for row in verts
    )
    det_g = _leibniz_det(gram)
    adj = _cofactor_adjugate(gram)
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
    # The fiber of the k-th dilate of the segment from (1,0) to (1,2):
    # t = x_1 runs over [0, 2k], x_0 = y[0] / 2 is solved from the level
    # condition, 4c = (4k - 2t, 2t), and there are no other coordinates.
    k = 4
    fiber = ([0], [2 * k], [2 * k, 4 * k, 0], [[0, -2, 2]])
    assert kernels.count_in_dilate(*fiber, (2 * k, 2 * k), 2, [], 4) == 2 * k + 1
    # Bounds that leave out the solved coordinate reject every point.  An
    # other coordinate with the row (1, 0) is (16 - 2t) / 4, an integer
    # for even t only.
    assert kernels.count_in_dilate(*fiber, (0, 2 * k - 2), 2, [], 4) == 0
    assert kernels.count_in_dilate(*fiber, (2 * k, 2 * k), 2, [(1, 0)], 4) == k + 1
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
def _simplex_inputs(draw):
    """Vertices and a dilation factor whose dilate's bounding box the
    reference can scan: small spans, each coordinate possibly shifted
    by 2^40."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
    small = 3 if n < 4 else 2
    entry = st.integers(-small, small)
    verts = draw(st.lists(st.tuples(*[entry] * n), min_size=d, max_size=d))
    shift = draw(st.lists(st.sampled_from([0, 0, 0, BIG, -BIG]), min_size=n, max_size=n))
    verts = [tuple(a + b for a, b in zip(v, shift)) for v in verts]
    return verts, draw(st.integers(0, 3 if n < 4 else 2))


@settings(max_examples=200, deadline=None)
@given(_box_inputs())
@example(([[-3, 4]], 1))  # r = 1, k = 1
@example(([[-3, 4], [5, -1], [0, 7]], 6))
def test_box_solutions_match_reference(inputs):
    cols, r = inputs
    cols_mod = [[e % r for e in col] for col in cols]
    assert kernels.box_solutions(cols_mod, r) == _box_solutions_reference(cols, r)


# Pinned dilates, each a case the plan must get right.  The first one
# counts wrongly without the integrality test on the other coordinates.
# Those marked det M < 0 count wrongly when the sign of det M is dropped
# from the test c >= 0, and a flipped sign empties every dilate with
# k > 0.  Skipping the range test on the solved coordinate changes no
# count: c >= 0 with sum(c) = k puts every coordinate in the dilate's
# range already.  That test is a cheap filter, checked on the kernel in
# test_kernels_known_values.
OTHER_COORDINATE = ([(-2, 0, 2), (0, 2, -1)], 1)  # d < n, det M < 0
NEGATIVE_POINT = ([(-1,)], 1)  # d = 1, det M < 0
SEGMENT = ([(1, 0), (1, 2)], 4)  # det M < 0
SINGULAR_LEADING_MINOR = ([(1, 1, 0), (1, 1, 3)], 2)
ZERO_DILATE = ([(1, 0, 0), (0, 1, 0), (-1, -1, 3)], 0)
NEAR_2_40 = ([(BIG + 1, -BIG), (BIG, 2 - BIG)], 3)


def _minor_det(verts):
    """det M of the rows the plan chose, the scanned ones then the solved one."""
    plan = _DilatePlan(verts)
    vmat = mat_from_cols(verts)
    return _leibniz_det([*(vmat[i] for i in plan.free), vmat[plan.solved]])


def test_pinned_dilates_reach_their_cases():
    verts, _ = OTHER_COORDINATE
    assert len(verts) < len(verts[0]) and _minor_det(verts) < 0
    assert _minor_det(NEGATIVE_POINT[0]) < 0 and len(NEGATIVE_POINT[0]) == 1
    assert _minor_det(SEGMENT[0]) < 0
    verts, _ = SINGULAR_LEADING_MINOR
    assert _leibniz_det(mat_from_cols(verts)[: len(verts)]) == 0
    assert ZERO_DILATE[1] == 0
    assert min(abs(e) for v in NEAR_2_40[0] for e in v) >= BIG - 2


@settings(max_examples=200, deadline=None)
@given(_simplex_inputs())
@example(OTHER_COORDINATE)
@example(NEGATIVE_POINT)
@example(SEGMENT)
@example(SINGULAR_LEADING_MINOR)
@example(ZERO_DILATE)
@example(NEAR_2_40)
def test_dilate_count_matches_reference(inputs):
    """The fiber scan against the membership tests evaluated from scratch
    at every point of the dilate's n-dimensional bounding box."""
    verts, k = inputs
    args = _dilate_args(verts, k)
    sx = simplex_from_cols(verts)
    if args[4] == 0:  # dependent vertices: zero Gram determinant
        with pytest.raises(RankDeficientError):
            dilate_count(sx, k)
    else:
        assert dilate_count(sx, k) == _count_in_dilate_reference(*args)


def _count_in_dilate_by_points(lo, hi, start, steps, bounds, q, others, m):
    """The kernel's fiber scan one point at a time: the same odometer over
    t_1, t_2, ..., with every point of each line of t_0 tested."""
    n = len(lo)
    low, high = bounds
    head = steps[0] if n else [0] * len(start)
    width = hi[0] - lo[0] + 1 if n else 1
    s0, tail = head[0], head[1:]
    y = list(start)
    t = list(lo)
    count = 0
    while True:
        y0 = y[0]
        for j in range(width):
            v = y0 + j * s0
            if low <= v <= high and v % q == 0:
                c = [a + j * b for a, b in zip(y[1:], tail)]
                if all(ci >= 0 for ci in c) and all(
                    sum(a * b for a, b in zip(row, c)) % m == 0 for row in others
                ):
                    count += 1
        i = 1
        while i < n and t[i] == hi[i]:
            span = hi[i] - lo[i]
            t[i] = lo[i]
            y = [a - span * b for a, b in zip(y, steps[i])]
            i += 1
        if i >= n:
            break
        t[i] += 1
        y = [a + b for a, b in zip(y, steps[i])]
    return count


def _line_starts(lo, hi, start, steps):
    """The values y at j = 0 of every line of t_0, from scratch."""
    return [
        [a + sum((tj - l) * step[i] for tj, l, step in zip(t, lo[1:], steps[1:])) for i, a in enumerate(start)]
        for t in itertools.product(*(range(a, b + 1) for a, b in zip(lo[1:], hi[1:])))
    ]


@st.composite
def _fiber_inputs(draw):
    """Raw kernel arguments on small boxes: any slopes, including zero and
    negative ones, q and m up to 6, bounds that may be empty, and zero to
    two rows of other coordinates."""
    n, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    lo = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    hi = [a + draw(st.integers(0, 4)) for a in lo]
    start = draw(st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1))
    step = st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1)
    steps = draw(st.lists(step, min_size=n, max_size=n))
    low = draw(st.integers(-30, 30))
    bounds = (low, low + draw(st.integers(-5, 40)))
    q, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    others = draw(st.lists(row, max_size=2))
    return lo, hi, start, steps, bounds, q, others, m


# Pinned fibers, each reaching a case of the interval count.
# A negative slope of y[0] sharing the factor 2 with q = 4, so that lines
# with odd y[0] have no solution, and one other coordinate that keeps
# some of the points that pass the other tests.
SHARED_FACTOR = ([0, 0], [6, 2], [3, 10, 2], [[-2, -1, 1], [1, 0, 2]], (-20, 20), 4, [[1, 2]], 3)
# y[0] constant on each line; on the first line a coordinate is -1 with
# slope 0, so the line is empty.
FLAT_NEGATIVE = ([0, 0], [3, 2], [0, -1, 5], [[0, 0, -1], [2, 1, 0]], (0, 10), 2, [], 1)
# Bounds with low > high exclude every point.
EMPTY_BOUNDS = ([0], [5], [0, 3], [[1, 1]], (5, 4), 1, [], 1)
# No scanned coordinate: one line of one point.
NO_SCAN = ([], [], [2, 1], [], (0, 4), 2, [], 1)


def test_pinned_fibers_reach_their_cases():
    lo, hi, start, steps, bounds, q, others, m = SHARED_FACTOR
    g = math.gcd(steps[0][0], q)
    assert steps[0][0] < 0 and q > 1 and g > 1 and others
    assert any(y[0] % g for y in _line_starts(lo, hi, start, steps))
    assert 0 < _count_in_dilate_by_points(*SHARED_FACTOR) < _count_in_dilate_by_points(*SHARED_FACTOR[:6], [], m)
    lo, hi, start, steps, bounds, q, others, m = FLAT_NEGATIVE
    assert steps[0][0] == 0 and not others
    assert any(
        a < 0 and b == 0 for y in _line_starts(lo, hi, start, steps) for a, b in zip(y[1:], steps[0][1:])
    )
    assert _count_in_dilate_by_points(*FLAT_NEGATIVE) > 0
    low, high = EMPTY_BOUNDS[4]
    assert low > high
    assert _count_in_dilate_by_points(*NO_SCAN) == 1


@settings(max_examples=300, deadline=None)
@given(_fiber_inputs())
@example(SHARED_FACTOR)
@example(FLAT_NEGATIVE)
@example(EMPTY_BOUNDS)
@example(NO_SCAN)
def test_count_in_dilate_matches_point_scan(fiber):
    """The interval count of each line against testing its points one at
    a time, on raw fiber arguments."""
    assert kernels.count_in_dilate(*fiber) == _count_in_dilate_by_points(*fiber)


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
