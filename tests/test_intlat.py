import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtorb.intlat import (
    RankDeficientError,
    adjugate,
    as_mat,
    det,
    is_primitive,
    lattice_index,
    mat_from_cols,
    triangular_form,
)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def smith_invariants(m):
    """Nonzero diagonal of the Smith normal form, in divisibility order,
    from the determinantal divisors: the product of the first i invariant
    factors is the gcd of the i x i minors."""
    divisors = [1]
    for i in range(1, min(len(m), len(m[0]) if m else 0) + 1):
        g = 0
        for rows in itertools.combinations(m, i):
            for cols in itertools.combinations(range(len(m[0])), i):
                g = math.gcd(g, det(tuple(tuple(row[c] for c in cols) for row in rows)))
        if g == 0:
            break
        divisors.append(g)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


def naive_det(m):
    """Cofactor-expansion determinant; the independent oracle for det."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def fraction_det(rows):
    """Determinant of a square matrix of rationals by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= factor * a[c][j]
    return result


small_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(as_mat)
)
small_rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(as_mat)
)


def test_is_primitive():
    assert is_primitive((1, 0, 0))
    assert not is_primitive((2, 4))
    assert is_primitive((-1, -2))
    with pytest.raises(ValueError):
        is_primitive((0, 0))


def test_det_examples():
    assert det(identity(3)) == 1
    assert det(mat_from_cols([(1, 0), (1, 2)])) == 2
    cols = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]
    assert naive_det(mat_from_cols(cols)) == 3
    assert det(mat_from_cols(cols)) == 3


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(as_mat([[1, 2, 3], [4, 5, 6]]))


@given(small_square)
def test_det_matches_cofactor_oracle(m):
    assert det(m) == naive_det(m)


@given(small_square, small_square)
@settings(max_examples=60)
def test_det_multiplicative(a, b):
    if len(a) != len(b):
        return
    assert det(mat_mul(a, b)) == det(a) * det(b)


def test_fraction_det_reference():
    rows = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    assert fraction_det(rows) == Fraction(1, 6)


def test_adjugate_identity():
    m = mat_from_cols([(2, 1), (1, 1)])
    adj = adjugate(m)
    assert mat_mul(adj, m) == tuple(
        tuple(det(m) if i == j else 0 for j in range(2)) for i in range(2)
    )


def cofactor_adjugate(m):
    """The transposed matrix of cofactors, each a ``naive_det``: the
    independent oracle for adjugate."""
    n = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j) * naive_det(tuple(row[:j] + row[j + 1 :] for r, row in enumerate(m) if r != i))
            for i in range(n)
        )
        for j in range(n)
    )


@given(small_square, st.booleans())
@settings(max_examples=300)
def test_adjugate_matches_cofactor_oracle(m, big):
    """Nonsingular matrices, also with entries beyond 64 bits, get the
    cofactor adjugate; singular ones raise."""
    if big:
        m = tuple(tuple(x * 2**40 + (i == j) for j, x in enumerate(row)) for i, row in enumerate(m))
    if naive_det(m) == 0:
        with pytest.raises(RankDeficientError):
            adjugate(m)
    else:
        assert adjugate(m) == cofactor_adjugate(m)


@pytest.mark.parametrize(
    "m",
    [
        ((0, 1), (1, 0)),  # one row swap
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),  # two row swaps
        ((0, 2, 1), (3, 0, 0), (1, 1, 5)),  # zero leading entry
        ((2, 4), (1, 3)),
        ((7,),),
        ((-3,),),
    ],
)
def test_adjugate_with_row_swaps(m):
    assert adjugate(m) == cofactor_adjugate(m)
    assert mat_mul(adjugate(m), m) == tuple(tuple(det(m) * x for x in row) for row in identity(len(m)))


@pytest.mark.parametrize("m", [((0,),), ((1, 2), (2, 4)), ((1, 0, 0), (0, 1, 0), (1, 1, 0))])
def test_adjugate_of_a_singular_matrix_raises(m):
    with pytest.raises(RankDeficientError):
        adjugate(m)


def test_adjugate_edge_shapes():
    assert adjugate(()) == ()
    with pytest.raises(ValueError, match="square"):
        adjugate(((1, 2),))


def test_triangular_form_identity():
    """A lattice basis has Smith invariants 1 and is its own triangular
    form."""
    assert smith_invariants(identity(3)) == (1, 1, 1)
    assert triangular_form(identity(3)) == identity(3)


def test_triangular_form_hand_example():
    m = as_mat([[1, 1], [0, 2]])
    assert smith_invariants(m) == (1, 2)
    assert triangular_form(m) == m
    assert triangular_form(as_mat([[0, 2], [1, 1]])) == m
    assert triangular_form(as_mat([[-2, -4], [0, 3]])) == as_mat([[2, 4], [0, 3]])


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[2, 0, 0], [0, 3]]])
def test_triangular_form_rejects_ragged_matrix(rows):
    with pytest.raises(ValueError, match="ragged matrix"):
        triangular_form(rows)


def test_triangular_form_of_lists_equals_triangular_form_of_tuples():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    result = triangular_form(rows)
    assert result == triangular_form(as_mat(rows))
    assert type(result) is tuple and all(type(r) is tuple for r in result)


def test_triangular_form_zero_matrix():
    zero = as_mat([[0, 0], [0, 0]])
    assert smith_invariants(zero) == ()
    with pytest.raises(RankDeficientError):
        triangular_form(zero)


@given(small_rect)
@settings(max_examples=150)
def test_triangular_form_properties(m):
    """For independent columns, the triangular form has a positive
    diagonal whose product is the product of the Smith invariants, and
    the unimodular row operations keep every Smith invariant.  Dependent
    columns raise."""
    invariants = smith_invariants(m)
    if len(invariants) < len(m[0]):
        with pytest.raises(RankDeficientError):
            triangular_form(m)
        return
    h = triangular_form(m)
    assert len(h) == len(m[0]) and all(len(row) == len(h) for row in h)
    assert all(h[i][j] == 0 for i in range(len(h)) for j in range(i))
    assert all(h[i][i] > 0 for i in range(len(h)))
    assert math.prod(h[i][i] for i in range(len(h))) == math.prod(invariants)
    assert smith_invariants(h) == invariants


def test_triangular_form_deterministic(rng):
    for _ in range(20):
        m = as_mat(
            [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        )
        if det(m):
            assert triangular_form(m) == triangular_form(m)


def min_pivot_triangular_form(m):
    """``triangular_form`` as first written, with the pivot found by a
    ``min()`` over the nonzero rows keyed by |entry| and every row below
    updated: the reference whose H the library's must equal entry for
    entry, ties and raised errors included."""
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    for c in range(ncols):
        alone = False
        while not alone:
            pivot = min(
                (r for r in range(c, nrows) if a[r][c]), key=lambda r: abs(a[r][c]), default=None
            )
            if pivot is None:
                raise RankDeficientError("columns are not linearly independent")
            a[c], a[pivot] = a[pivot], a[c]
            top = a[c]
            alone = True
            for r in range(c + 1, nrows):
                q = a[r][c] // top[c]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], top)]
                alone = alone and not a[r][c]
        if a[c][c] < 0:
            a[c] = [-x for x in a[c]]
    return tuple(map(tuple, a[:ncols]))


def _outcome(form, rows):
    """The H that ``form`` returns, or the type and text of its error."""
    try:
        return form(rows)
    except ValueError as exc:
        return type(exc), str(exc)


# Rows of one to four columns with small entries, so that rows of equal
# |entry| in a column are common; up to seven rows, so most are tall.
_rows = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), max_size=7)
)
# Every row twice, once negated, in any order: each column's pivot search
# meets a tie of equal |entry| between a row and its negation.
_tied_rows = _rows.flatmap(lambda rows: st.permutations(rows + [[-x for x in row] for row in rows]))
_ragged_rows = st.lists(st.lists(st.integers(-4, 4), max_size=4), min_size=2, max_size=4)


@given(_rows | _tied_rows | _ragged_rows)
@settings(max_examples=400)
@example([[2, 1], [-2, 3], [2, 5]])  # three rows tie at |2|: the first is the pivot
@example([[0, 1], [-3, 2], [3, 0], [1, 1]])  # tall, and the pivot's row moves up
@example([[-3, 1], [0, -2]])  # both diagonal entries flip their sign
@example([[1, 2], [2, 4], [3, 6]])  # dependent columns
@example([[1, 2, 3], [4, 5, 6]])  # more columns than rows
@example([[1, 2], [3]])  # ragged
@example([])
def test_triangular_form_equals_the_min_pivot_reference(rows):
    """The library's pivot loop, which skips zero entries and updates
    only the rows with a nonzero quotient, returns exactly the H of the
    ``min()`` reference, or raises the same error with the same text."""
    assert _outcome(triangular_form, rows) == _outcome(min_pivot_triangular_form, rows)


def test_saturation_index_one_pair():
    # gcd of the 2x2 minors of these columns is 1, so they already
    # generate a saturated lattice: every Smith invariant is 1, and so is
    # every diagonal entry of the triangular form.
    cols = [(1, 0, 0), (-1, -1, 3)]
    assert lattice_index(cols) == 1
    assert smith_invariants(mat_from_cols(cols)) == (1, 1)
    h = triangular_form(mat_from_cols(cols))
    assert (h[0][0], h[1][1]) == (1, 1)


def test_saturation_full_rank_index_three():
    # The saturation of a full-rank sublattice is the whole lattice, so
    # the index is |det|.
    cols = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]
    assert lattice_index(cols) == 3 == abs(det(mat_from_cols(cols)))
    assert smith_invariants(mat_from_cols(cols)) == (1, 1, 3)
    assert triangular_form(mat_from_cols(cols)) == mat_from_cols(cols)


def test_saturation_stops_at_gcd_one(monkeypatch):
    """Once the minors' gcd is 1 the index is known, and no further minor
    is computed; an index above 1 still reads every minor."""
    import qtorb.intlat as intlat_mod

    minors = []
    monkeypatch.setattr(intlat_mod, "det", lambda m: minors.append(m) or det(m))
    assert lattice_index([(1, 0, 0), (0, 1, 0)]) == 1
    assert len(minors) == 1
    minors.clear()
    assert lattice_index([(1, 0, 0), (1, 3, 0)]) == 3
    assert len(minors) == 3


def test_saturation_rejects_dependent_columns():
    with pytest.raises(RankDeficientError):
        lattice_index([(1, 2), (2, 4)])


@given(st.data())
@settings(max_examples=60)
def test_saturation_contract(data):
    """The index of the column lattice inside its saturation, from the
    gcd of the maximal minors, is the product of the Smith invariants and
    the product of the triangular form's diagonal."""
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, n))
    cols = [
        tuple(data.draw(st.integers(-6, 6)) for _ in range(n)) for _ in range(k)
    ]
    try:
        index = lattice_index(cols)
    except RankDeficientError:
        return
    invariants = smith_invariants(mat_from_cols(cols))
    assert len(invariants) == k
    product = 1
    for f in invariants:
        product *= f
    assert product == index
    h = triangular_form(mat_from_cols(cols))
    assert math.prod(h[i][i] for i in range(k)) == index
    if k == n:
        assert abs(fraction_det(mat_from_cols(cols))) == index

