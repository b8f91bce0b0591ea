from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorb.intlat import (
    OutsideSpanError,
    RankDeficientError,
    adjugate,
    as_mat,
    coords_in_basis,
    det,
    is_primitive,
    lattice_index,
    mat_from_cols,
    smith_normal_form,
)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def smith_invariants(m):
    """Nonzero diagonal of the Smith normal form, in divisibility order."""
    _, d, _ = smith_normal_form(m)
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i])


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


def test_snf_identity():
    u, d, v = smith_normal_form(identity(3))
    assert d == identity(3)
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_hand_example():
    u, d, v = smith_normal_form(as_mat([[1, 1], [0, 2]]))
    assert (d[0][0], d[1][1]) == (1, 2)
    assert mat_mul(mat_mul(u, as_mat([[1, 1], [0, 2]])), v) == d


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[2, 0, 0], [0, 3]]])
def test_snf_rejects_ragged_matrix(rows):
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form(rows)


def test_snf_of_lists_equals_snf_of_tuples():
    rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    result = smith_normal_form(rows)
    assert result == smith_normal_form(as_mat(rows))
    assert all(type(m) is tuple and all(type(r) is tuple for r in m) for m in result)


def test_snf_zero_matrix():
    _, d, _ = smith_normal_form(as_mat([[0, 0], [0, 0]]))
    assert d == as_mat([[0, 0], [0, 0]])


@given(small_rect)
@settings(max_examples=150)
def test_snf_properties(m):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    limit = min(len(m), len(m[0]))
    diag = [d[i][i] for i in range(limit)]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_snf_deterministic(rng):
    for _ in range(20):
        m = as_mat(
            [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        )
        assert smith_normal_form(m) == smith_normal_form(m)


def test_saturation_index_one_pair():
    # gcd of the 2x2 minors of these columns is 1, so they already
    # generate a saturated lattice: every Smith invariant is 1.
    cols = [(1, 0, 0), (-1, -1, 3)]
    assert lattice_index(cols) == 1
    assert smith_invariants(mat_from_cols(cols)) == (1, 1)


def test_saturation_full_rank_index_three():
    # The saturation of a full-rank sublattice is the whole lattice, so
    # the index is |det|.
    cols = [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]
    assert lattice_index(cols) == 3 == abs(det(mat_from_cols(cols)))
    assert smith_invariants(mat_from_cols(cols)) == (1, 1, 3)


def test_saturation_rejects_dependent_columns():
    with pytest.raises(RankDeficientError):
        lattice_index([(1, 2), (2, 4)])


@given(st.data())
@settings(max_examples=60)
def test_saturation_contract(data):
    """The index of the column lattice inside its saturation, from the
    gcd of the maximal minors, is the product of the Smith invariants."""
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
    if k == n:
        assert abs(fraction_det(mat_from_cols(cols))) == index


def test_coords_in_basis():
    assert coords_in_basis(identity(2), (3, 5)) == (Fraction(3), Fraction(5))
    assert coords_in_basis(mat_from_cols([(1, 0), (1, 2)]), (1, 1)) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    with pytest.raises(OutsideSpanError):
        coords_in_basis(mat_from_cols([(1, 0)]), (0, 1))
    with pytest.raises(RankDeficientError):
        coords_in_basis(mat_from_cols([(1, 2), (2, 4)]), (1, 2))
