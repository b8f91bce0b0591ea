"""The enumeration kernels on known values, including inputs far beyond
64-bit range, which the big-integer arithmetic must count exactly."""

from qtorb import kernels
from qtorb.ehrhart import dilate_count
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
