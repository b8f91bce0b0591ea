"""The two enumeration kernels behind the oracles.

Both run on Python big integers, so they are exact for inputs of any
magnitude.  They stay independent of the Smith-form machinery in
:mod:`qtorb.sectors`: ``count_in_dilate`` backs the brute-force dilate
count and ``box_solutions`` the exhaustive box search.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the kernel implementation, as reported by ``qtorb fuzz``."""
    return "pure"


def count_in_dilate(lo, hi, vt, adj, det_g, level, vmat) -> int:
    """Count integer points x with lo <= x <= hi, componentwise, whose
    coordinates c = adj @ (vt @ x) satisfy c >= 0, sum(c) == level and
    vmat @ c == det_g * x (membership in the dilated simplex)."""
    n = len(lo)
    d = len(vt)
    count = 0
    x = list(lo)
    while True:
        w = [sum(vt[i][j] * x[j] for j in range(n)) for i in range(d)]
        c = [sum(adj[i][j] * w[j] for j in range(d)) for i in range(d)]
        if all(ci >= 0 for ci in c) and sum(c) == level:
            if all(
                sum(vmat[i][j] * c[j] for j in range(d)) == det_g * x[i]
                for i in range(n)
            ):
                count += 1
        i = 0
        while i < n and x[i] == hi[i]:
            x[i] = lo[i]
            i += 1
        if i == n:
            break
        x[i] += 1
    return count


def box_solutions(cols_mod, r: int) -> list[tuple[int, ...]]:
    """Sorted list of t in [0, r)^k with sum_j t_j * cols_mod[j] == 0 (mod r).

    cols_mod holds the k column vectors already reduced mod r.  The
    odometer keeps the running sum reduced mod r: rolling a digit from
    r-1 back to 0 is congruent to adding the column once more.
    """
    k = len(cols_mod)
    n = len(cols_mod[0]) if k else 0
    t = [0] * k
    total = [0] * n
    sols = [tuple(t)]
    while True:
        i = 0
        while i < k and t[i] == r - 1:
            t[i] = 0
            col = cols_mod[i]
            for j in range(n):
                total[j] = (total[j] + col[j]) % r
            i += 1
        if i == k:
            break
        t[i] += 1
        col = cols_mod[i]
        for j in range(n):
            total[j] = (total[j] + col[j]) % r
        if all(e == 0 for e in total):
            sols.append(tuple(t))
    return sorted(sols)
