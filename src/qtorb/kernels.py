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
    vmat @ c == det_g * x (membership in the dilated simplex).

    c is linear in x, so the odometer over the box keeps c and sum(c) as
    running values: moving x_j by one adds column j of adj @ vt.  Each
    point costs O(d) for d = len(vt); the cheap test sum(c) == level runs
    first, and the other two only on the points that pass it.
    """
    n = len(lo)
    d = len(vt)
    steps = [[sum(adj[a][b] * vt[b][j] for b in range(d)) for a in range(d)] for j in range(n)]
    step_sums = [sum(step) for step in steps]
    c = [sum(steps[j][a] * lo[j] for j in range(n)) for a in range(d)]
    total = sum(c)
    count = 0
    x = list(lo)
    while True:
        if (
            total == level
            and all(ci >= 0 for ci in c)
            and all(
                sum(vmat[i][j] * c[j] for j in range(d)) == det_g * x[i]
                for i in range(n)
            )
        ):
            count += 1
        i = 0
        while i < n and x[i] == hi[i]:
            span = hi[i] - lo[i]
            x[i] = lo[i]
            step = steps[i]
            for a in range(d):
                c[a] -= span * step[a]
            total -= span * step_sums[i]
            i += 1
        if i == n:
            break
        x[i] += 1
        step = steps[i]
        for a in range(d):
            c[a] += step[a]
        total += step_sums[i]
    return count


def box_solutions(cols_mod, r: int) -> list[tuple[int, ...]]:
    """Sorted list of t in [0, r)^k with sum_j t_j * cols_mod[j] == 0 (mod r).

    cols_mod holds the k column vectors already reduced mod r.  An
    odometer runs over the first k-1 digits only, keeping minus their
    running sum mod r; the last digits that complete a solution are read
    from a table of the r multiples of the last column, keyed by residue
    vector.  That costs r^(k-1) + r steps instead of r^k.  The odometer
    turns its last digit fastest, so solutions come out sorted.
    """
    k = len(cols_mod)
    if k == 0:
        return [()]
    *head, last = cols_mod
    n = len(last)
    last_digits: dict[tuple[int, ...], list[int]] = {}
    for s in range(r):
        last_digits.setdefault(tuple(s * e % r for e in last), []).append(s)
    t = [0] * (k - 1)
    need = [0] * n
    sols = []
    while True:
        for s in last_digits.get(tuple(need), ()):
            sols.append((*t, s))
        i = k - 2
        while i >= 0 and t[i] == r - 1:
            # Rolling a digit from r-1 back to 0 is congruent to adding
            # its column once more.
            t[i] = 0
            col = head[i]
            for j in range(n):
                need[j] = (need[j] - col[j]) % r
            i -= 1
        if i < 0:
            break
        t[i] += 1
        col = head[i]
        for j in range(n):
            need[j] = (need[j] - col[j]) % r
    return sols
