"""The two enumeration kernels behind the oracles.

Both run on Python big integers, so they are exact for inputs of any
magnitude.  They stay independent of the local-group construction in
:mod:`qtorb.sectors`: ``count_in_dilate`` backs the brute-force dilate
count and ``box_solutions`` the exhaustive box search.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the kernel implementation, as reported by ``qtorb fuzz``."""
    return "pure"


def count_in_dilate(lo, hi, start, steps, bounds, q, others, m) -> int:
    """Count integer points t with lo <= t <= hi, componentwise, at which
    the values y = start + sum_j (t_j - lo_j) * steps[j] pass three tests
    (membership in a dilated simplex, scanned on a fiber):

    - y[0] is a multiple of q inside bounds (the solved coordinate is an
      integer in its range);
    - y[1:] >= 0 (the barycentric coordinates, scaled by m, are
      nonnegative);
    - row . y[1:] is a multiple of m for every row of ``others`` (the
      remaining coordinates are integers).

    The values are affine in t.  An odometer over t_1, t_2, ... keeps y
    as running values, moving t_j by one adds steps[j]; along each line
    of t_0 only y[0] is tracked, and y[1:] is built at the points that
    pass the first test.  The cost is one step per point of the box, the
    product of the len(lo) coordinate ranges.
    """
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
