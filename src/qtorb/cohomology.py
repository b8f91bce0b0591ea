"""Poincare polynomials of the orbifold and its Chen-Ruan cohomology.

Everything is assembled in the variable s, which stands for the square
of the grading variable (all groups in sight live in even degrees).
The Chen-Ruan polynomial is computed along three independent routes:

* direct: one age-shifted h-polynomial summand per sector,
* closures: ordinary polynomials of face closures weighted by the
  interior age polynomials,
* strata: torus polynomials of open strata weighted by the full age
  polynomials.

Agreement of the three, together with the per-face age-partition and
torus-stratification identities, the orbifold Euler number, Chen-Ruan
Poincare duality and Dehn-Sommerville for PP, is what the verdict
commands certify.  These checks of a :class:`CrReport` live with every
other check in the registry of :mod:`qtorb.blowup`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .exact import Poly
from .model import Face
from .sectors import LocalGroupTable


def e_torus(k: int) -> Poly:
    """E-polynomial of the k-dimensional complex torus: (s - 1)^k, whose
    coefficient of s^i is C(k, i) (-1)^(k-i)."""
    if k < 0:
        raise ValueError(f"torus dimension must be nonnegative, got {k}")
    return Poly._of_ints([math.comb(k, i) * (-1) ** (k - i) for i in range(k + 1)])


def _sum(polys) -> Poly:
    """Sum of polynomials, adding coefficient lists in one pass."""
    total: list[int] = []
    for p in polys:
        coeffs = p.coeffs
        if len(coeffs) > len(total):
            total.extend([0] * (len(coeffs) - len(total)))
        for i, c in enumerate(coeffs):
            total[i] += c
    return Poly._of_ints(total)


def pp_cr_direct(table: LocalGroupTable) -> Poly:
    """Chen-Ruan polynomial from the sector decomposition: each interior
    box element g of each face contributes s^age(g) times the face's
    ordinary polynomial, added into one coefficient list.  The ages are
    read from the coefficient sums (:meth:`LocalGroup.interior_ages`),
    one divmod per sector."""
    table.ensure_quasi_sl()
    total: list[int] = []
    h_vectors = table.sector_h_vectors
    for facet_set, group in table.sector_groups.items():
        h = h_vectors[facet_set]
        for age in group.interior_ages():
            if age + len(h) > len(total):
                total.extend([0] * (age + len(h) - len(total)))
            for j, c in enumerate(h, age):
                total[j] += c
    return Poly._of_ints(total)


def pp_cr_via_closures(table: LocalGroupTable) -> Poly:
    """Chen-Ruan polynomial regrouped by face closures: ordinary
    polynomial of each face times its interior age polynomial, which is
    zero for a face without interior elements, so only the faces that
    carry sectors are summed."""
    table.ensure_quasi_sl()
    return _sum(
        Poly._of_ints(list(table.sector_h_vectors[facet_set])) * group.interior_age_polynomial
        for facet_set, group in table.sector_groups.items()
    )


def pp_cr_via_strata(table: LocalGroupTable) -> Poly:
    """Chen-Ruan polynomial summed over open torus strata: torus
    E-polynomial of each stratum times the full age polynomial.  Strata
    of one dimension and one age polynomial share their term, which is
    built once and taken as often as they occur."""
    table.ensure_quasi_sl()
    terms = Counter((group.face.dim, group.age_polynomial) for group in table.groups)
    return _sum(count * (e_torus(dim) * ages) for (dim, ages), count in terms.items())


def check_age_partition(table: LocalGroupTable) -> list[tuple[Face, bool]]:
    """Per-face check that the full age polynomial equals the sum of the
    interior age polynomials over all faces containing it (the box of a
    face is partitioned by the interiors of its superfaces).  The sum
    reads ``table.sector_groups_containing``: a face without interior
    elements adds zero.  Most faces share their list of containing
    sector groups, so each distinct list, keyed by the identity of its
    pieces, is summed once."""
    out = []
    sums: dict[tuple[int, ...], Poly] = {}
    for group in table.groups:
        pieces = table.sector_groups_containing(group.face)
        key = tuple(map(id, pieces))
        rhs = sums.get(key)
        if rhs is None:
            rhs = sums[key] = _sum(other.interior_age_polynomial for other in pieces)
        out.append((group.face, group.age_polynomial == rhs))
    return out


def check_torus_stratification(groups: LocalGroupTable) -> tuple[Poly, Poly]:
    """The ordinary Poincare polynomial must equal the sum of torus
    E-polynomials over all faces; returns the two sides (lhs, rhs).  The
    polytope's h-vector and the faces are read from ``groups``, the
    model's table.  Each dimension's torus polynomial is built once and
    taken as often as faces of that dimension occur."""
    lhs = Poly(groups.sector_h_vectors[()])
    dims = Counter(group.face.dim for group in groups.groups)
    rhs = _sum(count * e_torus(dim) for dim, count in dims.items())
    return lhs, rhs


@dataclass(frozen=True)
class CrReport:
    """The polynomials computed for one model, with the local-group table
    they were computed from: the ordinary polynomial ``pp``, the three
    Chen-Ruan routes, the sum of torus E-polynomials over the faces and
    the per-face age partitions.  Every verdict is derived from them."""

    pp: Poly
    pp_cr_direct: Poly
    pp_cr_closures: Poly
    pp_cr_strata: Poly
    torus_strata: Poly
    morestrat: tuple[tuple[Face, bool], ...]
    groups: LocalGroupTable = field(compare=False, repr=False)

    @property
    def routes_agree(self) -> bool:
        return self.pp_cr_direct == self.pp_cr_closures == self.pp_cr_strata

    @property
    def pp_cr(self) -> Poly:
        return self.pp_cr_direct

    @property
    def identity_sides(self) -> tuple[tuple[str, Poly, Poly], ...]:
        """(name, lhs, rhs) of each named identity, in the order their
        failures are reported: ``pp`` equals the torus-strata sum, and
        the direct route equals the strata route and the closures route.
        The routes agree exactly when the last two hold."""
        return (
            ("h_identity", self.pp, self.torus_strata),
            ("newpon", self.pp_cr_direct, self.pp_cr_strata),
            ("closures", self.pp_cr_direct, self.pp_cr_closures),
        )


def cr_report(table: LocalGroupTable) -> CrReport:
    """Full report on the table's model: the ordinary polynomial and its
    torus-strata sum (:func:`check_torus_stratification`), the three
    routes and the age partitions, all read from the one table."""
    # The routes come first: they refuse a table that is not quasi-SL.
    routes = pp_cr_direct(table), pp_cr_via_closures(table), pp_cr_via_strata(table)
    pp, torus_strata = check_torus_stratification(table)
    return CrReport(pp, *routes, torus_strata, tuple(check_age_partition(table)), table)
