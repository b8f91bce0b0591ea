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
torus-stratification identities, the orbifold Euler number and
Chen-Ruan Poincare duality, is what the verdict commands certify:
:data:`REPORT_CHECKS` lists the checks a :class:`CrReport` must pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

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
    ordinary polynomial, added into one coefficient list."""
    table.ensure_quasi_sl()
    total: list[int] = []
    for facet_set, group in table.sector_groups.items():
        h = table.sector_h_vectors[facet_set]
        for i in group.interior:
            age = group.age(i)
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
    sector groups, so each distinct list is summed once."""
    out = []
    sums: dict[tuple[tuple[int, ...], ...], Poly] = {}
    for group in table.groups:
        pieces = table.sector_groups_containing(group.face)
        key = tuple(other.face.facet_set for other in pieces)
        rhs = sums.get(key)
        if rhs is None:
            rhs = sums[key] = _sum(other.interior_age_polynomial for other in pieces)
        out.append((group.face, group.age_polynomial == rhs))
    return out


def check_torus_stratification(groups: LocalGroupTable) -> tuple[bool, Poly, Poly]:
    """The ordinary Poincare polynomial must equal the sum of torus
    E-polynomials over all faces; returns (passed, lhs, rhs).  The
    polytope's h-vector and the faces are read from ``groups``, the
    model's table.  Each dimension's torus polynomial is built once and
    taken as often as faces of that dimension occur."""
    lhs = Poly(groups.sector_h_vectors[()])
    dims = Counter(group.face.dim for group in groups.groups)
    rhs = _sum(count * e_torus(dim) for dim, count in dims.items())
    return lhs == rhs, lhs, rhs


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

    def failures(self) -> Iterator[str]:
        """The failure texts of every report check, in the order of
        :data:`REPORT_CHECKS`."""
        for check in REPORT_CHECKS:
            yield from check(self)

    @property
    def all_pass(self) -> bool:
        """True iff no report check fails."""
        return next(self.failures(), None) is None


def route_agreement(report: CrReport) -> Iterator[str]:
    """The three Chen-Ruan routes give one polynomial."""
    if not report.routes_agree:
        yield "the three Chen-Ruan routes disagree"


def named_identities(report: CrReport) -> Iterator[str]:
    """Each named identity of the report holds: its two sides in
    :attr:`CrReport.identity_sides` are equal."""
    for name, lhs, rhs in report.identity_sides:
        if lhs != rhs:
            yield f"identity {name} fails ({lhs} != {rhs})"


def age_partition(report: CrReport) -> Iterator[str]:
    """Each face's age polynomial is the sum of the interior age
    polynomials of the faces containing it (:func:`check_age_partition`)."""
    for face, ok in report.morestrat:
        if not ok:
            yield f"age partition fails at face {list(face.facet_set)}"


def orbifold_euler_number(report: CrReport) -> Iterator[str]:
    """The Chen-Ruan Betti numbers add up to the orbifold Euler number,
    PP_CR(1) = the sum of |det| over the vertices, as validation
    computed them: each vertex box has |det| elements and is partitioned
    by the interiors of the faces through the vertex, and a sector of a
    face adds one Betti number per vertex of the face."""
    total = sum(report.pp_cr.coeffs)
    euler = sum(map(abs, report.groups.model.vertex_dets))
    if total != euler:
        yield f"the Chen-Ruan Betti numbers sum to {total}, not the orbifold Euler number {euler}"


def poincare_duality(report: CrReport) -> Iterator[str]:
    """Chen-Ruan Poincare duality: PP_CR is palindromic of degree n.  The
    inverse of an interior element of age a at a face of codimension k
    is interior there too, of age k - a, and the face's h-vector is
    palindromic of degree n - k."""
    coeffs, n = report.pp_cr.coeffs, report.groups.model.n
    if len(coeffs) != n + 1 or coeffs != coeffs[::-1]:
        yield f"the Chen-Ruan polynomial {list(coeffs)} is not palindromic of degree {n}"


# The checks every Chen-Ruan report must pass, in the order their
# failures are reported.  Each takes a report and yields failure texts.
# The last two read only PP_CR, the vertex determinants and n, none of
# the routes' terms.
REPORT_CHECKS = (route_agreement, named_identities, age_partition, orbifold_euler_number, poincare_duality)


def cr_report(table: LocalGroupTable) -> CrReport:
    """Full report on the table's model: the ordinary polynomial and its
    torus-strata sum (:func:`check_torus_stratification`), the three
    routes and the age partitions, all read from the one table."""
    # The routes come first: they refuse a table that is not quasi-SL.
    routes = pp_cr_direct(table), pp_cr_via_closures(table), pp_cr_via_strata(table)
    _, pp, torus_strata = check_torus_stratification(table)
    return CrReport(pp, *routes, torus_strata, tuple(check_age_partition(table)), table)
