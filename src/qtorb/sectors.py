"""Local groups of faces, encoded as box elements.

The finite group attached to a face is the set of coefficient vectors c
with ``sum(c_j * lambda_j)`` in the lattice, modulo Z^k.  It is
enumerated from a triangular basis of the lattice spanned by the face's
characteristic vectors: coset representatives map to the unique
coefficient vector with entries in [0, 1).  Each element carries its
lattice point, its age (the coefficient sum), and its height (the number
of nonzero coefficients, which equals the rank of g - id on the tangent
representation).  :class:`LocalGroupTable` holds the group of every face
of a model, built once, on first use, for everything computed on it.  A
face's box elements are those of any vertex through it whose
coefficients vanish off the face, so a face is smooth, with the trivial
group, when some vertex through it has |det| = 1, read from the
determinants that validation computed.  The polytope and the facets are
trivial as well: a validated characteristic vector is primitive, so it
is part of a lattice basis.  The table computes a triangular basis only
for the faces of codimension at least 2 through no smooth vertex, and
back-substitutes only the columns of its adjugate whose diagonal entry
exceeds 1.

A model that is not quasi-SL is refused by naming the first element, in
sorted order, of fractional age at its first such vertex.  That element
is found by a descent through a triangular basis of the columns in
reverse order, which enumerates no element of the group.

A second, independent enumeration by exhaustive search over denominators
dividing the group order is provided for cross-checking.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import kernels
from .exact import Poly
from .intlat import IntMat, IntVec, lattice_index, triangular_form
from .model import Face, Model, faces, h_vector


_ONE = Poly._of_ints([1])
_ZERO = Poly._of_ints([])


class NonIntegralAgeError(ValueError):
    """A box element has a fractional age where an integer one is required."""

    def __init__(self, element: "BoxElement"):
        self.element = element
        where = ""
        if element.face is not None:
            where = f" at face {list(element.face.facet_set)}"
        coeffs = [str(c) for c in element.coeffs]
        super().__init__(
            f"non-integral age {element.age}{where} for coefficients {coeffs}"
        )


@dataclass(frozen=True)
class BoxElement:
    """One local-group element in its canonical box representation.

    ``point = sum(coeffs[j] * column_j)`` is integral, every coefficient
    lies in [0, 1), ``age`` is the coefficient sum and ``height`` the
    number of nonzero coefficients.
    """

    coeffs: tuple[Fraction, ...]
    point: IntVec
    age: Fraction
    height: int
    face: Face | None = None


def _inverse_columns(h: IntMat, order: int) -> list[tuple[int, list[int]]]:
    """(h_jj, column j) for every diagonal entry h_jj > 1, where the
    columns are those of ``order`` times the inverse of the
    upper-triangular h, whose determinant is ``order``: the adjugate of
    h, found by back substitution.  A column with h_jj = 1 is not
    computed: modulo Z^k it is a combination of the columns before it,
    so it adds no element.  Every division is exact, since the adjugate
    is integral."""
    k = len(h)
    columns = []
    for j in range(k):
        step = h[j][j]
        if step == 1:
            continue
        x = [0] * k
        x[j] = order // step
        for i in range(j - 1, -1, -1):
            x[i] = -sum(h[i][l] * x[l] for l in range(i + 1, j + 1)) // h[i][i]
        columns.append((step, x))
    return columns


class LocalGroup:
    """The local group of a cone over k independent lattice vectors.

    The group is the set of coefficient vectors c with ``A @ c`` integral,
    modulo Z^k, where A has the vectors as columns.  Integer row
    operations make ``U @ A`` an upper-triangular H over zero rows, with
    U unimodular, so ``A @ c`` is integral exactly when ``H @ c`` is, and
    the group is H^-1 Z^k / Z^k.  Its order is the product of the
    diagonal of H.  Generator i is column i of H^-1, and the elements are
    the sums of a_i times generator i with 0 <= a_i < h_ii, once each.
    Only the generators with h_ii > 1 are computed, since one with
    h_ii = 1 is stepped once, and a basis with a unit diagonal builds
    the trivial group.
    The exponent is the least common multiple of the generators' orders.
    Every element is stored as the integer numerators of its box
    coefficients over the exponent, so enumeration, points and ages stay
    in integer arithmetic; ``Fraction`` appears only when a
    :class:`BoxElement` is built.

    Whether every age is an integer is read off the generators alone:
    age mod 1 is a homomorphism to Q/Z, so every age is an integer when
    every generator's is.  When one is not, :meth:`first_fractional_age`
    names the first element of fractional age by a descent through a
    second triangular basis, without enumerating any element, so a
    refusal costs the same at any order.  The elements, their
    coefficient sums, interior elements and age polynomials are computed
    on first use, all elements at once, and then kept; each element's
    coefficients are summed once, for its age wherever that is read.  A
    trivial group is given its one element's data when it is built.
    Points are not kept: :meth:`point` computes element i's when it is
    asked for, and :meth:`box_element` reads it there; :meth:`point_rows`
    computes those of a list of elements.
    """

    def __init__(self, columns: Sequence[IntVec], ambient_dim: int, face: Face | None = None):
        columns = tuple(tuple(c) for c in columns)
        exponent, cycles = 1, ()
        if columns:
            h = triangular_form(tuple(zip(*columns, strict=True)))
            order = math.prod(h[i][i] for i in range(len(h)))
            generators = _inverse_columns(h, order)
            exponent = math.lcm(*(order // math.gcd(order, *g) for _, g in generators))
            cycles = tuple(
                (step, tuple(x * exponent // order % exponent for x in g)) for step, g in generators
            )
        self._set(columns, ambient_dim, face, exponent, cycles)

    @classmethod
    def _trivial(cls, columns: tuple[IntVec, ...], ambient_dim: int, face: Face) -> "LocalGroup":
        """The trivial group of columns that are part of a lattice basis,
        built without a triangular basis."""
        group = cls.__new__(cls)
        group._set(columns, ambient_dim, face, 1, ())
        return group

    def _set(
        self,
        columns: tuple[IntVec, ...],
        ambient_dim: int,
        face: Face | None,
        exponent: int,
        cycles: tuple[tuple[int, tuple[int, ...]], ...],
    ) -> None:
        """``cycles`` holds (h_ii, numerators of generator i over
        ``exponent``) for every diagonal entry h_ii > 1.  A group without
        cycles is trivial and is given the data of its one element, the
        identity, here: it enumerates nothing."""
        self.columns = columns
        self.ambient_dim = ambient_dim
        self.face = face
        self.exponent = exponent
        self._cycles = cycles
        self.order = math.prod(step for step, _ in cycles)
        self.integral_ages = all(sum(gen) % exponent == 0 for _, gen in cycles)
        if not cycles:
            # The identity has age 0; it is interior only when there is
            # no coefficient, at the polytope.
            self.numerators = ((0,) * len(columns),)
            self._sums = [0]
            self.interior = () if columns else (0,)
            self.age_polynomial = _ONE
            self.interior_age_polynomial = _ZERO if columns else _ONE

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """Box coefficients of every element times the exponent, sorted;
        the identity comes first."""
        return self._enumerate()

    def _enumerate(self) -> tuple[tuple[int, ...], ...]:
        """The numerators of a group with cycles.  Each coordinate is
        stepped through every cycle in one list, and the coordinates are
        zipped into elements at the end."""
        e = self.exponent
        coords = [[0] for _ in self.columns]
        for step, gen in self._cycles:
            coords = [
                [(x + shift) % e for shift in range(0, step * g, g) for x in coord] if g else coord * step
                for coord, g in zip(coords, gen)
            ]
        elements = list(zip(*coords))
        del coords
        elements.sort()
        if any(map(operator.eq, elements, itertools.islice(elements, 1, None))):
            raise ArithmeticError(f"coset representatives of {list(self.columns)} repeat")
        return tuple(elements)

    @cached_property
    def _sums(self) -> list[int]:
        """The coefficient sum of every element times the exponent: its
        age is this over the exponent.  Read by :meth:`age` and the age
        polynomials."""
        return list(map(sum, self.numerators))

    @cached_property
    def _rows(self) -> IntMat:
        """The column matrix by rows, one per ambient coordinate."""
        return tuple(tuple(col[r] for col in self.columns) for r in range(self.ambient_dim))

    def point(self, i: int) -> IntVec:
        """Lattice point ``sum(coeffs[j] * column_j)`` of element i;
        ArithmeticError when it is not integral."""
        return self._point(self.numerators[i])

    def _point(self, nums: tuple[int, ...]) -> IntVec:
        """:meth:`point` of the element with numerators ``nums``."""
        e = self.exponent
        point = []
        for row in self._rows:
            q, rem = divmod(sum(map(operator.mul, nums, row)), e)
            if rem:
                raise ArithmeticError(f"box point of {list(nums)}/{e} is not integral")
            point.append(q)
        return tuple(point)

    def point_rows(self, indices: Sequence[int]) -> list[IntVec]:
        """The points of the elements ``indices``, in order; the first of
        them, in list order, whose point is not integral raises point(i)'s
        ArithmeticError.  A list no longer than the group has columns is
        read through :meth:`point`.  A longer one is summed one numerator
        column at a time for each ambient coordinate, with every remainder
        checked."""
        if len(indices) <= len(self.columns):
            return [self.point(i) for i in indices]
        exponent = itertools.repeat(self.exponent)
        columns = list(zip(*map(self.numerators.__getitem__, indices)))
        zeros = (0,) * len(indices)
        coords = []
        for row in self._rows:
            totals = zeros
            for a, column in zip(row, columns):
                if a:
                    terms = column if a == 1 else map(a.__mul__, column)
                    totals = list(terms) if totals is zeros else list(map(operator.add, totals, terms))
            if any(map(operator.mod, totals, exponent)):
                for i in indices:
                    self.point(i)  # raises at the first element whose point is not integral
            coords.append(map(operator.floordiv, totals, exponent))
        return list(zip(*coords))

    def ensure_integral_points(self) -> None:
        """Raise ArithmeticError for the first element, in sorted order,
        whose point is not integral.  The point modulo Z^n is additive in
        the element, so every point is integral when every generator's
        is, and only a failing group computes the points of its
        elements."""
        e = self.exponent
        if any(sum(map(operator.mul, gen, row)) % e for _, gen in self._cycles for row in self._rows):
            self.point_rows(range(self.order))  # raises at the first element whose point is not integral

    @cached_property
    def interior(self) -> tuple[int, ...]:
        """Indices of the elements with every coefficient positive."""
        return tuple(itertools.compress(itertools.count(), map(all, self.numerators)))

    def retagged(self, face: Face) -> "LocalGroup":
        """The same group, generators and enumerated data shared, tagged
        with another face over the same columns: a new object whose
        attribute dict is this group's with ``face`` replaced."""
        group = object.__new__(type(self))
        group.__dict__ = {**self.__dict__, "face": face}
        return group

    def box_element(self, i: int) -> BoxElement:
        return self._box_element(self.numerators[i], self.point(i))

    def _box_element(self, nums: tuple[int, ...], point: IntVec) -> BoxElement:
        """The :class:`BoxElement` of the numerators ``nums`` at ``point``:
        the one builder, for :meth:`box_element` and
        :meth:`first_fractional_age`."""
        e = self.exponent
        return BoxElement(
            coeffs=tuple(Fraction(c, e) for c in nums),
            point=point,
            age=Fraction(sum(nums), e),
            height=sum(1 for c in nums if c),
            face=self.face,
        )

    def box_elements(self) -> list[BoxElement]:
        return [self.box_element(i) for i in range(len(self.numerators))]

    def age(self, i: int) -> int:
        """Integral age of element i; raises for a fractional one."""
        q, rem = divmod(self._sums[i], self.exponent)
        if rem:
            raise NonIntegralAgeError(self.box_element(i))
        return q

    def _age_counts(self, indices: Iterable[int], sums: Iterable[int]) -> Poly:
        """Sum of s^age over the elements ``indices``, whose coefficient
        sums are ``sums``; the first of them with a fractional age
        raises."""
        e = self.exponent
        counts: list[int] = []
        for total, count in Counter(sums).items():
            age, rem = divmod(total, e)
            if rem:
                self.age(next(i for i in indices if self._sums[i] % e))
            if age >= len(counts):
                counts.extend([0] * (age + 1 - len(counts)))
            counts[age] += count
        return Poly._of_ints(counts)

    @cached_property
    def age_polynomial(self) -> Poly:
        """Sum of s^age over the whole box."""
        sums = self._sums
        return self._age_counts(range(len(sums)), sums)

    @cached_property
    def interior_age_polynomial(self) -> Poly:
        """Sum of s^age over the interior elements."""
        sums = self._sums
        return self._age_counts(self.interior, [sums[i] for i in self.interior])

    def first_fractional_age(self) -> BoxElement:
        """The first element, in sorted order, whose age is not an integer,
        found by a descent that enumerates no element.

        H, the triangular form of the columns in reverse order, fixes the
        coefficients one row at a time from its last: row r fixes
        coefficient k - 1 - r, given the ones before it, to x0 + t / h_rr
        for t = 0 .. h_rr - 1, with x0 = (ceil(s) - s) / h_rr and s the
        row's sum over the coefficients already fixed.  Taking the
        smallest value at every row follows the sorted order.  The age is
        u . (H c) with u = 1^T H^-1, so the elements that agree on the
        coefficients fixed from row r on share one age modulo 1 exactly
        when u_0 .. u_(r-1) are integers.  With p the first row where u is
        not, the descent takes 0 above row p, the identity's branch, in
        which fractional ages remain.  At row p the branch t = 0 still
        holds the identity, and every element of a branch has the
        branch's age modulo 1, so it takes t = 1, of age u_p modulo 1;
        below row p it takes the smallest value.  That is O(k^3) integer
        steps at any group order, so the error needs no budget.  The
        element is built as :meth:`box_element` builds it, its point
        checked integral."""
        k, e = len(self.columns), self.exponent
        h = triangular_form(tuple(row[::-1] for row in self._rows))
        # u by forward substitution, up to its first fractional entry.
        u: list[int] = []
        for p in range(k):
            q, rem = divmod(1 - sum(map(operator.mul, u, (row[p] for row in h))), h[p][p])
            if rem:
                break
            u.append(q)
        else:
            raise ValueError(f"every age of {list(self.columns)} is an integer")
        # The numerators over the exponent, in reverse order; every
        # division is exact, since the element is in the group.
        y = [0] * k
        y[p] = e // h[p][p]
        for r in range(p - 1, -1, -1):
            y[r] = -sum(map(operator.mul, h[r][r + 1 :], y[r + 1 :])) % e // h[r][r]
        nums = tuple(reversed(y))
        return self._box_element(nums, self._point(nums))


def box_of_columns(cols: Sequence[IntVec], ambient_dim: int) -> list[BoxElement]:
    """All box elements of the cone spanned by independent lattice vectors.

    Enumerates the group from a triangular basis of the column lattice
    (:class:`LocalGroup`) and maps every coset to its unique
    representative in [0, 1)^k.  The result is sorted by coefficient
    vector; the identity comes first.
    """
    return LocalGroup(cols, ambient_dim).box_elements()


def box_by_exhaustion(
    cols: Sequence[IntVec], ambient_dim: int, order: int | None = None
) -> list[BoxElement]:
    """Independent slow enumeration of the same box.

    The group order r is read off as the gcd of the maximal minors, or
    is ``order``, the lattice index its caller has computed; then every
    coefficient vector t/r with t in [0, r)^k is kept when the
    combination is a lattice point; :func:`qtorb.kernels.box_solutions`
    finds the t, sorted, in r^(k-1) + r steps.  Each point is the
    quotient of ``sum(t_j * col_j)`` by r, in integers.
    """
    if not cols:
        return [BoxElement((), (0,) * ambient_dim, Fraction(0), 0)]
    if order is None:
        order = lattice_index(cols)
    cols_mod = [[e % order for e in col] for col in cols]
    rows = tuple(zip(*cols))
    elements = []
    for t in kernels.box_solutions(cols_mod, order):
        point = []
        for row in rows:
            q, rem = divmod(sum(map(operator.mul, t, row)), order)
            if rem:
                raise ArithmeticError(f"box point of {list(t)}/{order} is not integral")
            point.append(q)
        elements.append(
            BoxElement(
                coeffs=tuple(Fraction(x, order) for x in t),
                point=tuple(point),
                age=Fraction(sum(t), order),
                height=sum(1 for x in t if x),
            )
        )
    return elements


class LocalGroupTable:
    """The local group of every face of one model, and the h-vector of
    every face that carries sectors.

    Every computation on a model reads its faces' groups from one table,
    and its faces from the table's :attr:`faces`, built once per vertex
    list: quasi-SL, sectors, the three Chen-Ruan routes and the
    identities.  A table lives as long as the command that built it;
    nothing keeps it beyond that.  :meth:`group` builds a face's group
    the first time it is asked for and keeps it; :attr:`groups` builds
    the rest.  Groups are kept by facet set, the table's one index; the
    triangulation identities read their cones from a blown-up table the
    same way.

    A face is smooth when some vertex through it has |det| = 1, read
    from the determinants that validation computed (``vertex_dets``),
    whose smooth vertices the table collects in a set once: that
    vertex's columns are a lattice basis and the face's columns part of
    it, so its box elements, which are the vertex's box elements with
    coefficients vanishing off the face, reduce to the identity.  The
    polytope and the facets are smooth too, since a validated
    characteristic vector is primitive and so part of a lattice basis.
    A smooth face's group is built trivial, without a triangular basis;
    every other face, of codimension at least 2 through no smooth
    vertex, computes one.  So :attr:`quasi_sl` computes one per singular
    vertex and builds no lower face, and no face's smoothness depends on
    another face's group.

    With ``base``, the table of another model in the same dimension
    (the model a blowup came from, a blowup of the same face with other
    weights, or the model before a unimodular change), a face whose
    facet set and columns are those of a face of ``base`` takes that
    face's group, enumerated data included, before any of the above.
    ``base`` lends only the groups it has built, until :attr:`groups`
    has built every group of this table.  Models with one vertex list
    have one face lattice, so such a table takes ``base``'s
    :attr:`faces`, their facet-set index and the h-vectors computed on
    them, and does not run ``faces(model)``; a lent group,
    whose face is then the very same object, is shared as it is.  Over
    another vertex list, a lent group is a new object over the same
    attribute values that names this table's face.

    Only the faces with interior elements carry sectors, and only they
    add nonzero terms to the sector routes and the age partition.  They
    are the :attr:`sector_groups`; the polytope, whose interior element
    is the identity, is always the first.  Their h-vectors are the only
    ones computed.
    """

    def __init__(self, model: Model, base: LocalGroupTable | None = None):
        self.model = model
        self._lent = {} if base is None else base._by_facets
        self._by_facets: dict[tuple[int, ...], LocalGroup] = {}
        if base is not None and base.model.vertices == model.vertices:
            # One vertex list, one face lattice: its faces, their index
            # and the h-vectors computed on it are shared.
            self.faces, self._faces, self._h_vectors = base.faces, base._faces, base._h_vectors
        else:
            self.faces = faces(model)
            self._faces = {face.facet_set: face for face in self.faces}
            self._h_vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._smooth = {i for i, d in enumerate(model.vertex_dets) if abs(d) == 1}

    def _build(self, face: Face) -> LocalGroup:
        model = self.model
        columns = tuple(model.char_vectors[i] for i in face.facet_set)
        known = self._lent.get(face.facet_set)
        if known is not None and known.columns == columns and known.ambient_dim == model.n:
            return known if known.face is face else known.retagged(face)
        if face.codim <= 1 or not self._smooth.isdisjoint(face.vertex_ids):
            return LocalGroup._trivial(columns, model.n, face)
        return LocalGroup(columns, model.n, face)

    def _group(self, facet_set: tuple[int, ...]) -> LocalGroup:
        """The group of the face with these sorted facets; ValueError,
        checked only when it is not yet built, when no face has them."""
        group = self._by_facets.get(facet_set)
        if group is None:
            face = self._faces.get(facet_set)
            if face is None:
                raise ValueError(f"{list(facet_set)} is not a face of the model")
            group = self._by_facets[facet_set] = self._build(face)
        return group

    def group(self, face: Face) -> LocalGroup:
        return self._group(face.facet_set)

    @cached_property
    def groups(self) -> tuple[LocalGroup, ...]:
        """The group of every face, in ``faces(model)`` order.  Once all
        are built, the table lets go of ``base``'s groups."""
        groups = tuple(self._group(facet_set) for facet_set in self._faces)
        self._lent = {}
        return groups

    @cached_property
    def quasi_sl(self) -> bool:
        """True iff every age of every twisted sector is an integer.
        Vertex groups suffice, since every box element of any face
        reappears in some vertex box, and each vertex group decides it
        without enumerating any element."""
        return all(self._group(vertex).integral_ages for vertex in self.model.vertices)

    @cached_property
    def sector_groups(self) -> dict[tuple[int, ...], LocalGroup]:
        """The groups with interior elements, keyed by facet set, in
        ``faces(model)`` order."""
        return {group.face.facet_set: group for group in self.groups if group.interior}

    @cached_property
    def sector_h_vectors(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The h-vector of every face in :attr:`sector_groups`, keyed by
        facet set.  Each is computed once per face lattice, and tables
        that share the lattice read it there."""
        known = self._h_vectors
        for facet_set, group in self.sector_groups.items():
            if facet_set not in known:
                known[facet_set] = h_vector(group.face, self.faces)
        return {facet_set: known[facet_set] for facet_set in self.sector_groups}

    def sector_groups_containing(self, face: Face) -> list[LocalGroup]:
        """The :attr:`sector_groups` of the faces containing ``face``,
        itself included, in ``faces(model)`` order: in a simple polytope,
        the faces whose facet set is part of ``face``'s."""
        facets = set(face.facet_set)
        return [g for fs, g in self.sector_groups.items() if facets.issuperset(fs)]

    def ensure_quasi_sl(self) -> None:
        """Raise :class:`NonIntegralAgeError` for the first fractional age,
        in sorted order, at the first vertex that has one.  The vertex is
        found from the generators and the element by a descent
        (:meth:`LocalGroup.first_fractional_age`): no group is enumerated,
        so the refusal takes the same time at any group order."""
        for group in map(self._group, self.model.vertices):
            if not group.integral_ages:
                raise NonIntegralAgeError(group.first_fractional_age())

