"""Local groups of faces, encoded as box elements.

The finite group attached to a face is enumerated through the Smith
normal form of its characteristic vectors: coset representatives map to
the unique coefficient vector with entries in [0, 1).  Each element
carries its lattice point, its age (the coefficient sum), and its height
(the number of nonzero coefficients, which equals the rank of g - id on
the tangent representation).  :class:`LocalGroupTable` holds the group
of every face of a model, built once, on first use, for everything
computed on it.  A face's box elements are those of any vertex through
it whose coefficients vanish off the face, so a face is smooth, with
the trivial group, when some vertex through it has |det| = 1, read from
the determinants that validation computed.  The table runs a Smith form
only for the other faces.

A second, independent enumeration by exhaustive search over denominators
dividing the group order is provided for cross-checking.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import kernels
from .exact import Poly
from .intlat import IntMat, IntVec, lattice_index, smith_normal_form
from .model import Face, Model, faces, h_vector


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

    @property
    def is_identity(self) -> bool:
        return self.height == 0


def _element_from_coeffs(coeffs: Sequence[Fraction], cols: Sequence[IntVec], n: int) -> BoxElement:
    point = [Fraction(0)] * n
    for c, col in zip(coeffs, cols):
        for i in range(n):
            point[i] += c * col[i]
    if any(p.denominator != 1 for p in point):
        raise ArithmeticError(f"box point {[str(p) for p in point]} is not integral")
    return BoxElement(
        coeffs=tuple(coeffs),
        point=tuple(p.numerator for p in point),
        age=sum(coeffs, Fraction(0)),
        height=sum(1 for c in coeffs if c),
    )


class LocalGroup:
    """The local group of a cone over k independent lattice vectors.

    One Smith normal form ``U @ A @ V = D`` of the column matrix A fixes
    the group: it is Z^k modulo the column lattice, a product of cyclic
    groups of orders d_1 | ... | d_k, and column j of V, read modulo
    d_j, generates the j-th factor.  Only the invariants d_j and V are
    kept.  Every element is stored as the integer numerators of its box
    coefficients over the group exponent d_k, so enumeration, points and
    ages stay in integer arithmetic; ``Fraction`` appears only when a
    :class:`BoxElement` is built.

    Whether every age is an integer is read off the Smith form alone:
    age mod 1 is a homomorphism to Q/Z, and generator j has age
    ``(column sum j of V) / d_j``.  The elements, interior elements and
    age polynomials are enumerated on first use and then kept.
    """

    def __init__(self, columns: Sequence[IntVec], ambient_dim: int, face: Face | None = None):
        columns = tuple(tuple(c) for c in columns)
        k = len(columns)
        invariants: tuple[int, ...] = ()
        v: IntMat = ()
        if k:
            _, d, v = smith_normal_form(tuple(zip(*columns, strict=True)))
            if len(d) < k or any(d[i][i] == 0 for i in range(k)):
                raise ValueError("box enumeration requires independent columns")
            invariants = tuple(d[i][i] for i in range(k))
        self._set(columns, ambient_dim, face, invariants, v)

    @classmethod
    def _trivial(cls, columns: tuple[IntVec, ...], ambient_dim: int, face: Face) -> "LocalGroup":
        """The trivial group of columns that are part of a lattice basis,
        built without a Smith form.  Every invariant is 1, so no
        generator is ever read from V, which is left empty."""
        group = cls.__new__(cls)
        group._set(columns, ambient_dim, face, (1,) * len(columns), ())
        return group

    def _set(
        self,
        columns: tuple[IntVec, ...],
        ambient_dim: int,
        face: Face | None,
        invariants: tuple[int, ...],
        v: IntMat,
    ) -> None:
        self.columns = columns
        self.ambient_dim = ambient_dim
        self.face = face
        self.invariants = invariants
        self._v = v
        self.exponent = invariants[-1] if invariants else 1
        self.order = math.prod(invariants)
        self.integral_ages = all(
            sum(row[j] for row in v) % dj == 0 for j, dj in enumerate(invariants)
        )

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """Box coefficients of every element times the exponent, sorted;
        the identity comes first."""
        k = len(self.columns)
        e = self.exponent
        v = self._v
        elements = [(0,) * k]
        for j, dj in enumerate(self.invariants):
            if dj == 1:
                continue
            step = e // dj
            gen = tuple(v[i][j] * step % e for i in range(k))
            grown = []
            for element in elements:
                for _ in range(dj):
                    grown.append(element)
                    element = tuple((a + b) % e for a, b in zip(element, gen))
            elements = grown
        elements.sort()
        if any(a == b for a, b in zip(elements, elements[1:])):
            raise ArithmeticError(f"coset representatives of {list(self.columns)} repeat")
        return tuple(elements)

    @cached_property
    def _rows(self) -> IntMat:
        """The column matrix by rows, one per ambient coordinate."""
        return tuple(tuple(col[r] for col in self.columns) for r in range(self.ambient_dim))

    def _point(self, nums: tuple[int, ...]) -> IntVec:
        """Lattice point ``sum(coeffs[j] * column_j)`` of the element with
        numerators ``nums``."""
        e = self.exponent
        point = []
        for row in self._rows:
            q, rem = divmod(sum(map(operator.mul, nums, row)), e)
            if rem:
                raise ArithmeticError(f"box point of {list(nums)}/{e} is not integral")
            point.append(q)
        return tuple(point)

    @cached_property
    def points(self) -> tuple[IntVec, ...]:
        """Lattice point of every element."""
        return tuple(map(self._point, self.numerators))

    @cached_property
    def interior(self) -> tuple[int, ...]:
        """Indices of the elements with every coefficient positive."""
        return tuple(i for i, nums in enumerate(self.numerators) if all(nums))

    def retagged(self, face: Face) -> "LocalGroup":
        """The same group, invariants, V and enumerated data shared,
        tagged with another face over the same columns."""
        group = copy.copy(self)
        group.face = face
        return group

    def box_element(self, i: int) -> BoxElement:
        return self._element(i, self.points[i])

    def _element(self, i: int, point: IntVec) -> BoxElement:
        nums = self.numerators[i]
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

    def interior_elements(self) -> list[BoxElement]:
        return [self.box_element(i) for i in self.interior]

    def age(self, i: int) -> int:
        """Integral age of element i; raises for a fractional one."""
        q, rem = divmod(sum(self.numerators[i]), self.exponent)
        if rem:
            raise NonIntegralAgeError(self._lone_element(i))
        return q

    def _age_counts(self, indices: Iterable[int]) -> Poly:
        counts: list[int] = []
        for i in indices:
            age = self.age(i)
            if age >= len(counts):
                counts.extend([0] * (age + 1 - len(counts)))
            counts[age] += 1
        return Poly(counts)

    @cached_property
    def age_polynomial(self) -> Poly:
        """Sum of s^age over the whole box."""
        return self._age_counts(range(len(self.numerators)))

    @cached_property
    def interior_age_polynomial(self) -> Poly:
        """Sum of s^age over the interior elements."""
        return self._age_counts(self.interior)

    def _lone_element(self, i: int) -> BoxElement:
        """Element i, with its own point computed alone, not the points of
        the whole group: for reporting one element."""
        return self._element(i, self._point(self.numerators[i]))

    def first_fractional_age(self) -> BoxElement:
        """The first element, in sorted order, whose age is not an integer."""
        return next(
            self._lone_element(i)
            for i, nums in enumerate(self.numerators)
            if sum(nums) % self.exponent
        )


def box_of_columns(cols: Sequence[IntVec], ambient_dim: int) -> list[BoxElement]:
    """All box elements of the cone spanned by independent lattice vectors.

    Enumerates Z^k modulo the column lattice via Smith normal form and
    maps every coset to its unique representative in [0, 1)^k.  The
    result is sorted by coefficient vector; the identity comes first.
    """
    return LocalGroup(cols, ambient_dim).box_elements()


def box_by_exhaustion(cols: Sequence[IntVec], ambient_dim: int) -> list[BoxElement]:
    """Independent slow enumeration of the same box.

    The group order r is read off as the gcd of the maximal minors, then
    every coefficient vector with denominator dividing r is kept when the
    combination is a lattice point; :func:`qtorb.kernels.box_solutions`
    finds them in r^(k-1) + r steps.
    """
    k = len(cols)
    if k == 0:
        return [BoxElement((), (0,) * ambient_dim, Fraction(0), 0)]
    order = lattice_index(cols)
    cols_mod = [[e % order for e in col] for col in cols]
    solutions = kernels.box_solutions(cols_mod, order)
    elements = [
        _element_from_coeffs([Fraction(t, order) for t in sol], cols, ambient_dim)
        for sol in solutions
    ]
    elements.sort(key=lambda e: e.coeffs)
    return elements


class LocalGroupTable:
    """The local group of every face of one model, and the h-vector of
    every face that carries sectors.

    Every computation on a model reads its faces' groups from one table:
    quasi-SL, sectors, the three Chen-Ruan routes and the identities.  A
    table lives as long as the command that built it; nothing keeps it
    beyond that.  :meth:`group` builds a face's group the first time it
    is asked for and keeps it; :attr:`groups` builds the rest.

    A face is smooth when some vertex through it has |det| = 1, read
    from the determinants that validation computed (``vertex_dets``):
    that vertex's columns are a lattice basis and the face's columns part
    of it, so its box elements, which are the vertex's box elements with
    coefficients vanishing off the face, reduce to the identity.  A
    smooth face's group is built trivial, without a Smith form; every
    other face runs one.  So :attr:`quasi_sl` runs one per singular
    vertex and builds no lower face, and no face's smoothness depends on
    another face's group.

    With ``base``, the table of another model in the same dimension
    (the model a blowup came from), a face whose facet set and columns
    are those of a face of ``base`` takes that face's group, enumerated
    data included, before any of the above.  ``base`` lends only the
    groups it has already built.

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
        self._faces = {face.facet_set: face for face in faces(model)}

    def _build(self, face: Face) -> LocalGroup:
        model = self.model
        columns = tuple(model.char_vectors[i] for i in face.facet_set)
        known = self._lent.get(face.facet_set)
        if known is not None and known.columns == columns and known.ambient_dim == model.n:
            return known.retagged(face)
        if any(abs(model.vertex_dets[i]) == 1 for i in face.vertex_ids):
            return LocalGroup._trivial(columns, model.n, face)
        return LocalGroup(columns, model.n, face)

    def _group(self, facet_set: tuple[int, ...]) -> LocalGroup:
        group = self._by_facets.get(facet_set)
        if group is None:
            group = self._by_facets[facet_set] = self._build(self._faces[facet_set])
        return group

    def group(self, face: Face) -> LocalGroup:
        return self._group(face.facet_set)

    @cached_property
    def groups(self) -> tuple[LocalGroup, ...]:
        """The group of every face, in ``faces(model)`` order."""
        return tuple(self._group(facet_set) for facet_set in self._faces)

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
        facet set."""
        return {
            facet_set: h_vector(group.face, self.model)
            for facet_set, group in self.sector_groups.items()
        }

    def sector_groups_containing(self, face: Face) -> list[LocalGroup]:
        """The :attr:`sector_groups` of the faces containing ``face``,
        itself included, in ``faces(model)`` order: in a simple polytope,
        the faces whose facet set is part of ``face``'s."""
        facets = set(face.facet_set)
        return [g for fs, g in self.sector_groups.items() if facets.issuperset(fs)]

    @cached_property
    def _by_cone(self) -> dict[frozenset[IntVec], LocalGroup]:
        return {frozenset(group.columns): group for group in self.groups}

    def cone(self, columns: Iterable[IntVec]) -> LocalGroup:
        """The group of a face whose columns are ``columns`` in any order;
        ValueError when no face of the model has them."""
        key = frozenset(columns)
        if key not in self._by_cone:
            raise ValueError(f"the cone over {sorted(key)} is not a face of the model")
        return self._by_cone[key]

    def ensure_quasi_sl(self) -> None:
        """Raise :class:`NonIntegralAgeError` for the first fractional age
        at the first vertex that has one."""
        for group in map(self._group, self.model.vertices):
            if not group.integral_ages:
                raise NonIntegralAgeError(group.first_fractional_age())


def sectors(table: LocalGroupTable) -> list[BoxElement]:
    """All sectors of the table's model in canonical order: the untwisted
    sector (identity over the whole polytope) first, then every interior
    box element of every proper face."""
    return [element for group in table.groups for element in group.interior_elements()]
