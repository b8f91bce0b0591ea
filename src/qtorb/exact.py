"""Exact arithmetic building blocks.

Integers are plain Python ints, rationals are :class:`fractions.Fraction`
(always reduced, positive denominator), and graded quantities live in
:class:`Poly`, a dense integer polynomial in the squared grading variable
``s``.  Degrees are doubled only when rendering actual cohomological
degrees; everything internal stays even-graded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union


class Poly:
    """Dense univariate polynomial with integer coefficients.

    ``coeffs[i]`` is the coefficient of ``s**i``.  The tuple never has a
    trailing zero, so the zero polynomial is the empty tuple and equality
    is plain tuple comparison.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        norm = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise TypeError(f"non-integer coefficient {c}")
                c = c.numerator
            elif not isinstance(c, int):
                raise TypeError(f"non-integer coefficient {c!r}")
            norm.append(c)
        while norm and norm[-1] == 0:
            norm.pop()
        self.coeffs = tuple(norm)

    @classmethod
    def _of_ints(cls, coeffs: list[int]) -> "Poly":
        """The polynomial of a list of ints, which is trimmed in place;
        for arithmetic inside the package, whose coefficients are ints by
        construction, so the public constructor's checks are skipped."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = object.__new__(cls)
        poly.coeffs = tuple(coeffs)
        return poly

    @property
    def degree(self) -> int:
        """Degree in s; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of_ints(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of_ints([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly._of_ints([other * c for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly._of_ints([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly._of_ints(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial power must be a nonnegative int, got {k!r}")
        result = Poly._of_ints([1])
        for _ in range(k):
            result = result * self
        return result

    def shifted(self, k: int) -> "Poly":
        """Multiply by s**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self.coeffs:
            return Poly()
        return Poly._of_ints([0] * k + list(self.coeffs))

    def even_expansion(self) -> list[int]:
        """Coefficients re-indexed by true (doubled) degree: s**i -> degree 2i."""
        if not self.coeffs:
            return []
        out = [0] * (2 * self.degree + 1)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "s" if i == 1 else f"s^{i}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        return " + ".join(terms).replace("+ -", "- ")
