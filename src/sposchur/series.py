"""Dense truncated power series over exact rationals.

`GradedScalar` is the scalar type of the exact-arithmetic identity checks: a
polynomial in one grading parameter t, truncated at a fixed degree D, with
`fractions.Fraction` coefficients.  Ring operations, exp and log are exact
modulo t^(D+1), so every identity test built on it is bit-exact.

The grading convention used throughout: the power sum p_k of a graded
specialization carries degree k, hence a character of a partition of size n
is homogeneous of degree n and bilinear sums over partitions are finitely
checkable degree by degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import TruncationOverflow

Rat = Fraction | int


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


class GradedScalar:
    """Polynomial in t modulo t^(D+1), with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rat | str]):
        self.coeffs = tuple(_frac(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "GradedScalar":
        return cls([Fraction(0)] * (degree + 1))

    @classmethod
    def one(cls, degree: int) -> "GradedScalar":
        return cls([Fraction(1)] + [Fraction(0)] * degree)

    @classmethod
    def monomial(cls, coefficient, power: int, degree: int) -> "GradedScalar":
        """c * t^power, or zero if the power exceeds the truncation degree."""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        coeffs = [Fraction(0)] * (degree + 1)
        if power <= degree:
            coeffs[power] = _frac(coefficient)
        return cls(coeffs)

    # -- inspection ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Truncation degree D."""
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n > self.degree:
            raise TruncationOverflow(f"degree {n} beyond truncation {self.degree}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "GradedScalar") -> None:
        if self.degree != other.degree:
            raise ValueError(
                f"mixed truncation degrees {self.degree} and {other.degree}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedScalar.monomial(other, 0, self.degree)
        self._check(other)
        return GradedScalar([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return GradedScalar([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedScalar) else -_frac(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return GradedScalar([f * a for a in self.coeffs])
        self._check(other)
        d = self.degree
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return GradedScalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return GradedScalar([a / f for a in self.coeffs])
        return self.divide_exact(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GradedScalar.monomial(other, 0, self.degree)
        return isinstance(other, GradedScalar) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return "GradedScalar(" + (" + ".join(terms) or "0") + f"; D={self.degree})"

    # -- series functions ------------------------------------------------------

    def exp(self) -> "GradedScalar":
        """exp of a series with zero constant term, exact modulo t^(D+1)."""
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        d = self.degree
        g = [Fraction(1)] + [Fraction(0)] * d
        for n in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                fk = self.coeffs[k]
                if fk:
                    acc += k * fk * g[n - k]
            g[n] = acc / n
        return GradedScalar(g)

    def log(self) -> "GradedScalar":
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        d = self.degree
        f = [Fraction(0)] * (d + 1)
        for n in range(1, d + 1):
            acc = n * self.coeffs[n]
            for k in range(1, n):
                if f[k]:
                    acc -= k * f[k] * self.coeffs[n - k]
            f[n] = acc / n
        return GradedScalar(f)

    def inverse(self) -> "GradedScalar":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series with zero constant term is not a unit")
        d = self.degree
        h = [Fraction(1) / c0] + [Fraction(0)] * d
        for n in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * h[n - k]
            h[n] = -acc / c0
        return GradedScalar(h)

    def divide_exact(self, other: "GradedScalar") -> "GradedScalar":
        """Division that refuses to lose truncated information.

        Allowed when the divisor is a unit, or a monomial c*t^v dividing the
        numerator exactly with quotient degree still within truncation.
        """
        self._check(other)
        if other.is_unit():
            return self * other.inverse()
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        nonzero = [i for i, c in enumerate(other.coeffs) if c]
        if len(nonzero) == 1:
            if any(self.coeffs[:v]):
                raise ValueError("monomial division is not exact")
            c = other.coeffs[v]
            # quotient known only modulo t^(D+1-v); refuse unless numerator fits
            quot = [a / c for a in self.coeffs[v:]]
            return GradedScalar(quot + [Fraction(0)] * v)
        raise ValueError("divisor is neither a unit nor a monomial")
