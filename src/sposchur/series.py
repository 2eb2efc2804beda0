"""Dense truncated power series over exact rationals.

`GradedScalar` is the scalar type of the exact-arithmetic identity checks: a
polynomial in one grading parameter t, truncated at a fixed degree D, with
rational coefficients.  Ring operations, exp and log are exact modulo
t^(D+1), so every identity test built on it is bit-exact.

A series is stored as Python-int numerators over one common denominator,
c_n = numerators[n] / denominator, with denominator > 0 and
gcd(denominator, *numerators) = 1 (the zero series has denominator 1).  Every
operation computes on ints and divides by that gcd once at the end, so the
form is canonical: equal series have equal numerators and denominators, and
`==` and `hash` are exact.  `coeffs` is a read-only Fraction view for tests
and `repr`.

The grading convention used throughout: the power sum p_k of a graded
specialization carries degree k, hence a character of a partition of size n
is homogeneous of degree n and bilinear sums over partitions are finitely
checkable degree by degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Rat = Fraction | int


def _frac(x) -> Rat:
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


class GradedScalar:
    """Polynomial in t modulo t^(D+1): int numerators over one denominator."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Sequence[Rat | str]):
        coeffs = [_frac(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, numerators: list[int], denominator: int) -> None:
        if not numerators:
            raise ValueError("a series needs at least the degree-0 coefficient")
        g = math.gcd(denominator, *numerators)
        if g != 1:
            numerators = [a // g for a in numerators]
            denominator //= g
        self.numerators = tuple(numerators)
        self.denominator = denominator

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_numerators(cls, numerators: list[int], denominator: int = 1) -> "GradedScalar":
        """The series numerators[n] / denominator t^n; the denominator must be > 0."""
        out = object.__new__(cls)
        out._set(numerators, denominator)
        return out

    @classmethod
    def zero(cls, degree: int) -> "GradedScalar":
        return cls.from_numerators([0] * (degree + 1))

    @classmethod
    def one(cls, degree: int) -> "GradedScalar":
        return cls.monomial(1, 0, degree)

    @classmethod
    def monomial(cls, coefficient, power: int, degree: int) -> "GradedScalar":
        """c * t^power, or zero if the power exceeds the truncation degree."""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        c = _frac(coefficient)
        nums = [0] * (degree + 1)
        if power <= degree:
            nums[power] = c.numerator
        return cls.from_numerators(nums, c.denominator)

    @classmethod
    def sum(cls, terms: Sequence["GradedScalar"], degree: int) -> "GradedScalar":
        """The sum of series truncated at `degree`, over the lcm of their
        denominators: one lcm and one gcd for the whole sum."""
        den = math.lcm(*(x.denominator for x in terms))
        nums = [0] * (degree + 1)
        for x in terms:
            if x.degree != degree:
                raise ValueError(f"mixed truncation degrees {x.degree} and {degree}")
            scale = den // x.denominator
            for n, a in enumerate(x.numerators):
                nums[n] += a * scale
        return cls.from_numerators(nums, den)

    # -- inspection ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Truncation degree D."""
        return len(self.numerators) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions."""
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, None for the zero series."""
        for i, c in enumerate(self.numerators):
            if c:
                return i
        return None

    def is_unit(self) -> bool:
        return bool(self.numerators[0])

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
        den = math.lcm(self.denominator, other.denominator)
        ma, mb = den // self.denominator, den // other.denominator
        return GradedScalar.from_numerators(
            [a * ma + b * mb for a, b in zip(self.numerators, other.numerators)], den
        )

    __radd__ = __add__

    def __neg__(self):
        return GradedScalar.from_numerators([-a for a in self.numerators], self.denominator)

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedScalar) else -_frac(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedScalar.from_numerators(
                [other.numerator * a for a in self.numerators],
                other.denominator * self.denominator,
            )
        self._check(other)
        d = self.degree
        b = other.numerators
        out = [0] * (d + 1)
        for i, a in enumerate(self.numerators):
            if not a:
                continue
            for j in range(d + 1 - i):
                if b[j]:
                    out[i + j] += a * b[j]
        return GradedScalar.from_numerators(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division of a series by zero")
            if p < 0:
                p, q = -p, -q
            return GradedScalar.from_numerators(
                [q * a for a in self.numerators], p * self.denominator
            )
        return self.divide_exact(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GradedScalar.monomial(other, 0, self.degree)
        return (
            isinstance(other, GradedScalar)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __bool__(self) -> bool:
        return any(self.numerators)

    def __repr__(self) -> str:
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return "GradedScalar(" + (" + ".join(terms) or "0") + f"; D={self.degree})"

    # -- series functions ------------------------------------------------------
    # Each recurrence runs on integers: with c_k = a_k / q, the n-th term is an
    # integer over n! q^n (exp, log) or over a_0^(n+1) (inverse), and all terms
    # are brought to the denominator of the last one.

    def exp(self) -> "GradedScalar":
        """exp of a series with zero constant term, exact modulo t^(D+1)."""
        a, q = self.numerators, self.denominator
        if a[0]:
            raise ValueError("exp requires zero constant term")
        d = self.degree
        # n g_n = sum_k k c_k g_(n-k), with g_n = G[n] / (n! q^n)
        G = [1] + [0] * d
        for n in range(1, d + 1):
            G[n] = sum(
                k * a[k] * q ** (k - 1) * math.perm(n - 1, k - 1) * G[n - k]
                for k in range(1, n + 1)
                if a[k]
            )
        return GradedScalar.from_numerators(
            [G[n] * math.perm(d, d - n) * q ** (d - n) for n in range(d + 1)],
            math.factorial(d) * q**d,
        )

    def log(self) -> "GradedScalar":
        """log of a series with constant term 1."""
        a, q = self.numerators, self.denominator
        if a[0] != q:
            raise ValueError("log requires constant term 1")
        d = self.degree
        # n f_n = n c_n - sum_(k<n) k f_k c_(n-k), with f_n = F[n] / (n! q^n)
        F = [0] * (d + 1)
        for n in range(1, d + 1):
            F[n] = math.factorial(n) * a[n] * q ** (n - 1) - sum(
                F[k] * a[n - k] * q ** (n - k - 1) * math.perm(n - 1, n - k)
                for k in range(1, n)
                if F[k]
            )
        return GradedScalar.from_numerators(
            [F[n] * math.perm(d, d - n) * q ** (d - n) for n in range(d + 1)],
            math.factorial(d) * q**d,
        )

    def inverse(self) -> "GradedScalar":
        """Multiplicative inverse; the constant term must be nonzero."""
        a, q = self.numerators, self.denominator
        a0 = a[0]
        if not a0:
            raise ZeroDivisionError("series with zero constant term is not a unit")
        d = self.degree
        # h_n = -(1/c_0) sum_k c_k h_(n-k), with h_n = q H[n] / a_0^(n+1)
        H = [1] + [0] * d
        for n in range(1, d + 1):
            H[n] = -sum(a[k] * a0 ** (k - 1) * H[n - k] for k in range(1, n + 1) if a[k])
        # h_n = q H[n] a_0^(D-n) / a_0^(D+1); the sign of a_0^(D+1) moves up
        den = a0 ** (d + 1)
        sign = 1 if den > 0 else -1
        return GradedScalar.from_numerators(
            [sign * q * H[n] * a0 ** (d - n) for n in range(d + 1)], abs(den)
        )

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
        if sum(1 for c in other.numerators if c) == 1:
            if any(self.numerators[:v]):
                raise ValueError("monomial division is not exact")
            c = other.numerators[v]
            sign = 1 if c > 0 else -1
            # quotient known only modulo t^(D+1-v); refuse unless numerator fits
            quot = [sign * other.denominator * a for a in self.numerators[v:]]
            return GradedScalar.from_numerators(quot + [0] * v, abs(c) * self.denominator)
        raise ValueError("divisor is neither a unit nor a monomial")
