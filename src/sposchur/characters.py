"""Schur functions and symplectic/orthogonal characters via Jacobi-Trudi determinants.

Every character here is a determinant in the h- or e-images of a
specialization rho:

    s_lambda      = det[h_{l_i - i + j}]                      (size = length)
                  = det[e_{l'_i - i + j}]                     (size = l_1)
    sp_lambda     = (1/2) det[h_{l_i-i+j} + h_{l_i-i-j+2}]    (size = length)
                  = det[e_{l'_i-i+j} - e_{l'_i-i-j}]          (size = l_1)
    o_lambda      = det[h_{l_i-i+j} - h_{l_i-i-j}]            (size = length)
                  = (1/2) det[e_{l'_i-i+j} + e_{l'_i-i-j+2}]  (size = l_1)

with h_n = e_n = 0 for n < 0.  The sp and o characters also admit signed
skew-Schur expansions over self-conjugate-adjacent Frobenius shapes, which we
expose as an independent second route for testing.

Exact determinants are evaluated by fraction-free Bareiss elimination on an
integer matrix obtained by clearing denominators; float inputs fall back to
LU via numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .partitions import (
    Partition,
    orthogonal_expansion_shapes,
    symplectic_expansion_shapes,
)
from .series import GradedScalar
from .specializations import Specialization


def _det_bareiss_int(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def determinant(rows: list[list]) -> Fraction | float:
    """Determinant of a small dense matrix of Fractions (exact) or floats (LU)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(isinstance(x, float) for row in rows for x in row):
        return float(np.linalg.det(np.array(rows, dtype=float)))
    # clear denominators row by row, then integer Bareiss
    scale = Fraction(1)
    imat = []
    for row in rows:
        den = math.lcm(*(f.denominator for f in row))
        scale *= den
        imat.append([int(f * den) for f in row])
    return Fraction(_det_bareiss_int(imat)) / scale


def series_determinant(rows: list[list[GradedScalar]]) -> GradedScalar:
    """Determinant over the truncated-series ring, by memoized minor expansion.

    Division-free, hence sound under truncation (discarded products only ever
    affect coefficients beyond the truncation degree).  Exponential in the
    matrix size; intended for the small matrices of the identity checks.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("size-0 series determinant: supply the truncation degree")
    degree = rows[0][0].degree
    if n > 12:
        raise ValueError("series determinant limited to size <= 12")
    memo: dict[int, GradedScalar] = {}

    def minor(mask: int) -> GradedScalar:
        # determinant of rows in `mask` against the last popcount(mask) columns
        if mask == 0:
            return GradedScalar.one(degree)
        if mask in memo:
            return memo[mask]
        col = n - bin(mask).count("1")
        total = GradedScalar.zero(degree)
        idx = 0
        for r in range(n):
            bit = 1 << r
            if not (mask & bit):
                continue
            entry = rows[r][col]
            if entry:
                term = entry * minor(mask & ~bit)
                total = total + (term if idx % 2 == 0 else -term)
            idx += 1
        memo[mask] = total
        return total

    return minor((1 << n) - 1)


def schur(lam: Partition, rho: Specialization):
    """s_lambda(rho) by the h-form Jacobi-Trudi determinant."""
    n = lam.length()
    rows = [[rho.h(lam.part(i) - i + j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return determinant(rows)


def schur_via_e(lam: Partition, rho: Specialization):
    """s_lambda(rho) by the dual (elementary) Jacobi-Trudi determinant."""
    conj = lam.conjugate()
    m = lam.part(1)
    rows = [[rho.e(conj.part(i) - i + j) for j in range(1, m + 1)] for i in range(1, m + 1)]
    return determinant(rows)


def skew_schur(lam: Partition, mu: Partition, rho: Specialization):
    """s_{lambda/mu}(rho); zero unless mu is contained in lambda."""
    if not lam.contains(mu):
        return Fraction(0)
    n = lam.length()
    rows = [
        [rho.h(lam.part(i) - i - (mu.part(j) - j)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return determinant(rows)


def sp_char(lam: Partition, rho: Specialization):
    """Symplectic character sp_lambda(rho), h-form."""
    n = lam.length()
    if n == 0:
        return Fraction(1)
    rows = [
        [
            rho.h(lam.part(i) - i + j) + rho.h(lam.part(i) - i - j + 2)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return determinant(rows) / 2


def sp_char_via_e(lam: Partition, rho: Specialization):
    """Symplectic character, e-form (no 1/2 factor)."""
    conj = lam.conjugate()
    m = lam.part(1)
    rows = [
        [
            rho.e(conj.part(i) - i + j) - rho.e(conj.part(i) - i - j)
            for j in range(1, m + 1)
        ]
        for i in range(1, m + 1)
    ]
    return determinant(rows)


def o_char(lam: Partition, rho: Specialization):
    """Orthogonal character o_lambda(rho), h-form."""
    n = lam.length()
    rows = [
        [
            rho.h(lam.part(i) - i + j) - rho.h(lam.part(i) - i - j)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return determinant(rows)


def o_char_via_e(lam: Partition, rho: Specialization):
    """Orthogonal character, e-form (with the 1/2 factor)."""
    conj = lam.conjugate()
    m = lam.part(1)
    if m == 0:
        return Fraction(1)
    rows = [
        [
            rho.e(conj.part(i) - i + j) + rho.e(conj.part(i) - i - j + 2)
            for j in range(1, m + 1)
        ]
        for i in range(1, m + 1)
    ]
    return determinant(rows) / 2


def sp_via_expansion(lam: Partition, rho: Specialization):
    """sp_lambda as the signed sum of s_{lambda/alpha} over Frobenius shapes (a | a+1)."""
    total = Fraction(0)
    for alpha in symplectic_expansion_shapes(lam.size()):
        term = skew_schur(lam, alpha, rho)
        if term:
            total = total + (-1) ** (alpha.size() // 2) * term
    return total


def o_via_expansion(lam: Partition, rho: Specialization):
    """o_lambda as the signed sum of s_{lambda/beta} over Frobenius shapes (b+1 | b)."""
    total = Fraction(0)
    for beta in orthogonal_expansion_shapes(lam.size()):
        term = skew_schur(lam, beta, rho)
        if term:
            total = total + (-1) ** (beta.size() // 2) * term
    return total


def omega_dual_check(lam: Partition, rho: Specialization) -> bool:
    """Verify sp_lambda(rho) = o_{lambda'}(omega(rho)) for this lambda and rho."""
    return sp_char(lam, rho) == o_char(lam.conjugate(), rho.omega())


def character(family: str, lam: Partition, rho: Specialization):
    """Dispatch: 'sp' or 'o' character of lambda at rho."""
    if family == "sp":
        return sp_char(lam, rho)
    if family == "o":
        return o_char(lam, rho)
    raise ValueError(f"unknown character family {family!r}")


# ---------------------------------------------------------------------------
# graded (series-valued) characters
#
# Under the grading p_k -> degree k, the image h_n is homogeneous of degree n,
# so s_lambda is homogeneous of degree |lambda| and its graded value is a
# single monomial.  The sp/o Jacobi-Trudi determinants mix h-degrees
# (sp_{(1,1)} = e_2 - 1 already shows degrees 2 and 0), so their graded values
# are genuine truncated series, computed over the series ring.
# ---------------------------------------------------------------------------


def _h_monomial(rho: Specialization, n: int, degree: int) -> GradedScalar:
    if n < 0:
        return GradedScalar.zero(degree)
    return GradedScalar.monomial(rho.h(n), n, degree)


def sp_char_series(lam: Partition, rho: Specialization, degree: int) -> GradedScalar:
    """Graded symplectic character, via the h-form determinant over series."""
    n = lam.length()
    if n == 0:
        return GradedScalar.one(degree)
    rows = [
        [
            _h_monomial(rho, lam.part(i) - i + j, degree)
            + _h_monomial(rho, lam.part(i) - i - j + 2, degree)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return series_determinant(rows) / 2


def o_char_series(lam: Partition, rho: Specialization, degree: int) -> GradedScalar:
    """Graded orthogonal character, via the h-form determinant over series."""
    n = lam.length()
    if n == 0:
        return GradedScalar.one(degree)
    rows = [
        [
            _h_monomial(rho, lam.part(i) - i + j, degree)
            - _h_monomial(rho, lam.part(i) - i - j, degree)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return series_determinant(rows)


def character_series(
    family: str, lam: Partition, rho: Specialization, degree: int
) -> GradedScalar:
    if family == "sp":
        return sp_char_series(lam, rho, degree)
    if family == "o":
        return o_char_series(lam, rho, degree)
    raise ValueError(f"unknown character family {family!r}")
