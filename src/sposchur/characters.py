"""Schur functions and symplectic/orthogonal characters via Jacobi-Trudi determinants.

Every character here is a determinant in the h- or e-images of a
specialization rho:

    s_lambda      = det[h_{l_i - i + j}]                      (size = length)
                  = det[e_{l'_i - i + j}]                     (size = l_1)
    sp_lambda     = (1/2) det[h_{l_i-i+j} + h_{l_i-i-j+2}]    (size = length)
                  = det[e_{l'_i-i+j} - e_{l'_i-i-j}]          (size = l_1)
    o_lambda      = det[h_{l_i-i+j} - h_{l_i-i-j}]            (size = length)
                  = (1/2) det[e_{l'_i-i+j} + e_{l'_i-i-j+2}]  (size = l_1)

with h_n = e_n = 0 for n < 0.  The four sp/o forms are the patterns D1..D4
of `TH_PATTERNS` (sp h-form D1, sp e-form D2, o h-form D3, o e-form D4),
whose rows `_character` builds from slices of the images; with zero shifts
and the Fourier coefficients of f or f~ in place of h or e, the same
patterns are the Gessel matrices of `toeplitz_hankel`, built by `th_rows`.
The sp and o characters also admit signed skew-Schur expansions over
self-conjugate-adjacent Frobenius shapes, which we expose as an independent
second route for testing.

Exact characters are integer on arrival: a row whose largest index is m
holds its entries times den[m], the lcm of the denominators of the images
0..m, sliced from row m of the specialization's `scaled_table`.  One
fraction-free Bareiss elimination of those rows over the product of the row
scales gives the value.  `schur`, `sp_char`, `o_char` and the graded
`sp_char_series`/`o_char_series` take the h-form and the `_via_e` twins the
e-form; the dispatchers `character`, `schur_factor` and `character_series`
take the smaller determinant for exact images, the e-form when lambda_1 <
length(lambda), and keep the h-form for float images.
Float images (a float at the largest index) build float rows for
`determinant`, LU via numpy.  Series determinants run
the same integer elimination by Kronecker substitution: rows cleared of
their denominators hold integer polynomials, t -> 2^B packs each into one
integer, and the balanced base-2^B digits of the packed determinant are its
coefficients.  B is one bit (the sign) above a bound on those coefficients,
the product of the rows' summed absolute coefficients.  There is no size cap.
Graded characters (h_n entering as h_n t^n) pack the same integers
directly: row d holds image k times den[m] times 2^(B k) for k <= D, and
since a row uses each image at most twice (once in its Toeplitz part, once
in its Hankel part), twice the summed |row m entries| bounds the row's
absolute coefficients before any row is built.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

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


def determinant(rows: list[list]) -> float:
    """Determinant of a small dense float matrix by LU; 1.0 at size 0."""
    if not rows:
        return 1.0
    return float(np.linalg.det(np.array(rows, dtype=float)))


def series_determinant(rows: list[list[GradedScalar]]) -> GradedScalar:
    """Determinant over the truncated-series ring, by Kronecker substitution.

    Rows cleared of their denominators hold integer polynomials p_ij.  The l1
    norm of det = sum_sigma sgn(sigma) prod_i p_{i,sigma(i)} is at most the
    permanent of the matrix of l1 norms, hence at most `bound`, the product of
    its row sums; so with B = bound.bit_length() + 1 every coefficient lies in
    [-2^(B-1), 2^(B-1)).  Each entry is packed as sum_n c_n 2^(B n), the packed
    matrix is eliminated by `_det_bareiss_int`, and the low D+1 balanced
    base-2^B digits of the result are the determinant's coefficients modulo
    t^(D+1) (truncation is a ring map).  Any size is accepted.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("size-0 series determinant: supply the truncation degree")
    degree = rows[0][0].degree
    scale = 1
    bound = 1
    mat = []
    for row in rows:
        if any(x.degree != degree for x in row):
            raise ValueError("mixed truncation degrees in a series determinant")
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        polys = [[c * (den // x.denominator) for c in x.numerators] for x in row]
        bound *= sum(abs(c) for poly in polys for c in poly)
        mat.append(polys)
    bits = bound.bit_length() + 1
    packed = [[sum(c << (bits * k) for k, c in enumerate(poly)) for poly in row] for row in mat]
    return _unpack(_det_bareiss_int(packed), bits, degree, scale)


def _unpack(det: int, bits: int, degree: int, scale: int) -> GradedScalar:
    """The series over `scale` whose t^n numerator is the n-th balanced
    base-2^bits digit of the packed determinant det, for n <= degree."""
    det &= (1 << (bits * (degree + 1))) - 1
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    numerators = []
    for _ in range(degree + 1):
        digit = det & mask
        if digit >= half:
            digit -= 1 << bits
        numerators.append(digit)
        det = (det - digit) >> bits
    return GradedScalar.from_numerators(numerators, scale)


# ---------------------------------------------------------------------------
# the four Toeplitz +/- Hankel patterns
# ---------------------------------------------------------------------------


class THPattern(NamedTuple):
    """One of the determinant patterns D1..D4 (see the module docstring)."""

    combine: Callable  # operator.add or operator.sub: Toeplitz part +/- Hankel part
    offset: int  # Hankel index offset
    half: bool  # the 1/2 factor, which applies at positive sizes only
    family: str  # "sp" or "o"
    form: str  # "h": length bound, entries from f; "e": width bound, from f~

    @property
    def bound(self) -> str:
        """The `character_sum_series` keyword of the Gessel restriction."""
        return "length_bound" if self.form == "h" else "width_bound"

    @property
    def symbol(self) -> str:
        """The `Symbol.fourier_coeffs` series of the Gessel matrix."""
        return "f" if self.form == "h" else "f_tilde"

    def halve(self, value, size: int):
        """The determinant of this size times the pattern's 1/2 factor."""
        return value / 2 if self.half and size > 0 else value


# add/sub rather than a +-1 multiplier, which would build a scaled copy of every
# series entry; in floats a - b is bit-identical to a + (-1.0 * b)
TH_PATTERNS = {
    "D1": THPattern(operator.add, 0, True, "sp", "h"),
    "D2": THPattern(operator.sub, 2, False, "sp", "e"),
    "D3": THPattern(operator.sub, 2, False, "o", "h"),
    "D4": THPattern(operator.add, 0, True, "o", "e"),
}


def th_pattern(which: str) -> THPattern:
    if which not in TH_PATTERNS:
        raise ValueError(f"which must be one of {tuple(TH_PATTERNS)}")
    return TH_PATTERNS[which]


def th_rows(which: str, size: int, g: Callable) -> list[list]:
    """The Gessel matrix [[g(-i + j) +/- g(-i - j - offset)]], 0-indexed, size x size."""
    pattern = th_pattern(which)
    return [
        [pattern.combine(g(j - i), g(-i - j - pattern.offset)) for j in range(size)]
        for i in range(size)
    ]


def _images(vals: list, lo: int, hi: int) -> list:
    """[vals[k] for lo <= k < hi], with zeros at negative k."""
    if lo >= 0:
        return vals[lo:hi]
    return [0] * (min(hi, 0) - lo) + vals[: max(hi, 0)]


def _jacobi_trudi(
    rho: Specialization, form: str, offsets, reach: int, row: Callable, degree: int | None = None
):
    """det[row(d, vals) for d in offsets] over the h (form "h") or e images.

    row(d, vals) reads vals[k] for k <= m = d + reach, by slicing; an image of
    negative index is zero.  Exact images build integer rows: vals is the
    specialization's scaled row m, the images times den[m], and the
    determinant is Bareiss over the product of the den[m].  A float image at
    the largest index (a float p_k makes every image from k on a float) sends
    float rows of the images to `determinant`.

    With a degree D the determinant is graded (image k enters times t^k) and
    truncated at t^D: vals[k] is the integer above times 2^(B k), 0 for k > D,
    and `_unpack` reads the coefficients off the packed determinant.
    row(d, vals) must then use each vals[k] at most twice, so that twice the
    summed unshifted |vals[k]|, k <= min(m, D), bounds the row's l1 norm; B is
    one bit above the product of those bounds.  Float images raise TypeError.
    """
    # the size-0 value, built first so that a negative degree is refused up front
    one = Fraction(1) if degree is None else GradedScalar.one(degree)
    if not offsets:
        return one
    table = rho.scaled_table(form, max(offsets) + reach)
    if table is None:
        if degree is not None:
            raise TypeError("exact coefficient expected, got float")
        values = rho.h if form == "h" else rho.e
        return determinant([row(d, [values(k) for k in range(d + reach + 1)]) for d in offsets])
    scaled, den = table
    if degree is not None:
        bound = 1
        for d in offsets:
            bound *= 2 * sum(abs(v) for v in scaled[d + reach][: degree + 1])
        bits = bound.bit_length() + 1
    scale = 1
    rows = []
    for d in offsets:
        m = d + reach
        scale *= den[m]
        vals = scaled[m]
        if degree is not None:
            vals = [v << (bits * k) for k, v in enumerate(vals[: degree + 1])] + [0] * (m - degree)
        rows.append(row(d, vals))
    det = _det_bareiss_int(rows)
    return Fraction(det, scale) if degree is None else _unpack(det, bits, degree, scale)


def _character(which: str, shifts, rho: Specialization, degree: int | None = None):
    """The character of pattern `which` at rho, with shifts the parts of
    lambda (h-form) or of its conjugate (e-form).

    Without a degree the value is exact or float.  With one it is graded: under
    p_k -> degree k, the image h_n or e_n enters as h_n t^n (zero for n < 0).
    The graded s_lambda is a single monomial, but the sp/o determinants mix
    degrees (sp_{(1,1)} = e_2 - 1 has degrees 2 and 0), so they are taken over
    the series ring, truncated at `degree`, on packed integer rows.  Row d is
    [vals[d + j] +/- vals[d - j - offset] for j < n], read as two slices.
    """
    pattern = TH_PATTERNS[which]
    n = len(shifts)
    offsets = [s - i for i, s in enumerate(shifts)]
    hankel = 1 - n - pattern.offset  # the Hankel part of row d starts at d + hankel

    def row(d, vals):
        h = _images(vals, d + hankel, d + hankel + n)
        return list(map(pattern.combine, _images(vals, d, d + n), reversed(h)))

    return pattern.halve(_jacobi_trudi(rho, pattern.form, offsets, n - 1, row, degree), n)


def _schur(parts, rho: Specialization, form: str):
    """det[g(parts_i - i + j)], 0-indexed, over the h or e images."""
    n = len(parts)
    offsets = [p - i for i, p in enumerate(parts)]
    return _jacobi_trudi(rho, form, offsets, n - 1, lambda d, vals: _images(vals, d, d + n))


def schur(lam: Partition, rho: Specialization):
    """s_lambda(rho) by the h-form Jacobi-Trudi determinant."""
    return _schur(lam.parts, rho, "h")


def schur_via_e(lam: Partition, rho: Specialization):
    """s_lambda(rho) by the dual (elementary) Jacobi-Trudi determinant."""
    return _schur(lam.conjugate().parts, rho, "e")


def skew_schur(lam: Partition, mu: Partition, rho: Specialization):
    """s_{lambda/mu}(rho) = det[h_{lambda_i - i - (mu_j - j)}]; zero unless mu is
    contained in lambda."""
    if not lam.contains(mu):
        return Fraction(0)
    n = lam.length()
    offsets = [p - i for i, p in enumerate(lam.parts)]
    cols = [j - mu.part(j + 1) for j in range(n)]
    reach = max(cols, default=0)
    return _jacobi_trudi(
        rho, "h", offsets, reach, lambda d, vals: [vals[d + c] if d + c >= 0 else 0 for c in cols]
    )


def sp_char(lam: Partition, rho: Specialization):
    """Symplectic character sp_lambda(rho), h-form."""
    return _character("D1", lam.parts, rho)


def sp_char_via_e(lam: Partition, rho: Specialization):
    """Symplectic character, e-form (no 1/2 factor)."""
    return _character("D2", lam.conjugate().parts, rho)


def o_char(lam: Partition, rho: Specialization):
    """Orthogonal character o_lambda(rho), h-form."""
    return _character("D3", lam.parts, rho)


def o_char_via_e(lam: Partition, rho: Specialization):
    """Orthogonal character, e-form (with the 1/2 factor)."""
    return _character("D4", lam.conjugate().parts, rho)


def _signed_skew_expansion(lam: Partition, shapes: Sequence[Partition], rho: Specialization):
    """sum over mu in shapes of (-1)^(|mu|/2) s_{lambda/mu}(rho)."""
    total = Fraction(0)
    for mu in shapes:
        term = skew_schur(lam, mu, rho)
        if term:
            total = total + (-1) ** (mu.size() // 2) * term
    return total


def sp_via_expansion(lam: Partition, rho: Specialization):
    """sp_lambda as the signed sum of s_{lambda/alpha} over Frobenius shapes (a | a+1)."""
    return _signed_skew_expansion(lam, symplectic_expansion_shapes(lam.size()), rho)


def o_via_expansion(lam: Partition, rho: Specialization):
    """o_lambda as the signed sum of s_{lambda/beta} over Frobenius shapes (b+1 | b)."""
    return _signed_skew_expansion(lam, orthogonal_expansion_shapes(lam.size()), rho)


def _e_form_is_smaller(lam: Partition, rho: Specialization) -> bool:
    """Whether lambda_1 < length(lambda) and the images rho gives lambda are exact."""
    parts = lam.parts
    if not parts or parts[0] >= len(parts):
        return False
    return rho.scaled_table("e", parts[0] + len(parts) - 1) is not None


def character(family: str, lam: Partition, rho: Specialization):
    """Dispatch: 'sp' or 'o' character of lambda at rho.

    Exact images take the smaller of the two equal Jacobi-Trudi determinants:
    the e-form (lambda_1 rows) when lambda_1 < length(lambda), else the h-form
    (length rows).  Float images keep the h-form, whose bits the float outputs
    depend on.
    """
    if family == "sp":
        return sp_char_via_e(lam, rho) if _e_form_is_smaller(lam, rho) else sp_char(lam, rho)
    if family == "o":
        return o_char_via_e(lam, rho) if _e_form_is_smaller(lam, rho) else o_char(lam, rho)
    raise ValueError(f"unknown character family {family!r}")


def schur_factor(lam: Partition, rho: Specialization):
    """s_lambda(rho) on the smaller Jacobi-Trudi determinant, by the rule of `character`."""
    return schur_via_e(lam, rho) if _e_form_is_smaller(lam, rho) else schur(lam, rho)


def sp_char_series(lam: Partition, rho: Specialization, degree: int) -> GradedScalar:
    """Graded symplectic character, always on the h-form determinant (D1)."""
    return _character("D1", lam.parts, rho, degree)


def o_char_series(lam: Partition, rho: Specialization, degree: int) -> GradedScalar:
    """Graded orthogonal character, always on the h-form determinant (D3)."""
    return _character("D3", lam.parts, rho, degree)


def character_series(
    family: str, lam: Partition, rho: Specialization, degree: int
) -> GradedScalar:
    """Graded 'sp' or 'o' character of lambda at rho, truncated at t^degree, on
    the smaller determinant by the rule of `character`: D2 or D4 on lambda'
    when lambda_1 < length(lambda), else the h-form."""
    if family not in ("sp", "o"):
        raise ValueError(f"unknown character family {family!r}")
    if _e_form_is_smaller(lam, rho):
        return _character("D2" if family == "sp" else "D4", lam.conjugate().parts, rho, degree)
    return (sp_char_series if family == "sp" else o_char_series)(lam, rho, degree)
