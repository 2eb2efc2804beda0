"""Bit-exact verification of the Cauchy-type identities.

With the grading convention p_k -> degree k, the Schur factor of a bilinear
character sum is homogeneous of degree |lambda| while the sp/o factor is a
series with terms of degrees |lambda|, |lambda| - 2, ..., so a partition
contributes to every degree from |lambda| upward within truncation.  The
minus side always carries the grading; the plus side's weight is 1 for a
graded specialization and 0 for plain numbers (the alphabet side of the dual
Cauchy identity).  Both sides of every identity are then finite polynomials
modulo t^(D+1) and can be compared exactly.

The checks test one family and one bound per call, and a run makes many such
calls on the same specializations, so `character_sum_series` keeps its sums
in the memos of the specializations it evaluates (`Specialization.memo`).  A
length or width bound admits or excludes whole cells of partitions with the
same (length(lambda), lambda_1), so the memo of rho+ holds, per D, the
partitions |lambda| <= D grouped by cell (one walk, shared by every family
and rho-), and per (family, D, weight_plus, rho-) the exact sum of each cell
computed so far.  A call adds the sums of the cells its bounds admit and
computes only the missing ones, each adding its terms' numerators into one
int vector over a running denominator.  The sums fill lazily, so the first
bounded sum of a pair evaluates no factor outside its bound.  A cell's terms
look up their per-partition factors in the memos too, so sums of other
families or degrees on the same specializations evaluate each factor once.
Keys:

    ("cells", D)                      at rho+: the partitions |lambda| <= D by cell
    (family, D, weight_plus, rho-)    at rho+: the sums of its cells so far
    ("sp" | "o", lambda.parts, D)     graded character at rho+, truncated at t^D
    ("sp" | "o", lambda.parts, None)  exact character at rho+ (weight_plus=0)
    ("s", mu.parts, None)             s_mu(rho-), mu = lambda' for the dual
                                      families, so plain and dual sums share it

A memo lives and dies with its specialization; the memo of rho+ keeps rho-
alive as long as it lives.  The values are exact, so a hit returns what a
miss computes, and two threads that miss together store equal values.
Nothing else fills the memo: the brute-force weights
(`MeasureSpec.unnormalized_weight`) visit up to 10^6 partitions once each,
and the fixed-form functions (`schur`, `sp_char`, `o_char`, their `_via_e`
twins, `skew_schur`) stay uncached so that the cross-checks below compare
independently computed determinants.

Closed forms used throughout (log of the right-hand sides):

    sum sp_l(r+) s_l(r-)   : sum_k [ p+_k p-_k / k ] + [ p-_{2k}/(2k) - (p-_k)^2/(2k) ]
    sum o_l(r+)  s_l(r-)   : sum_k [ p+_k p-_k / k ] - [ p-_{2k}/(2k) ] - [ (p-_k)^2/(2k) ]
    sum sp_l(r+) s_l'(r-)  : sum_k [ (-1)^(k+1) p+_k p-_k / k ] - [ p-_{2k}/(2k) ] - [ (p-_k)^2/(2k) ]
    sum o_l(r+)  s_l'(r-)  : sum_k [ (-1)^(k+1) p+_k p-_k / k ] + [ p-_{2k}/(2k) ] - [ (p-_k)^2/(2k) ]
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .characters import character, character_series, o_char, schur, schur_factor, sp_char
from .partitions import Partition, enumerate_partitions
from .series import GradedScalar
from .specializations import Specialization

FAMILIES = ("sp", "o", "sp-dual", "o-dual")


def log_z_terms(family: str, p_plus_k, p_minus_k, p_minus_2k, k: int):
    """The degree-k pieces of log Z, on Fractions or floats alike.

    Returns (cross, even): the p+_k p-_k / k term, which carries the grading
    of both sides, and the p-_{2k} / (2k) - (p-_k)^2 / (2k) term, which
    carries the minus side's grading twice.
    """
    dual = family.endswith("dual")
    cross = p_plus_k * p_minus_k / k
    if dual:
        cross *= (-1) ** (k + 1)
    # +p_{2k} for sp, -p_{2k} for o; conjugating the Schur factor flips it
    sign = 1 if family.startswith("sp") != dual else -1
    return cross, sign * p_minus_2k / (2 * k) - p_minus_k**2 / (2 * k)


def log_normalization_series(
    family: str,
    rho_plus: Specialization,
    rho_minus: Specialization,
    degree: int,
    weight_plus: int = 1,
) -> GradedScalar:
    """log Z as a graded series, for any of the four measure families.

    `weight_plus` is the grading weight of rho+, 0 or 1 (module docstring).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_weight_plus(weight_plus)
    coeffs = [Fraction(0)] * (degree + 1)
    for k in range(1, degree + 1):
        d = (weight_plus + 1) * k
        d2 = 2 * k
        if d > degree and d2 > degree:
            break
        cross, even = log_z_terms(
            family, rho_plus.p(k), rho_minus.p(k), rho_minus.p(2 * k), k
        )
        if d <= degree and cross:
            coeffs[d] += cross
        if d2 <= degree and even:
            coeffs[d2] += even
    return GradedScalar(coeffs)


def normalization_series(
    family: str,
    rho_plus: Specialization,
    rho_minus: Specialization,
    degree: int,
    weight_plus: int = 1,
) -> GradedScalar:
    """Partition function Z as an exact graded series (exp of the log form)."""
    return log_normalization_series(family, rho_plus, rho_minus, degree, weight_plus).exp()


def _memoized(rho: Specialization, key: tuple, evaluate: Callable):
    """rho.memo[key], stored from evaluate() on a miss."""
    value = rho.memo.get(key)
    if value is None:
        value = rho.memo[key] = evaluate()
    return value


def _check_weight_plus(weight_plus) -> None:
    if weight_plus not in (0, 1):
        raise ValueError(f"weight_plus must be 0 or 1, got {weight_plus!r}")


def _cell_sum(
    family: str,
    partitions: list[Partition],
    rho_plus: Specialization,
    rho_minus: Specialization,
    degree: int,
    weight_plus: int,
) -> GradedScalar:
    """sum over the given partitions of (sp/o)_lambda(rho+) s_lambda(rho-).

    Each term c * s is formed once and its numerators, shifted by |lambda| (the
    Schur factor is s t^|lambda|), added into one int vector over a running
    denominator, rescaled only when a term's denominator does not divide it.
    """
    base = family.removesuffix("-dual")
    dual = base != family
    nums, den = [0] * (degree + 1), 1
    for lam in partitions:
        mu = lam.conjugate() if dual else lam
        s = _memoized(rho_minus, ("s", mu.parts, None), lambda: schur_factor(mu, rho_minus))
        if not s:
            continue
        if weight_plus:
            graded = (base, lam.parts, degree)
            c = _memoized(rho_plus, graded, lambda: character_series(base, lam, rho_plus, degree))
            term = c * s
        else:
            c = _memoized(rho_plus, (base, lam.parts, None), lambda: character(base, lam, rho_plus))
            term = GradedScalar.monomial(c * s, 0, degree)
        q = term.denominator
        if den % q:
            grow = q // math.gcd(den, q)
            nums = [a * grow for a in nums]
            den *= grow
        scale, shift = den // q, lam.size()
        for n, a in enumerate(term.numerators[: degree + 1 - shift], shift):
            nums[n] += a * scale
    return GradedScalar.from_numerators(nums, den)


def character_sum_series(
    family: str,
    rho_plus: Specialization,
    rho_minus: Specialization,
    degree: int,
    weight_plus: int = 1,
    length_bound: int | None = None,
    width_bound: int | None = None,
) -> GradedScalar:
    """sum over lambda of (sp/o)_lambda(rho+) s_lambda(rho-), degree by degree.

    Dual families conjugate lambda in the Schur factor.  Optional bounds
    restrict the sum to length(lambda) <= length_bound and lambda_1 <=
    width_bound (the Gessel-restricted sums).  The sum adds the memoized
    sums of the (length, lambda_1) cells the bounds admit, and computes the
    missing ones from per-partition factors that are memoized too (see the
    module docstring).  `weight_plus` must be 0 or 1.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_weight_plus(weight_plus)
    groups = rho_plus.memo.get(("cells", degree))
    if groups is None:
        # the Schur factor contributes degree |lambda|, and the graded sp/o
        # factor is a series with terms down to degree 0, so every partition
        # with |lambda| <= degree can reach degree <= D
        groups = {}
        for lam in enumerate_partitions(degree):
            groups.setdefault((lam.length(), lam.part(1)), []).append(lam)
        rho_plus.memo[("cells", degree)] = groups
    sums = rho_plus.memo.setdefault((family, degree, weight_plus, rho_minus), {})
    admitted = [
        cell
        for cell in groups
        if (length_bound is None or cell[0] <= length_bound)
        and (width_bound is None or cell[1] <= width_bound)
    ]
    for cell in admitted:
        if cell not in sums:
            sums[cell] = _cell_sum(family, groups[cell], rho_plus, rho_minus, degree, weight_plus)
    return GradedScalar.sum([sums[cell] for cell in admitted], degree)


def cauchy_check(
    family: str,
    rho_plus: Specialization,
    rho_minus: Specialization,
    degree: int,
    weight_plus: int = 1,
) -> bool:
    """Exact truncated Cauchy identity for the given family."""
    lhs = character_sum_series(family, rho_plus, rho_minus, degree, weight_plus)
    rhs = normalization_series(family, rho_plus, rho_minus, degree, weight_plus)
    return lhs == rhs


def jacobi_trudi_cross_check(rho: Specialization, max_size: int) -> bool:
    """h-form and e-form determinants agree for s, sp, o up to |lambda| <= max_size."""
    from .characters import o_char_via_e, schur_via_e, sp_char_via_e

    for lam in enumerate_partitions(max_size):
        if schur(lam, rho) != schur_via_e(lam, rho):
            return False
        if sp_char(lam, rho) != sp_char_via_e(lam, rho):
            return False
        if o_char(lam, rho) != o_char_via_e(lam, rho):
            return False
    return True


def expansion_cross_check(rho: Specialization, max_size: int) -> bool:
    """Jacobi-Trudi characters equal their signed skew-Schur expansions."""
    from .characters import o_via_expansion, sp_via_expansion

    for lam in enumerate_partitions(max_size):
        if sp_char(lam, rho) != sp_via_expansion(lam, rho):
            return False
        if o_char(lam, rho) != o_via_expansion(lam, rho):
            return False
    return True


def omega_duality_check(rho: Specialization, max_size: int) -> bool:
    """sp_lambda(rho) = o_{lambda'}(omega(rho)) for all |lambda| <= max_size."""
    dual = rho.omega()
    return all(
        sp_char(lam, rho) == o_char(lam.conjugate(), dual) for lam in enumerate_partitions(max_size)
    )
