"""(Signed) measures on partitions built from character pairs, and the
brute-force correlation oracle.

A measure spec picks a family and a pair of specializations:

    sp      : weight ~ sp_lambda(rho+) s_lambda(rho-)
    o       : weight ~ o_lambda(rho+)  s_lambda(rho-)
    sp-dual : weight ~ sp_lambda(rho+) s_lambda'(rho-)
    o-dual  : weight ~ o_lambda(rho+)  s_lambda'(rho-)

normalized by the closed-form partition function Z of the matching Cauchy
identity.  Weights can be negative (signed measures); they are summed as-is.

Particle configurations live on the integers: lambda maps to the strictly
decreasing set {lambda_i - i : i >= 1}, whose tail below the length L is the
packed Fermi sea -L-1, -L-2, ...  `correlation_bruteforce` sums weights of
all partitions whose configuration contains a given finite point set; it is
the independent oracle against which the determinantal kernels are
validated.  The size cutoff starts at max(8, 2 max|site|) and grows by
`_BLOCK` = 4 sizes at a time until the last block adds less than tol/10, with
at least two checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .characters import character, schur_factor
from .errors import CutoffTooSmall, DivergentNormalization
from .identities import FAMILIES, log_z_terms
from .partitions import Partition, partitions_of_size
from .specializations import Specialization

_PARTITION_BUDGET = 10**6
_LOG_Z_KMAX = 400  # terms of an infinite log Z series before giving up
_LOG_Z_TOL = 3e-17  # two successive terms below this end the series

__all__ = [
    "MeasureSpec",
    "BruteForceResult",
    "plancherel_measure",
    "correlation_bruteforce",
    "correlation_bruteforce_batch",
    "hole_probability_bruteforce",
]


@dataclass
class MeasureSpec:
    """Family tag plus the two specializations defining the weights."""

    family: str
    rho_plus: Specialization
    rho_minus: Specialization

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")

    @property
    def char_family(self) -> str:
        return "sp" if self.family.startswith("sp") else "o"

    @property
    def dual(self) -> bool:
        return self.family.endswith("dual")

    # -- normalization -------------------------------------------------------

    def log_z(self) -> float:
        """log of the partition function Z.

        Finite-support power sums give a finite exact sum; alphabet-backed
        specializations are summed until two successive terms fall below
        3e-17, raising DivergentNormalization when they fail to.
        """
        rp, rm = self.rho_plus, self.rho_minus

        def log_z_term(k: int) -> float:
            cross, even = log_z_terms(
                self.family, float(rp.p(k)), float(rm.p(k)), float(rm.p(2 * k)), k
            )
            return cross + even

        fin = rm.max_support
        if fin is not None:
            # every term carries a rho_minus factor, so k <= max support
            return sum(log_z_term(k) for k in range(1, fin + 1))
        total = 0.0
        prev = math.inf
        for k in range(1, _LOG_Z_KMAX + 1):
            term = log_z_term(k)
            total += term
            mag = abs(term)
            if mag < _LOG_Z_TOL and prev < _LOG_Z_TOL:
                return total
            if k > 40 and prev > _LOG_Z_TOL and mag >= prev:
                raise DivergentNormalization(
                    f"partition function series not decaying at k={k}"
                )
            prev = mag
        raise DivergentNormalization("partition function series did not converge")

    def z(self) -> float:
        return math.exp(self.log_z())

    # -- weights ---------------------------------------------------------------

    def unnormalized_weight(self, lam: Partition):
        """Character product sp/o(rho+) * s(rho-) without the 1/Z factor."""
        c = character(self.char_family, lam, self.rho_plus)
        if not c:
            return c
        return c * schur_factor(lam.conjugate() if self.dual else lam, self.rho_minus)

    def weight(self, lam: Partition) -> float:
        """Normalized (possibly negative) weight of a single partition."""
        return float(self.unnormalized_weight(lam)) / self.z()

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rho_plus": self.rho_plus.to_json(),
            "rho_minus": self.rho_minus.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MeasureSpec":
        return cls(
            family=doc["family"],
            rho_plus=Specialization.from_json(doc["rho_plus"]),
            rho_minus=Specialization.from_json(doc["rho_minus"]),
        )


@dataclass
class BruteForceResult:
    """Stabilized brute-force correlation with its tail estimate.

    `tail_estimate` (the `est_tail` CSV column) is |increment| / Z of the
    last block of partition sizes summed, plus a flat 1e-15 floor.  It is a
    measured estimate of the neglected tail, not a bound.
    """

    value: float
    tail_estimate: float
    cutoff: int


def plancherel_measure(family: str, theta) -> MeasureSpec:
    """The signed Plancherel-type measure: rho+ = pl_{2 theta}, rho- = pl_theta."""
    return MeasureSpec(
        family=family,
        rho_plus=Specialization.plancherel(2 * theta),
        rho_minus=Specialization.plancherel(theta),
    )


_BLOCK = 4  # sizes per adaptive extension block


def _configuration_set(lam: Partition, depth: int) -> set[int]:
    """Occupied sites of lam, complete at -depth and above.

    Positions below the length are the packed sea, so the first depth or
    length positions, whichever is more, decide every site >= -depth.
    """
    return set(lam.configuration(max(len(lam), depth)))


def _sum_weights(
    spec: MeasureSpec,
    keeps: list[Callable[[set[int]], bool]],
    sites: list[int],
    tol: float,
) -> list[BruteForceResult]:
    """Sum the weights of the partitions passing each predicate in one pass.

    Each predicate tests a partition's particle configuration, as a set that
    holds every occupied site down to the lowest of `sites` (the packed sea
    included).  Each partition's weight is evaluated at most once and credited
    to every predicate it passes.  The size cutoff starts at max(8, 2 max|site|)
    and grows in blocks of a few sizes until every predicate's last block adds
    less than tol/10; block increments decay geometrically for contractive
    specializations (superexponentially in the Plancherel case), so the last
    increment is a measured tail estimate.

    Exact weights accumulate as int numerators, one per predicate, over one
    block denominator shared by all predicates and rescaled only when a
    weight's denominator does not divide it: each weight is brought to it with
    one % and one //, then added to every predicate it passes.  Each block
    becomes one Fraction per predicate at its checkpoint.  Weights are exact
    when every power sum of finite support (the first 8 of an infinite one) is.
    A tol that is not a positive finite number raises ValueError before any
    partition is visited: no block could meet 0, a negative tol or nan.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    exact_in = all(r.is_exact(r.max_support or 8) for r in (spec.rho_plus, spec.rho_minus))
    totals = [Fraction(0) if exact_in else 0.0] * len(keeps)
    nums = [0 if exact_in else 0.0] * len(keeps)  # the open block
    den = 1
    cutoff = max(8, 2 * max((abs(p) for p in sites), default=0))
    depth = max([0] + [-p for p in sites])
    seen = 0
    n = 0
    first_checkpoint = True
    while True:
        while n <= cutoff:
            for lam in partitions_of_size(n):
                seen += 1
                conf = _configuration_set(lam, depth)
                hits = [i for i, keep in enumerate(keeps) if keep(conf)]
                if not hits:
                    continue
                w = spec.unnormalized_weight(lam)
                if not w:
                    continue
                if exact_in:
                    q = w.denominator
                    if den % q:
                        grow = q // math.gcd(den, q)
                        nums = [a * grow for a in nums]
                        den *= grow
                    w = w.numerator * (den // q)
                for i in hits:
                    nums[i] += w
            n += 1
        if exact_in:
            blocks = [Fraction(a, den) for a in nums]
            nums, den = [0] * len(keeps), 1
        else:
            blocks, nums = nums, [0.0] * len(keeps)
        increments = [abs(float(b)) for b in blocks]
        totals = [t + b for t, b in zip(totals, blocks)]
        if max(increments, default=0.0) < tol / 10 and not first_checkpoint:
            z = spec.z()
            return [
                BruteForceResult(value=float(t) / z, tail_estimate=inc / z + 1e-15, cutoff=cutoff)
                for t, inc in zip(totals, increments)
            ]
        first_checkpoint = False
        if seen > _PARTITION_BUDGET:
            raise CutoffTooSmall(
                f"no stabilization below tol={tol} within cutoff {cutoff}"
            )
        cutoff += _BLOCK


def _site(point) -> int:
    """A lattice point as an int; ValueError when it is not integer-valued."""
    site = int(point)
    if site != point:
        raise ValueError(f"lattice points must be integers, got {point!r}")
    return site


def correlation_bruteforce(
    spec: MeasureSpec, points: set[int] | list[int], tol: float = 1e-9
) -> BruteForceResult:
    """Probability that all `points` are occupied, by summing partition weights.

    The cutoff starts at max(8, 2 max|point|) and grows until the last block
    of sizes contributes less than tol/10.  Raises CutoffTooSmall when the
    partition budget is exhausted before stabilization, and ValueError when
    tol is not a positive finite number.
    """
    pts = frozenset(map(_site, points))
    return _sum_weights(spec, [pts.issubset], list(pts), tol)[0]


def hole_probability_bruteforce(
    spec: MeasureSpec, point: int, tol: float = 1e-9
) -> BruteForceResult:
    """Probability that `point` is NOT occupied (independently accumulated)."""
    p = _site(point)
    return _sum_weights(spec, [lambda conf: p not in conf], [p], tol)[0]


def correlation_bruteforce_batch(
    spec: MeasureSpec,
    point_sets: list[list[int]],
    tol: float = 1e-9,
) -> list[BruteForceResult]:
    """Brute-force correlations for many point sets in one enumeration pass.

    The cutoff policy is shared, driven by the slowest-stabilizing set.
    """
    sets = [frozenset(map(_site, pts)) for pts in point_sets]
    sites = [p for pts in sets for p in pts]
    return _sum_weights(spec, [pts.issubset for pts in sets], sites, tol)

