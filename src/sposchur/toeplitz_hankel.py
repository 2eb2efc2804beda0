"""Toeplitz+Hankel determinants: Gessel identities, Szego limits, and the
Borodin-Okounkov bridge to Fredholm determinants.

A symbol is a pair of specializations through the `kernels.SymbolF.product`
f(z) = H(rho+; z) H(rho-; 1/z), together with f~(z) := 1/f(-z) =
E(rho+; z) E(rho-; 1/z).  Four determinant families are built from the
Fourier coefficients (all size x size, 0-indexed; the patterns of
`characters.TH_PATTERNS` with zero shifts):

    D1[i,j] = f_{-i+j} + f_{-i-j}         D2[i,j] = f~_{-i+j} - f~_{-i-j-2}
    D3[i,j] = f_{-i+j} - f_{-i-j-2}       D4[i,j] = f~_{-i+j} + f~_{-i-j}

Exactly (graded): (1/2) D1_n and D2_m are the sp-character sums restricted to
length <= n and width <= m; D3_n and (1/2) D4_m the o-character analogues
(the 1/2 factors apply for positive sizes; at size 0 both sides are 1).  The
graded coefficients (`Symbol.graded_coeffs`) are convolutions of the integer
rows of `Specialization.scaled_table`.  The float coefficients are modes on
|z| = 1.  f~ has no pole off 0 and infinity, but the annulus of f excludes
|z| = 1 when a BC alphabet rho+ bounds it by min|x^(+-1)| <= 1, and then the
f-coefficients raise ContourViolation.
In the limit both sp-side quantities converge to Z_sp and both o-side ones to
Z_o, and for finite m the deficit is itself a Fredholm determinant:

    D2_m = Z_sp det(1 - K_sp-hat)  and  (1/2) D4_m = Z_o det(1 - K_o-hat)

over the configuration sites {m, m+1, ...} (no particle of {lambda_i - i} at
or beyond m is exactly lambda_1 <= m).  Finite sections evaluate the
right-hand sides.  Their reported "tail bound" is twice the diagonal mass of
the kernel beyond the window: for these signed, non-Hermitian kernels that is
an estimate of the truncation error, not a bound on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characters import determinant, series_determinant, th_pattern, th_rows
from .errors import ContourViolation, TruncationInsufficient
from .identities import character_sum_series
from .kernels import SymbolF, lattice_kernel
from .measures import MeasureSpec
from .series import GradedScalar
from .specializations import Specialization

_MAX_WINDOW = 400  # widest finite section the window search tries
_MAX_ENTRY = 2.0**26  # a section's det is good to its largest entry times eps, no better


@dataclass
class FredholmConfig:
    """Truncation policy for discrete Fredholm determinants.

    `window` (sites beyond the cut, an int >= 0, or None to let the kernel
    decay pick the width) and `tail_tol` (positive, finite) drive the finite
    sections; other values raise ValueError.
    """

    window: int | None = None
    tail_tol: float = 1e-10

    def __post_init__(self):
        if not (self.window is None or isinstance(self.window, int) and self.window >= 0):
            raise ValueError(f"window must be None or an int >= 0, got {self.window!r}")
        if not 0 < self.tail_tol < math.inf:
            raise ValueError(f"tail_tol must be a positive finite number, got {self.tail_tol}")


class Symbol:
    """Wiener-Hopf symbol attached to a pair of specializations.

    `f` and `f_tilde` are the SymbolF functions f(z) = H(rho+; z) H(rho-; 1/z)
    and f~(z) = 1/f(-z), of power sums or alphabets; f~ has the annuli
    (0, inf).  `F` is the kernel symbol H(rho+; z) / (H(rho-; z) H(rho-; 1/z))
    of `bo_check`, one for both families and their Laurent modes; its content
    picks the kernel route (`kernels.lattice_kernel`), so `Symbol.plancherel`
    and the same pair read from JSON take the Bessel route alike.
    """

    def __init__(self, rho_plus: Specialization, rho_minus: Specialization):
        self.rho_plus = rho_plus
        self.rho_minus = rho_minus
        f = SymbolF.product([(rho_plus, "h", "z", 1), (rho_minus, "h", "1/z", 1)], "f")
        self.f = f
        self.f_tilde = SymbolF(
            lambda z: 1.0 / f(-z), (0.0, math.inf), (0.0, math.inf), label="f_tilde"
        )
        self.F = SymbolF.from_measure(MeasureSpec("sp", rho_plus, rho_minus))

    @classmethod
    def plancherel(cls, theta) -> "Symbol":
        """(pl_2theta, pl_theta), whose kernel symbol is exp(theta (z - 1/z))."""
        return cls(Specialization.plancherel(2 * theta), Specialization.plancherel(theta))

    # -- Fourier coefficients --------------------------------------------------

    def fourier_coeffs(self, which: str, lo: int, hi: int) -> np.ndarray:
        """Float Fourier coefficients of f or f~ on the index window [lo, hi]."""
        if which not in ("f", "f_tilde"):
            raise ValueError("which must be 'f' or 'f_tilde'")
        F = self.f if which == "f" else self.f_tilde
        w, coeffs, _ = F.modes(False, min_order=max(abs(lo), abs(hi)))
        return coeffs[w + lo : w + hi + 1]

    def graded_coeffs(self, which: str, lo: int, hi: int, degree: int) -> list[GradedScalar]:
        """Graded Fourier coefficients of f or f~ on the index window [lo, hi],
        truncated at t^degree: f_s = sum_k g_k(rho-) g_{k+s}(rho+) t^(2k+s),
        with g = h for f and e for f~.

        Each is a convolution of row `degree` of the two specializations'
        `scaled_table`, over the product of their den[degree].  Float images
        raise TypeError.
        """
        if which not in ("f", "f_tilde"):
            raise ValueError("which must be 'f' or 'f_tilde'")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        form = "h" if which == "f" else "e"
        tables = [rho.scaled_table(form, degree) for rho in (self.rho_minus, self.rho_plus)]
        if None in tables:
            raise TypeError("exact coefficient expected, got float")
        (minus, den_minus), (plus, den_plus) = tables
        minus, plus = minus[degree], plus[degree]
        scale = den_minus[degree] * den_plus[degree]
        out = []
        for s in range(lo, hi + 1):
            numerators = [0] * (degree + 1)
            for k in range(max(0, -s), (degree - s) // 2 + 1):
                numerators[2 * k + s] = minus[k] * plus[k + s]
            out.append(GradedScalar.from_numerators(numerators, scale))
        return out


def th_det(sym: Symbol, which: str, size: int):
    """Float Toeplitz+Hankel determinant D^1..D^4 of the given size."""
    pattern = th_pattern(which)
    if size < 0:
        raise ValueError("size must be >= 0")
    lo = 2 - 2 * size - pattern.offset  # the lowest (Hankel) index
    coeffs = sym.fourier_coeffs(pattern.symbol, lo, size - 1)
    rows = th_rows(which, size, lambda k: float(coeffs[k - lo]))
    return determinant(rows)


def th_det_series(sym: Symbol, which: str, size: int, degree: int) -> GradedScalar:
    """Exact graded Toeplitz+Hankel determinant, modulo t^(degree+1)."""
    pattern = th_pattern(which)
    if size < 0:
        raise ValueError("size must be >= 0")
    lo = 2 - 2 * size - pattern.offset  # the lowest (Hankel) index
    coeffs = sym.graded_coeffs(pattern.symbol, lo, size - 1, degree)
    rows = th_rows(which, size, lambda k: coeffs[k - lo])
    return series_determinant(rows) if rows else GradedScalar.one(degree)


def gessel_check(sym: Symbol, which: str, size: int, degree: int) -> bool:
    """Exact Gessel identity: (possibly halved) determinant equals the
    restricted character sum, as graded series modulo t^(degree+1)."""
    pattern = th_pattern(which)
    lhs = pattern.halve(th_det_series(sym, which, size, degree), size)
    rhs = character_sum_series(
        pattern.family, sym.rho_plus, sym.rho_minus, degree, **{pattern.bound: size}
    )
    return lhs == rhs


def szego_limits(sym: Symbol) -> tuple[float, float]:
    """(Z_sp, Z_o): the closed-form limits of the four determinant families."""
    z_sp = MeasureSpec("sp", sym.rho_plus, sym.rho_minus).z()
    z_o = MeasureSpec("o", sym.rho_plus, sym.rho_minus).z()
    return z_sp, z_o


def szego_normalized_det(sym: Symbol, which: str, size: int) -> tuple[float, float]:
    """(normalized determinant, its Szego target Z of the pattern's family)."""
    pattern = th_pattern(which)
    val = pattern.halve(th_det(sym, which, size), size)
    return val, MeasureSpec(pattern.family, sym.rho_plus, sym.rho_minus).z()


# ---------------------------------------------------------------------------
# Borodin-Okounkov: D2_m = Z_sp det(1 - K_sp-hat)_{sites >= m}, and the D4/o twin
# ---------------------------------------------------------------------------


@dataclass
class BOCheckResult:
    lhs: float
    rhs: float
    gap: float
    tail_bound: float
    window: int


def gap_probability(
    kernel: Callable, m: int, fred: FredholmConfig | None = None
) -> tuple[float, float, int]:
    """det(1 - K) over configuration sites {m, m+1, ...} by finite section.

    `kernel` is a configuration kernel as `lattice_kernel` returns it, of any
    of the four families and by any route: 1-D site arrays give the matrix
    [K(a_i, b_j)], and `kernel.diagonal(sites)` gives [K(s_i, s_i)].
    Returns (determinant, tail bound, window used).  Without a configured
    window, the window is the first multiple of 8 (up to 400) at which
    |K(m + w, m + w)| falls to tail_tol/100.  The "tail bound" is twice the
    diagonal mass sum |K(s, s)| from s = m + window through the first value
    below 1e-22, or through s = m + window + 401.  The kernel is signed and
    not Hermitian, so this is an estimate of the truncation error, not a
    bound; TruncationInsufficient is raised if it exceeds the configured
    tolerance, or when a window entry exceeds 2^26, as a contour kernel off the
    unit circle does (it grows like r_z^-a off the diagonal): finite sections
    are accurate only in absolute terms (Bornemann 2010).  A dual kernel's
    diagonal 1 - K_base(-1-s, -1-s) reads 2^-52, not 0, wherever K_base rounds
    to 1 - 2^-52, so far from the edge it never falls below 1e-22: its tail
    bound is a rounding floor, ~1.8e-13 (twice 402 sites of 2.2e-16) at every
    m, and says nothing about truncation.  The diagonal is read over one run of
    sites from m + 8 (from m + window when the window is configured), its
    length doubling from 64 until it covers the search and the tail; then the
    window matrix is formed once.
    """
    fred = fred or FredholmConfig()
    first = 8 if fred.window is None else fred.window
    diag = np.abs(kernel.diagonal(np.arange(m + first, m + first + 64)))  # sites m + first + i
    while True:
        width = fred.window
        if width is None:
            # |K(m + w, m + w)| at the candidate widths w = 8, 16, ..., _MAX_WINDOW
            candidates = diag[: _MAX_WINDOW - 7 : 8]
            small = np.flatnonzero(candidates <= fred.tail_tol / 100)
            if small.size:
                width = 8 * int(small[0] + 1)
            elif len(candidates) == _MAX_WINDOW // 8:
                width = _MAX_WINDOW
        if width is not None:
            tail = diag[width - first : width - first + _MAX_WINDOW + 2]
            below = np.flatnonzero(tail < 1e-22)
            if below.size:
                tail = tail[: below[0] + 1]
                break
            if len(tail) == _MAX_WINDOW + 2:
                break
        more = np.arange(m + first + len(diag), m + first + 2 * len(diag))
        diag = np.concatenate([diag, np.abs(kernel.diagonal(more))])
    mass = 0.0
    for i in range(0, len(tail), 32):  # one fixed order, 32 sites at a time, pins the bits
        mass += float(np.sum(tail[i : i + 32]))
    tail_bound = 2.0 * mass
    if tail_bound > fred.tail_tol:
        raise TruncationInsufficient(
            f"tail bound {tail_bound} exceeds {fred.tail_tol} at window {width}"
        )
    if not width:
        return 1.0, tail_bound, width
    sites = np.arange(m, m + width)
    section = kernel(sites, sites)
    # no np.abs temporary: with one, edge-fredholm runs read 13% slower (2-core VM)
    largest = max(float(section.max()), -float(section.min()))
    if largest > _MAX_ENTRY:
        raise TruncationInsufficient(f"kernel entry {largest:.3g} exceeds 2^26 at window {width}")
    return float(np.linalg.det(np.eye(width) - section)), tail_bound, width


def bo_check(
    sym: Symbol, family: str, m: int, fred: FredholmConfig | None = None
) -> BOCheckResult:
    """Compare the determinant (D2_m or half D4_m) with Z * det(1 - K-hat).

    K-hat is `lattice_kernel(family, symbol=sym.F)`, whose route F's content
    picks.  A symbol whose annuli miss |z| = 1 raises ContourViolation: its
    contour kernel grows like r_z^-a off the diagonal, and finite sections at
    the searched windows lose every digit to it.
    """
    if family not in ("sp", "o"):
        raise ValueError("family must be 'sp' or 'o'")
    if not sym.F.on_unit_circle():
        raise ContourViolation(
            f"the unit circle lies outside the annulus {sym.F.annulus_z} or {sym.F.annulus_w} of F"
        )
    lhs, z = szego_normalized_det(sym, "D2" if family == "sp" else "D4", m)
    det, tail_bound, window = gap_probability(lattice_kernel(family, symbol=sym.F), m, fred)
    rhs = z * det
    return BOCheckResult(
        lhs=lhs, rhs=rhs, gap=lhs - rhs, tail_bound=tail_bound, window=window
    )
