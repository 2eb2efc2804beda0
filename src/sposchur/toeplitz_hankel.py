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

from .characters import th_determinant, th_pattern, th_rows
from .errors import TruncationInsufficient
from .identities import character_sum_series
from .kernels import SymbolF, lattice_kernel
from .measures import MeasureSpec
from .series import GradedScalar
from .specializations import Specialization

_MAX_WINDOW = 400  # widest finite section the window search tries


@dataclass
class FredholmConfig:
    """Truncation policy for discrete Fredholm determinants.

    `window` and `tail_tol` drive the finite sections (sites beyond the cut;
    None lets the kernel decay pick the width).
    """

    window: int | None = None
    tail_tol: float = 1e-10


class Symbol:
    """Wiener-Hopf symbol attached to a pair of specializations.

    `f` and `f_tilde` are the SymbolF functions f(z) = H(rho+; z) H(rho-; 1/z)
    and f~(z) = 1/f(-z), of power sums or alphabets; f~ has the annuli
    (0, inf).  `plancherel_theta` is theta for the symbols built by
    `Symbol.plancherel(theta)`, whose kernels have the Bessel form, and None
    otherwise.
    """

    def __init__(self, rho_plus: Specialization, rho_minus: Specialization):
        self.rho_plus = rho_plus
        self.rho_minus = rho_minus
        self.plancherel_theta: float | None = None
        f = SymbolF.product([(rho_plus, "h", "z", 1), (rho_minus, "h", "1/z", 1)], "f")
        self.f = f
        self.f_tilde = SymbolF(
            lambda z: 1.0 / f(-z), (0.0, math.inf), (0.0, math.inf), label="f_tilde"
        )

    @classmethod
    def plancherel(cls, theta) -> "Symbol":
        sym = cls(Specialization.plancherel(2 * theta), Specialization.plancherel(theta))
        sym.plancherel_theta = float(theta)
        return sym

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
    rows = th_rows(which, [0] * size, lambda k: float(coeffs[k - lo]))
    return float(th_determinant(rows))


def th_det_series(sym: Symbol, which: str, size: int, degree: int) -> GradedScalar:
    """Exact graded Toeplitz+Hankel determinant, modulo t^(degree+1)."""
    pattern = th_pattern(which)
    if size < 0:
        raise ValueError("size must be >= 0")
    lo = 2 - 2 * size - pattern.offset  # the lowest (Hankel) index
    coeffs = sym.graded_coeffs(pattern.symbol, lo, size - 1, degree)
    return th_determinant(th_rows(which, [0] * size, lambda k: coeffs[k - lo]), degree)


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
    """(normalized determinant, its Szego target)."""
    pattern = th_pattern(which)
    val = pattern.halve(th_det(sym, which, size), size)
    z_sp, z_o = szego_limits(sym)
    return val, (z_sp if pattern.family == "sp" else z_o)


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

    `kernel` is a configuration kernel as `lattice_kernel` and
    `dual_lattice_kernel` return it: integer sites give a float, 1-D site
    arrays the matrix [K(a_i, b_j)].  Returns (determinant, tail bound,
    window used).  Without a configured window, the window is the first
    multiple of 8 (up to 400) at which |K(m + w, m + w)| falls to
    tail_tol/100.  The "tail bound" is twice the diagonal mass sum |K(s, s)|
    beyond the window.  The kernel is signed and not Hermitian, so this is an
    estimate of the truncation error, not a bound; TruncationInsufficient is
    raised if it exceeds the configured tolerance.  The kernel is called once
    per block of 8 candidate widths, once per block of 32 tail sites and once
    for the window matrix.
    """
    fred = fred or FredholmConfig()
    if fred.window is not None:
        width = fred.window
    else:
        widths = np.arange(8, _MAX_WINDOW + 8, 8)  # 8, 16, ..., _MAX_WINDOW
        width = int(widths[-1])
        for block in np.split(widths, range(8, len(widths), 8)):
            small = np.abs(np.diagonal(kernel(m + block, m + block))) <= fred.tail_tol / 100
            if small.any():
                width = int(block[np.argmax(small)])
                break
    # |K(s, s)| from s = m + width through the first value below 1e-22,
    # or through s = m + width + _MAX_WINDOW + 1
    tail = 0.0
    s, last = m + width, m + width + _MAX_WINDOW + 1
    while s <= last:
        block = np.arange(s, min(s + 32, last + 1))
        d = np.abs(np.diagonal(kernel(block, block)))
        below = np.flatnonzero(d < 1e-22)
        if below.size:
            tail += float(np.sum(d[: below[0] + 1]))
            break
        tail += float(np.sum(d))
        s += 32
    tail_bound = 2.0 * tail
    if tail_bound > fred.tail_tol:
        raise TruncationInsufficient(
            f"tail bound {tail_bound} exceeds {fred.tail_tol} at window {width}"
        )
    sites = np.arange(m, m + width)
    det = float(np.linalg.det(np.eye(width) - kernel(sites, sites))) if width else 1.0
    return det, tail_bound, width


def bo_check(
    sym: Symbol, family: str, m: int, fred: FredholmConfig | None = None
) -> BOCheckResult:
    """Compare the determinant (D2_m or half D4_m) with Z * det(1 - K-hat).

    K-hat is the Bessel kernel for symbols built by `Symbol.plancherel` and
    the Fourier-mode kernel of the sp/o symbol otherwise.
    """
    if family not in ("sp", "o"):
        raise ValueError("family must be 'sp' or 'o'")
    lhs, z = szego_normalized_det(sym, "D2" if family == "sp" else "D4", m)
    if sym.plancherel_theta is not None:
        kernel = lattice_kernel(family, theta=sym.plancherel_theta)
    else:
        F = SymbolF.from_measure(MeasureSpec(family, sym.rho_plus, sym.rho_minus))
        kernel = lattice_kernel(family, symbol=F, representation="fourier")
    det, tail_bound, window = gap_probability(kernel, m, fred)
    rhs = z * det
    return BOCheckResult(
        lhs=lhs, rhs=rhs, gap=lhs - rhs, tail_bound=tail_bound, window=window
    )
