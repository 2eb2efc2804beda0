"""Toeplitz+Hankel determinants: Gessel identities, Szego limits, and the
Borodin-Okounkov bridge to Fredholm determinants.

A symbol is a pair of specializations through f(z) = exp(R_+(z) + R_-(z)),
R_±(z) = sum_k rho_k^± z^{±k} with rho_k^± = p_k(rho^±)/k, together with
f~(z) := 1/f(-z).  Four determinant families are built from the Fourier
coefficients (all size x size, 0-indexed):

    D1[i,j] = f_{-i+j} + f_{-i-j}         D2[i,j] = f~_{-i+j} - f~_{-i-j-2}
    D3[i,j] = f_{-i+j} - f_{-i-j-2}       D4[i,j] = f~_{-i+j} + f~_{-i-j}

Exactly (graded): (1/2) D1_n and D2_m are the sp-character sums restricted to
length <= n and width <= m; D3_n and (1/2) D4_m the o-character analogues
(the 1/2 factors apply for positive sizes; at size 0 both sides are 1).
In the limit both sp-side quantities converge to Z_sp and both o-side ones to
Z_o, and for finite m the deficit is itself a Fredholm determinant:

    D2_m = Z_sp det(1 - K_sp-hat)  and  (1/2) D4_m = Z_o det(1 - K_o-hat)

over the configuration sites {m, m+1, ...} (no particle of {lambda_i - i} at
or beyond m is exactly lambda_1 <= m).  Finite sections with a tail bound
from the superexponential kernel decay evaluate the right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationInsufficient
from .identities import character_sum_series
from .kernels import SymbolF, lattice_kernel, powersum_table
from .measures import MeasureSpec
from .series import GradedScalar
from .specializations import Specialization

_WHICH = ("D1", "D2", "D3", "D4")
# determinant family -> (uses f~, sign of the Hankel part, Hankel index offset,
#                        1/2 factor in the Gessel identity, character family, bound kind)
_FAMILY_TABLE = {
    "D1": (False, +1, 0, True, "sp", "length"),
    "D2": (True, -1, 2, False, "sp", "width"),
    "D3": (False, -1, 2, False, "o", "length"),
    "D4": (True, +1, 0, True, "o", "width"),
}


@dataclass
class FredholmConfig:
    """Truncation policy for Fredholm determinants.

    `window` and `tail_tol` drive the discrete finite sections (sites beyond
    the cut; None lets the kernel decay pick the width); `order` is the
    Gauss-Legendre order used where continuum kernels are discretized.
    """

    window: int | None = None
    order: int = 6
    tail_tol: float = 1e-10
    max_window: int = 400


class Symbol:
    """Wiener-Hopf symbol attached to a pair of specializations.

    `f` and `f_tilde` are the SymbolF functions f(z) = exp(R_+(z) + R_-(z))
    and f~(z) = 1/f(-z).  `plancherel_theta` is theta for the symbols built by
    `Symbol.plancherel(theta)`, whose kernels have the Bessel form, and None
    otherwise.
    """

    def __init__(self, rho_plus: Specialization, rho_minus: Specialization):
        if rho_plus.max_support is None or rho_minus.max_support is None:
            raise ValueError("symbols need finitely supported power sums")
        self.rho_plus = rho_plus
        self.rho_minus = rho_minus
        self.plancherel_theta: float | None = None
        f = SymbolF.exp_laurent(
            [(pv, k, False) for k, pv in powersum_table(rho_plus)]
            + [(pv, -k, False) for k, pv in powersum_table(rho_minus)],
            label="f",
        )
        self.f = f
        self.f_tilde = SymbolF(
            lambda z: 1.0 / f(-z), f.annulus_z, f.annulus_w, label="f_tilde"
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

    def fourier_coeff(self, which: str, k: int) -> float:
        return float(self.fourier_coeffs(which, k, k)[0])

    # -- exact graded coefficients -----------------------------------------------

    def fourier_series_coeff(self, which: str, s: int, degree: int) -> GradedScalar:
        """Graded coefficient: f_s = sum_k h_k(rho-) h_{k+s}(rho+) t^(2k+s)
        (e's in place of h's for f~), truncated at the given degree."""
        if which == "f":
            gm, gp = self.rho_minus.h, self.rho_plus.h
        elif which == "f_tilde":
            gm, gp = self.rho_minus.e, self.rho_plus.e
        else:
            raise ValueError("which must be 'f' or 'f_tilde'")
        out = GradedScalar.zero(degree)
        k = max(0, -s)
        while 2 * k + s <= degree:
            c = gm(k) * gp(k + s)
            if c:
                out = out + GradedScalar.monomial(c, 2 * k + s, degree)
            k += 1
        return out


def _matrix_indices(which: str, size: int):
    uses_tilde, sign, offset, _, _, _ = _FAMILY_TABLE[which]
    toeplitz = [[-i + j for j in range(size)] for i in range(size)]
    hankel = [[-i - j - offset for j in range(size)] for i in range(size)]
    return uses_tilde, sign, toeplitz, hankel


def th_det(sym: Symbol, which: str, size: int):
    """Float Toeplitz+Hankel determinant D^1..D^4 of the given size."""
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}")
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return 1.0
    uses_tilde, sign, toep, hank = _matrix_indices(which, size)
    lo = min(min(r) for r in hank + toep)
    hi = max(max(r) for r in toep)
    series = "f_tilde" if uses_tilde else "f"
    coeffs = sym.fourier_coeffs(series, lo, hi)

    def c(k: int) -> float:
        return float(coeffs[k - lo])

    mat = np.array(
        [
            [c(toep[i][j]) + sign * c(hank[i][j]) for j in range(size)]
            for i in range(size)
        ]
    )
    return float(np.linalg.det(mat))


def th_det_series(sym: Symbol, which: str, size: int, degree: int) -> GradedScalar:
    """Exact graded Toeplitz+Hankel determinant, modulo t^(degree+1)."""
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}")
    if size == 0:
        return GradedScalar.one(degree)
    uses_tilde, sign, toep, hank = _matrix_indices(which, size)
    series = "f_tilde" if uses_tilde else "f"
    rows = [
        [
            sym.fourier_series_coeff(series, toep[i][j], degree)
            + sign * sym.fourier_series_coeff(series, hank[i][j], degree)
            for j in range(size)
        ]
        for i in range(size)
    ]
    from .characters import series_determinant

    return series_determinant(rows)


def gessel_check(sym: Symbol, which: str, size: int, degree: int) -> bool:
    """Exact Gessel identity: (possibly halved) determinant equals the
    restricted character sum, as graded series modulo t^(degree+1)."""
    _, _, _, half, family, bound_kind = _FAMILY_TABLE[which]
    lhs = th_det_series(sym, which, size, degree)
    if half and size > 0:
        lhs = lhs / 2
    key = "length_bound" if bound_kind == "length" else "width_bound"
    rhs = character_sum_series(
        family, sym.rho_plus, sym.rho_minus, degree, **{key: size}
    )
    return lhs == rhs


def szego_limits(sym: Symbol) -> tuple[float, float]:
    """(Z_sp, Z_o): the closed-form limits of the four determinant families."""
    z_sp = MeasureSpec("sp", sym.rho_plus, sym.rho_minus).z()
    z_o = MeasureSpec("o", sym.rho_plus, sym.rho_minus).z()
    return z_sp, z_o


def szego_normalized_det(sym: Symbol, which: str, size: int) -> tuple[float, float]:
    """(normalized determinant, its Szego target)."""
    _, _, _, half, family, _ = _FAMILY_TABLE[which]
    val = th_det(sym, which, size)
    if half and size > 0:
        val = val / 2.0
    z_sp, z_o = szego_limits(sym)
    return val, (z_sp if family == "sp" else z_o)


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


def _lattice_kernel_for(sym: Symbol, family: str):
    if sym.plancherel_theta is not None:
        return lattice_kernel(family, theta=sym.plancherel_theta, representation="bessel")
    F = SymbolF.from_measure(MeasureSpec(family, sym.rho_plus, sym.rho_minus))
    return lattice_kernel(family, symbol=F, representation="fourier")


def gap_probability(
    sym: Symbol, family: str, m: int, fred: FredholmConfig | None = None
) -> tuple[float, float, int]:
    """det(1 - K-hat) over configuration sites {m, m+1, ...} by finite section.

    Returns (determinant, tail bound, window used).  Without a configured
    window, the window is the first multiple of 8 (up to max_window) at which
    |K(m + w, m + w)| falls to tail_tol/100.  The tail bound is twice the
    diagonal mass beyond the window; TruncationInsufficient is raised if it
    cannot be pushed below the configured tolerance.  The kernel is called once
    per block of 8 candidate widths, once per block of 32 tail sites and once
    for the window matrix.
    """
    fred = fred or FredholmConfig()
    kernel = _lattice_kernel_for(sym, family)
    if fred.window is not None:
        width = fred.window
    else:
        widths = np.arange(8, max(fred.max_window, 1) + 8, 8)  # 8, 16, ... past max_window
        width = int(widths[-1])
        for block in np.split(widths, range(8, len(widths), 8)):
            small = np.abs(np.diagonal(kernel(m + block, m + block))) <= fred.tail_tol / 100
            if small.any():
                width = int(block[np.argmax(small)])
                break
    # |K(s, s)| from s = m + width through the first value below 1e-22,
    # or through s = m + width + max_window + 1
    tail = 0.0
    s, last = m + width, m + width + fred.max_window + 1
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
    """Compare the determinant (D2_m or half D4_m) with Z * det(1 - K-hat)."""
    if family == "sp":
        lhs = th_det(sym, "D2", m)
        z = szego_limits(sym)[0]
    elif family == "o":
        lhs = th_det(sym, "D4", m) / (2.0 if m > 0 else 1.0)
        z = szego_limits(sym)[1]
    else:
        raise ValueError("family must be 'sp' or 'o'")
    det, tail_bound, window = gap_probability(sym, family, m, fred)
    rhs = z * det
    return BOCheckResult(
        lhs=lhs, rhs=rhs, gap=lhs - rhs, tail_bound=tail_bound, window=window
    )
