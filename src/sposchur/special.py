"""Bessel J and Airy Ai evaluators.

Bessel functions of the first kind are generated by Miller's backward
recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started far enough beyond the
turning point n ~ x that the admixture of the second solution is negligible,
and normalized through J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.  One downward
sweep yields the whole array J_0..J_n, which is what the kernel sums consume.

The Airy function uses the Maclaurin series Ai(0) f(x^3) + Ai'(0) x g(x^3) on
a central interval and the standard asymptotic expansions outside it; the
switch point 6.8 keeps the series' cancellation error and the expansions'
truncation error both below 1e-10 absolute.  Every branch is a fixed-length
Horner sum over coefficient tables built at import, so each value is computed
elementwise and its bits do not depend on the batch.  Against 30-digit mpmath
(step 0.001 from -6.8 up, coarser below) the absolute error is at most
5.2e-14 on [-144, -64], 7.4e-13 on [-64, -6.8), 7.0e-13 on [-6.8, 0] and
7.5e-12 on [0, 6.8].  On the positive axis, where Ai decays, the series'
cancellation costs relative digits: the worst relative error is 6.5e-15 on
[0, 2], 1.4e-11 on [3, 4], 8.0e-10 on [4, 5], 7.8e-8 on [5, 6] and 4.8e-6
on [6, 6.8], then 2.2e-12 on (6.8, 16] past the switch to the expansion.
The tests check both evaluators against mpmath or scipy and against
quadrature oracles: a rotated-ray contour integral for Ai and a Laurent
coefficient for J_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainTooLarge

# ---------------------------------------------------------------------------
# Gauss-Legendre panel quadrature (shared helper)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_panels(a: float, b: float, n_panels: int, n_nodes: int):
    """Nodes and weights of composite Gauss-Legendre on [a, b]."""
    base_x, base_w = _leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    xs = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel()
    return xs, ws


# ---------------------------------------------------------------------------
# Bessel J, Miller backward recurrence
# ---------------------------------------------------------------------------

_MAX_ORDER = 10**6
_RESCALE = 1e280


def _turning_margin(x: float) -> float:
    """16 max(x, 1)^(1/3): how far past the turning point n ~ x the Miller
    sweep starts (plus 60 orders).  The sweep's start, the cache length of
    `_bucket` and the kernels' Bessel truncation order all add it, so they
    agree on which orders an array at x holds."""
    return 16.0 * max(x, 1.0) ** (1.0 / 3.0)


def bessel_j_array(n_max: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_{n_max}(x) in one backward sweep."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > _MAX_ORDER:
        raise ValueError(f"orders beyond {_MAX_ORDER} are not supported")
    x = float(x)
    if x < 0:
        raise ValueError("x must be >= 0; use the parity rule for negative orders")
    out = np.zeros(n_max + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    start = int(max(n_max, math.ceil(x)) + _turning_margin(x) + 60)
    jp = 0.0  # J_{k+1}, unnormalized
    jc = 1e-30  # J_k at k = start
    ssum = 0.0
    for k in range(start, -1, -1):
        if k <= n_max:
            out[k] = jc
        if k % 2 == 0:
            ssum += jc if k == 0 else 2.0 * jc
        if k > 0:
            jp, jc = jc, (2.0 * k / x) * jc - jp
            if abs(jc) > _RESCALE:
                jp /= _RESCALE
                jc /= _RESCALE
                ssum /= _RESCALE
                out /= _RESCALE
    out /= ssum
    return out


_j_cache: dict[tuple[float, int], np.ndarray] = {}


def _bucket(need: int, x: float) -> int:
    """Length of the cached array that serves orders up to `need` at x."""
    margin = int(_turning_margin(x) + 60)
    return 256 * (1 + max(need, int(math.ceil(x)) + margin) // 256)


def bessel_j_values(indices: np.ndarray, x: float) -> np.ndarray:
    """J_n(x), x >= 0, for an integer array of orders n (any sign).

    Negative orders come from the parity rule J_{-n} = (-1)^n J_n.

    Arrays are cached with a length of 256 * (1 + N // 256), where N is the
    larger of the highest order requested and the recurrence margin beyond x.
    A value therefore depends only on the orders asked for and x, never on
    what was evaluated before (or on thread scheduling).
    """
    x = float(x)
    indices = np.asarray(indices)
    mag = np.abs(indices)
    bucket = _bucket(int(np.max(mag)), x)
    arr = _j_cache.get((x, bucket))
    if arr is None:
        arr = bessel_j_array(bucket, x)
        if len(_j_cache) > 16:
            _j_cache.clear()
        _j_cache[(x, bucket)] = arr
    vals = arr[mag]
    odd_neg = (indices < 0) & (mag % 2 == 1)
    return np.where(odd_neg, -vals, vals)


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n (any sign) and x >= 0."""
    return float(bessel_j_values(np.array([n]), x)[0])


# ---------------------------------------------------------------------------
# Airy Ai
# ---------------------------------------------------------------------------

_AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)  # Ai(0)
_AIP_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)
_SERIES_EDGE = 6.8
_PUBLIC_DOMAIN = 40.0


@lru_cache(maxsize=4)
def _airy_u_coeffs(count: int) -> tuple[float, ...]:
    """u_k coefficients of the asymptotic expansions, u_0 = 1."""
    us = [1.0]
    for k in range(count - 1):
        us.append(us[-1] * (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1)))
    return tuple(us)


def _horner_pair(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Two polynomials in v at once, as the rows of one (2, n) array.

    `table` has shape (terms, 2, 1), highest power first.
    """
    acc = np.repeat(table[0], len(v), axis=1)
    for coeff in table[1:]:
        acc *= v
        acc += coeff
    return acc


# Horner table of the oscillatory expansion, highest power of 1/xi^2 first:
# column 0 holds (-1)^k u_2k (p), column 1 (-1)^k u_(2k+1) (q), k = 0..12.
_AIRY_U = _airy_u_coeffs(26)
_LEFT_COEFFS = np.array(
    [((-1) ** k * _AIRY_U[2 * k], (-1) ** k * _AIRY_U[2 * k + 1]) for k in range(12, -1, -1)]
)[:, :, None]


def _series_coeffs(terms: int) -> np.ndarray:
    """Horner tables of the Maclaurin series f(u) and g(u), u = x^3.

    Ai(x) = Ai(0) f(u) + Ai'(0) x g(u).  Row k, stored highest power first,
    holds 1 / prod_{j<k} (3j+2)(3j+3) for f and 1 / prod_{j<k} (3j+3)(3j+4)
    for g, each an exact Fraction rounded once.
    """
    f, g = Fraction(1), Fraction(1)
    rows = []
    for k in range(terms):
        rows.append((float(f), float(g)))
        f /= (3 * k + 2) * (3 * k + 3)
        g /= (3 * k + 3) * (3 * k + 4)
    return np.array(rows[::-1])[:, :, None]


# 33 terms of f and of g: at |x| = 6.8 the last is below 1e-20.
_SERIES_COEFFS = _series_coeffs(33)


def _ai_series(x: np.ndarray) -> np.ndarray:
    """Maclaurin series Ai(0) f(u) + Ai'(0) x g(u), u = x^3, for |x| <= 6.8.

    f and g are summed by Horner together over fixed coefficient tables: no
    divides, no per-term convergence test, and every element's bits
    independent of the rest of the batch.  Against 30-digit mpmath (step
    0.001) the error is at most 7.0e-13 absolute on [-6.8, 0] and 7.5e-12 on
    [0, 6.8], largest near the seams, from the cancellation between the two
    sums.  Ai(0) and Ai'(0) multiply the sums, not the coefficients: folded
    into the tables they moved the worst error on [-6.8, -6] (15000 random
    points) from 8.6e-13 to 1.1e-12.
    """
    acc = _horner_pair(_SERIES_COEFFS, x * x * x)
    return _AI_ZERO * acc[0] + _AIP_ZERO * (x * acc[1])


def _ai_asym_right(x: np.ndarray) -> np.ndarray:
    """Poincare expansion for x > 6.8, summed by Horner in 1/xi.

    The terms (-1)^k u_k xi^-k shrink while u_(k+1)/u_k < xi.  Past the seam
    xi > 11.82 > u_24/u_23 = 11.50, so optimal truncation keeps every term up
    to k = 24, and k = 25 once xi >= u_25/u_24 = 12.003 (x >= 6.869): one
    mask on the leading Horner coefficient is the whole truncation rule.
    Against mpmath on (6.8, 40] (step 0.01) the relative error is at most
    2.09e-12.
    """
    xi = (2.0 / 3.0) * x**1.5
    inv = 1.0 / xi
    us = _airy_u_coeffs(26)
    last = len(us) - 1
    total = np.where(xi * us[last - 1] >= us[last], (-1) ** last * us[last], 0.0)
    for k in range(last - 1, -1, -1):
        total = total * inv + (-1) ** k * us[k]
    return np.exp(-xi) / (2.0 * math.sqrt(math.pi) * x**0.25) * total


def _ai_asym_left(x: np.ndarray) -> np.ndarray:
    """Oscillatory expansion for x < -6.8, p and q by Horner in 1/xi^2.

    p = sum (-1)^k u_2k xi^-2k and q = sum (-1)^k u_(2k+1) xi^-(2k+1),
    k = 0..12, share one reciprocal 1/xi^2, and q is divided by xi once.
    Against 30-digit mpmath the error is at most 7.4e-13 absolute on
    [-64, -6.8) (step 0.005) and 5.2e-14 on [-144, -64] (step 0.01).
    """
    t = -x
    xi = (2.0 / 3.0) * t**1.5
    acc = _horner_pair(_LEFT_COEFFS, 1.0 / (xi * xi))
    phase = xi - math.pi / 4.0
    return (np.cos(phase) * acc[0] + np.sin(phase) * (acc[1] / xi)) / (
        math.sqrt(math.pi) * t**0.25
    )


def airy_ai_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized Ai without the public-domain cap (used by inner quadratures).

    Each element's value does not depend on the rest of the batch; NaN gives
    NaN.
    """
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.nan)
    mid = np.abs(x) <= _SERIES_EDGE
    right = x > _SERIES_EDGE
    left = x < -_SERIES_EDGE
    if mid.any():
        out[mid] = _ai_series(x[mid])
    if right.any():
        out[right] = _ai_asym_right(x[right])
    if left.any():
        out[left] = _ai_asym_left(x[left])
    return out


def airy_ai(x: float) -> float:
    """Ai(x) for |x| <= 40, to 7.5e-12 absolute accuracy or better.

    On (0, 6.8] the relative error grows with x, to 4.8e-6 near 6.8 (see the
    module docstring); beyond 6.8 it is 2.2e-12 or better.
    """
    if math.isnan(x):
        raise ValueError("airy_ai needs a finite x, got nan")
    if abs(x) > _PUBLIC_DOMAIN:
        raise DomainTooLarge(f"|x| = {abs(x)} exceeds the validated domain 40")
    return float(airy_ai_vec(np.array([float(x)]))[0])
