"""Correlation kernels in three representations: double contour integral,
Bessel sums, and Fourier modes.

All three evaluate the same integer-lattice kernels

    K_sp(a, b) = [z^a w^-b]          F(z)/F(w) (1-w^2) / ((1-wz)(1-w/z))
    K_o(a, b)  = [z^(a+1) w^-(b+1)]  F(z)/F(w) (1-z^2) / ((1-wz)(1-w/z))

whose Plancherel specialization F(z) = exp(theta (z - 1/z)) reduces exactly to
the Bessel forms

    K_sp(a, b) = sum_{i>=1} J_{a+i} J_{b+i} + sum_{i>=0} J_{a-i} J_{b+i}
    K_o(a, b)  = sum_{i>=0} J_{a+i} J_{b+i} - sum_{i>=0} J_{a-i} J_{b+i}

(arguments 2 theta).  Conventions: K_sp governs the particle set
{lambda_i - i + 1} and K_o the set {lambda_i - i}; `lattice_kernel` exposes
both re-indexed to the common configuration {lambda_i - i}, which is the form
consumed by correlation determinants and Fredholm sections.  Every route
(`kernel_contour`, `kernel_bessel`, `kernel_fourier` and their `_with_error`
forms) takes sites the same way: integers give a float, 1-D integer arrays
give the matrix [K(a_i, b_j)].  The `_with_error` forms pair a value with an
error of its form: a float for integer sites, an array of the matrix's shape
for site arrays.  The contour and Bessel errors are per entry (the measured
move under node doubling; 1e-15 sqrt(n1 + n2) for the entry's term counts
n1 = max(1, N - min(a, b)) and n2 = max(1, N - b + 1)); the Fourier error is
one mode-window estimate in every entry.  Dual-family kernels are contour-only.

The Bessel route sums each entry as two tail sums, along a diagonal and an
anti-diagonal of the products J_k J_l, one running sum per diagonal.

Contour quadrature is the trapezoidal rule on circles (spectrally accurate
for these analytic integrands), the node count doubling from 64 (`_MIN_NODES`)
until two successive grids agree entry by entry.  The double trapezoid sum is
never formed against the n x n coupling 1/((1-wz)(1-w/z)): partial fractions
split it into a part depending on j+k and a part depending on j-k mod n, each
diagonal in Fourier space, so every node count costs O(n log n) time and O(n)
memory per site (`_contour_matrix`).  The z-circle is turned by half a node,
so the partial fractions' 1/(z - 1/z) is finite at every node for every
radius, r_z = 1 included (`_contour_data`).  Both parts keep the coupling's
geometric series to its first n/2 terms, so the rule converges at the rate
the symbol allows, not at the (r_w r_z)^n of the full series aliased onto n
nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContourViolation, QuadratureNotConverged
from .measures import MeasureSpec, _site
from .special import _j_cache, _turning_margin, bessel_j_values
from .specializations import Specialization

_MODE_TOL = 1e-15  # boundary modes relative to the largest mode
_MAX_FFT = 1 << 20
# contour quadrature: node count doubling from _MIN_NODES up to _MAX_NODES until
# every entry moves by at most _CONTOUR_TOL * max(1, |K|)
_MIN_NODES = 64
_MAX_NODES = 1 << 14
_CONTOUR_TOL = 1e-12


def _check_family(family: str) -> None:
    if family not in ("sp", "o"):
        raise ValueError(f"kernel family must be 'sp' or 'o', got {family!r}")


@dataclass(frozen=True)
class KernelConfig:
    """Contour radii for kernel evaluation."""

    r_z: float = 1.2
    r_w: float = 0.8


def _evaluator(terms: list, linear: list) -> Callable[[np.ndarray], np.ndarray]:
    """z -> exp(sum of terms) times the linear factors.

    A term (c, k, paired) is c z^k / |k|, or c (z^k + z^-k) / k if paired,
    summed in order.  An entry (pairs, side, divide) of `linear` is the
    product of 1 + c u / d over its pairs (c, d), with u = z, 1/z or both by
    side; the factors that divide are multiplied apart and divide once.
    """

    def ev(z):
        acc = np.zeros_like(z)
        for c, k, paired in terms:
            acc = acc + c * ((z**k + z**-k) if paired else z**k) / abs(k)
        if not linear:
            return np.exp(acc)
        parts = [np.ones_like(z), np.ones_like(z)]  # multiplying, dividing
        for pairs, side, divide in linear:
            for c, d in pairs:
                if side != "1/z":
                    parts[divide] = parts[divide] * (1.0 + c * z / d)
                if side != "z":
                    parts[divide] = parts[divide] * (1.0 + c / z / d)
        return np.exp(acc) * parts[0] / parts[1]

    return ev


class SymbolF:
    """The function F(z) driving a kernel, with Laurent-mode caches.

    Every symbol the package builds is a `product` of H/E factors; for an
    sp/o measure F = H(rho+; z) / (H(rho-; z) H(rho-; 1/z)).
    """

    def __init__(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        annulus_z: tuple[float, float],
        annulus_w: tuple[float, float],
        label: str = "symbol",
    ):
        self._evaluate = evaluate
        self.annulus_z = annulus_z  # open interval of admissible |z|
        self.annulus_w = annulus_w
        self.label = label
        self._mode_cache: dict[bool, tuple[int, np.ndarray, float]] = {}
        # (r_z, r_w, nodes) -> the contour nodes, F on them and the vectors
        # of the FFT application (see `_contour_data`)
        self._fz_cache: dict[tuple[float, float, int], tuple] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def product(cls, factors: Sequence[tuple], label: str) -> "SymbolF":
        """The product of the factors (rho, form, side, power): H(rho; u)^power
        for form "h", E(rho; u)^power for form "e", power +-1, with u = z,
        1/z or both of them for side "z", "1/z" or "both".

        An alphabet enters as its linear factors, read from its
        `Specialization.letters` (a, d), those of H factors first; power sums
        (no letters) as one exp of a Laurent polynomial, terms in factor
        order.  An H factor of an alphabet bounds both contours to where it
        converges, |z| < min |d/a| over a != 0 (infinity if none) for u = z
        and |z| > max |a/d| for u = 1/z; an E factor bounds only the contour
        on which it is inverted, z for power -1 and w for power +1.
        """
        terms, linear_h, linear_e = [], [], []
        z_lo = w_lo = 0.0
        z_hi = w_hi = math.inf
        for rho, form, side, power in factors:
            pairs = [(float(a), float(d)) for a, d in rho.letters]
            if not pairs:
                if rho.max_support is None:
                    raise ValueError("a power-sum symbol needs finitely supported power sums")
                for k in range(1, rho.max_support + 1):
                    if p := rho.p(k):  # log E has (-1)^(k-1) p_k in place of p_k
                        c = power * float(p) * (-1 if form == "e" and k % 2 == 0 else 1)
                        terms.append((c, -k if side == "1/z" else k, side == "both"))
                continue
            # H(rho; 1/z) converges for |z| > inner and H(rho; z) for |z| < outer
            inner = max(abs(a / d) for a, d in pairs)
            outer = min((abs(d / a) for a, d in pairs if a), default=math.inf)
            lo, hi = (0.0 if side == "z" else inner), (math.inf if side == "1/z" else outer)
            if form == "h" or power < 0:
                z_lo, z_hi = max(z_lo, lo), min(z_hi, hi)
            if form == "h" or power > 0:
                w_lo, w_hi = max(w_lo, lo), min(w_hi, hi)
            sign = -1.0 if form == "h" else 1.0  # H = 1 / prod (1 - a u), E = prod (1 + a u)
            (linear_h if form == "h" else linear_e).append(
                ([(sign * a, d) for a, d in pairs], side, (form == "h") == (power > 0))
            )
        ev = _evaluator(terms, linear_h + linear_e)
        return cls(ev, (z_lo, z_hi), (w_lo, w_hi), label=label)

    @classmethod
    def plancherel(cls, theta: float) -> "SymbolF":
        """F = exp(theta (z - 1/z)) = H(pl_theta; z) / E(pl_theta; 1/z)."""
        t = float(theta)
        pl = Specialization.plancherel(t)
        return cls.product([(pl, "h", "z", 1), (pl, "e", "1/z", -1)], f"plancherel({t})")

    @classmethod
    def from_measure(cls, spec: MeasureSpec) -> "SymbolF":
        """F = H(rho+; z) / (H(rho-; z) H(rho-; 1/z)) of an sp or o measure.

        Dual families take their kernels from `dual_lattice_kernel`, through
        the base symbol of `dual_base_symbol`.
        """
        if spec.dual:
            raise ValueError(
                f"from_measure takes sp/o measures; use dual_lattice_kernel for {spec.family!r}"
            )
        factors = [(spec.rho_plus, "h", "z", 1), (spec.rho_minus, "h", "both", -1)]
        return cls.product(factors, "F")

    # -- evaluation and contours ------------------------------------------------

    def __call__(self, z):
        return self._evaluate(np.asarray(z, dtype=complex))

    def check_contours(self, r_z: float, r_w: float) -> None:
        if not (0.0 < r_w < r_z):
            raise ContourViolation(f"need 0 < r_w < r_z, got r_w={r_w}, r_z={r_z}")
        if r_z * r_w >= 1.0:
            raise ContourViolation(
                f"need r_z * r_w < 1 for the (1-wz) expansion, got {r_z * r_w}"
            )
        lo, hi = self.annulus_z
        if not (lo < r_z < hi):
            raise ContourViolation(f"r_z={r_z} outside admissible ({lo}, {hi})")
        lo, hi = self.annulus_w
        if not (lo < r_w < hi):
            raise ContourViolation(f"r_w={r_w} outside admissible ({lo}, {hi})")

    def default_config(self) -> KernelConfig:
        z_lo, z_hi = self.annulus_z
        if math.isinf(z_hi):
            cfg = KernelConfig()
        elif z_hi <= 1.0:
            r_z = z_lo + 0.65 * (z_hi - z_lo)
            r_w = z_lo + 0.35 * (z_hi - z_lo)
            cfg = KernelConfig(r_z=r_z, r_w=r_w)
        else:  # annulus straddling the unit circle
            r_z = min(math.sqrt(z_hi), 2.0)
            r_w = (z_lo + min(1.0, 0.95 / r_z)) / 2.0
            cfg = KernelConfig(r_z=r_z, r_w=r_w)
        w_lo, w_hi = self.annulus_w
        if not w_lo < cfg.r_w < w_hi:  # a narrower w-annulus (dual base symbols)
            cfg = KernelConfig(r_z=cfg.r_z, r_w=(w_lo + min(w_hi, 1.0 / cfg.r_z)) / 2.0)
        return cfg

    # -- Laurent modes --------------------------------------------------------------

    def modes(self, inverse: bool, min_order: int = 0) -> tuple[int, np.ndarray, float]:
        """Cached Laurent coefficients of F (or 1/F) on the unit circle.

        Returns (half_window W, coefficients for n in [-W, W], largest boundary
        mode).  The boundary modes are those with |n| > W/2.  The FFT size
        doubles from 256 until they fall to 1e-15 of the largest mode;
        QuadratureNotConverged is raised when they have not at 2^20 points.
        The kernel needs the expansion in the annulus of the z (for 1/F, the
        w) contour, so ContourViolation is raised when the unit circle lies
        outside it: the modes there would give another kernel.
        """
        lo, hi = self.annulus_w if inverse else self.annulus_z
        if not lo < 1.0 < hi:
            raise ContourViolation(
                f"the unit circle lies outside the annulus ({lo}, {hi}) of "
                f"{'1/' if inverse else ''}{self.label}; its modes there give another kernel"
            )
        cached = self._mode_cache.get(inverse)
        if cached is not None and cached[0] >= min_order:
            return cached
        n = 256
        while n <= _MAX_FFT:
            vals = self(np.exp(2j * np.pi * np.arange(n) / n))
            if inverse:
                vals = 1.0 / vals
            raw = np.fft.fft(vals) / n
            w = n // 2 - 1
            coeffs = np.concatenate([raw[n - w :], raw[: w + 1]]).real  # -W..-1, 0..W
            mags = np.abs(coeffs)
            edge = float(max(mags[: w // 2].max(), mags[-(w // 2) :].max()))
            if w >= max(min_order, 8) and edge <= _MODE_TOL * mags.max():
                self._mode_cache[inverse] = (w, coeffs, edge)
                return w, coeffs, edge
            n *= 2
        raise QuadratureNotConverged(
            f"Laurent modes of {self.label} not converged at {_MAX_FFT} points"
        )


# ---------------------------------------------------------------------------
# contour representation
# ---------------------------------------------------------------------------


def _contour_data(F: SymbolF, r_z: float, r_w: float, n: int):
    """Nodes and O(n) quadrature vectors for n-point trapezoid rules on two circles.

    The w-nodes are w_j = r_w omega^j, omega = exp(2 pi i / n), and the z-nodes
    are turned by half a node, z_k = r_z phi omega^k with phi = exp(i pi / n).
    As n is even, no z-node has z^2 = 1 at any radius (at r_z = 1,
    |z^2 - 1| >= 2 sin(pi / n)), and the grid stays closed under conjugation:
    node k pairs with node n - 1 - k.  Returns z, w, F(z), F(w), g z and g / z
    with g = 1 / (z - 1/z), and the coupling's truncated geometric coefficients
    c_r = (r_w r_z phi)^r and d_r = (r_w / (r_z phi))^r for r < n/2 and 0 for
    r >= n/2.  Cached per symbol, keyed by (r_z, r_w, n).
    """
    key = (r_z, r_w, n)
    cache = F._fz_cache
    data = cache.get(key)
    if data is None:
        k = np.arange(n)
        z = r_z * np.exp(1j * np.pi * (2 * k + 1) / n)
        w = r_w * np.exp(2j * np.pi * k / n)
        zz1 = z * z - 1.0
        r = k[: n // 2]
        phase = np.exp(1j * np.pi * r / n)  # phi^r
        c = np.zeros(n, complex)
        d = np.zeros(n, complex)
        c[r] = (r_w * r_z) ** r * phase
        d[r] = (r_w / r_z) ** r / phase
        if len(cache) > 8:
            cache.clear()
        data = cache[key] = (z, w, F(z), F(w), z * z / zz1, 1.0 / zz1, c, d)
    return data


def _contour_matrix(
    F: SymbolF, family: str, a, b, r_z: float, r_w: float, n: int, paired: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The n-node trapezoid value of the double contour integral, [K_n(a_i, b_j)],
    and the size of the largest term of each entry's sum; with `paired`, the
    same for [K_n(a_i, b_i)], each the row-wise product of the two factors.

    The sum over node pairs (j, k) of B[b, j] A[a, k] C(w_j, z_k) is applied
    without the n x n coupling C.  The coupling 1 / ((1 - w z)(1 - w / z)) is
    g(z) (z p - q / z) by partial fractions, with p = 1 / (1 - w z) =
    sum_r (w z)^r and q = 1 / (1 - w / z) = sum_r (w / z)^r, and C keeps the
    modes r < n/2 of both series: on the nodes of `_contour_data`,
    p = sum_r c_r omega^((j+k) r) depends on j + k mod n and
    q = sum_r d_r omega^((j-k) r) on j - k mod n.  Those are the modes that
    B's n-node trigonometric interpolant pairs with, so the w-sum is that
    interpolant's exact w-integral against the coupling (the Nyquist mode
    aside) and the rule converges at the rate the symbol allows; the full
    series aliased onto n nodes would add an error of order (r_w r_z)^n.  So
    the sum is sum_r B~[b, r] (c_r A1~[a, r] - d_r A2^[a, r]) with
    B~ = n ifft(B), A1~ = n ifft(A g z), A2^ = fft(A g / z), all along the
    node axis: O(n log n) per site.
    """
    z, w, fz, fw, gz, g_over_z, c, d = _contour_data(F, r_z, r_w, n)
    a = np.asarray(a)[:, None]
    b = np.asarray(b)[:, None]
    # A[a, k] = a_fac[k] z_k^a_pow and B[b, j] = b_fac[j] w_j^b_pow
    if family == "sp":
        a_fac, a_pow, b_fac, b_pow = fz, -a, (1.0 - w**2) / fw, b
    else:
        a_fac, a_pow, b_fac, b_pow = (1.0 - z**2) * fz, -a - 1, 1.0 / fw, b + 1
    amat = a_fac * z**a_pow
    bmat = b_fac * w**b_pow
    left = n * np.fft.ifft(amat * gz) * c - np.fft.fft(amat * g_over_z) * d
    right = n * np.fft.ifft(bmat)
    # max |A[a, .]| max |B[b, .]| max |coupling|, the coupling largest at z = w = r
    a_terms, b_terms = np.abs(a_fac).max() * r_z**a_pow, np.abs(b_fac).max() * r_w**b_pow
    if paired:
        value, terms = np.sum(left * right, axis=1), (a_terms * b_terms)[:, 0]
    else:
        value, terms = left @ right.T, a_terms @ b_terms.T
    return value / n**2, terms / ((1.0 - r_w * r_z) * (1.0 - r_w / r_z))


def _contour_sums(
    cfg: KernelConfig, F: SymbolF, family: str, a: np.ndarray, b: np.ndarray, paired: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The converged `_contour_matrix` values at the site arrays and their last
    moves, under the stopping rule of `kernel_contour_with_error`."""
    _check_family(family)
    r_z, r_w = float(cfg.r_z), float(cfg.r_w)  # int radii would keep r_z**a_pow in ints
    F.check_contours(r_z, r_w)
    n = _MIN_NODES
    prev, _ = _contour_matrix(F, family, a, b, r_z, r_w, n, paired)
    while n < _MAX_NODES:
        n *= 2
        cur, terms = _contour_matrix(F, family, a, b, r_z, r_w, n, paired)
        delta = np.abs(cur - prev)
        scale = np.maximum(1.0, np.abs(cur))
        if np.all(delta <= _CONTOUR_TOL * scale):
            bad = np.argwhere(np.abs(cur.imag) > 1e-12 * np.maximum(scale, terms))
            if bad.size:
                entry = tuple(bad[0])  # (i, j), or (i,) for paired sites
                raise QuadratureNotConverged(
                    f"imaginary residue {cur[entry].imag} at (a,b)=({a[entry[0]]},{b[entry[-1]]})"
                )
            return cur.real, delta
        prev = cur
    raise QuadratureNotConverged(f"no convergence to {_CONTOUR_TOL} within {_MAX_NODES} nodes")


def kernel_contour_with_error(cfg: KernelConfig, F: SymbolF, family: str, a, b):
    """Kernel by double trapezoidal contour quadrature, with an error estimate.

    Integer sites give (value, error) as floats; 1-D site arrays give the grid
    [K(a_i, b_j)] and an error array of its shape, entry by entry.  The node
    count doubles from 64 until every entry moves by at most
    1e-12 * max(1, |K|); an entry's error is its last move |K_n - K_{n/2}|, a
    measured estimate, not a bound.  An entry whose imaginary residue exceeds
    1e-12 times the larger of max(1, |K|) and the largest term of its
    trapezoid sum raises QuadratureNotConverged, as does a grid not converged
    by 2^14 nodes.
    """
    a, b, scalar = _site_arrays(a, b)
    value, delta = _contour_sums(cfg, F, family, a, b)
    if scalar:
        return float(value[0, 0]), float(delta[0, 0])
    return value, delta


def kernel_contour(cfg: KernelConfig, F: SymbolF, family: str, a, b):
    """`kernel_contour_with_error` without the error."""
    return kernel_contour_with_error(cfg, F, family, a, b)[0]


kernel_contour_grid_with_error = kernel_contour_with_error
kernel_contour_grid = kernel_contour


# ---------------------------------------------------------------------------
# Bessel representation (Plancherel symbols)
# ---------------------------------------------------------------------------


_SUM_BLOCK = 1 << 18  # elements of the running-sum buffer per block of diagonals


def _site_arrays(a, b) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sites as 1-D integer arrays, and whether both were given as scalars;
    a site that is not integer-valued raises ValueError."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    if a.ndim != 1 or b.ndim != 1 or not (a.size and b.size):
        raise ValueError("kernel sites must be integers or non-empty 1-D integer arrays")
    for given in (a, b):
        if (bad := given[given.astype(np.int64) != given]).size:
            raise ValueError(f"kernel sites must be integers, got {bad[0]!r}")
    return a.astype(np.int64), b.astype(np.int64), scalar


def _bessel_sums(theta: float, family: str, a: np.ndarray, b: np.ndarray, paired: bool = False):
    """The matrix [K(a_i, b_j)] by truncated Bessel sums, and the truncation order N;
    with `paired`, the 1-D array [K(a_i, b_i)] of equally long site arrays.

    With d = b - a and s = a + b, K_sp = T1 + T2 and K_o = J_a J_b + T1 - T2
    for the tail sums over the orders in [-N, N], with the truncation order
    N = ceil(2 theta + 16 max(2 theta, 1)^(1/3) + 60),

        T1(a, b) = sum_{k > a} J_k J_{k+d},   T2(a, b) = sum_{k >= b} J_{s-k} J_k.

    Each is one running sum from order N down along the diagonal d or the
    anti-diagonal s, shared by every entry on it, so a W x W window costs
    O(W (W + N)) products instead of O(W^2 N).  Only the diagonals the sites
    use are formed, about _SUM_BLOCK elements at a time.  An entry adds its
    terms in the same order whatever else is asked for, and for sites within
    [-N, N] the J lookup's cache bucket depends on theta alone (N and the
    bucket add the same `_turning_margin`), so matrix entries then have the
    bits of the scalar values.  The paired form keys each pair (a_i, b_i) by
    its own diagonal and anti-diagonal and reads the same running sums, so
    [K(s_i, s_i)] has the bits of the diagonal of the matrix over s.
    """
    _check_family(family)
    if theta < 0:
        raise ValueError("theta must be >= 0")
    x = 2.0 * float(theta)
    upper = int(math.ceil(x + _turning_margin(x) + 60))
    a_lo, b_lo, a_hi, b_hi = int(a.min()), int(b.min()), int(a.max()), int(b.max())
    # every term has its orders in [lo, N]: T1 above min(a, b), T2 from a + b - N
    lo = max(-upper, min(a_lo, b_lo, a_lo + b_lo - upper, upper))
    m = upper - lo + 1
    j_lo = min(lo, a_lo, b_lo)
    J = bessel_j_values(np.arange(j_lo, max(upper, a_hi, b_hi) + 1), x)
    # Z = m + 1 zeros, J_N .. J_lo, m + 1 zeros, J_lo .. J_N, m + 1 zeros.  Column
    # c of a row is the term of order k = N + 1 - c: Z[m + c] = J_k times
    # Z[m - d + c] = J_{k+d} (T1) or Z[3m + 1 + s - lo - N + c] = J_{s-k} (T2).
    # Rows past +-m from those offsets hold no nonzero term and are clipped.
    Z = np.zeros(5 * m + 3)
    Z[3 * m + 2 : 4 * m + 2] = J[lo - j_lo : upper - j_lo + 1]
    Z[m + 1 : 2 * m + 1] = Z[3 * m + 2 : 4 * m + 2][::-1]
    a_i, b_j = (a, b) if paired else (a[:, None], b)
    shape = (2,) + np.broadcast_shapes(a_i.shape, b_j.shape)
    keys = np.empty(shape, dtype=np.int64)  # row starts
    np.subtract(a_i, b_j, out=keys[0])
    np.add(a_i - lo - upper, b_j, out=keys[1])
    np.minimum(np.maximum(keys, -m, out=keys), m, out=keys)
    keys[0] += m
    keys[1] += 3 * m + 1
    used = np.zeros(4 * m + 2, dtype=bool)
    used[keys.ravel()] = True
    starts = np.flatnonzero(used)  # the rows in use, and each entry's row
    rows = np.searchsorted(starts, keys)
    cols = np.empty(shape, dtype=np.int64)  # T1 sums orders > a, T2 >= b
    cols[0] = upper - a_i
    cols[1] = upper + 1 - b_j
    np.minimum(np.maximum(cols, 0, out=cols), m, out=cols)
    width = min(m, max(0, upper - a_lo, upper + 1 - b_lo)) + 1  # cols.max() + 1
    # windows[i] = Z[i : i + width], a strided view
    windows = np.ndarray((len(Z) - width + 1, width), Z.dtype, Z, strides=Z.strides * 2)
    t = np.empty(keys.shape)
    step = max(1, _SUM_BLOCK // width)
    for r0 in range(0, len(starts), step):
        sums = windows[starts[r0 : r0 + step]]
        sums *= windows[m]
        np.add.accumulate(sums, axis=1, out=sums)
        here = slice(None) if step >= len(starts) else (rows >= r0) & (rows < r0 + step)
        t[here] = sums[rows[here] - r0, cols[here]]
    t1, t2 = t
    if family == "sp":
        value = t1 + t2
    else:
        value = J[a_i - j_lo] * J[b_j - j_lo] + t1 - t2
    return value, upper


def kernel_bessel_with_error(theta: float, family: str, a, b):
    """Kernel of the Plancherel-type measure, by truncated Bessel sums
    (`_bessel_sums`), with a rounding estimate.

    Integer sites give (value, error) as floats; 1-D site arrays give the
    matrix [K(a_i, b_j)] and an error array of its shape.  The error of an
    entry is 1e-15 sqrt(n1 + n2), n1 = max(1, N - min(a, b)) and
    n2 = max(1, N - b + 1) the term counts of its two sums, N the truncation
    order; it does not cover the terms past N.
    """
    a, b, scalar = _site_arrays(a, b)
    value, upper = _bessel_sums(theta, family, a, b)
    n1 = np.maximum(1, upper - np.minimum.outer(a, b))
    err = 1e-15 * np.sqrt(n1 + np.maximum(1, upper + 1 - b))
    if scalar:
        return float(value[0, 0]), float(err[0, 0])
    return value, err


def kernel_bessel(theta: float, family: str, a, b):
    """`kernel_bessel_with_error` without the error, which it does not form."""
    a, b, scalar = _site_arrays(a, b)
    value = _bessel_sums(theta, family, a, b)[0]
    return float(value[0, 0]) if scalar else value


# ---------------------------------------------------------------------------
# Fourier-mode representation
# ---------------------------------------------------------------------------


def kernel_fourier_with_error(F: SymbolF, family: str, a, b):
    """Kernel from the Laurent modes c of F and d of 1/F.

    sp: c_a d_{-b} + sum_{j>=1} d_{-b-j} (c_{a+j} + c_{a-j})
    o : sum_{j>=0} d_{-b-j} (c_{a+j} - c_{a-j})

    Integer sites give (value, error) as floats; 1-D site arrays give the
    matrix [K(a_i, b_j)], with the sums over j cut where the mode windows end
    for the outermost sites, and an error array of its shape.  The error is
    one estimate for the whole call, 4 times the largest boundary mode of the
    two windows (see `SymbolF.modes`), in every entry.
    """
    a, b, scalar = _site_arrays(a, b)
    value, err = _fourier_sums(F, family, a, b)
    if scalar:
        return float(value[0, 0]), err
    return value, np.full(value.shape, err)


def _fourier_sums(
    F: SymbolF, family: str, a: np.ndarray, b: np.ndarray, paired: bool = False
) -> tuple[np.ndarray, float]:
    """The matrix [K(a_i, b_j)] of `kernel_fourier_with_error` and its one error
    estimate; with `paired`, [K(a_i, b_i)], each sum over j taken row-wise."""
    _check_family(family)
    a_far, b_far = int(np.abs(a).max()), int(np.abs(b).max())
    need = max(a_far, b_far) + 16
    wc, cvals, err_c = F.modes(False, min_order=need)
    wd, dvals, err_d = F.modes(True, min_order=need)
    jmax = min(wc - a_far, wd - b_far) - 1  # >= 15, as both windows reach `need`
    j = np.arange(1 if family == "sp" else 0, jmax + 1)
    c_up, c_down = cvals[wc + a[:, None] + j], cvals[wc + a[:, None] - j]
    d_tail = dvals[wd - b[:, None] - j]
    c_sum = c_up + c_down if family == "sp" else c_up - c_down
    value = np.sum(c_sum * d_tail, axis=1) if paired else c_sum @ d_tail.T
    if family == "sp":
        c0, d0 = cvals[wc + a], dvals[wd - b]
        value = (c0 * d0 if paired else np.outer(c0, d0)) + value
    return value, max(err_c, err_d) * 4.0


def kernel_fourier(F: SymbolF, family: str, a, b):
    """`kernel_fourier_with_error` without the error."""
    return kernel_fourier_with_error(F, family, a, b)[0]


# ---------------------------------------------------------------------------
# configuration-level kernel and determinants
# ---------------------------------------------------------------------------


def dual_base_symbol(spec: MeasureSpec) -> SymbolF:
    """Symbol of the non-dual measure underlying a dual family.

    Conjugating lambda is the omega involution on the character side:
    m'_sp(.; rho+, rho-) is the image of m_o(.; omega(rho+), rho-) under
    conjugation, and vice versa for m'_o.  The base symbol is therefore the
    plain H-form F with the plus side omega-twisted, i.e. H(omega rho+; z) =
    E(rho+; z): E(rho+; z) / (H(rho-; z) H(rho-; 1/z)).
    """
    if not spec.dual:
        raise ValueError("dual_base_symbol needs a dual-family measure")
    factors = [(spec.rho_plus, "e", "z", 1), (spec.rho_minus, "h", "both", -1)]
    return SymbolF.product(factors, "dual base F")


def dual_lattice_kernel(spec: MeasureSpec) -> Callable:
    """Configuration kernel of a dual-family measure on {lambda_i - i}.

    Conjugation acts on configurations as the reflected particle-hole map
    a -> -1-a, so the kernel is delta(a,b) - K_base(-1-a, -1-b) with the base
    family swapped (sp-dual rests on an o measure and conversely), by the
    contour route at the base symbol's `default_config`.  Like
    `lattice_kernel`, it takes integer sites or 1-D site arrays.
    """
    if not spec.dual:
        raise ValueError("dual_lattice_kernel needs a dual-family measure")
    base_family = "o" if spec.family == "sp-dual" else "sp"
    base = lattice_kernel(base_family, symbol=dual_base_symbol(spec), representation="contour")

    def kernel(a, b):
        a_sites, b_sites, scalar = _site_arrays(a, b)
        value = np.equal.outer(a_sites, b_sites) - base(-1 - a_sites, -1 - b_sites)
        return float(value[0, 0]) if scalar else value

    kernel.diagonal = lambda sites: 1.0 - base.diagonal(-1 - _site_arrays(sites, sites)[0])
    return kernel


def lattice_kernel(
    family: str,
    theta: float | None = None,
    symbol: SymbolF | None = None,
    representation: str = "bessel",
) -> Callable:
    """Kernel re-indexed to the configuration {lambda_i - i}.

    K_sp natively governs {lambda_i - i + 1}, so its arguments shift by one;
    K_o already lives on {lambda_i - i}.  The function returned maps sites
    (a, b) to K(a, b): a float for integer sites, the matrix [K(a_i, b_j)]
    for 1-D site arrays, from one kernel evaluation either way.  Its
    `diagonal(sites)` is the 1-D array [K(s_i, s_i)], computed without the
    matrix: on the Bessel route with the bits of the matrix diagonal, on the
    Fourier and contour routes as row-wise sums that agree with it to
    rounding (the contour entries under the same per-entry stopping rule).
    The Bessel route needs theta; the contour route (at the symbol's
    `default_config`) and the Fourier route need a symbol.
    """
    _check_family(family)
    shift = 1 if family == "sp" else 0
    if representation == "bessel":
        if theta is None:
            raise ValueError("bessel representation needs theta")
        matrix = lambda a, b: kernel_bessel(theta, family, a, b)
        paired = lambda s: _bessel_sums(theta, family, s, s, paired=True)[0]
    elif representation not in ("contour", "fourier"):
        raise ValueError(f"unknown representation {representation!r}")
    elif symbol is None:
        raise ValueError(f"{representation} representation needs a symbol")
    elif representation == "contour":
        cfg = symbol.default_config()
        matrix = lambda a, b: kernel_contour(cfg, symbol, family, a, b)
        paired = lambda s: _contour_sums(cfg, symbol, family, s, s, paired=True)[0]
    else:
        matrix = lambda a, b: kernel_fourier(symbol, family, a, b)
        paired = lambda s: _fourier_sums(symbol, family, s, s, paired=True)[0]

    def kernel(a, b):
        return matrix(np.add(a, shift), np.add(b, shift))

    kernel.diagonal = lambda sites: paired(_site_arrays(sites, sites)[0] + shift)
    return kernel


def correlation_det(kernel: Callable, points: Sequence[int]) -> float:
    """det[K(p_i, p_j)] over a finite set of distinct integer points."""
    pts = [_site(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError(f"points must be distinct, got {pts}")
    if not pts:
        return 1.0
    sites = np.array(pts)
    return float(np.linalg.det(kernel(sites, sites)))


def reset_numeric_caches() -> None:
    """Clear the shared Bessel-array cache (contour data is cached per symbol).

    Every cached value is a pure function of its key (Bessel arrays have a
    length fixed by x and the order bucket), so clearing changes no result;
    it only frees memory.
    """
    _j_cache.clear()
