"""Bulk and edge limit kernels and convergence experiments.

Bulk: on rays a ~ alpha*theta + offset with |alpha| < 2, the lattice kernels
approach the discrete sine kernel sin(phi(b-a))/(pi(b-a)) with
phi = arg((alpha + i sqrt(4 - alpha^2))/2); phi degenerates to 0 for
alpha > 2 (vanishing density) and pi for alpha < -2 (packed, Kronecker delta).

Edge: at a ~ 2 theta + x theta^(1/3) the rescaled kernels approach the
Airy 2->1 crossover kernels

    A±(x, y) = int_0^inf Ai(x+s) Ai(y+s) ds  ±  int_0^inf Ai(x-s) Ai(y+s) ds

(+ pairs with the sp family, - with o).  The tests cross-check them against
the double contour representation over rays at angles ±pi/3 (right) and
±2pi/3 (left).  The s-integrals run on a fixed composite
Gauss-Legendre template over [0, 80], cut per call where every y has
y + s > 16, and per row inside that prefix: Ai(y_j + s) and Ai(x_i + s) are
evaluated only where their argument is <= 16 and are exact zeros past it.
Each dropped integrand is at most 0.536 Ai(u) with u > 16, so each term
loses at most 2 x 0.536 int_16^inf Ai ~ 2 x 5.5e-21.  The template is
32 panels of 24-node Gauss-Legendre; its end puts y >= -64, and its
resolution of the oscillating cross factor Ai(x - s) puts x >= -64; below
either bound `airy_2to1` raises DomainTooLarge.

Scan helpers compare lattice kernels with their limits; because lattice
sites are integers, the limit is evaluated at the exactly-scaled coordinate
of the rounded site, x_eff = (a - 2 theta) / theta^(1/3), so that floor
residuals do not pollute the measured rates.

The distribution det(1 - A±) on L^2(s, inf) is evaluated by Nystrom
discretization with composite Gauss-Legendre nodes; P(lambda_1 <= 2 theta +
s theta^(1/3)) under the Plancherel-type measures is the matching discrete
Fredholm determinant, reusing the finite-section machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooLarge, TruncationInsufficient
from .kernels import _check_family, kernel_bessel, lattice_kernel
from .special import airy_ai_vec, gauss_legendre_panels
from .toeplitz_hankel import FredholmConfig, gap_probability

# ---------------------------------------------------------------------------
# limit kernels
# ---------------------------------------------------------------------------


def phi_plus(alpha: float) -> float:
    """arg((alpha + sqrt(alpha^2 - 4))/2): pi below -2, 0 above 2, arccos-like between."""
    if alpha >= 2.0:
        return 0.0
    if alpha <= -2.0:
        return math.pi
    return math.atan2(math.sqrt(4.0 - alpha * alpha) / 2.0, alpha / 2.0)


def sine_kernel(phi: float, d: int) -> float:
    """Discrete sine kernel sin(phi d)/(pi d), with density phi/pi on the diagonal."""
    if not 0.0 <= phi <= math.pi:
        raise ValueError("phi must lie in [0, pi]")
    if d == 0:
        return phi / math.pi
    return math.sin(phi * d) / (math.pi * d)


# Ai(u) < 5e-20 for u > _AI_CUT; airy_2to1 drops every node s with y + s > _AI_CUT.
_AI_CUT = 16.0
# The s-node template; a call uses a prefix of it.  32 panels of 24-node
# Gauss-Legendre: on [-64, 12]^2 A± lies within 2e-12 of 640 16-node panels
# (80 or 96 panels of 10 nodes miss by 2e-9 near -64).  Its first 384 nodes are
# the composite panels on [0, 40] bit for bit, so cuts within 40 keep those bits.
_S_END = 80.0
_S_TEMPLATE = gauss_legendre_panels(0.0, _S_END, 32, 24)


def _ai_rows(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ai(z_i + s_k) where z_i + s_k <= 16, exact zeros past the cut."""
    u = z[:, None] + s
    out = np.zeros_like(u)
    live = u <= _AI_CUT
    out[live] = airy_ai_vec(u[live])
    return out


def airy_2to1(sign: str, x, y):
    """A±(x, y) via the two Airy-product integrals.

    Scalars give a float; 1-D arrays give the matrix [A±(x_i, y_j)].  Both
    integrands carry the factor Ai(y + s), which decays superexponentially, so
    each call sums only the prefix of the s-template (composite 24-node
    Gauss-Legendre on 32 panels of [0, 80]) with s <= 16 - min(y), and
    within it evaluates Ai(y_j + s) only where y_j + s <= 16, with exact
    zeros past that per-row cut; so does Ai(x_i + s) when `x is not y`.  The
    cross factor Ai(x - s) is evaluated on the whole prefix.  Each dropped
    integrand, Ai(x ± s) Ai(y + s) or Ai(x + s) Ai(y + s), is at most
    max|Ai| Ai(u) <= 0.536 Ai(u) with u > 16.  Each of the two terms thus
    loses at most 2 x 0.536 int_16^inf Ai(u) du ~ 2 x 5.5e-21, the infinite
    tail past s = 80 included.  When min(y) >= 16 the prefix is empty and
    the matrix is exactly 0.  The template ends at 80, so y below -64 raises
    DomainTooLarge.  The template is validated on [-64, inf)^2: on
    [-64, 12]^2 A± lies within 2e-12 of 640 16-node panels.  Below -64 the
    oscillating cross factor Ai(x - s) is under-resolved (6.7e-10 at
    x = -200), so x below -64 raises DomainTooLarge as well; non-finite x or
    y raise ValueError.  With C = (A+ - A-)/2 the full-line identity
    C + C^T = 2^(-1/3) Ai(2^(-1/3)(x + y)) holds to ~2e-12 over [-64, 12]^2.
    When `x is y` the Ai(y + s) grid also serves as Ai(x + s).
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    xs, ys = np.atleast_1d(x), np.atleast_1d(y)
    both = np.concatenate([xs, ys])
    if not np.isfinite(both).all():  # the u <= 16 masks would zero a NaN
        raise ValueError(f"airy_2to1 needs finite x and y, got {both[~np.isfinite(both)][0]}")
    for name, zs in (("y", ys), ("x", xs)):
        low = np.min(zs, initial=np.inf)
        if low < _AI_CUT - _S_END:
            raise DomainTooLarge(
                f"airy_2to1 needs {name} >= {_AI_CUT - _S_END:g}, got min({name}) = {low:g}"
            )
    reach = _AI_CUT - np.min(ys, initial=np.inf)
    nodes, weights = _S_TEMPLATE
    keep = np.searchsorted(nodes, reach, side="right")
    s, w = nodes[:keep], weights[:keep]
    up_y = _ai_rows(ys, s)
    up_x = up_y if x is y else _ai_rows(xs, s)
    plus = (up_x * w) @ up_y.T
    cross = (airy_ai_vec(xs[:, None] - s) * w) @ up_y.T
    value = plus + cross if sign == "+" else plus - cross
    return float(value[0, 0]) if scalar else value


# ---------------------------------------------------------------------------
# scans: lattice kernels against their limits
# ---------------------------------------------------------------------------


@dataclass
class ScanRow:
    theta: float
    x: float
    y: float
    discrete: float
    limit: float
    abs_error: float


def bulk_scan(
    family: str, thetas, alpha: float, offsets=range(-3, 4)
) -> list[ScanRow]:
    """Lattice kernel at a = alpha theta + offset versus the sine kernel."""
    rows = []
    offsets = list(offsets)
    if not offsets:  # no window, no kernel call
        return rows
    phi = phi_plus(alpha)
    for theta in thetas:
        sites = round(alpha * theta) + np.array(offsets)
        mat = kernel_bessel(theta, family, sites, sites)
        for i, oa in enumerate(offsets):
            for j, ob in enumerate(offsets):
                val = float(mat[i, j])
                lim = sine_kernel(phi, ob - oa)
                rows.append(ScanRow(theta, oa, ob, val, lim, abs(val - lim)))
    return rows


def max_error_by_theta(rows: list[ScanRow]) -> dict[float, float]:
    out: dict[float, float] = {}
    for r in rows:
        out[r.theta] = max(out.get(r.theta, 0.0), r.abs_error)
    return out


def edge_site(theta: float, x: float) -> int:
    if not theta > 0:  # the edge scaling takes theta^(1/3) and divides by it
        raise ValueError(f"theta must be > 0, got {theta!r}")
    if not math.isfinite(x):  # the site is an integer
        raise ValueError(f"edge coordinate x must be finite, got {x!r}")
    return math.floor(2.0 * theta + x * theta ** (1.0 / 3.0))


def edge_scan(
    family: str, thetas, grid=(-2.0, 0.0, 2.0), effective_coords: bool = False
) -> list[ScanRow]:
    """theta^(1/3) K(a, b) at edge-scaled sites against the A± limit.

    By default the limit is evaluated at the requested (x, y) and the floor
    residual of the lattice site is absorbed into the reported error (it is
    O(theta^(-1/3)), the same order as the kernel convergence itself).  With
    effective_coords=True the limit is evaluated at the exactly-scaled
    coordinates of the rounded sites, which isolates the kernel convergence
    (useful at small theta, where floor noise can dominate).
    """
    sign = "+" if family == "sp" else "-"
    rows = []
    if len(grid) == 0:  # no window, no kernel call
        return rows
    for theta in thetas:
        cube = theta ** (1.0 / 3.0)
        sites = np.array([edge_site(theta, x) for x in grid])
        mat = kernel_bessel(theta, family, sites, sites)
        coords = (sites - 2.0 * theta) / cube if effective_coords else np.array(grid)
        limit = airy_2to1(sign, coords, coords)
        for i, x in enumerate(grid):
            for j, y in enumerate(grid):
                val = cube * float(mat[i, j])
                lim = float(limit[i, j])
                rows.append(ScanRow(theta, x, y, val, lim, abs(val - lim)))
    return rows


def nicholson_scan(thetas, xs=(-1.0, 0.0, 1.0), effective_coords: bool = False) -> list[ScanRow]:
    """theta^(1/3) J_{2 theta + x theta^(1/3)}(2 theta) against Ai(x)."""
    from .special import bessel_j

    rows = []
    for theta in thetas:
        cube = theta ** (1.0 / 3.0)
        for x in xs:
            a = edge_site(theta, x)
            val = cube * bessel_j(a, 2.0 * theta)
            at = (a - 2.0 * theta) / cube if effective_coords else x
            lim = float(airy_ai_vec(np.array([at]))[0])
            rows.append(ScanRow(theta, x, 0.0, val, lim, abs(val - lim)))
    return rows


def fit_error_exponent(errors_by_theta: dict[float, float]) -> float:
    """Least-squares slope of log(error) against log(theta)."""
    ts = sorted(errors_by_theta)
    logs = np.log([max(errors_by_theta[t], 1e-300) for t in ts])
    return float(np.polyfit(np.log(ts), logs, 1)[0])


# ---------------------------------------------------------------------------
# Tracy-Widom 2->1 distributions
# ---------------------------------------------------------------------------


def tw_2to1_cdf(sign: str, s: float, interval: float = 16.0, panels: int = 24) -> float:
    """det(1 - A±) on L^2(s, s + interval) by Nystrom quadrature.

    The kernel decays superexponentially to the right, so a fixed window with
    composite Gauss-Legendre nodes of order 6 reaches the ~1e-13 accuracy of
    A± itself; `tw_2to1_stability` measures it.  A non-finite s raises
    ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"tw_2to1_cdf needs a finite s, got {s!r}")
    end = s + interval
    tail = airy_2to1(sign, end, end)
    if abs(tail) > 1e-9:
        raise TruncationInsufficient(
            f"kernel diagonal {tail:.2e} at the window end {end}; enlarge the interval"
        )
    xs, ws = gauss_legendre_panels(s, end, panels, 6)
    amat = airy_2to1(sign, xs, xs)
    root = np.sqrt(ws)
    kmat = root[:, None] * amat * root[None, :]
    return float(np.linalg.det(np.eye(len(xs)) - kmat))


def tw_2to1_stability(sign: str, s: float) -> float:
    """Change when the default 24 x 6 nodes on [s, s + 16] become 96 x 6 nodes on
    [s, s + 32]: twice the interval at twice the node density, 4x the nodes."""
    base = tw_2to1_cdf(sign, s)
    fine = tw_2to1_cdf(sign, s, interval=32.0, panels=96)
    return abs(fine - base)


def edge_cdf_effective_s(family: str, theta: float, s: float) -> float:
    """Scaled coordinate of the gap cutoff actually tested at finite theta.

    The rounded cutoff m = floor(2 theta + s theta^(1/3)) carries a
    family-antisymmetric half-site correction (+1/2 for sp, -1/2 for o),
    mirroring the a' = a + 1/2 versus a'' = a - 1/2 index maps of the two
    kernels; with it the discrete gap probabilities match the continuum
    distributions to O(theta^(-2/3)) instead of O(theta^(-1/3)).
    """
    _check_family(family)
    half = 0.5 if family == "sp" else -0.5
    return (edge_site(theta, s) + half - 2.0 * theta) / theta ** (1.0 / 3.0)


def edge_cdf_discrete(family: str, theta: float, s: float) -> float:
    """P(lambda_1 <= 2 theta + s theta^(1/3)) for the Plancherel-type measure.

    Equals det(1 - K-hat) on configuration sites {m, m+1, ...} with
    m = floor(2 theta + s theta^(1/3)): no occupied site at or beyond m is
    exactly lambda_1 <= m.  The finite-section window extends past the
    spectral edge by ~8 theta^(1/3).
    """
    m = edge_site(theta, s)
    cube = theta ** (1.0 / 3.0)
    width = max(16, int(2.0 * theta + 8.0 * cube) - m + 8)
    det, _, _ = gap_probability(
        lattice_kernel(family, theta=theta), m, FredholmConfig(window=width, tail_tol=1e-8)
    )
    return det
