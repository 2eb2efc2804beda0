import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from sposchur.errors import DomainTooLarge, QuadratureNotConverged
from sposchur.special import (
    _LEFT_COEFFS,
    _SERIES_COEFFS,
    _airy_u_coeffs,
    airy_ai,
    airy_ai_vec,
    bessel_j,
    bessel_j_array,
    bessel_j_values,
    gauss_legendre_panels,
)

# Quadrature oracles, independent of the evaluators under test.


def bessel_j_quadrature(n: int, x: float, nodes: int = 512) -> float:
    """Oracle: J_n(x) as the n-th Laurent coefficient of exp((x/2)(z - 1/z))."""
    k = np.arange(nodes)
    z = np.exp(2j * np.pi * k / nodes)
    vals = np.exp((x / 2.0) * (z - 1.0 / z)) * z ** (-n)
    return float(np.mean(vals).real)


def airy_ai_quadrature(x: float, tol: float = 1e-12) -> float:
    """Oracle: Ai(x) by quadrature of the contour integral along rotated rays.

    The defining contour runs from exp(-i pi/3) infinity to exp(+i pi/3)
    infinity; by conjugate symmetry Ai(x) = Im(integral over the upper ray)/pi
    with the ray shifted to pass through a convenient real vertex.
    """
    v = 0.5 if x < 1.0 else math.sqrt(x)
    direction = cmath.exp(1j * math.pi / 3.0)
    t_max = 8.0 + 2.0 * math.sqrt(abs(x))

    def integrate(n_panels: int) -> float:
        ts, ws = gauss_legendre_panels(0.0, t_max, n_panels, 12)
        zeta = v + ts * direction
        vals = np.exp(zeta**3 / 3.0 - x * zeta) * direction
        return float(np.sum(ws * vals.imag)) / math.pi

    prev = integrate(24)
    for n_panels in (48, 96, 192):
        cur = integrate(n_panels)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureNotConverged(f"Airy contour quadrature at x={x}")


def test_gauss_legendre_panels_polynomial_exact():
    xs, ws = gauss_legendre_panels(-1.0, 3.0, 4, 6)
    # degree-9 polynomial integrated exactly by 6-point GL
    val = float(np.sum(ws * xs**9))
    assert val == pytest.approx((3.0**10 - 1.0) / 10.0, rel=1e-13)


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for n in range(1, 6):
        assert bessel_j(n, 0.0) == 0.0


def test_bessel_quadrature_oracle_agreement():
    for n, x in [(0, 2.0), (1, 2.0), (5, 1.0), (3, 10.0), (25, 10.0), (0, 0.7)]:
        assert bessel_j(n, x) == pytest.approx(
            bessel_j_quadrature(n, x), abs=1e-12
        ), (n, x)


def test_bessel_negative_order_parity():
    for n in range(1, 7):
        assert bessel_j(-n, 3.2) == pytest.approx(
            (-1) ** n * bessel_j(n, 3.2), abs=1e-16
        )


def test_bessel_normalization_identity():
    for x in (1.0, 5.0, 20.0):
        arr = bessel_j_array(int(x) + 80, x)
        total = arr[0] + 2.0 * arr[2::2].sum()
        assert total == pytest.approx(1.0, abs=1e-12), x


def test_bessel_sum_of_squares_large_argument():
    # sum over Z of J_n(x)^2 = 1, exercised at the edge-scan scale
    x = 1600.0
    arr = bessel_j_array(int(x + 16 * x ** (1 / 3) + 80), x)
    total = arr[0] ** 2 + 2.0 * np.sum(arr[1:] ** 2)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_bessel_decay_past_turning_point():
    x = 50.0
    assert abs(bessel_j(120, x)) < 1e-20
    assert abs(bessel_j(90, x)) < abs(bessel_j(60, x))


def test_airy_at_zero():
    expected = 3.0 ** (-2 / 3) / math.gamma(2 / 3)
    assert airy_ai(0.0) == pytest.approx(expected, abs=1e-14)
    assert airy_ai_quadrature(0.0) == pytest.approx(expected, abs=1e-10)


def test_airy_vs_quadrature_grid():
    xs = np.linspace(-8.0, 8.0, 81)
    errs = [abs(airy_ai(float(x)) - airy_ai_quadrature(float(x))) for x in xs]
    assert max(errs) < 1e-9


def test_airy_decreasing_right_tail():
    vals = [airy_ai(float(x)) for x in np.linspace(2.0, 10.0, 17)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_airy_ode_residual():
    h = 1e-4
    for x in (-2.0, 0.0, 2.0):
        second = (airy_ai(x + h) - 2 * airy_ai(x) + airy_ai(x - h)) / h**2
        assert second - x * airy_ai(x) == pytest.approx(0.0, abs=1e-6)


def test_airy_branch_seam_consistency():
    # values straddling the series/asymptotic switch agree with the oracle
    for x in (6.5, 6.79, 6.81, 7.2, -6.5, -6.81, -7.3):
        assert airy_ai(x) == pytest.approx(airy_ai_quadrature(x), abs=2e-11), x


def test_airy_domain_cap():
    with pytest.raises(DomainTooLarge):
        airy_ai(41.0)
    # the internal vectorized evaluator has no cap (inner quadratures need it)
    assert airy_ai_vec(np.array([55.0]))[0] < 1e-80


def test_airy_vec_matches_scalar():
    xs = np.array([-7.5, -3.0, 0.0, 1.5, 7.5])
    vec = airy_ai_vec(xs)
    for i, x in enumerate(xs):
        assert vec[i] == airy_ai(float(x))


def test_airy_bits_do_not_depend_on_the_batch():
    # airy_2to1 evaluates only the arguments inside its cut, so an element's
    # bits must not change with the rest of the batch
    rng = np.random.default_rng(20)
    seam = [6.8, -6.8, np.nextafter(6.8, 7.0), np.nextafter(-6.8, -7.0), 6.8693, 6.8694]
    xs = np.concatenate([rng.uniform(-40.0, 80.0, 2000), seam, [0.0, 1e-8, -1e-8]])
    rng.shuffle(xs)
    batch = airy_ai_vec(xs)
    single = np.array([airy_ai_vec(np.array([x]))[0] for x in xs])
    assert np.array_equal(batch, single)
    assert np.array_equal(airy_ai_vec(xs.reshape(49, 41)), batch.reshape(49, 41))


# Ai bits pinned as float.hex strings: left expansion, both seams (and their
# neighbours), the Maclaurin series, the right expansion on both sides of its
# truncation switch at 6.869.  A reordered Horner sum or a coefficient table
# rounded another way fails here.
_AIRY_BITS = [
    (-40.0, "-0x1.784a6b5e2d04fp-5"),
    (-25.3, "-0x1.715d5ba4fcca1p-3"),
    (-12.5, "-0x1.1ae7b7f765332p-2"),
    (-7.0, "0x1.79683b0570e8ap-3"),
    (-6.800000000000001, "0x1.8ca41bf36762cp-7"),
    (-6.8, "0x1.8ca41bf3ad130p-7"),
    (-6.5, "-0x1.e7773026e4e0ap-3"),
    (-3.3, "-0x1.ab317aca273c6p-2"),
    (-1.0, "0x1.1235093d83da6p-1"),
    (-1e-08, "0x1.6b8c798ee85b0p-2"),
    (0.0, "0x1.6b8c7962715b9p-2"),
    (1e-08, "0x1.6b8c7935fa5c2p-2"),
    (0.7, "0x1.8367939abe48bp-3"),
    (2.5, "0x1.01a74da795e80p-6"),
    (5.9, "0x1.abb8b50000000p-17"),
    (6.8, "0x1.567de00000000p-20"),
    (6.800000000000001, "0x1.567dc4126d982p-20"),
    (6.8693, "0x1.1d09a5b09d367p-20"),
    (6.8694, "0x1.1cf64490b3ab2p-20"),
    (9.3, "0x1.0fed97e5dc818p-30"),
    (17.0, "0x1.aa2884dd9fb66p-71"),
    (33.3, "0x1.1041e789eba79p-188"),
]


def test_airy_bits_are_pinned():
    xs = np.array([x for x, _ in _AIRY_BITS])
    got = [float(v).hex() for v in airy_ai_vec(xs)]
    assert got == [bits for _, bits in _AIRY_BITS]


def test_airy_right_tail_keeps_optimal_truncation():
    # reference: add (-1)^k u_k xi^-k term by term while the terms shrink;
    # Horner with the last term masked below x = 6.869 sums the same terms
    xs = np.concatenate([np.linspace(6.8, 6.9, 201)[1:], np.linspace(6.9, 40.0, 400)])
    xi = (2.0 / 3.0) * xs**1.5
    us = _airy_u_coeffs(26)
    ref = []
    for z in xi:
        total, best = 0.0, 1.0
        for k, u in enumerate(us):
            term = u / z**k
            if term > best:
                break
            total, best = total + (-1) ** k * term, term
        ref.append(total)
    ref = np.exp(-xi) / (2.0 * math.sqrt(math.pi) * xs**0.25) * np.array(ref)
    assert np.max(np.abs(airy_ai_vec(xs) / ref - 1.0)) <= 4e-15


def test_airy_nan_and_non_finite_arguments():
    out = airy_ai_vec(np.array([np.nan, 0.0, np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2]) and out[1] == airy_ai(0.0)
    assert np.isnan(airy_ai_vec(np.array([np.nan]))[0])
    with pytest.raises(ValueError, match="nan"):
        airy_ai(float("nan"))
    for x in (math.inf, -math.inf):
        with pytest.raises(DomainTooLarge):
            airy_ai(x)


# ---------------------------------------------------------------------------
# independent oracles: scipy.special and mpmath (skipped when not installed)
# ---------------------------------------------------------------------------


def test_airy_matches_scipy_and_mpmath_over_the_domain():
    scipy_special = pytest.importorskip("scipy.special")
    mpmath = pytest.importorskip("mpmath")
    # step 0.02 over |x| <= 40; the largest error (~8e-12) sits near the
    # series/asymptotic switch at 6.8
    xs = np.linspace(-40.0, 40.0, 4001)
    ours = np.array([airy_ai(float(x)) for x in xs])
    assert np.max(np.abs(ours - scipy_special.airy(xs)[0])) <= 1e-10
    for x in np.linspace(-40.0, 40.0, 81):
        assert airy_ai(float(x)) == pytest.approx(float(mpmath.airyai(x)), abs=1e-10), x


def test_airy_branches_match_mpmath_over_the_airy_2to1_range():
    mpmath = pytest.importorskip("mpmath")
    # airy_2to1 reads Ai on [-144, 16]: its cross factor Ai(x - s) reaches
    # -64 - 80, and every other argument is cut at 16.  Step 0.2, plus step
    # 0.002 around both seams, where each branch has its largest error.
    xs = np.concatenate(
        [np.linspace(-144.0, 16.0, 801), np.linspace(-6.9, -6.7, 101), np.linspace(6.7, 6.9, 101)]
    )
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.airyai(float(x))) for x in xs])
    err = np.abs(airy_ai_vec(xs) - ref)
    # absolute bounds at 1.3-4x the worst error each branch measured at steps
    # of 0.001-0.01
    for part, bound in (
        (xs <= -64.0, 1e-13),  # oscillatory expansion, far
        ((xs > -64.0) & (xs < -6.8), 1e-12),  # oscillatory expansion
        ((xs >= -6.8) & (xs <= 0.0), 1e-12),  # Maclaurin series
        ((xs >= 0.0) & (xs <= 6.8), 1e-11),  # Maclaurin series, cancelling
        (xs > 6.8, 1e-17),  # Poincare expansion
    ):
        assert np.max(err[part]) <= bound, (xs[part][0], np.max(err[part]))
    right = xs > 6.8
    assert np.max(err[right] / ref[right]) <= 3e-12


def test_airy_coefficient_tables_are_the_exact_rationals_rounded_once():
    # f and g coefficients from factorials, not from the divisor products the
    # module multiplies: (3k)!/prod(3j+1) = prod (3j+2)(3j+3), and
    # (3k+1)!/prod(3j+2) = prod (3j+3)(3j+4), over j < k
    table = _SERIES_COEFFS[::-1, :, 0]
    assert table.shape == (33, 2)
    for k, (f_k, g_k) in enumerate(table):
        f_den = math.factorial(3 * k) // math.prod(3 * j + 1 for j in range(k))
        g_den = math.factorial(3 * k + 1) // math.prod(3 * j + 2 for j in range(k))
        assert f_k == float(Fraction(1, f_den)), k
        assert g_k == float(Fraction(1, g_den)), k
    # the oscillatory table: u_k = (2k+1)(2k+3)...(6k-1) / (216^k k!), with
    # signs alternating in k
    left = _LEFT_COEFFS[::-1, :, 0]
    assert left.shape == (13, 2)
    exact = [
        Fraction(math.prod(range(2 * k + 1, 6 * k, 2)), 216**k * math.factorial(k))
        for k in range(26)
    ]
    for k, (p_k, q_k) in enumerate(left):
        sign = (-1) ** k
        assert p_k == pytest.approx(sign * float(exact[2 * k]), rel=1e-15), k
        assert q_k == pytest.approx(sign * float(exact[2 * k + 1]), rel=1e-15), k
    assert list(left.ravel()) == [(-1) ** (i // 2) * u for i, u in enumerate(_airy_u_coeffs(26))]


@pytest.mark.parametrize("theta", [0.5, 3.0, 200.0, 1e4])
def test_bessel_matches_scipy_over_the_kernel_orders(theta):
    scipy_special = pytest.importorskip("scipy.special")
    x = 2.0 * theta
    # the orders kernel_bessel reads at argument 2 theta: |n| up to its truncation
    upper = int(math.ceil(x + 16.0 * max(x, 1.0) ** (1.0 / 3.0) + 60))
    orders = np.arange(-upper, upper + 1)
    ours = bessel_j_values(orders, x)
    assert np.max(np.abs(ours - scipy_special.jv(orders, x))) <= 1e-12
    for n in orders[:: max(1, len(orders) // 40)]:
        assert bessel_j(int(n), x) == pytest.approx(
            float(scipy_special.jv(n, x)), abs=1e-12
        ), n
