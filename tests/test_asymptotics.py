import functools
import math

import numpy as np
import pytest

from sposchur import asymptotics, kernels
from sposchur.asymptotics import (
    airy_2to1,
    bulk_scan,
    edge_cdf_discrete,
    edge_cdf_effective_s,
    edge_scan,
    edge_site,
    fit_error_exponent,
    max_error_by_theta,
    nicholson_scan,
    phi_plus,
    sine_kernel,
    tw_2to1_cdf,
    tw_2to1_stability,
)
from sposchur.errors import DomainTooLarge, QuadratureNotConverged
from sposchur.kernels import lattice_kernel
from sposchur.special import airy_ai_vec, gauss_legendre_panels

# module-level tests run at small theta to stay fast; the full theta ladders
# {50, 200, 800} live in the acceptance suite.  The edge gap-probability and
# scan rates go to theta = 12800, where a discrete CDF still costs a few
# milliseconds and a scan window less.


# The double contour representation of A±, independent of the Airy evaluator.


def _ray_nodes(vertex: float, angle: float):
    """Nodes, weights and direction for one ray of length 9 from a real vertex."""
    t, w = gauss_legendre_panels(0.0, 9.0, 36, 12)
    direction = complex(math.cos(angle), math.sin(angle))
    return vertex + t * direction, w, direction


def airy_2to1_contour(sign: str, x, y):
    """Oracle: A±(x, y) by the double contour representation.

    zeta runs over rays at ±pi/3 from +0.4 (steepest descent for exp(z^3/3)),
    omega over rays at ±2pi/3 from -0.8; the vertex offsets keep both
    1/(zeta - omega) and 1/(zeta + omega) away from their pole sets.  Like
    `airy_2to1`, scalars give a float and 1-D arrays the matrix
    [A±(x_i, y_j)], from one coupling matrix per call; every entry must come
    out real to 1e-9 or QuadratureNotConverged is raised.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    xs, ys = np.atleast_1d(x), np.atleast_1d(y)
    zu, wu, du = _ray_nodes(0.4, math.pi / 3.0)
    zl, wl, dl = _ray_nodes(0.4, -math.pi / 3.0)
    zeta = np.concatenate([zu, zl])
    zw = np.concatenate([wu * du, -wl * dl])  # lower ray runs tip -> vertex
    ou, vu, duo = _ray_nodes(-0.8, 2.0 * math.pi / 3.0)
    ol, vl, dlo = _ray_nodes(-0.8, -2.0 * math.pi / 3.0)
    omega = np.concatenate([ou, ol])
    ow = np.concatenate([vu * duo, -vl * dlo])
    fz = np.exp(zeta**3 / 3.0 - xs[:, None] * zeta) * zw
    fo = np.exp(-(omega**3) / 3.0 + ys[:, None] * omega) * ow
    diff = 1.0 / (zeta[:, None] - omega[None, :])
    ssum = -1.0 / (zeta[:, None] + omega[None, :])
    coupling = diff + ssum if sign == "+" else diff - ssum
    total = fz @ coupling @ fo.T
    value = total / (2.0j * math.pi) ** 2
    complex_entries = np.abs(value.imag) > 1e-9 * np.maximum(1.0, np.abs(value))
    if complex_entries.any():
        i, j = np.argwhere(complex_entries)[0]
        raise QuadratureNotConverged(
            f"contour A± not real at ({xs[i]}, {ys[j]}): {value[i, j]}"
        )
    return float(value[0, 0].real) if scalar else value.real


def test_phi_plus_regimes():
    assert phi_plus(0.0) == pytest.approx(math.pi / 2)
    assert phi_plus(3.0) == 0.0
    assert phi_plus(-3.0) == math.pi
    assert phi_plus(1.0) == pytest.approx(math.acos(0.5))


def test_sine_kernel_values():
    assert sine_kernel(math.pi / 2, 0) == pytest.approx(0.5)
    assert sine_kernel(math.pi, 0) == pytest.approx(1.0)
    for d in (1, 2, 5):
        assert sine_kernel(math.pi, d) == pytest.approx(0.0, abs=1e-15)
        assert sine_kernel(0.0, d) == 0.0
    with pytest.raises(ValueError):
        sine_kernel(4.0, 1)


def test_airy_2to1_representations_agree():
    for sign in ("+", "-"):
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 2.0):
                a = airy_2to1(sign, x, y)
                b = airy_2to1_contour(sign, x, y)
                assert a == pytest.approx(b, abs=1e-8), (sign, x, y)


def test_airy_2to1_decay():
    for sign in ("+", "-"):
        assert abs(airy_2to1(sign, 8.0, 8.0)) < 1e-6


def test_airy_2to1_diagonal_structure():
    # A-(x,x) = int Ai(x+s)^2 - int Ai(x-s)Ai(x+s); both integrals positive
    x = 0.5
    plus_only = airy_2to1("+", x, x)
    minus_only = airy_2to1("-", x, x)
    assert plus_only > minus_only
    assert minus_only == pytest.approx(airy_2to1_contour("-", x, x), abs=1e-8)


def test_airy_2to1_contour_matrix_matches_entries():
    xs = np.array([-2.0, 0.5, 3.0])
    ys = np.array([-1.0, 1.5])
    for sign in ("+", "-"):
        mat = airy_2to1_contour(sign, xs, ys)
        assert mat.shape == (3, 2) and mat.dtype == float
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(airy_2to1_contour(sign, x, y), abs=1e-15)
    assert type(airy_2to1_contour("+", 0.0, 0.0)) is float


def test_airy_2to1_matrix_matches_entries():
    xs = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
    ys = np.array([-1.0, 0.5, 2.0])
    for sign in ("+", "-"):
        mat = airy_2to1(sign, xs, ys)
        assert mat.shape == (5, 3)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(airy_2to1(sign, x, y), abs=1e-15)
        # x is y reuses the Ai(y + s) grid; equal copies evaluate it twice
        assert np.array_equal(airy_2to1(sign, xs, xs), airy_2to1(sign, xs, xs.copy()))
    with pytest.raises(ValueError):
        airy_2to1("*", 0.0, 0.0)


def _cross_identity_error(grid) -> float:
    # C = (A+ - A-)/2 = int_0^inf Ai(x-s) Ai(y+s) ds; the full-line Airy
    # convolution gives C + C^T = 2^(-1/3) Ai(2^(-1/3)(x+y)) with no truncation
    cross = (airy_2to1("+", grid, grid) - airy_2to1("-", grid, grid)) / 2.0
    c = 2.0 ** (-1.0 / 3.0)
    exact = c * airy_ai_vec(c * (grid[:, None] + grid[None, :]))
    return float(np.max(np.abs(cross + cross.T - exact)))


def test_airy_2to1_cross_term_identity():
    assert _cross_identity_error(np.linspace(-8.0, 12.0, 41)) < 1e-10
    assert _cross_identity_error(np.array([-30.0, -29.5, -3.0, 0.0, 2.5])) < 1e-10


def test_airy_2to1_cut_matches_the_full_template():
    # every node of the template on [0, 40], no cut; the cut drops < 2 x 5.5e-21
    # per term, and BLAS sums the shorter products in another order (~5 ulp
    # at s = -8).  x != y runs the per-row cut on Ai(x + s) as well.
    nodes, weights = asymptotics._S_TEMPLATE
    s, w = nodes[nodes <= 40.0], weights[nodes <= 40.0]
    for start in (-8.0, -6.0, 0.0, 4.0):
        ys, _ = gauss_legendre_panels(start, start + 16.0, 24, 6)
        for xs in (ys, np.linspace(start - 3.0, start + 19.0, 37)):
            up_y = airy_ai_vec(ys[:, None] + s)
            full_plus = (airy_ai_vec(xs[:, None] + s) * w) @ up_y.T
            full_cross = (airy_ai_vec(xs[:, None] - s) * w) @ up_y.T
            for sign, full in (("+", full_plus + full_cross), ("-", full_plus - full_cross)):
                err = np.max(np.abs(airy_2to1(sign, xs, ys) - full))
                assert err <= 4e-15, (sign, start, len(xs))


def test_tw_cdf_evaluates_ai_only_inside_the_cut(monkeypatch):
    # Ai(u) for u > 16 is below 5e-20 and is never evaluated, in the cross
    # factor Ai(x - s) (x <= s + 16 <= 16 here) as in the per-row cut
    seen = []

    def recording(u):
        seen.append(np.asarray(u, dtype=float).ravel())
        return airy_ai_vec(u)

    monkeypatch.setattr("sposchur.asymptotics.airy_ai_vec", recording)
    for s in (-6.0, -2.0, 0.0):
        seen.clear()
        tw_2to1_cdf("+", s)
        args = np.concatenate(seen)
        assert args.size and np.max(args) <= 16.0, (s, np.max(args))


def test_airy_2to1_and_tw_cdf_reject_non_finite_input():
    for x, y in ((math.nan, 0.0), (0.0, math.nan), (np.array([0.0, math.inf]), 1.0),
                 (0.0, np.array([-math.inf, 0.0]))):
        with pytest.raises(ValueError, match="finite"):
            airy_2to1("+", x, y)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            tw_2to1_cdf("-", s)
    with pytest.raises(ValueError, match="finite"):
        edge_cdf_discrete("sp", 50.0, math.nan)


def test_airy_2to1_domain_ends():
    # y >= 16 leaves no node before the cut: exactly zero
    assert airy_2to1("+", -3.0, 16.0) == 0.0
    assert not np.any(airy_2to1("-", np.array([-3.0, 20.0]), np.array([16.0, 18.0])))
    # the s-template ends at 80, so y may go down to 16 - 80 = -64; the
    # template resolves the cross factor Ai(x - s) down to x = -64 as well
    airy_2to1("+", 0.0, -64.0)
    airy_2to1("-", -64.0, 0.0)
    for y in (-70.0, np.array([0.0, -70.0])):
        with pytest.raises(DomainTooLarge, match="y >= -64"):
            airy_2to1("+", 0.0, y)
    for x in (-70.0, np.array([0.0, -70.0])):
        with pytest.raises(DomainTooLarge, match="x >= -64"):
            airy_2to1("-", x, 0.0)


def test_airy_2to1_matches_a_fine_template_on_its_domain(monkeypatch):
    # reference: 640 panels of 16-node Gauss-Legendre on the same [0, 80]
    grid = np.linspace(-64.0, 12.0, 39)
    svals = (-6.0, -2.0, 0.0, 2.0)
    signs = ("+", "-")

    def evaluate():
        mats = {sign: airy_2to1(sign, grid, grid) for sign in signs}
        cdfs = {(sign, s): tw_2to1_cdf(sign, s) for sign in signs for s in svals}
        return mats, cdfs

    mats, cdfs = evaluate()
    monkeypatch.setattr(asymptotics, "_S_TEMPLATE", gauss_legendre_panels(0.0, 80.0, 640, 16))
    ref_mats, ref_cdfs = evaluate()
    for sign in signs:
        assert np.max(np.abs(mats[sign] - ref_mats[sign])) < 2e-12, sign
    for key, value in cdfs.items():
        assert abs(value - ref_cdfs[key]) < 1e-12, key


def test_edge_scan_rows_hold_python_floats():
    rows = edge_scan("o", (20.0,), grid=(-1.0, 1.0))
    rows += edge_scan("sp", (20.0,), grid=(0.0, 1.0), effective_coords=True)
    for r in rows:
        assert all(type(v) is float for v in (r.discrete, r.limit, r.abs_error)), r


def test_bulk_scan_alpha_zero_converges():
    thetas = (20.0, 60.0)
    for family in ("sp", "o"):
        errs = max_error_by_theta(bulk_scan(family, thetas, 0.0, range(-2, 3)))
        assert errs[60.0] < errs[20.0], family
        assert errs[60.0] < 0.05


def test_bulk_alpha_beyond_two():
    # alpha = 3: empty region, density -> 0; alpha = -3: packed, K -> delta
    rows = bulk_scan("sp", (60.0,), 3.0, range(-1, 2))
    assert all(abs(r.discrete) < 1e-3 for r in rows)
    rows = bulk_scan("sp", (60.0,), -3.0, range(-1, 2))
    for r in rows:
        target = 1.0 if (r.x == r.y) else 0.0
        assert r.discrete == pytest.approx(target, abs=1e-3)


def test_edge_scan_errors_shrink():
    # effective coordinates isolate the kernel convergence at small theta,
    # where the floor residual would otherwise dominate
    for family in ("sp", "o"):
        rows = edge_scan(family, (20.0, 80.0), grid=(-1.0, 0.0, 1.0), effective_coords=True)
        errs = max_error_by_theta(rows)
        assert errs[80.0] < errs[20.0], family


def test_nicholson_scan_converges():
    rows = nicholson_scan((20.0, 80.0, 320.0), effective_coords=True)
    errs = max_error_by_theta(rows)
    assert errs[320.0] < errs[80.0] < errs[20.0]


def test_fit_error_exponent():
    errs = {50.0: 0.1, 200.0: 0.1 * (50 / 200) ** 0.33, 800.0: 0.1 * (50 / 800) ** 0.33}
    assert fit_error_exponent(errs) == pytest.approx(-0.33, abs=1e-10)


def test_tw_plus_cdf_limits_and_monotonicity():
    v6 = tw_2to1_cdf("+", 6.0)
    assert v6 == pytest.approx(1.0, abs=1e-6)
    grid = np.linspace(-5.0, 4.0, 19)
    vals = [tw_2to1_cdf("+", float(s)) for s in grid]
    assert np.all(np.diff(vals) > -1e-9)
    assert vals[0] < 0.1


def test_tw_minus_observed_behavior():
    """The '-' determinant is NOT a CDF: it overshoots 1 before settling.

    Recorded behavior, not assumed away: the overshoot is small and the
    matching discrete signed measures show the same excursion above 1.
    """
    grid = np.linspace(-5.0, 6.0, 23)
    vals = np.array([tw_2to1_cdf("-", float(s)) for s in grid])
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.max(vals) > 1.0 + 1e-3  # the genuine overshoot
    assert np.max(vals) < 1.12
    assert np.min(vals) > -1e-6


def test_tw_cdf_matches_the_contour_kernel():
    # the same Nystrom nodes and weights on the independent contour kernel
    for sign in ("+", "-"):
        for s in (-4.0, -2.0, 0.0, 2.0):
            xs, ws = gauss_legendre_panels(s, s + 16.0, 24, 6)
            root = np.sqrt(ws)
            kmat = root[:, None] * airy_2to1_contour(sign, xs, xs) * root[None, :]
            det = float(np.linalg.det(np.eye(len(xs)) - kmat))
            assert det == pytest.approx(tw_2to1_cdf(sign, s), abs=1e-9), (sign, s)


def test_tw_cdf_discretization_stability():
    # the floor is the ~1e-13 accuracy of A± itself, not the Nystrom rule
    for sign in ("+", "-"):
        for s in (-6.0, -2.0, 1.0, 4.0):
            assert tw_2to1_stability(sign, s) < 2e-12, (sign, s)
            xs, ws = gauss_legendre_panels(s, s + 16.0, 1, 48)
            root = np.sqrt(ws)
            kmat = root[:, None] * airy_2to1(sign, xs, xs) * root[None, :]
            single = np.linalg.det(np.eye(len(xs)) - kmat)
            assert abs(tw_2to1_cdf(sign, s) - single) < 2e-12, (sign, s)


def test_edge_cdf_discrete_tracks_tw():
    theta = 60.0
    for family, sign in (("sp", "+"), ("o", "-")):
        for s in (-1.0, 0.0, 1.0):
            disc = edge_cdf_discrete(family, theta, s)
            lim = tw_2to1_cdf(sign, edge_cdf_effective_s(family, theta, s))
            assert disc == pytest.approx(lim, abs=5e-3), (family, s)


def test_edge_cdf_effective_s_refuses_other_families():
    assert edge_cdf_effective_s("sp", 200, 0.0) == -edge_cdf_effective_s("o", 200, 0.0)
    for family in ("sp-dual", "bogus"):
        with pytest.raises(ValueError, match="'sp' or 'o'"):
            edge_cdf_effective_s(family, 200, 0.0)


def test_edge_cdf_is_probability_like():
    val = edge_cdf_discrete("sp", 30.0, 0.0)
    assert 0.0 < val < 1.0


_RATE_THETAS = (50.0, 200.0, 800.0, 3200.0, 12800.0)
_RATE_S = (-2.0, -1.0, 0.0, 1.0)
_edge_cdf = functools.cache(edge_cdf_discrete)


@functools.cache
def _edge_gap_errors(family: str, half_site: bool) -> dict[float, float]:
    """theta -> max over s of |discrete gap probability - TW 2->1 limit|, the
    limit read at `edge_cdf_effective_s` or, without its half-site term, at
    (edge_site - 2 theta) / theta^(1/3)."""
    sign = "+" if family == "sp" else "-"
    errors = {}
    for theta in _RATE_THETAS:
        worst = 0.0
        for s in _RATE_S:
            if half_site:
                eff = edge_cdf_effective_s(family, theta, s)
            else:
                eff = (edge_site(theta, s) - 2.0 * theta) / theta ** (1.0 / 3.0)
            disc = _edge_cdf(family, theta, s)
            worst = max(worst, abs(disc - tw_2to1_cdf(sign, eff)))
        errors[theta] = worst
    return errors


@pytest.mark.parametrize("family", ["sp", "o"])
def test_edge_gap_errors_fall_at_every_theta(family):
    errors = [_edge_gap_errors(family, True)[t] for t in _RATE_THETAS]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("family, window", [("sp", (-0.75, -0.6)), ("o", (-0.85, -0.65))])
def test_edge_gap_rate_exponent(family, window):
    # sp: the theta^(-2/3) rate of the half-site-corrected cutoff (measured
    # -0.666); o: the measured exponent -0.755, with no theoretical rate yet
    exponent = fit_error_exponent(_edge_gap_errors(family, True))
    assert window[0] <= exponent <= window[1], exponent


@pytest.mark.parametrize("family, window", [("sp", (-0.75, -0.6)), ("o", (-0.85, -0.65))])
def test_edge_gap_rate_needs_the_half_site_term(family, window):
    # without it the cutoff is off by half a site, and the error falls only
    # like theta^(-1/3) (measured -0.329 for sp, -0.341 for o)
    exponent = fit_error_exponent(_edge_gap_errors(family, False))
    assert not window[0] <= exponent <= window[1], exponent


# The edge limit with no Airy code on the discrete side: at theta = n^3 and an
# integer s the tested site 2 n^3 + s n is exact and s_eff = s +- 1/(2n), so
# err(n) = discrete(n^3, s) - TW(s +- 1/(2n)) expands in 1/n with no 1/n term
# (the half-site shift removes it).  Extrapolating to n = infinity leaves c0,
# which is the error of the limit side itself; measured |c0| <= 7.7e-12, while
# |err(64)| lies between 2.3e-8 and 1.6e-5.
_CUBE_NS = (24, 32, 48, 64)
_CUBE_S = (-2, 0, 2)


def _extrapolated_edge_offset(half_site: bool = True) -> float:
    """max over both families and s of |c0| in the fit c0 + c2/n^2 + c3/n^3 +
    c4/n^4 of err(n), n in _CUBE_NS (four terms, four points: a solve)."""
    ns = np.array(_CUBE_NS, dtype=float)
    scaled = _CUBE_NS[0] / ns  # powers of 1/n, scaled to keep the solve well conditioned
    basis = np.stack([np.ones_like(ns), scaled**2, scaled**3, scaled**4], axis=1)
    worst = 0.0
    for family, sign, half in (("sp", "+", 0.5), ("o", "-", -0.5)):
        for s in _CUBE_S:
            err = []
            for n in _CUBE_NS:
                assert edge_site(float(n**3), s) == 2 * n**3 + s * n
                s_eff = s + half / n if half_site else float(s)
                err.append(_edge_cdf(family, float(n**3), s) - tw_2to1_cdf(sign, s_eff))
            worst = max(worst, abs(np.linalg.solve(basis, np.array(err))[0]))
    return worst


def test_edge_gap_probabilities_extrapolate_to_the_limit():
    assert _extrapolated_edge_offset() <= 1e-10


def test_edge_extrapolation_sees_a_relative_ai_error_of_1e_9(monkeypatch):
    # Ai perturbed by 1e-9 relative on x > 0 moves c0 to ~5e-10
    def perturbed(u):
        u = np.asarray(u, dtype=float)
        return airy_ai_vec(u) * np.where(u > 0.0, 1.0 + 1e-9, 1.0)

    monkeypatch.setattr("sposchur.asymptotics.airy_ai_vec", perturbed)
    assert _extrapolated_edge_offset() > 1e-10


def test_edge_extrapolation_needs_the_half_site_shift():
    # without it err(n) has a 1/n term the fit lacks: c0 reads up to ~2e-3
    assert _extrapolated_edge_offset(half_site=False) > 1e-10


# The same extrapolation for the kernel entries.  Site a stands for the cell
# [a, a + 1) and reads the limit at its midpoint, shifted by the half site of
# `edge_cdf_effective_s`: (a + 1/2 + half - 2 theta) / theta^(1/3), that is
# x + 1/n for sp and x for o at theta = n^3 and a = 2 n^3 + x n.  Then
# err(n) = n K(a, b) - A±(x + shift, y + shift) has no 1/n term either;
# measured |c0| <= 3.4e-12 (sp) and 4.5e-13 (o), while max |err(72)| reads
# 2.0e-5 and 2.7e-5.  The windows reach J_k(x) at x = 2 * 72^3 ~ 7.5e5.
_KERNEL_NS = (16, 20, 24, 32, 40, 48, 56, 64, 72)
_KERNEL_X = np.array([-4, -2, 0, 2])


def _edge_kernel(family: str, n: int) -> np.ndarray:
    sites = 2 * n**3 + _KERNEL_X * n
    return lattice_kernel(family, theta=float(n**3))(sites, sites)


_cached_edge_kernel = functools.cache(_edge_kernel)


def _extrapolated_edge_kernel_offset(midpoint: bool = True) -> float:
    """max over both families and (x, y) of |c0| in the least-squares fit
    c0 + c2/n^2 + ... + c6/n^6 of err(n), n in _KERNEL_NS; without the
    midpoint the limit is read at the half-site shift of the gap cutoff alone."""
    ns = np.array(_KERNEL_NS, dtype=float)
    scaled = _KERNEL_NS[0] / ns
    basis = np.stack([scaled**k for k in (0, 2, 3, 4, 5, 6)], axis=1)
    worst = 0.0
    for family, sign, half in (("sp", "+", 0.5), ("o", "-", -0.5)):
        err = []
        for n in _KERNEL_NS:
            shifted = _KERNEL_X + (half + 0.5 * midpoint) / n
            limit = airy_2to1(sign, shifted, shifted)
            err.append((n * _cached_edge_kernel(family, n) - limit).ravel())
        c0 = np.linalg.lstsq(basis, np.array(err), rcond=None)[0][0]
        worst = max(worst, float(np.max(np.abs(c0))))
    return worst


def test_edge_kernel_extrapolates_to_the_limit():
    assert _extrapolated_edge_kernel_offset() <= 1e-10


def test_edge_kernel_extrapolation_needs_the_site_midpoint():
    # read at x +- 1/(2n), err(n) keeps a 1/n term the fit lacks: c0 ~ 1.1e-3
    assert _extrapolated_edge_kernel_offset(midpoint=False) > 1e-10


def test_bessel_j_matches_scipy_on_the_edge_kernel_windows(monkeypatch):
    scipy_special = pytest.importorskip("scipy.special")
    bessel_j_values = kernels.bessel_j_values
    calls = []

    def recording(indices, x):
        values = bessel_j_values(indices, x)
        calls.append((np.asarray(indices), float(x), values))
        return values

    monkeypatch.setattr(kernels, "bessel_j_values", recording)
    for family in ("sp", "o"):
        for n in _KERNEL_NS:
            _edge_kernel(family, n)
    assert max(x for _, x, _ in calls) == 2 * 72**3
    # measured 3.7e-14 at x = 7.5e5, where the windows' |J| is at most 7.4e-3
    for indices, x, values in calls:
        ref = scipy_special.jv(indices.astype(float), x)
        assert np.max(np.abs(values - ref)) <= 1e-13, x


@functools.cache
def _scan_errors(scan: str, family: str, alpha: float = 0.0) -> dict[float, float]:
    """theta -> max |discrete - limit| of an edge scan on the grid (-2, 0, 2) at
    effective coordinates ("edge"), at grid coordinates ("edge-grid"), or of a
    bulk scan at a = alpha theta + (-3..3) ("bulk")."""
    if scan == "bulk":
        return max_error_by_theta(bulk_scan(family, _RATE_THETAS, alpha, range(-3, 4)))
    rows = edge_scan(family, _RATE_THETAS, (-2.0, 0.0, 2.0), effective_coords=scan == "edge")
    return max_error_by_theta(rows)


_SCAN_RATES = [
    # (scan, family, alpha, exponent window): measured -0.720 and -0.639 at the
    # edge, -0.550 in the bulk at alpha = 0, -0.534 and -0.544 at alpha = 1;
    # measured values, with no theoretical rate claimed for them
    ("edge", "sp", 0.0, (-0.80, -0.65)),
    ("edge", "o", 0.0, (-0.72, -0.56)),
    ("bulk", "sp", 0.0, (-0.63, -0.48)),
    ("bulk", "o", 0.0, (-0.63, -0.48)),
    ("bulk", "sp", 1.0, (-0.61, -0.46)),
    ("bulk", "o", 1.0, (-0.62, -0.47)),
]


@pytest.mark.parametrize("scan, family, alpha, window", _SCAN_RATES)
def test_scan_errors_fall_at_every_theta(scan, family, alpha, window):
    errors = [_scan_errors(scan, family, alpha)[t] for t in _RATE_THETAS]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("scan, family, alpha, window", _SCAN_RATES)
def test_scan_rate_exponent(scan, family, alpha, window):
    exponent = fit_error_exponent(_scan_errors(scan, family, alpha))
    assert window[0] <= exponent <= window[1], exponent


@pytest.mark.parametrize("family, window", [(f, w) for scan, f, _, w in _SCAN_RATES[:2]])
def test_edge_scan_rate_needs_effective_coordinates(family, window):
    # at grid coordinates the floor residual of the site, O(theta^(-1/3)),
    # dominates (measured -0.329 for sp, -0.342 for o)
    exponent = fit_error_exponent(_scan_errors("edge-grid", family))
    assert not window[0] <= exponent <= window[1], exponent


def test_tw_truncation_guard():
    from sposchur.errors import TruncationInsufficient

    with pytest.raises(TruncationInsufficient):
        tw_2to1_cdf("+", -8.0, interval=4.0)
