import math
from fractions import Fraction

import numpy as np
import pytest

from sposchur import kernels
from sposchur.asymptotics import edge_site
from sposchur.errors import ContourViolation, QuadratureNotConverged
from sposchur.kernels import (
    KernelConfig,
    SymbolF,
    _contour_sums,
    _fourier_sums,
    correlation_det,
    kernel_bessel,
    kernel_bessel_with_error,
    kernel_contour,
    kernel_contour_with_error,
    kernel_fourier,
    kernel_fourier_with_error,
    lattice_kernel,
)
from sposchur.measures import MeasureSpec, correlation_bruteforce, plancherel_measure
from sposchur.special import bessel_j, bessel_j_values
from sposchur.specializations import Specialization

CFG = KernelConfig()


def trivial_symbol():
    return SymbolF.plancherel(0.0)  # F identically 1


# ---------------------------------------------------------------------------
# trivial symbol: hand-expanded values.  With F = 1 the sp kernel is
# [z^a w^-b] (1-w^2)/((1-wz)(1-w/z)), i.e. delta-sums: K_sp(a,a) = 1 for
# a <= 0 and 0 for a >= 1; the o kernel has K_o(a,a) = 1 for a <= -1, and the
# (1-z^2) numerator kills the diagonal at a = 0.
# ---------------------------------------------------------------------------


def test_trivial_symbol_sp_diagonal():
    F = trivial_symbol()
    for a, expected in [(-3, 1.0), (-1, 1.0), (0, 1.0), (1, 0.0), (4, 0.0)]:
        assert kernel_contour(CFG, F, "sp", a, a) == pytest.approx(expected, abs=1e-11)
        assert kernel_bessel(0.0, "sp", a, a) == pytest.approx(expected, abs=1e-15)


def test_trivial_symbol_o_diagonal_zero_at_origin():
    F = trivial_symbol()
    assert kernel_contour(CFG, F, "o", 0, 0) == pytest.approx(0.0, abs=1e-11)
    assert kernel_bessel(0.0, "o", 0, 0) == 0.0
    assert kernel_contour(CFG, F, "o", -1, -1) == pytest.approx(1.0, abs=1e-11)


def test_trivial_symbol_matches_kronecker_expansion():
    # with F = 1 the Bessel sums collapse to indicator sums; spot-check off-diagonal
    F = trivial_symbol()
    for a, b in [(-2, 0), (0, -2), (1, -1), (-1, 1)]:
        assert kernel_contour(CFG, F, "sp", a, b) == pytest.approx(
            kernel_bessel(0.0, "sp", a, b), abs=1e-11
        )


# ---------------------------------------------------------------------------
# cross-representation agreement (Plancherel)
# ---------------------------------------------------------------------------


def test_cross_representation_spot_checks():
    theta = 1.0
    F = SymbolF.plancherel(theta)
    for family in ("sp", "o"):
        for a, b in [(0, 0), (2, 2), (-3, 1), (5, -2), (-7, -7)]:
            via_contour = kernel_contour(CFG, F, family, a, b)
            via_bessel = kernel_bessel(theta, family, a, b)
            via_fourier = kernel_fourier(F, family, a, b)
            assert via_contour == pytest.approx(via_bessel, abs=1e-10), (family, a, b)
            assert via_contour == pytest.approx(via_fourier, abs=1e-8), (family, a, b)


def test_fourier_modes_are_bessel_coefficients():
    theta = 0.7
    F = SymbolF.plancherel(theta)
    (wc, c, _), (wd, d, _) = F.modes(False), F.modes(True)
    for n in (-4, -1, 0, 2, 5):
        assert c[wc + n] == pytest.approx(bessel_j(n, 2 * theta), abs=1e-13)
        # modes of 1/F: J_{-n}(2 theta)
        assert d[wd + n] == pytest.approx(bessel_j(-n, 2 * theta), abs=1e-13)


def test_kernel_asymmetry_witness():
    theta = 1.0
    k01 = kernel_bessel(theta, "sp", 0, 1)
    k10 = kernel_bessel(theta, "sp", 1, 0)
    assert abs(k01 - k10) > 1e-3


def test_bessel_diagonal_cancellation_identity():
    # K_o(a, a) = sum_{i>=1} J_{a+i}^2 - sum_{i>=1} J_{a-i} J_{a+i}
    theta, a = 0.8, 2
    x = 2 * theta
    s1 = sum(bessel_j(a + i, x) ** 2 for i in range(1, 80))
    s2 = sum(bessel_j(a - i, x) * bessel_j(a + i, x) for i in range(1, 80))
    assert kernel_bessel(theta, "o", a, a) == pytest.approx(s1 - s2, abs=1e-13)


def test_kernel_decay_past_edge():
    theta = 1.0
    for family in ("sp", "o"):
        assert abs(kernel_bessel(theta, family, 30, 30)) < 1e-20


def test_radius_invariance():
    theta = 1.0
    F = SymbolF.plancherel(theta)
    base = kernel_contour(CFG, F, "sp", 1, -1)
    for r_z, r_w in [(1.1, 0.85), (1.35, 0.7), (1.05, 0.6)]:
        alt = kernel_contour(KernelConfig(r_z=r_z, r_w=r_w), F, "sp", 1, -1)
        assert alt == pytest.approx(base, abs=1e-12)


def test_contour_violations():
    F = SymbolF.plancherel(1.0)
    with pytest.raises(ContourViolation):
        kernel_contour(KernelConfig(r_z=0.8, r_w=1.2), F, "sp", 0, 0)
    with pytest.raises(ContourViolation):
        kernel_contour(KernelConfig(r_z=2.0, r_w=0.6), F, "sp", 0, 0)
    x = Specialization.from_bc_alphabet([Fraction(4, 5)])
    y = Specialization.from_alphabet([Fraction(1, 4)])
    Fxy = SymbolF.from_measure(MeasureSpec("sp", x, y))
    with pytest.raises(ContourViolation):
        Fxy.check_contours(1.5, 0.5)  # r_z beyond the x-pole at 1/x = 1.25


def test_spectral_convergence_of_quadrature():
    """Super-polynomial decay: the error ratio per node doubling itself shrinks.

    A fixed-order method has err(2N)/err(N) -> 2^-p; here the ratio is ~rho^N
    and must fall with N.
    """
    theta = 1.0
    F = SymbolF.plancherel(theta)
    ref = kernel_bessel(theta, "sp", 0, 0)
    from sposchur.kernels import _contour_matrix

    errs = [
        abs(_contour_matrix(F, "sp", [0], [0], 1.2, 0.8, n)[0][0, 0].real - ref)
        for n in (4, 8, 16, 32)
    ]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.01


def test_grid_matches_scalar_contour():
    theta = 0.5
    F = SymbolF.plancherel(theta)
    avals = [-2, 0, 3]
    bvals = [-1, 2]
    grid = kernel_contour(CFG, F, "sp", avals, bvals)
    for i, a in enumerate(avals):
        for j, b in enumerate(bvals):
            assert grid[i, j] == pytest.approx(
                kernel_contour(CFG, F, "sp", a, b), abs=1e-11
            )


def _dense_trapezoid(F, family, a, b, r_z, r_w, n):
    """The n-node double trapezoid sum against the explicit n x n truncated
    coupling sum_{r < n/2} w^r U_r(z), U_r(z) = (z^(r+1) - z^(-r-1)) / (z - 1/z),
    with U_r by its recurrence U_{r+1} = (z + 1/z) U_r - U_{r-1}, which needs
    no division by z - 1/z.  The nodes are those of `_contour_data`: the
    z-circle turned by half a node, z_k = r_z exp(i pi (2k+1) / n), and
    w_j = r_w exp(2 pi i j / n)."""
    k = np.arange(n)
    z = r_z * np.exp(1j * np.pi * (2 * k + 1) / n)
    w = r_w * np.exp(2j * np.pi * k / n)
    u = np.empty((n // 2, n), complex)
    u[0], u[1] = 1.0, z + 1.0 / z
    for r in range(2, n // 2):
        u[r] = (z + 1.0 / z) * u[r - 1] - u[r - 2]
    coupling = w[:, None] ** np.arange(n // 2) @ u  # [j, k]
    a, b = np.asarray(a)[:, None], np.asarray(b)[:, None]
    if family == "sp":
        amat, bmat = F(z) * z ** (-a), (1.0 - w**2) / F(w) * w**b
    else:
        amat, bmat = (1.0 - z**2) * F(z) * z ** (-a - 1), w ** (b + 1) / F(w)
    return amat @ coupling.T @ bmat.T / n**2  # [a, b]


def test_fft_application_matches_dense_coupling():
    # Both forms round relative to the largest summand |z^-a w^b|; at |a|, |b|
    # <= 5 that stays within ~1e2 of |K| on every radius pair below.
    from sposchur.kernels import _contour_matrix

    sites = np.arange(-5, 6)
    rho = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(-1, 5)})
    for family in ("sp", "o"):
        powersum = SymbolF.from_measure(MeasureSpec(family, rho, rho))
        for F in (SymbolF.plancherel(1.0), powersum):
            for n in (64, 256):
                for r_z, r_w in [(1.2, 0.8), (0.7, 0.4), (1.5, 0.5)]:
                    ref = _dense_trapezoid(F, family, sites, sites, r_z, r_w, n)
                    got, _ = _contour_matrix(F, family, sites, sites, r_z, r_w, n)
                    assert np.all(
                        np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))
                    ), (family, F.label, n, r_z, r_w)


def test_turned_z_nodes_stay_off_z_squared_one():
    # at r_z = 1 the half-node turn keeps every z-node off z = +-1, where the
    # partial fraction 1/(z - 1/z) is singular, and the FFT application there
    # is the same truncated coupling as the dense sum
    from sposchur.kernels import _contour_data, _contour_matrix

    sites = np.arange(-3, 4)
    F = SymbolF.plancherel(1.0)
    for n in (16, 64):
        z = _contour_data(F, 1.0, 0.5, n)[0]
        assert np.abs(z * z - 1.0).min() >= 2 * math.sin(math.pi / n) * (1 - 1e-13), n
        for family in ("sp", "o"):
            ref = _dense_trapezoid(F, family, sites, sites, 1.0, 0.5, n)
            got, _ = _contour_matrix(F, family, sites, sites, 1.0, 0.5, n)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), (family, n)


@pytest.mark.parametrize("r_z", [1.0, 1.0 + 1e-9, 1.001])
def test_contour_near_the_unit_circle(r_z):
    # radii at and near 1, where unturned nodes z = +-1 would make the partial
    # fraction 1/(z - 1/z) singular
    F = SymbolF.plancherel(1.0)
    cfg = KernelConfig(r_z=r_z, r_w=0.5)
    for a in (-2, 0, 2):
        value, _ = kernel_contour_with_error(cfg, F, "sp", a, a)
        assert value == pytest.approx(kernel_bessel(1.0, "sp", a, a), abs=1e-11), a


def _count_node_counts(monkeypatch) -> list:
    """Record the node count of every `_contour_data` call."""
    seen = []
    original = kernels._contour_data

    def counting(F, r_z, r_w, n):
        seen.append(n)
        return original(F, r_z, r_w, n)

    monkeypatch.setattr(kernels, "_contour_data", counting)
    return seen


def test_contour_grid_evaluates_each_node_count_once(monkeypatch):
    seen = _count_node_counts(monkeypatch)
    F = SymbolF.plancherel(0.5)
    value, err = kernel_contour_with_error(CFG, F, "o", 1, -2)
    assert seen == [64 << i for i in range(len(seen))] and len(seen) >= 2
    assert 0.0 <= err <= kernels._CONTOUR_TOL * max(1.0, abs(value))
    seen.clear()
    grid, errs = kernel_contour_with_error(CFG, F, "o", range(-4, 5), range(-3, 3))
    assert grid.shape == errs.shape == (9, 6)
    assert seen == [64 << i for i in range(len(seen))]
    assert np.all(errs <= kernels._CONTOUR_TOL * np.maximum(1.0, np.abs(grid)))


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_plancherel_grids_converge_within_256_nodes(monkeypatch, theta):
    # the coupling's geometric series is cut at n/2, not aliased onto n nodes,
    # so the rule converges at the symbol's rate, not at (r_w r_z)^n
    seen = _count_node_counts(monkeypatch)
    sites = np.arange(-10, 11)
    F = SymbolF.plancherel(theta)
    for family in ("sp", "o"):
        seen.clear()
        grid = kernel_contour(CFG, F, family, sites, sites)
        assert max(seen) <= 256, (family, seen)
        assert np.abs(grid - kernel_bessel(theta, family, sites, sites)).max() <= 1e-10, family


def test_contour_grid_checks_every_imaginary_residue():
    # a complex symbol has complex kernel entries, which no grid may return
    F = SymbolF(lambda z: np.exp(0.3j * z - 0.5 / z), (0.0, math.inf), (0.0, math.inf), "complex")
    with pytest.raises(QuadratureNotConverged, match="imaginary residue"):
        kernel_contour(CFG, F, "sp", range(-3, 4), range(-3, 4))


def _sp_dual_base() -> SymbolF:
    x = Specialization.from_bc_alphabet([Fraction(9, 10), Fraction(1, 2)], include_one=True)
    y = Specialization.from_alphabet([Fraction(3, 10), Fraction(1, 5)])
    return SymbolF.from_measure(MeasureSpec("sp-dual", x, y))


def test_contour_residue_is_measured_against_the_largest_term():
    # the o base of this sp-dual measure has summands ~1e7 at these sites
    # (|F(z)| r_w^-|b| grows); its converged grid carries an imaginary
    # residue of 2.1e-12, rounding of those summands, not a complex kernel
    G = _sp_dual_base()
    cfg = G.default_config()
    grid, errs = kernel_contour_with_error(cfg, G, "o", range(-5, 4), range(-5, 4))
    assert grid.shape == (9, 9) and np.all(np.isfinite(grid))
    assert np.all(errs <= kernels._CONTOUR_TOL * np.maximum(1.0, np.abs(grid)))


def test_contour_grid_memory_stays_linear_in_nodes(monkeypatch):
    # the o base of this sp-dual measure needs 2048 nodes on these sites; an
    # n x n complex coupling alone is 64 MiB
    import tracemalloc

    G = _sp_dual_base()
    seen = _count_node_counts(monkeypatch)
    tracemalloc.start()
    try:
        kernel_contour(G.default_config(), G, "o", range(-5, 4), range(-5, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(seen) == 2048
    assert peak < 16 * 2**20


def test_christoffel_darboux_form_of_the_bessel_kernel():
    # Borodin-Okounkov-Olshanski: sum_{i>=1} J_{a+i} J_{b+i} =
    # (x/2) (J_a J_{b+1} - J_{a+1} J_b) / (a - b) for a != b, and
    # K_sp + K_o = 2 sum_{i>=1} J_{a+i} J_{b+i} + J_a J_b
    for theta in (0.5, 3.0, 200.0, 1e4):
        x = 2.0 * theta
        sites = round(x) + np.arange(-6, 7) * max(1, round(theta ** (1.0 / 3.0)))
        J, J1 = bessel_j_values(sites, x), bessel_j_values(sites + 1, x)
        gap = sites[:, None] - sites[None, :]
        off = gap != 0
        integrable = (x / 2.0) * (np.outer(J, J1) - np.outer(J1, J))[off] / gap[off]
        ksp = kernel_bessel(theta, "sp", sites, sites)
        ko = kernel_bessel(theta, "o", sites, sites)
        summed = (ksp + ko - np.outer(J, J)) / 2.0
        assert np.abs(summed[off] - integrable).max() < 1e-13, theta
        for i, j in [(0, 12), (5, 6), (9, 2)]:
            a, b = int(sites[i]), int(sites[j])
            scalar = (kernel_bessel(theta, "sp", a, b) + kernel_bessel(theta, "o", a, b)
                      - J[i] * J[j]) / 2.0
            rhs = (x / 2.0) * (J[i] * J1[j] - J1[i] * J[j]) / (a - b)
            assert scalar == pytest.approx(rhs, abs=1e-13), (theta, a, b)


# ---------------------------------------------------------------------------
# kernel matrices against per-entry calls
# ---------------------------------------------------------------------------


def test_bessel_matrix_matches_entries():
    theta = 200.0
    sites = np.arange(365, 455)  # a 90-site finite section at the edge
    for family in ("sp", "o"):
        mat = kernel_bessel(theta, family, sites, sites)
        entries = np.array([[kernel_bessel(theta, family, a, b) for b in sites] for a in sites])
        assert np.abs(mat - entries).max() <= 1e-15, family
    # rectangular windows, negative sites, and lattice_kernel's shift
    a_sites, b_sites = np.array([-7, -1, 0, 4]), np.array([-3, 2])
    for family in ("sp", "o"):
        k = lattice_kernel(family, theta=1.5)
        mat = k(a_sites, b_sites)
        assert mat.shape == (4, 2)
        for i, a in enumerate(a_sites):
            for j, b in enumerate(b_sites):
                assert mat[i, j] == pytest.approx(k(int(a), int(b)), abs=1e-15)


def test_scalar_bessel_call_is_the_one_by_one_matrix():
    for theta in (0.0, 0.3, 2.0, 50.0, 200.0):
        for family in ("sp", "o"):
            for a, b in [(0, 0), (3, -2), (-40, 7), (2 * int(theta) + 5, 2 * int(theta))]:
                value = kernel_bessel(theta, family, a, b)
                assert isinstance(value, float)
                assert value == kernel_bessel(theta, family, [a], [b])[0, 0]


@pytest.mark.parametrize("theta", [0.5, 2.0, 200.0])
def test_bessel_entries_do_not_depend_on_the_rest_of_the_window(theta):
    # one far site, inside or past +-N, once changed the last bits of most
    # entries through the J lookup's cache bucket, and the sign of the exact
    # zeros of a site past +-N; bytes tell -0.0 from 0.0, np.array_equal not
    near = np.concatenate([np.arange(-5, 6), round(2 * theta) + np.arange(-5, 6)])
    for far in (-1500, -300, 300, 1500):
        sites = np.append(near, far)
        for family in ("sp", "o"):
            mat = kernel_bessel(theta, family, sites, sites)
            entries = [[kernel_bessel(theta, family, a, b) for b in sites] for a in sites]
            assert mat.tobytes() == np.array(entries).tobytes(), (far, family)


@pytest.mark.parametrize("theta", [0.5, 2.0])
@pytest.mark.parametrize("family", ["sp", "o"])
def test_error_arrays_have_one_entry_per_site_pair(theta, family):
    sites = np.arange(-5, 6)
    values, errs = kernel_bessel_with_error(theta, family, sites, sites)
    assert errs.shape == values.shape
    for i, a in enumerate(sites):
        for j, b in enumerate(sites):
            assert errs[i, j] == kernel_bessel_with_error(theta, family, int(a), int(b))[1]
    F = SymbolF.plancherel(theta)
    for values, errs in (
        kernel_contour_with_error(CFG, F, family, sites, sites),
        kernel_fourier_with_error(F, family, sites, sites),
    ):
        assert errs.shape == values.shape == (11, 11)


def test_bessel_kernel_on_sparse_sites_forms_only_their_diagonals():
    # far-apart sites use few diagonals; a box over every diagonal of the
    # span (12001 of them at theta = 1) would take ~15 MB
    import tracemalloc

    edge = np.array([edge_site(20000.0, x) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    for theta, sites in [(1.0, np.array([-3000, 0, 3000])), (20000.0, edge)]:
        for family in ("sp", "o"):
            tracemalloc.start()
            try:
                mat = kernel_bessel(theta, family, sites, sites)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (theta, family, peak)
            entries = np.array([[kernel_bessel(theta, family, a, b) for b in sites] for a in sites])
            assert np.abs(mat - entries).max() <= 1e-15, (theta, family)


def test_bessel_kernel_matches_mpmath_sums():
    # the kernel's defining sums in 25-digit arithmetic, with J from mpmath and
    # 20 orders past the package's truncation, on entries of edge_cdf_discrete
    # windows, bulk sites and negative sites
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    for theta in (0.5, 50.0, 200.0):
        x = 2.0 * theta
        top = int(math.ceil(x + 16.0 * max(x, 1.0) ** (1.0 / 3.0) + 60)) + 20
        with mpmath.workdps(25):
            jm = [mpmath.besselj(k, mpmath.mpf(x)) for k in range(top + 1)]

        def J(k):
            if abs(k) > top:
                return mpmath.mpf(0)
            return -jm[-k] if k < 0 and k % 2 else jm[abs(k)]

        def K(family, a, b):
            s1 = mpmath.fsum(J(a + i) * J(b + i) for i in range(1, top - min(a, b) + 1))
            s2 = mpmath.fsum(J(a - i) * J(b + i) for i in range(top - b + 1))
            return s1 + s2 if family == "sp" else J(a) * J(b) + s1 - s2

        edge = np.arange(edge_site(theta, -6.0), edge_site(theta, 4.0) + 8)
        bulk = round(0.5 * theta) + np.arange(-3, 4)
        negative = -round(0.5 * theta) - 2 + np.arange(-3, 4)
        pool = np.concatenate([edge, bulk, negative])
        pairs = rng.choice(pool, size=(20, 2))
        index = {int(site): i for i, site in enumerate(pool)}
        for family in ("sp", "o"):
            mat = kernel_bessel(theta, family, pool, pool)
            for a, b in pairs.tolist():
                with mpmath.workdps(25):
                    exact = K(family, a, b)
                assert abs(mat[index[a], index[b]] - float(exact)) <= 1e-15, (theta, family, a, b)


def test_fourier_matrix_matches_entries():
    rp = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 5)})
    rm = Specialization.from_powersums({1: Fraction(1, 3)})
    symbols = [SymbolF.plancherel(1.0), SymbolF.from_measure(MeasureSpec("o", rp, rm))]
    sites = np.arange(-6, 7)
    for F in symbols:
        for family in ("sp", "o"):
            mat = kernel_fourier(F, family, sites, sites)
            for i, a in enumerate(sites):
                for j, b in enumerate(sites):
                    assert mat[i, j] == pytest.approx(
                        kernel_fourier(F, family, int(a), int(b)), abs=1e-12
                    )


def test_contour_and_dual_matrices_match_entries():
    theta = 0.5
    F = SymbolF.plancherel(theta)
    sites = np.array([-3, -1, 0, 2, 4])
    for family in ("sp", "o"):
        mat = kernel_contour(CFG, F, family, sites, sites)
        for i, a in enumerate(sites):
            for j, b in enumerate(sites):
                entry = kernel_contour(CFG, F, family, int(a), int(b))
                assert mat[i, j] == pytest.approx(entry, abs=1e-12)
    x = Specialization.from_bc_alphabet([Fraction(9, 10)])
    y = Specialization.from_alphabet([Fraction(3, 10)])
    for family in ("sp-dual", "o-dual"):
        k = lattice_kernel(family, symbol=SymbolF.from_measure(MeasureSpec(family, x, y)))
        assert isinstance(k(0, 0), float)
        mat = k(sites, sites)
        for i, a in enumerate(sites):
            for j, b in enumerate(sites):
                assert mat[i, j] == pytest.approx(k(int(a), int(b)), abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 2.0, 200.0, 12800.0])
def test_bessel_diagonal_has_the_bits_of_the_matrix_diagonal(theta):
    upper = math.ceil(2 * theta + 16 * max(2 * theta, 1) ** (1 / 3) + 60)  # N
    edge = round(2 * theta)
    sites = np.array([-upper - 7, -upper, -5, -1, 0, 3, edge - 2, edge + 9, upper, upper + 6])
    for family in ("sp", "o"):
        k = lattice_kernel(family, theta=theta)
        diagonal = k.diagonal(sites)
        assert diagonal.shape == sites.shape
        assert diagonal.tobytes() == np.diagonal(k(sites, sites)).copy().tobytes(), family


def test_fourier_contour_and_dual_diagonals_match_their_matrices():
    sites = np.arange(-4, 6)
    plus = Specialization.from_powersums({1: Fraction(1, 3), 2: Fraction(-1, 5)})
    minus = Specialization.from_powersums({1: Fraction(1, 4), 3: Fraction(-1, 7)})
    for family in ("sp", "o"):
        F = SymbolF.from_measure(MeasureSpec(family, plus, minus))
        cfg = F.default_config()
        fourier = _fourier_sums(F, family, sites, sites, paired=True)[0]
        assert np.abs(fourier - np.diagonal(kernel_fourier(F, family, sites, sites))).max() <= 1e-14
        contour = _contour_sums(cfg, F, family, sites, sites, paired=True)[0]
        matrix = kernel_contour(cfg, F, family, sites, sites)
        assert np.abs(contour - np.diagonal(matrix)).max() <= 1e-14
    x = Specialization.from_bc_alphabet([Fraction(9, 10)])
    y = Specialization.from_alphabet([Fraction(3, 10)])
    for rp, rm in ((x, y), (plus, minus)):  # the contour and the Fourier route
        for family in ("sp-dual", "o-dual"):
            k = lattice_kernel(family, symbol=SymbolF.from_measure(MeasureSpec(family, rp, rm)))
            assert np.abs(k.diagonal(sites) - np.diagonal(k(sites, sites))).max() <= 1e-14


# ---------------------------------------------------------------------------
# determinantal correlations against the brute-force oracle
# ---------------------------------------------------------------------------


def test_correlation_det_basics():
    k = lattice_kernel("sp", theta=0.3)
    assert correlation_det(k, [0]) == pytest.approx(k(0, 0))
    with pytest.raises(ValueError):
        correlation_det(k, [1, 1])


def test_correlation_det_of_no_points_is_one():
    # the empty determinant, without a kernel evaluation
    def kernel(a, b):
        raise AssertionError("kernel called for an empty point set")

    assert correlation_det(kernel, []) == 1.0


def test_single_point_correlation_vs_bruteforce():
    theta = Fraction(3, 10)
    m = plancherel_measure("sp", theta)
    res = correlation_bruteforce(m, [0], tol=1e-9)
    k = lattice_kernel("sp", theta=float(theta))
    assert correlation_det(k, [0]) == pytest.approx(
        res.value, abs=res.tail_estimate + 1e-9
    )


def test_pair_correlation_vs_bruteforce_both_families():
    theta = Fraction(2, 5)
    for family in ("sp", "o"):
        m = plancherel_measure(family, theta)
        k = lattice_kernel(family, theta=float(theta))
        for pts in ([-1], [0, 1], [-2, 2]):
            res = correlation_bruteforce(m, pts, tol=1e-9)
            det = correlation_det(k, pts)
            assert det == pytest.approx(res.value, abs=res.tail_estimate + 1e-9), (
                family,
                pts,
            )


def test_alphabet_measure_correlation_vs_bruteforce():
    x = Specialization.from_bc_alphabet([Fraction(4, 5)])
    y = Specialization.from_alphabet([Fraction(1, 4)])
    spec = MeasureSpec("sp", x, y)
    F = SymbolF.from_measure(spec)
    assert not F.on_unit_circle()  # so the contour route
    k = lattice_kernel("sp", symbol=F)
    for pts in ([0], [-1, 1]):
        res = correlation_bruteforce(spec, pts, tol=1e-9)
        assert correlation_det(k, pts) == pytest.approx(
            res.value, abs=res.tail_estimate + 1e-8
        ), pts


def test_dual_alphabet_measure_correlation_vs_bruteforce():
    x = Specialization.from_bc_alphabet([Fraction(9, 10)])
    y = Specialization.from_alphabet([Fraction(3, 10)])
    for family in ("sp-dual", "o-dual"):
        spec = MeasureSpec(family, x, y)
        k = lattice_kernel(family, symbol=SymbolF.from_measure(spec))
        for pts in ([0], [-1, 0], [-3, 1]):
            res = correlation_bruteforce(spec, pts, tol=1e-8)
            assert correlation_det(k, pts) == pytest.approx(
                res.value, abs=res.tail_estimate + 1e-7
            ), (family, pts)


def test_dual_kernel_keeps_r_w_inside_the_poles_of_one_over_e():
    # 1/E(x; w) has a pole at w = -x = -1/5; a w-circle of radius 0.2875
    # (the z-annulus default) gives another kernel, 0.02 against 0.35 at [0]
    x = Specialization.from_bc_alphabet([Fraction(1, 5)])
    y = Specialization.from_alphabet([Fraction(1, 10)])
    for family in ("sp-dual", "o-dual"):
        spec = MeasureSpec(family, x, y)
        F = SymbolF.from_measure(spec)
        assert F.annulus_w == pytest.approx((0.1, 0.2))
        k = lattice_kernel(family, symbol=F)
        for pts in ([0], [-1, 0]):
            res = correlation_bruteforce(spec, pts, tol=1e-9)
            assert correlation_det(k, pts) == pytest.approx(
                res.value, abs=res.tail_estimate + 1e-8
            ), (family, pts)


def test_fourier_route_raises_off_the_unit_circle_annulus():
    # alphabet symbols have poles between the contour circles and |z| = 1, so
    # their unit-circle modes give another kernel (off by ~3 here)
    x = Specialization.from_bc_alphabet([Fraction(4, 5)])
    x_one = Specialization.from_bc_alphabet([Fraction(4, 5)], include_one=True)
    y = Specialization.from_alphabet([Fraction(1, 4)])
    sites = np.arange(-5, 4)
    cases = [
        ("sp", SymbolF.from_measure(MeasureSpec("sp", x, y))),
        ("o", SymbolF.from_measure(MeasureSpec("sp-dual", x, y))),
        ("o", SymbolF.from_measure(MeasureSpec("sp-dual", x_one, y))),
    ]
    for family, F in cases:
        with pytest.raises(ContourViolation, match="unit circle"):
            kernel_fourier(F, family, sites, sites)
        # the contour route works, and lattice_kernel takes it
        contour = kernel_contour(F.default_config(), F, family, sites, sites)
        shift = 1 if family == "sp" else 0
        chosen = lattice_kernel(family, symbol=F)(sites - shift, sites - shift)
        assert np.array_equal(chosen, contour)
    # the dual base symbol's w-circle must stay inside the pole -x of 1/E(x; w)
    G = cases[1][1]
    assert G.annulus_w == pytest.approx((0.25, 0.8))
    with pytest.raises(ContourViolation, match="r_w"):
        kernel_contour(KernelConfig(r_z=1.1, r_w=0.85), G, "o", 0, 0)


def test_dual_powersum_measure_correlation_vs_bruteforce():
    # the dual symbol E(rho+; z) / (H(rho-; z) H(rho-; 1/z)) of power sums is
    # analytic on C*, so the dual kernels take the Fourier route, negative
    # sites included
    rp = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 5)})
    rm = Specialization.from_powersums({1: Fraction(1, 3)})
    for family in ("sp-dual", "o-dual"):
        spec = MeasureSpec(family, rp, rm)
        F = SymbolF.from_measure(spec)
        assert F.theta is None and F.on_unit_circle()
        k = lattice_kernel(family, symbol=F)
        for pts in ([0], [0, 1], [-1], [-4], [-2, 1], [-3, -1, 0]):
            res = correlation_bruteforce(spec, pts, tol=1e-8)
            assert correlation_det(k, pts) == pytest.approx(
                res.value, abs=res.tail_estimate + 1e-13
            ), (family, pts)


def test_power_sum_symbols_need_finite_support():
    # the omega image of an alphabet has infinitely many nonzero power sums
    # and no product form, so neither symbol route applies
    x = Specialization.from_alphabet([Fraction(1, 3)])
    plancherel = Specialization.plancherel(Fraction(1, 2))
    for spec in (
        MeasureSpec("sp", x.omega(), x.omega()),
        MeasureSpec("o", plancherel, x.omega()),
        MeasureSpec("o-dual", x.omega(), plancherel),
        MeasureSpec("sp-dual", x.omega(), plancherel),
    ):
        with pytest.raises(ValueError, match="finitely supported power sums"):
            SymbolF.from_measure(spec)


def test_alphabet_symbols_are_the_product_form():
    # sp/o: H(x; z) / (H(y; z) H(y; 1/z)); the base symbol of a dual measure
    # puts E(x; z) in place of H(x; z)
    xs, ys = [Fraction(9, 10), Fraction(1, 2)], [Fraction(3, 10), Fraction(1, 5)]
    zs = [r * complex(math.cos(t), math.sin(t)) for r in (0.5, 1.0, 2.0) for t in (0.3, 2.0, 4.5)]
    for include_one in (False, True):
        x = Specialization.from_bc_alphabet(xs, include_one=include_one)
        y = Specialization.from_alphabet(ys)
        for family, sign in (("sp", -1), ("o", -1), ("sp-dual", 1), ("o-dual", 1)):
            F = SymbolF.from_measure(MeasureSpec(family, x, y))
            for z in zs:
                plus = math.prod((1 + sign * float(v) * z) * (1 + sign * z / float(v)) for v in xs)
                plus *= (1 + sign * z) if include_one else 1
                minus = math.prod((1 - float(v) * z) * (1 - float(v) / z) for v in ys)
                expected = minus * plus if sign > 0 else minus / plus
                assert complex(F(z)) == pytest.approx(expected, rel=1e-14), (family, z)


def test_bc_alphabet_annuli_take_the_float_letters():
    # min(|x|, 1/|x|) on the float x = 0.9 is 0.9 itself; 1/max(x, 1/x)
    # would be 1/(1/0.9), one ulp away, and move the annulus and radii
    assert 1.0 / (1.0 / 0.9) != 0.9
    y = Specialization.from_alphabet([Fraction(3, 10)])
    for include_one in (False, True):
        x = Specialization.from_bc_alphabet([Fraction(9, 10)], include_one=include_one)
        F = SymbolF.from_measure(MeasureSpec("sp", x, y))
        assert F.annulus_z == F.annulus_w == (0.3, 0.9)
        assert F.default_config() == KernelConfig(
            r_z=0.3 + 0.65 * (0.9 - 0.3), r_w=0.3 + 0.35 * (0.9 - 0.3)
        )
        # E(x; z) is entire, so only the w-contour, where it is inverted, is bounded
        G = SymbolF.from_measure(MeasureSpec("sp-dual", x, y))
        assert G.annulus_z == (0.3, 1.0 / 0.3) and G.annulus_w == (0.3, 0.9)


def test_mixed_kind_symbols_match_the_brute_force_oracle():
    # power sums and alphabets mix in one symbol: Plancherel against a plain
    # alphabet, a plain alphabet against power sums, and the dual base of the
    # latter; their annuli contain |z| = 1, so the Fourier route applies too
    plancherel = Specialization.plancherel(Fraction(2, 5))
    y = Specialization.from_alphabet([Fraction(1, 4)])
    plain = Specialization.from_alphabet([Fraction(1, 3), Fraction(1, 7)])
    rho = Specialization.from_powersums({1: Fraction(1, 4), 2: Fraction(-1, 10)})
    sites = np.arange(-5, 4)
    for family in ("sp", "o"):
        for spec in (MeasureSpec(family, plancherel, y), MeasureSpec(family, plain, rho)):
            F = SymbolF.from_measure(spec)
            shift, cfg = (1 if family == "sp" else 0), F.default_config()
            contour = lambda a, b: kernel_contour(cfg, F, family, a + shift, b + shift)
            fourier = lambda a, b: kernel_fourier(F, family, a + shift, b + shift)
            assert np.abs(contour(sites, sites) - fourier(sites, sites)).max() < 1e-12, family
            for pts in ([0], [-1, 1]):
                res = correlation_bruteforce(spec, pts, tol=1e-9)
                for kernel in (contour, fourier):
                    assert correlation_det(kernel, pts) == pytest.approx(
                        res.value, abs=res.tail_estimate + 1e-12
                    ), (family, pts)
    for family in ("sp-dual", "o-dual"):
        spec = MeasureSpec(family, plain, rho)
        k = lattice_kernel(family, symbol=SymbolF.from_measure(spec))
        for pts in ([0], [-1, 0], [-3, 1]):
            res = correlation_bruteforce(spec, pts, tol=1e-9)
            assert correlation_det(k, pts) == pytest.approx(
                res.value, abs=res.tail_estimate + 1e-12
            ), (family, pts)


def test_quadrature_not_converged_raises(monkeypatch):
    # theta = 8 needs 256 nodes
    monkeypatch.setattr(kernels, "_MAX_NODES", 128)
    F = SymbolF.plancherel(8.0)
    with pytest.raises(QuadratureNotConverged):
        kernel_contour(CFG, F, "sp", 0, 0)


def test_unconverged_modes_raise():
    # |Re z| = |cos t| has modes decaying only like 1/n^2
    F = SymbolF(lambda z: np.abs(z.real), (0.0, math.inf), (0.0, math.inf))
    with pytest.raises(QuadratureNotConverged):
        F.modes(False)


def test_empty_alphabet_takes_the_power_sum_route():
    # an empty plain alphabet is the trivial specialization, like from_powersums({})
    z = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 13))
    plancherel = Specialization.plancherel(Fraction(1, 2))
    for family in ("sp", "o", "sp-dual"):
        build = lambda minus: SymbolF.from_measure(MeasureSpec(family, plancherel, minus))
        empty = build(Specialization.from_alphabet([]))
        trivial = build(Specialization.from_powersums({}))
        assert empty.label == trivial.label
        assert empty.annulus_z == trivial.annulus_z
        assert empty.annulus_w == trivial.annulus_w
        assert np.array_equal(empty(z), trivial(z)), family
        (w_e, m_e, _), (w_t, m_t, _) = empty.modes(False), trivial.modes(False)
        assert w_e == w_t and np.array_equal(m_e, m_t), family


def test_int_radii_give_the_bits_of_float_radii():
    F = SymbolF.plancherel(1.0)
    for family in ("sp", "o"):
        for a, b in ((2, 2), (-2, 1)):
            as_int = kernel_contour(KernelConfig(r_z=1, r_w=0.5), F, family, a, b)
            assert as_int == kernel_contour(KernelConfig(r_z=1.0, r_w=0.5), F, family, a, b)


def test_non_integer_kernel_sites_are_rejected():
    with pytest.raises(ValueError, match="2.7"):
        kernel_bessel(1.0, "sp", 2.7, 0)
    with pytest.raises(ValueError, match="0.5"):
        kernel_bessel(1.0, "o", np.arange(3), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="1.5"):
        kernel_contour(CFG, SymbolF.plancherel(1.0), "sp", 1.5, 0)
    # integer-valued floats are integers
    assert kernel_bessel(1.0, "sp", 2.0, 0) == kernel_bessel(1.0, "sp", 2, 0)


def test_non_integer_correlation_points_are_rejected():
    kernel = lattice_kernel("sp", theta=1.0)
    with pytest.raises(ValueError, match="0.5"):
        correlation_det(kernel, [0.5, 1.7])
    assert correlation_det(kernel, [0.0, 1.0]) == correlation_det(kernel, [0, 1])


# ---------------------------------------------------------------------------
# route choice from the symbol's content
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.5, 1.0, Fraction(1, 2), 0.1, Fraction(2, 7), 200.0])
def test_symbol_theta_is_read_bit_exactly_from_the_power_sums(theta):
    # F = H(pl_2theta; z) / (H(pl_theta; z) H(pl_theta; 1/z)) = exp(theta (z - 1/z)),
    # and E(pl; z) = H(pl; z), so the dual symbols are the same
    for family in ("sp", "o", "sp-dual", "o-dual"):
        assert SymbolF.from_measure(plancherel_measure(family, theta)).theta == float(theta)
    assert SymbolF.plancherel(theta).theta == float(theta)


def test_symbol_theta_is_none_unless_f_is_exactly_the_bessel_symbol():
    pl = Specialization.plancherel
    x = Specialization.from_bc_alphabet([Fraction(9, 10)])
    y = Specialization.from_alphabet([Fraction(3, 10)])
    for plus, minus in [
        (pl(1), pl(Fraction(1, 3))),  # exp(z (2/3) - 1 / (3 z)): another ratio
        (pl(-1), pl(Fraction(-1, 2))),  # theta = -1/2
        (Specialization.from_powersums({1: 1, 2: Fraction(1, 9)}), pl(Fraction(1, 2))),
        (pl(1), y),
        (x, y),
    ]:
        assert SymbolF.from_measure(MeasureSpec("sp", plus, minus)).theta is None
    # no power sum at all is F = 1, theta = 0
    zero = Specialization.zero()
    assert SymbolF.from_measure(MeasureSpec("o", zero, zero)).theta == 0.0


def test_lattice_kernel_picks_the_route_from_the_symbol():
    sites = np.arange(-4, 5)
    x = Specialization.from_bc_alphabet([Fraction(9, 10)])
    y = Specialization.from_alphabet([Fraction(3, 10)])
    rho = Specialization.from_powersums({1: Fraction(1, 3), 2: Fraction(-1, 7)})
    for family in ("sp", "o"):
        shift = 1 if family == "sp" else 0
        plancherel = SymbolF.from_measure(plancherel_measure(family, Fraction(1, 2)))
        powersum = SymbolF.from_measure(MeasureSpec(family, rho, rho))
        alphabet = SymbolF.from_measure(MeasureSpec(family, x, y))
        cfg = alphabet.default_config()
        for symbol, route in [
            (plancherel, lambda a, b: kernel_bessel(0.5, family, a, b)),
            (powersum, lambda a, b: kernel_fourier(powersum, family, a, b)),
            (alphabet, lambda a, b: kernel_contour(cfg, alphabet, family, a, b)),
        ]:
            value = lattice_kernel(family, symbol=symbol)(sites, sites)
            assert value.tobytes() == route(sites + shift, sites + shift).tobytes()
            # the dual family reflects the other base family on the same route
            base = lattice_kernel("o" if family == "sp" else "sp", symbol=symbol)
            dual = lattice_kernel(family + "-dual", symbol=symbol)(sites, sites)
            assert dual.tobytes() == (np.eye(len(sites)) - base(-1 - sites, -1 - sites)).tobytes()
    with pytest.raises(ValueError, match="theta or a symbol"):
        lattice_kernel("sp")
    with pytest.raises(ValueError, match="theta or a symbol"):
        lattice_kernel("sp", theta=0.5, symbol=SymbolF.plancherel(0.5))


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_fourier_sums_reach_far_negative_and_window_edge_sites(theta):
    # a site b far below 0 needs the sum over j to reach |b|, where the modes
    # of F and 1/F meet (K(b, b) is ~1 there); a window from 0 to the edge of
    # the first mode window (orders -127..127) needs more than that window
    # holds, and a lone site 128 needs the next one
    for sites in (np.array([-300, -129, -40, -5, 0, 3, 9]), np.arange(0, 127, 9), np.array([128])):
        F = SymbolF.plancherel(theta)  # modes fresh from each window
        for family in ("sp", "o"):
            fourier = kernel_fourier(F, family, sites, sites)
            bessel = kernel_bessel(theta, family, sites, sites)
            assert np.abs(fourier - bessel).max() <= 1e-13, (family, sites)
            diagonal = _fourier_sums(F, family, sites, sites, paired=True)[0]
            assert np.abs(diagonal - np.diagonal(bessel)).max() <= 1e-13, (family, sites)

