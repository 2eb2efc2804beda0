import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sposchur import asymptotics
from sposchur.characters import TH_PATTERNS, th_pattern
from sposchur.errors import ContourViolation, TruncationInsufficient
from sposchur.identities import character_sum_series
from sposchur.kernels import SymbolF, lattice_kernel
from sposchur.measures import MeasureSpec, _sum_weights, plancherel_measure
from sposchur.series import GradedScalar
from sposchur.specializations import Specialization
from sposchur.toeplitz_hankel import (
    FredholmConfig,
    Symbol,
    bo_check,
    gap_probability,
    gessel_check,
    szego_limits,
    szego_normalized_det,
    th_det,
    th_det_series,
)


def modified_bessel_i(n: int, x: float) -> float:
    """Oracle: I_n(x) by its power series."""
    total = 0.0
    for j in range(0, 80):
        total += (x / 2.0) ** (n + 2 * j) / (math.factorial(j) * math.factorial(n + j))
    return total


def random_symbol(seed: int) -> Symbol:
    rng = random.Random(seed)

    def rho():
        return Specialization.from_powersums(
            {
                k: Fraction(rng.choice([n for n in range(-3, 4) if n]), rng.randint(1, 4))
                for k in (1, 2, 3)
            }
        )

    return Symbol(rho(), rho())


def test_trivial_symbol_coefficients():
    sym = Symbol(Specialization.zero(), Specialization.zero())
    coeffs = sym.fourier_coeffs("f", -5, 5)
    assert coeffs[5] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(np.delete(coeffs, 5))) < 1e-14


def test_plancherel_symbol_modified_bessel_coefficients():
    for theta, tol in ((0.4, {"abs": 1e-13}), (4.0, {"rel": 1e-13})):
        sym = Symbol.plancherel(theta)
        # f(z) = exp(theta(2z + 1/z)): f_n = sqrt(2)^n I_n(2 sqrt(2) theta)
        for n in range(-3, 4):
            expected = (math.sqrt(2.0)) ** n * modified_bessel_i(abs(n), 2 * math.sqrt(2) * theta)
            if n < 0:
                expected = math.sqrt(2.0) ** n * modified_bessel_i(-n, 2 * math.sqrt(2) * theta)
            assert sym.fourier_coeffs("f", n, n)[0] == pytest.approx(expected, **tol), (theta, n)


def test_plancherel_f_tilde_equals_f():
    # f(-z) = 1/f(z) for the Plancherel symbol, so f~ = f
    sym = Symbol.plancherel(0.35)
    a = sym.fourier_coeffs("f", -4, 4)
    b = sym.fourier_coeffs("f_tilde", -4, 4)
    assert np.max(np.abs(a - b)) < 1e-13


def test_f_tilde_pure_plus_symbol():
    # f = exp(r z) has f~ = exp(r z) as well: f~_k = r^k / k!
    r = 0.7
    sym = Symbol(
        Specialization.from_powersums({1: r}), Specialization.zero()
    )
    for k in range(0, 5):
        assert sym.fourier_coeffs("f_tilde", k, k)[0] == pytest.approx(
            r**k / math.factorial(k), abs=1e-13
        )
    assert sym.fourier_coeffs("f_tilde", -1, -1)[0] == pytest.approx(0.0, abs=1e-13)


def test_size_one_determinants():
    sym = Symbol(Specialization.zero(), Specialization.zero())
    assert th_det(sym, "D1", 1) == pytest.approx(2.0, abs=1e-13)  # 2 f_0
    assert th_det(sym, "D2", 1) == pytest.approx(1.0, abs=1e-13)  # f~_0 - f~_{-2}
    assert th_det(sym, "D3", 1) == pytest.approx(1.0, abs=1e-13)
    assert th_det(sym, "D4", 1) == pytest.approx(2.0, abs=1e-13)
    assert th_det(sym, "D1", 0) == 1.0


def test_size_zero_and_half_rule_on_every_pattern():
    trivial = Symbol(Specialization.zero(), Specialization.zero())  # f = f~ = 1
    exact = Symbol.plancherel(Fraction(1, 2))
    for which, pattern in TH_PATTERNS.items():
        # size 0: determinant 1 and no 1/2 factor, in floats and in series
        assert th_det(trivial, which, 0) == 1.0, which
        assert szego_normalized_det(trivial, which, 0)[0] == 1.0, which
        assert th_det_series(exact, which, 0, 4) == GradedScalar.one(4), which
        # size 1 of the trivial symbol: 2 f_0 = 2 for the + patterns, which
        # carry the 1/2 factor, and f_0 - f_{-2} = 1 for the - patterns
        assert szego_normalized_det(trivial, which, 1)[0] == pytest.approx(1.0, abs=1e-13)
        # graded: the constant terms are 2 and 1 the same way (f_0 and f~_0
        # start at 1, f_{-2} and f~_{-2} at t^2); gessel_check covers the 1/2
        assert th_det_series(exact, which, 1, 4).coeffs[0] == (2 if pattern.half else 1)
    with pytest.raises(ValueError):
        th_det(trivial, "D5", 1)


def test_gessel_identities_plancherel_exact():
    sym = Symbol.plancherel(Fraction(1, 2))
    for which in ("D1", "D2", "D3", "D4"):
        for size in (0, 1, 2, 3):
            assert gessel_check(sym, which, size, degree=6), (which, size)


def test_gessel_identities_randomized_exact():
    sym = random_symbol(11)
    for which in ("D1", "D2", "D3", "D4"):
        for size in (1, 2, 4):
            assert gessel_check(sym, which, size, degree=8), (which, size)


def test_gessel_identities_past_size_four():
    for sym in (Symbol.plancherel(Fraction(1, 2)), random_symbol(11)):
        for which in ("D1", "D2", "D3", "D4"):
            for size in (5, 6):
                assert gessel_check(sym, which, size, degree=10), (which, size)


def test_gessel_identities_on_alphabet_symbols():
    # a BC alphabet, with and without the letter 1, against a plain one
    y = Specialization.from_alphabet([Fraction(1, 3), Fraction(-1, 4)])
    for include_one in (False, True):
        x = Specialization.from_bc_alphabet([Fraction(1, 2)], include_one=include_one)
        sym = Symbol(x, y)
        # the same letters with the sign of one linear factor flipped,
        # (1 + z/2) for (1 - z/2): a valid symbol, but not the one whose
        # character sums the determinants must equal
        flipped = Symbol(
            Specialization.from_alphabet([Fraction(-1, 2), 2] + [1] * include_one), y
        )
        for which in ("D1", "D2", "D3", "D4"):
            pattern = th_pattern(which)
            for size in (1, 2, 3):
                assert gessel_check(sym, which, size, 8), (include_one, which, size)
                assert gessel_check(flipped, which, size, 8), (include_one, which, size)
                rhs = character_sum_series(pattern.family, x, y, 8, **{pattern.bound: size})
                lhs = pattern.halve(th_det_series(flipped, which, size, 8), size)
                assert lhs != rhs, (include_one, which, size)


def test_symbol_f_is_the_product_form():
    # f = H(rho+; z) H(rho-; 1/z), analytic for max|y| < |z| < 1/max|x|, and
    # f~ = 1/f(-z) = E(rho+; z) E(rho-; 1/z), a Laurent polynomial
    xs, ys = [Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 4)]
    sym = Symbol(Specialization.from_alphabet(xs), Specialization.from_alphabet(ys))
    assert sym.f.annulus_z == (0.25, 3.0)
    assert sym.f_tilde.annulus_z == sym.f_tilde.annulus_w == (0.0, math.inf)
    for z in (0.5j, 1.0 + 0.5j, -2.0, 2.5 * np.exp(1j)):
        plus = math.prod(1 - float(x) * z for x in xs)
        minus = math.prod(1 - float(y) / z for y in ys)
        assert complex(sym.f(z)) == pytest.approx(1 / (plus * minus), rel=1e-14), z
        plus = math.prod(1 + float(x) * z for x in xs)
        minus = math.prod(1 + float(y) / z for y in ys)
        assert complex(sym.f_tilde(z)) == pytest.approx(plus * minus, rel=1e-14), z


def test_bo_and_szego_on_a_plain_alphabet_symbol():
    sym = Symbol(
        Specialization.from_alphabet([Fraction(1, 3), Fraction(1, 7)]),
        Specialization.from_alphabet([Fraction(1, 4)]),
    )
    for family in ("sp", "o"):
        for m in (2, 3, 4):
            res = bo_check(sym, family, m)
            assert abs(res.gap) < 1e-11, (family, m, res)
    for which in ("D1", "D2", "D3", "D4"):
        val, target = szego_normalized_det(sym, which, 12)
        assert val == pytest.approx(target, abs=1e-11), which


def _bc_symbols():
    """BC alphabet (1/2), without and with the letter 1, against (1/3, -1/4)."""
    y = Specialization.from_alphabet([Fraction(1, 3), Fraction(-1, 4)])
    return [
        Symbol(Specialization.from_bc_alphabet([Fraction(1, 2)], include_one=one), y)
        for one in (False, True)
    ]


def test_bc_alphabet_symbols_raise_for_float_coefficients():
    # f of a BC alphabet rho+ converges only inside |z| < min|x^(+-1)| <= 1,
    # so its unit-circle coefficients would belong to another symbol; f~ has
    # no pole off 0 and infinity, so D2 has its float determinant
    for sym in _bc_symbols():
        assert sym.f.annulus_z == (1 / 3, 0.5)
        with pytest.raises(ContourViolation, match="unit circle"):
            th_det(sym, "D1", 2)
        assert math.isfinite(th_det(sym, "D2", 2))
        with pytest.raises(ContourViolation, match="unit circle"):
            bo_check(sym, "sp", 2)


def test_bc_alphabet_f_tilde_modes_are_the_finite_sums():
    # f~ = E(rho+; z) E(rho-; 1/z): its mode s is sum_k e_k(rho-) e_{k+s}(rho+),
    # a finite sum for alphabets
    for sym in _bc_symbols():
        modes = sym.fourier_coeffs("f_tilde", -6, 6)
        for s in range(-6, 7):
            exact = sum(sym.rho_minus.e(k) * sym.rho_plus.e(k + s) for k in range(max(0, -s), 12))
            assert modes[s + 6] == pytest.approx(float(exact), abs=1e-14), s


def test_bc_alphabet_szego_limits_of_d2_d4():
    # D2_m and (1/2) D4_m are the width-bounded sp/o sums, rising to Z_sp / Z_o
    for sym in _bc_symbols():
        for which in ("D2", "D4"):
            vals = [szego_normalized_det(sym, which, m) for m in (12, 16, 24, 32)]
            target = vals[0][1]
            dets = [val for val, _ in vals]
            assert dets == sorted(dets) and dets[-1] < target, (which, dets, target)
            assert target - dets[-1] < 1e-5, (which, dets, target)


def _convolution(sym: Symbol, form: str, s: int, degree: int) -> GradedScalar:
    """Oracle: sum_k g_k(rho-) g_{k+s}(rho+) t^(2k+s) mod t^(degree+1), g = rho.h
    or rho.e by form, one Fraction per power of t."""
    gm, gp = (sym.rho_minus.h, sym.rho_plus.h) if form == "h" else (sym.rho_minus.e, sym.rho_plus.e)
    coeffs = [Fraction(0)] * (degree + 1)
    for n in range(degree + 1):
        k, odd = divmod(n - s, 2)
        if not odd and k >= 0 and k + s >= 0:
            coeffs[n] = gm(k) * gp(k + s)
    return GradedScalar(coeffs)


def test_graded_coeffs_are_the_convolutions_of_the_images():
    y = Specialization.from_alphabet([Fraction(1, 4)])
    symbols = {
        "plancherel": Symbol.plancherel(Fraction(1, 2)),
        "power sums": random_symbol(11),
        "plain alphabets": Symbol(
            Specialization.from_alphabet([Fraction(1, 3), Fraction(-1, 7)]), y
        ),
        "BC": _bc_symbols()[0],
        "BC with 1": _bc_symbols()[1],
    }
    for label, sym in symbols.items():
        for degree in (0, 1, 6):
            # the window reaches below -degree and above degree, where f_s = 0
            lo, hi = -degree - 3, degree + 2
            for which, form in (("f", "h"), ("f_tilde", "e")):
                got = sym.graded_coeffs(which, lo, hi, degree)
                assert got == [_convolution(sym, form, s, degree) for s in range(lo, hi + 1)], (
                    label, which, degree,
                )
                assert not any(got[: -degree - lo]) and not any(got[degree - lo + 1 :])
            # a routine reading h for f~ fails the comparison above, except
            # for Plancherel, whose e and h images coincide, and below degree
            # 2 (h_1 = e_1)
            mutant = [_convolution(sym, "h", s, degree) for s in range(lo, hi + 1)]
            if label != "plancherel" and degree > 1:
                assert sym.graded_coeffs("f_tilde", lo, hi, degree) != mutant, (label, degree)
    with pytest.raises(TypeError):
        Symbol.plancherel(0.5).graded_coeffs("f", -2, 2, 4)
    with pytest.raises(ValueError):
        symbols["power sums"].graded_coeffs("g", -2, 2, 4)


def test_negative_degrees_raise():
    sym = Symbol.plancherel(Fraction(1, 2))
    for which in TH_PATTERNS:
        for size in (0, 2):
            for check in (th_det_series, gessel_check):
                with pytest.raises(ValueError, match="degree must be >= 0"):
                    check(sym, which, size, -1)


def test_negative_sizes_raise():
    sym = Symbol.plancherel(Fraction(1, 2))
    for which in TH_PATTERNS:
        for call in (
            lambda: th_det(sym, which, -1),
            lambda: th_det_series(sym, which, -1, 4),
            lambda: gessel_check(sym, which, -1, 4),
        ):
            with pytest.raises(ValueError, match="size must be >= 0"):
                call()


def test_szego_limits_plancherel():
    theta = 0.5
    sym = Symbol.plancherel(theta)
    z_sp, z_o = szego_limits(sym)
    assert z_sp == pytest.approx(math.exp(3 * theta**2 / 2), rel=1e-14)
    assert z_o == pytest.approx(math.exp(3 * theta**2 / 2), rel=1e-14)


def test_szego_limits_trivial_and_p2():
    sym0 = Symbol(Specialization.zero(), Specialization.zero())
    assert szego_limits(sym0) == (1.0, 1.0)
    symp2 = Symbol(
        Specialization.from_powersums({1: 1}),
        Specialization.from_powersums({2: Fraction(1, 2)}),
    )
    z_sp, z_o = szego_limits(symp2)
    assert z_sp / z_o == pytest.approx(math.exp(0.5), rel=1e-13)


def test_szego_convergence_plancherel():
    theta = 0.5
    sym = Symbol.plancherel(theta)
    target = math.exp(3 * theta**2 / 2)
    for which in ("D1", "D2", "D3", "D4"):
        val, tgt = szego_normalized_det(sym, which, 12)
        assert tgt == pytest.approx(target, rel=1e-14)
        assert val == pytest.approx(target, abs=1e-8), which


def test_bo_trivial_symbol():
    sym = Symbol(Specialization.zero(), Specialization.zero())
    for family in ("sp", "o"):
        for m in (0, 1, 3):
            res = bo_check(sym, family, m)
            assert res.lhs == pytest.approx(1.0, abs=1e-12)
            assert abs(res.gap) < 1e-12


def test_bo_plancherel_gap():
    sym = Symbol.plancherel(0.5)
    for family in ("sp", "o"):
        for m in (2, 3, 5):
            res = bo_check(sym, family, m)
            assert abs(res.gap) < 1e-8, (family, m, res)


def test_bo_large_m_approaches_z():
    sym = Symbol.plancherel(0.5)
    z_sp, _ = szego_limits(sym)
    res = bo_check(sym, "sp", 12)
    assert res.lhs == pytest.approx(z_sp, abs=1e-8)
    assert res.rhs == pytest.approx(z_sp, abs=1e-8)


def test_fredholm_window_doubling_robustness():
    kernel = lattice_kernel("sp", theta=0.5)
    det1, tail1, w1 = gap_probability(kernel, 3, FredholmConfig(window=20))
    det2, tail2, w2 = gap_probability(kernel, 3, FredholmConfig(window=40))
    assert abs(det2 - det1) <= max(tail1, 1e-14)


def test_fredholm_truncation_error():
    with pytest.raises(TruncationInsufficient):
        gap_probability(
            lattice_kernel("sp", theta=0.5), 2, FredholmConfig(window=2, tail_tol=1e-14)
        )


def test_sections_of_kernels_growing_off_the_diagonal_raise():
    # a BC alphabet rho+ puts |z| = 1 outside the annulus of F, so the contour
    # kernel grows like r_z^-a off the diagonal: window 64 of the search holds
    # an entry of 6.2e17 beside a largest diagonal entry of 0.08, and its
    # determinant read 1.87 where the brute-force P(lambda_1 <= 2) is 0.72791
    spec = MeasureSpec(
        "sp",
        Specialization.from_bc_alphabet([Fraction(1, 2)]),
        Specialization.from_alphabet([Fraction(1, 3), Fraction(-1, 4)]),
    )
    kernel = lattice_kernel("sp", symbol=SymbolF.from_measure(spec))
    match = r"entry 6\.\d+e\+17 exceeds 2\^26 at window 64"
    with pytest.raises(TruncationInsufficient, match=match):
        gap_probability(kernel, 2)


def _block_scan(kernel, m, fred):
    """`gap_probability` as it was before the diagonal read: 8 x 8 kernel blocks
    for the width search, 32 x 32 blocks for the tail, read for their diagonals."""
    if fred.window is not None:
        width = fred.window
    else:
        widths = np.arange(8, 408, 8)
        width = int(widths[-1])
        for block in np.split(widths, range(8, len(widths), 8)):
            small = np.abs(np.diagonal(kernel(m + block, m + block))) <= fred.tail_tol / 100
            if small.any():
                width = int(block[np.argmax(small)])
                break
    tail = 0.0
    s, last = m + width, m + width + 401
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


def _outcome(section, kernel, m, fred):
    """(det, tail bound, width) with the floats by their bits, or the error raised."""
    try:
        det, tail_bound, width = section(kernel, m, fred)
    except TruncationInsufficient as exc:
        return str(exc)
    return det.hex(), tail_bound.hex(), width


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_gap_probability_has_the_bits_of_the_block_scan(theta):
    for family in ("sp", "o"):
        kernel = lattice_kernel(family, theta=theta)
        for m in range(1, 9):
            fred = FredholmConfig()
            new = _outcome(gap_probability, kernel, m, fred)
            assert new == _outcome(_block_scan, kernel, m, fred), (family, m)
            assert not isinstance(new, str)
        # configured windows below the first search width
        for window in range(8):
            fred = FredholmConfig(window=window)
            new = _outcome(gap_probability, kernel, 2, fred)
            assert new == _outcome(_block_scan, kernel, 2, fred), (family, window)


def test_edge_sections_have_the_bits_of_the_block_scan(monkeypatch):
    # the edge_cdf_discrete inputs of the seed-1 edge-fredholm benchmark pass
    inputs = {
        "sp": (-6.0, -4.025176, -1.946577, 0.076932),
        "o": (-6.0, -3.972571, -2.057713, -0.03876),
    }
    pairs = []

    def both(kernel, m, fred):
        pairs.append(
            (_outcome(gap_probability, kernel, m, fred), _outcome(_block_scan, kernel, m, fred))
        )
        return gap_probability(kernel, m, fred)

    monkeypatch.setattr(asymptotics, "gap_probability", both)
    for family, grid in inputs.items():
        for s in grid:
            asymptotics.edge_cdf_discrete(family, 200.0, s)
    assert len(pairs) == 8
    for new, old in pairs:
        assert new == old and not isinstance(new, str)


def test_long_tails_have_the_bits_of_the_block_scan():
    # tails of 82 (sp) and 81 (o) sites at theta = 200, whose sums depend on
    # the order the 32-site blocks add them in
    for family, m in (("sp", 371), ("o", 373)):
        kernel = lattice_kernel(family, theta=200.0)
        fred = FredholmConfig(window=10, tail_tol=10.0)
        new = _outcome(gap_probability, kernel, m, fred)
        assert new == _outcome(_block_scan, kernel, m, fred) and not isinstance(new, str)


def test_window_search_to_400_raises_like_the_block_scan():
    # deep in the bulk at theta = 200 no candidate width reaches tail_tol/100,
    # so the search ends at 400 and the tail from site 400 on is far too heavy
    kernel = lattice_kernel("sp", theta=200.0)
    fred = FredholmConfig()
    new = _outcome(gap_probability, kernel, 0, fred)
    assert new == _outcome(_block_scan, kernel, 0, fred)
    assert new.endswith("at window 400")


def test_bo_nonplancherel_symbol():
    # BO holds for general admissible symbols; exercise the fourier-mode path
    sym = Symbol(
        Specialization.from_powersums({1: Fraction(2, 5), 2: Fraction(1, 10)}),
        Specialization.from_powersums({1: Fraction(1, 4)}),
    )
    points = []  # sizes of F's evaluations, which only its Laurent modes make
    evaluate = sym.F._evaluate
    sym.F._evaluate = lambda z: points.append(z.size) or evaluate(z)
    res = bo_check(sym, "sp", 3)
    assert abs(res.gap) < 1e-8, res
    after_sp = list(points)
    res_o = bo_check(sym, "o", 3)
    assert abs(res_o.gap) < 1e-8, res_o
    # one kernel symbol serves both families: o reads the modes sp computed
    assert after_sp and points == after_sp


@pytest.mark.parametrize(
    "fields",
    [
        {"window": -3},
        {"window": 2.5},
        {"tail_tol": math.nan},
        {"tail_tol": -1.0},
        {"tail_tol": 0.0},
        {"tail_tol": math.inf},
    ],
)
def test_fredholm_config_refuses_bad_truncation_policies(fields):
    # a negative window read the diagonal from m - 3 and a nan tail_tol
    # skipped the tail check
    with pytest.raises(ValueError, match="window|tail_tol"):
        FredholmConfig(**fields)


def test_window_search_uses_the_diagonal_magnitude():
    # at theta = 2 the o diagonal turns negative (-8.4e-08 at m + 8) before it
    # is small; a signed comparison stopped the search there and the tail
    # bound then raised TruncationInsufficient
    sym = Symbol.plancherel(2.0)
    for m in (2, 3, 4):
        res = bo_check(sym, "o", m, FredholmConfig(tail_tol=1e-10))
        assert res.window == 16, (m, res)
        assert abs(res.gap) < 1e-8, (m, res)


def test_plancherel_content_selects_the_bessel_route():
    # the Plancherel pair spelled out as exact power sums, as a --symbol
    # document gives it, has the kernel symbol exp(theta (z - 1/z)) and so
    # the Bessel route: every field of the result has the bits of
    # Symbol.plancherel's
    doc = {"rho_plus": {"powersums": {"1": "1"}}, "rho_minus": {"powersums": {"1": "1/2"}}}
    spelled = Symbol(*(Specialization.from_json(doc[side]) for side in ("rho_plus", "rho_minus")))
    assert spelled.F.theta == 0.5
    for family in ("sp", "o"):
        for m in (2, 3, 5):
            assert bo_check(spelled, family, m) == bo_check(Symbol.plancherel(0.5), family, m)


@pytest.mark.parametrize(
    "theta, ms", [(0.5, (1, 2, 3, 5)), (2.0, (1, 2, 3, 5)), (200.0, (396, 400, 410))]
)
def test_dual_gap_probabilities_of_plancherel_match_the_base_family(theta, ms):
    # s_lambda'(pl) = s_lambda(pl), so sp-dual and sp are one measure, and
    # o-dual and o; their gap probabilities come from two kernels, the dual
    # one reflected about -1/2 with the other base family
    for family in ("sp", "o"):
        kernel, reflected = (
            lattice_kernel(f, symbol=SymbolF.from_measure(plancherel_measure(f, theta)))
            for f in (family, family + "-dual")
        )
        for m in ms:
            det = gap_probability(kernel, m)[0]
            assert gap_probability(reflected, m)[0] == pytest.approx(det, abs=1e-13), (family, m)


def test_dual_gap_probabilities_of_a_power_sum_measure():
    # the Fourier route; the oracle sums the weights of the partitions whose
    # configuration {lambda_i - i} has no site >= m
    rp = Specialization.from_powersums({1: Fraction(1, 3), 2: Fraction(-1, 7)})
    rm = Specialization.from_powersums({1: Fraction(1, 5)})
    for family in ("sp-dual", "o-dual"):
        spec = MeasureSpec(family, rp, rm)
        kernel = lattice_kernel(family, symbol=SymbolF.from_measure(spec))
        for m in (1, 3):
            no_site_past_m = lambda conf, m=m: all(site < m for site in conf)
            res = _sum_weights(spec, [no_site_past_m], [m], 1e-12)[0]
            det = gap_probability(kernel, m)[0]
            assert det == pytest.approx(res.value, abs=res.tail_estimate + 1e-14), (family, m)
