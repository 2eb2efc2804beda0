"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.  Criteria 7-10 are
property-based (monotone convergence and cross-representation agreement);
the others are bit-exact or carry explicit numeric tolerances.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sposchur.asymptotics import (
    bulk_scan,
    edge_cdf_discrete,
    edge_cdf_effective_s,
    edge_scan,
    fit_error_exponent,
    max_error_by_theta,
    nicholson_scan,
    tw_2to1_cdf,
    tw_2to1_stability,
)
from sposchur.identities import cauchy_check
from sposchur.kernels import (
    KernelConfig,
    SymbolF,
    correlation_det,
    kernel_bessel,
    kernel_contour,
    kernel_fourier,
    lattice_kernel,
)
from sposchur.measures import correlation_bruteforce_batch, plancherel_measure
from sposchur.specializations import Specialization
from sposchur.toeplitz_hankel import (
    Symbol,
    bo_check,
    gessel_check,
    szego_normalized_det,
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def _random_rational(rng: random.Random) -> Specialization:
    return Specialization.from_powersums(
        {
            k: Fraction(rng.choice([n for n in range(-3, 4) if n]), rng.randint(1, 4))
            for k in (1, 2, 3)
        }
    )


def test_criterion_01_exact_cauchy_identities():
    rng = random.Random(20260808)
    ok = True
    for _ in range(5):
        rp, rm = _random_rational(rng), _random_rational(rng)
        ok = ok and cauchy_check("sp", rp, rm, degree=8)
        ok = ok and cauchy_check("o", rp, rm, degree=8)
    _report(1, ok, "exact Cauchy identities (sp, o), 5 random rational pairs, degree 8")


def test_criterion_02_gessel_identities():
    rng = random.Random(7)
    symbols = [
        Symbol.plancherel(Fraction(1, 2)),
        Symbol(_random_rational(rng), _random_rational(rng)),
    ]
    ok = True
    for sym in symbols:
        for which in ("D1", "D2", "D3", "D4"):
            for size in (1, 2, 3, 4):
                ok = ok and gessel_check(sym, which, size, degree=8)
    _report(2, ok, "Gessel identities D1..D4, sizes 1-4, degree 8, bit-exact")


def test_criterion_03_kernel_cross_representation():
    span = range(-10, 11)
    tol = 1e-8
    worst = 0.0
    for theta in (0.5, 1.0, 2.0):
        F = SymbolF.plancherel(theta)
        for family in ("sp", "o"):
            grid_contour = kernel_contour(
                KernelConfig(), F, family, list(span), list(span)
            )
            for i, a in enumerate(span):
                for j, b in enumerate(span):
                    via_b = kernel_bessel(theta, family, a, b)
                    via_f = kernel_fourier(F, family, a, b)
                    via_c = grid_contour[i, j]
                    worst = max(
                        worst, abs(via_c - via_b), abs(via_c - via_f), abs(via_b - via_f)
                    )
    _report(
        3,
        worst < tol,
        f"kernel contour/bessel/fourier pairwise agreement, worst {worst:.2e} < 1e-8",
    )


def test_criterion_04_determinantal_correlation_oracle():
    sites = range(-4, 5)
    sets = [[a] for a in sites] + [
        [a, b] for a, b in itertools.combinations(sites, 2)
    ]
    ok = True
    worst_gap, worst_tail = 0.0, 0.0
    for theta in (Fraction(1, 5), Fraction(2, 5)):
        for family in ("sp", "o"):
            spec = plancherel_measure(family, theta)
            kernel = lattice_kernel(family, theta=float(theta))
            results = correlation_bruteforce_batch(spec, sets, tol=1e-7)
            for pts, res in zip(sets, results):
                det = correlation_det(kernel, pts)
                gap = abs(det - res.value)
                worst_gap = max(worst_gap, gap)
                worst_tail = max(worst_tail, res.tail_estimate)
                ok = ok and res.tail_estimate <= 1e-6
                ok = ok and gap <= res.tail_estimate + 5e-10
    _report(
        4,
        ok,
        "brute-force vs det[K] for all point sets of size <= 2 in [-4,4], "
        f"theta in {{0.2, 0.4}}, worst gap {worst_gap:.2e} within tails <= {worst_tail:.2e}",
    )


def test_criterion_05_szego_limits():
    theta = 0.5
    sym = Symbol.plancherel(theta)
    target = math.exp(3 * theta**2 / 2)
    ok = True
    finals = {}
    for which in ("D1", "D2", "D3", "D4"):
        errs = []
        for n in range(2, 13):
            val, tgt = szego_normalized_det(sym, which, n)
            assert tgt == pytest.approx(target, rel=1e-14)
            errs.append(abs(val - target))
        # monotone stabilization up to the float plateau
        ok = ok and all(b <= a + 1e-13 for a, b in zip(errs, errs[1:]))
        ok = ok and errs[-1] < 1e-8
        finals[which] = errs[-1]
    _report(
        5,
        ok,
        "Szego: normalized D1..D4 at n=12 within 1e-8 of exp(3 theta^2/2), "
        f"monotone |error|, finals {max(finals.values()):.2e}",
    )


def test_criterion_06_borodin_okounkov():
    ok = True
    worst = 0.0
    for theta in (0.3, 0.5):
        sym = Symbol.plancherel(theta)
        for family in ("sp", "o"):
            for m in range(2, 9):
                res = bo_check(sym, family, m)
                worst = max(worst, abs(res.gap))
                ok = ok and abs(res.gap) < 1e-8
    _report(
        6,
        ok,
        f"Borodin-Okounkov |gap| < 1e-8 for m=2..8, theta in {{0.3, 0.5}}, worst {worst:.2e}",
    )


def test_criterion_07_bulk_limit():
    thetas = (50.0, 200.0, 800.0)
    ok = True
    at800 = {}
    for family in ("sp", "o"):
        errs = max_error_by_theta(bulk_scan(family, thetas, 0.0, range(-3, 4)))
        ok = ok and errs[50.0] > errs[200.0] > errs[800.0]
        ok = ok and errs[800.0] < 0.02
        at800[family] = errs[800.0]
    _report(
        7,
        ok,
        "bulk at alpha=0: max error decreasing over theta in {50,200,800}, "
        f"at 800: sp {at800['sp']:.4f}, o {at800['o']:.4f} < 0.02",
    )


def test_criterion_08_edge_limit():
    thetas = (50.0, 200.0, 800.0)
    ok = True
    summary = []
    for family in ("sp", "o"):
        errs = max_error_by_theta(edge_scan(family, thetas, grid=(-2.0, 0.0, 2.0)))
        exponent = fit_error_exponent(errs)
        ok = ok and errs[50.0] > errs[200.0] > errs[800.0]
        ok = ok and -0.6 <= exponent <= -0.15
        ok = ok and errs[800.0] < 0.02
        summary.append(f"{family}: err800={errs[800.0]:.4f} exp={exponent:.2f}")
    _report(8, ok, "edge vs Airy-2to1 kernels, " + "; ".join(summary))


def test_criterion_09_nicholson():
    thetas = (50.0, 200.0, 800.0)
    ok = True
    for x in (-1.0, 0.0, 1.0):
        rows = nicholson_scan(thetas, xs=(x,))
        errs = {r.theta: r.abs_error for r in rows}
        ok = ok and errs[50.0] > errs[200.0] > errs[800.0]
    _report(9, ok, "Nicholson: |theta^(1/3) J - Ai(x)| decreasing at x in {-1,0,1}")


def test_criterion_10_tw_2to1_cdf():
    ok = True
    # monotone on a 50-point grid, 1 at the right end, stable under doubling
    grid = np.linspace(-6.0, 4.0, 50)
    vals = [tw_2to1_cdf("+", float(s)) for s in grid]
    ok = ok and all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    ok = ok and abs(tw_2to1_cdf("+", 6.0) - 1.0) < 1e-6
    ok = ok and tw_2to1_stability("+", -2.0) < 1e-7
    ok = ok and tw_2to1_stability("+", 1.0) < 1e-7
    # discrete edge CDF at theta = 200 within 0.02
    theta = 200.0
    worst = 0.0
    for s in (-1.0, 0.0, 1.0):
        disc = edge_cdf_discrete("sp", theta, s)
        lim = tw_2to1_cdf("+", edge_cdf_effective_s("sp", theta, s))
        worst = max(worst, abs(disc - lim))
    ok = ok and worst < 0.02
    _report(
        10,
        ok,
        "TW-2to1(+): monotone CDF, ->1 at s=6, stable to 1e-7, "
        f"discrete P_sp at theta=200 within {worst:.4f} < 0.02",
    )
