import collections
import random
from fractions import Fraction

import pytest

from sposchur import characters
from sposchur.identities import (
    cauchy_check,
    character_sum_series,
    expansion_cross_check,
    jacobi_trudi_cross_check,
    log_normalization_series,
    normalization_series,
    omega_duality_check,
)
from sposchur.measures import MeasureSpec, correlation_bruteforce_batch
from sposchur.partitions import Partition
from sposchur.series import GradedScalar
from sposchur.specializations import Specialization
from sposchur.toeplitz_hankel import Symbol, gessel_check


def random_rational_specialization(rng, kmax=3):
    ps = {}
    for k in range(1, kmax + 1):
        num = rng.choice([n for n in range(-3, 4) if n != 0])
        den = rng.randint(1, 4)
        ps[k] = Fraction(num, den)
    return Specialization.from_powersums(ps)


def test_plancherel_normalization_closed_form():
    """Plancherel pair (2 theta, theta): both Z's are exp(3 theta^2 / 2)."""
    theta = Fraction(1, 2)
    rp = Specialization.plancherel(2 * theta)
    rm = Specialization.plancherel(theta)
    d = 10
    target = GradedScalar.monomial(3 * theta**2 / 2, 2, d).exp()
    assert normalization_series("sp", rp, rm, d) == target
    assert normalization_series("o", rp, rm, d) == target


def test_normalization_sp_o_ratio():
    """Z_sp / Z_o = exp(sum_k p_{2k}(rho-)/k), nontrivial when p_2 != 0."""
    rp = Specialization.from_powersums({1: 1})
    rm = Specialization.from_powersums({2: Fraction(1, 3)})
    d = 8
    zsp = normalization_series("sp", rp, rm, d)
    zo = normalization_series("o", rp, rm, d)
    # only k = 1 contributes p_2(rho-)/1, at grading degree 2
    expect = GradedScalar.monomial(Fraction(1, 3), 2, d).exp()
    assert zsp.divide_exact(zo) == expect


def test_cauchy_identities_randomized():
    rng = random.Random(20240801)
    for _ in range(3):
        rp = random_rational_specialization(rng)
        rm = random_rational_specialization(rng)
        assert cauchy_check("sp", rp, rm, degree=8)
        assert cauchy_check("o", rp, rm, degree=8)


def test_cauchy_identities_dual_lifted():
    rng = random.Random(7)
    rp = random_rational_specialization(rng)
    rm = random_rational_specialization(rng)
    assert cauchy_check("sp-dual", rp, rm, degree=8)
    assert cauchy_check("o-dual", rp, rm, degree=8)


def test_dual_cauchy_alphabet_case():
    """sum sp_l(X) s_l'(Y) = h_o(Y) E(X;Y) with X a BC alphabet on N = 2."""
    x = Specialization.from_bc_alphabet([Fraction(1, 2), Fraction(2, 5)])
    y = Specialization.from_alphabet([Fraction(1, 3), Fraction(1, 7)])
    assert cauchy_check("sp-dual", x, y, degree=6, weight_plus=0)
    assert cauchy_check("o-dual", x, y, degree=6, weight_plus=0)


def test_cauchy_alphabet_non_dual():
    x = Specialization.from_bc_alphabet([Fraction(1, 2), Fraction(2, 5)])
    y = Specialization.from_alphabet([Fraction(1, 3), Fraction(1, 7)])
    assert cauchy_check("sp", x, y, degree=6, weight_plus=0)
    assert cauchy_check("o", x, y, degree=6, weight_plus=0)


def test_degree_zero_is_vacuous():
    rp = Specialization.plancherel(Fraction(1))
    rm = Specialization.plancherel(Fraction(1))
    assert cauchy_check("sp", rp, rm, degree=0)


def test_restricted_sums_monotone_in_bound():
    """Restricted sums increase toward the full Cauchy sum as bounds grow."""
    rp = Specialization.plancherel(Fraction(1))
    rm = Specialization.plancherel(Fraction(1, 2))
    d = 6
    full = character_sum_series("sp", rp, rm, d)
    assert character_sum_series("sp", rp, rm, d, length_bound=d) == full
    small = character_sum_series("sp", rp, rm, d, length_bound=0)
    assert small == GradedScalar.one(d)


def test_suite_checks():
    rho = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(-2, 3), 3: 1})
    assert jacobi_trudi_cross_check(rho, 6)
    assert expansion_cross_check(rho, 6)
    assert omega_duality_check(rho, 6)


@pytest.mark.parametrize("e_form", ["schur_via_e", "sp_char_via_e", "o_char_via_e"])
def test_jacobi_trudi_cross_check_catches_a_wrong_e_form(monkeypatch, e_form):
    rho = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(-2, 3), 3: 1})
    original = getattr(characters, e_form)
    wrong = Partition([2, 1, 1])

    def mutated(lam, rho):
        value = original(lam, rho)
        return value + 1 if lam == wrong else value

    monkeypatch.setattr(characters, e_form, mutated)
    assert not jacobi_trudi_cross_check(rho, 4)
    assert jacobi_trudi_cross_check(rho, 3)  # below |(2,1,1)| the forms still agree


def test_log_normalization_rejects_bad_family():
    rho = Specialization.zero()
    with pytest.raises(ValueError):
        log_normalization_series("nope", rho, rho, 4)


# ---------------------------------------------------------------------------
# the per-specialization memo of the identity sums
# ---------------------------------------------------------------------------

BOUNDS = [{}] + [{key: b} for key in ("length_bound", "width_bound") for b in range(1, 5)]


def assert_memo_is_invisible(make_plus, make_minus, degrees, families, weight_plus):
    """Each sum on one reused pair of specializations equals it on a fresh pair."""
    plus, minus = make_plus(), make_minus()
    for degree in degrees:
        for family in families:
            for bounds in BOUNDS:
                reused = character_sum_series(family, plus, minus, degree, weight_plus, **bounds)
                fresh = character_sum_series(
                    family, make_plus(), make_minus(), degree, weight_plus, **bounds
                )
                assert reused == fresh, (family, degree, weight_plus, bounds)


def test_memo_returns_what_fresh_specializations_compute():
    # degree 6, then 8 on the same specializations: a key without the degree
    # would hand the degree-6 characters to the degree-8 sums, and a key
    # without the dual flag the Schur factor of lambda to the dual sums
    def plus():
        return Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(-2, 3), 3: 1})

    def minus():
        return Specialization.from_powersums({1: Fraction(3, 4), 2: Fraction(1, 5)})

    assert_memo_is_invisible(plus, minus, (6, 8), ("sp", "o", "sp-dual", "o-dual"), 1)


def test_memo_returns_what_fresh_specializations_compute_on_the_alphabet_path():
    def plus():
        return Specialization.from_bc_alphabet([Fraction(1, 2), Fraction(2, 5)])

    def minus():
        return Specialization.from_alphabet([Fraction(1, 3), Fraction(1, 7)])

    assert_memo_is_invisible(plus, minus, (4, 6), ("sp-dual", "o-dual", "sp", "o"), 0)
    # exact and graded characters of one specialization keep apart
    rho = plus()
    y = minus()
    exact = character_sum_series("sp", rho, y, 6, weight_plus=0)
    graded = character_sum_series("sp", rho, y, 6)
    assert exact == character_sum_series("sp", plus(), y, 6, weight_plus=0)
    assert graded == character_sum_series("sp", plus(), y, 6)
    assert exact != graded


def test_brute_force_weights_fill_no_memo():
    for family in ("sp", "o", "sp-dual", "o-dual"):
        spec = MeasureSpec(family, Specialization.plancherel(Fraction(2, 5)),
                           Specialization.plancherel(Fraction(1, 5)))
        correlation_bruteforce_batch(spec, [[0], [-1, 2]])
        assert spec.rho_plus.memo == {} and spec.rho_minus.memo == {}


def test_gessel_sweep_evaluates_each_character_once(monkeypatch):
    """A memo miss changes no value, so only a count catches it."""
    seen = collections.Counter()
    original = characters._jacobi_trudi

    def counting(rho, form, offsets, reach, row, degree=None):
        # the row builder's code and captured pattern tell sp, o and Schur apart
        cells = tuple(cell.cell_contents for cell in row.__closure__ or ())
        seen[id(rho), form, tuple(offsets), reach, degree, row.__code__, cells] += 1
        return original(rho, form, offsets, reach, row, degree)

    monkeypatch.setattr(characters, "_jacobi_trudi", counting)
    sym = Symbol(
        Specialization.from_powersums({1: Fraction(2, 3), 2: Fraction(-1, 4)}),
        Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 3)}),
    )
    for which in ("D1", "D2", "D3", "D4"):
        for size in range(1, 5):
            assert gessel_check(sym, which, size, 8)
    assert seen and max(seen.values()) == 1
