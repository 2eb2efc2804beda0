import collections
import random
from fractions import Fraction

import pytest

from sposchur import characters, identities
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
from sposchur.partitions import Partition, enumerate_partitions
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


@pytest.mark.parametrize("weight_plus", [2, -1, Fraction(1, 2)])
def test_grading_weights_other_than_0_and_1_raise(weight_plus):
    # the sum knows only graded (1) and plain (0) characters at rho+, while
    # log Z would scale the cross degrees by any weight: a true identity
    # compared False at weight 2, and weight -1 failed inside exp
    rp = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 3)})
    rm = Specialization.from_powersums({1: Fraction(1, 4)})
    for call in (cauchy_check, character_sum_series, log_normalization_series):
        with pytest.raises(ValueError, match="weight_plus must be 0 or 1"):
            call("sp", rp, rm, 6, weight_plus)


# ---------------------------------------------------------------------------
# the per-specialization memo of the identity sums
# ---------------------------------------------------------------------------

# from small to large admitted sets: both bounds at once, bounds past the degree
BOUNDS = (
    [{"length_bound": 0}, {"length_bound": 1, "width_bound": 1}]
    + [{key: b} for b in range(1, 5) for key in ("length_bound", "width_bound")]
    + [{"length_bound": 2, "width_bound": 3}, {"length_bound": 3, "width_bound": 2}]
    + [{"length_bound": 9}, {"width_bound": 12}, {"length_bound": 20, "width_bound": 20}, {}]
)


def walk_sum(family, rho_plus, rho_minus, degree, weight_plus, bounds):
    """The unmemoized sum: one walk over |lambda| <= degree, term by term, on
    the fixed h-form functions rather than the dispatchers the sums use."""
    base = family.removesuffix("-dual")
    graded = {"sp": characters.sp_char_series, "o": characters.o_char_series}[base]
    exact = {"sp": characters.sp_char, "o": characters.o_char}[base]
    out = GradedScalar.zero(degree)
    for lam in enumerate_partitions(degree):
        if lam.length() > bounds.get("length_bound", degree):
            continue
        if lam.part(1) > bounds.get("width_bound", degree):
            continue
        mu = lam.conjugate() if base != family else lam
        s = GradedScalar.monomial(characters.schur(mu, rho_minus), lam.size(), degree)
        if weight_plus:
            out = out + graded(lam, rho_plus, degree) * s
        else:
            out = out + s * exact(lam, rho_plus)
    return out


def assert_memo_is_invisible(make_plus, make_minus, degrees, families, weight_plus):
    """Each sum on one reused pair of specializations equals the walk on a
    fresh pair, with bounds requested from small to large on one pair and
    from large to small on another."""
    expected = {}
    for degree in degrees:
        for family in families:
            for i, bounds in enumerate(BOUNDS):
                expected[degree, family, i] = walk_sum(
                    family, make_plus(), make_minus(), degree, weight_plus, bounds
                )
    for order in (range(len(BOUNDS)), range(len(BOUNDS) - 1, -1, -1)):
        plus, minus = make_plus(), make_minus()
        for degree in degrees:
            for family in families:
                for i in order:
                    reused = character_sum_series(
                        family, plus, minus, degree, weight_plus, **BOUNDS[i]
                    )
                    assert reused == expected[degree, family, i], (
                        family, degree, weight_plus, BOUNDS[i]
                    )


def test_memo_returns_what_fresh_specializations_compute():
    # degree 6, then 8 on the same specializations: a key without the degree
    # would hand the degree-6 characters to the degree-8 sums, and a key
    # without the dual flag the Schur factor of lambda to the dual sums
    def plus():
        return Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(-2, 3), 3: 1})

    def minus():
        return Specialization.from_powersums({1: Fraction(3, 4), 2: Fraction(1, 5)})

    assert_memo_is_invisible(plus, minus, (6, 8), ("sp", "o", "sp-dual", "o-dual"), 1)
    # the cells of rho+ are kept per rho-: a second rho- gets its own sums
    rho, other = plus(), Specialization.from_powersums({1: Fraction(-1, 3)})
    assert character_sum_series("sp", rho, minus(), 6, length_bound=2) != (
        character_sum_series("sp", rho, other, 6, length_bound=2)
    )
    assert character_sum_series("sp", rho, other, 6, length_bound=2) == (
        walk_sum("sp", plus(), other, 6, 1, {"length_bound": 2})
    )


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


def gessel_symbol():
    return Symbol(
        Specialization.from_powersums({1: Fraction(2, 3), 2: Fraction(-1, 4)}),
        Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 3)}),
    )


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
    sym = gessel_symbol()
    for which in ("D1", "D2", "D3", "D4"):
        for size in range(1, 5):
            assert gessel_check(sym, which, size, 8)
    assert seen and max(seen.values()) == 1


def test_gessel_sweep_walks_the_partitions_once_per_family(monkeypatch):
    walks = collections.Counter()
    original = identities.enumerate_partitions

    def counting(degree):
        walks[degree] += 1
        return original(degree)

    monkeypatch.setattr(identities, "enumerate_partitions", counting)
    sym = gessel_symbol()
    for which in ("D1", "D2", "D3", "D4"):
        for size in range(1, 5):
            assert gessel_check(sym, which, size, 8)
    assert walks == {8: 1}  # the sp and o sums share one grouping of rho+


def test_a_length_bound_evaluates_no_longer_character(monkeypatch):
    # the cells a bound excludes stay empty until a call admits them, so the
    # first bounded sum of a pair does not pay for the whole Cauchy sum
    lengths = []
    character_series, schur_factor = identities.character_series, identities.schur_factor

    def recording_character(family, lam, rho, degree):
        lengths.append(lam.length())
        return character_series(family, lam, rho, degree)

    def recording_schur(mu, rho):
        lengths.append(mu.length())
        return schur_factor(mu, rho)

    monkeypatch.setattr(identities, "character_series", recording_character)
    monkeypatch.setattr(identities, "schur_factor", recording_schur)
    sym = gessel_symbol()
    assert gessel_check(sym, "D1", 1, 8)
    assert lengths and max(lengths) == 1
