import json
import math
import random
from fractions import Fraction

import pytest

from sposchur import measures
from sposchur.characters import o_char, schur, sp_char
from sposchur.errors import CutoffTooSmall, DivergentNormalization
from sposchur.identities import FAMILIES, log_normalization_series
from sposchur.kernels import correlation_det, lattice_kernel
from sposchur.measures import (
    MeasureSpec,
    _configuration_set,
    correlation_bruteforce,
    correlation_bruteforce_batch,
    hole_probability_bruteforce,
    plancherel_measure,
    total_mass_series,
)
from sposchur.partitions import Partition, enumerate_partitions
from sposchur.series import GradedScalar
from sposchur.specializations import Specialization


def trivial_spec(family="sp"):
    return MeasureSpec(family, Specialization.zero(), Specialization.zero())


def test_plancherel_partition_function():
    theta = 0.5
    m = plancherel_measure("sp", theta)
    assert m.z() == pytest.approx(math.exp(3 * theta**2 / 2), rel=1e-14)
    m2 = plancherel_measure("o", theta)
    assert m2.z() == pytest.approx(math.exp(3 * theta**2 / 2), rel=1e-14)


def test_empty_partition_weight():
    m = plancherel_measure("sp", 0.5)
    assert m.weight(Partition()) == pytest.approx(1.0 / m.z(), rel=1e-14)


def test_single_box_weight_worked_example():
    theta = 0.5
    m = plancherel_measure("sp", theta)
    # sp_(1)(pl_{2 theta}) = 2 theta and s_(1)(pl_theta) = theta
    assert m.weight(Partition([1])) == pytest.approx(
        2 * theta * theta / math.exp(3 * theta**2 / 2), rel=1e-13
    )


def test_weights_sum_to_one_exact_graded():
    rp = Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 3)})
    rm = Specialization.from_powersums({1: Fraction(2, 5), 3: Fraction(-1, 4)})
    for family in ("sp", "o", "sp-dual", "o-dual"):
        spec = MeasureSpec(family, rp, rm)
        assert total_mass_series(spec, 8) == GradedScalar.one(8), family


def test_bruteforce_empty_pointset_is_one():
    m = plancherel_measure("sp", 0.3)
    res = correlation_bruteforce(m, [], tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_bruteforce_trivial_measure():
    m = trivial_spec()
    res = correlation_bruteforce(m, [-1], tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    res0 = correlation_bruteforce(m, [0], tol=1e-10)
    assert res0.value == pytest.approx(0.0, abs=1e-12)


def test_bruteforce_deep_sea_and_far_right():
    m = plancherel_measure("sp", Fraction(1, 5))
    deep = correlation_bruteforce(m, [-9], tol=1e-8)
    assert deep.value == pytest.approx(1.0, abs=1e-7)
    far = correlation_bruteforce(m, [7], tol=1e-8)
    assert abs(far.value) < 1e-6


def test_single_set_equals_batch_of_one():
    for theta in (Fraction(2, 5), 0.4):
        m = plancherel_measure("o", theta)
        for pts in ([0], [-1, 2]):
            single = correlation_bruteforce(m, pts, tol=1e-9)
            (batch,) = correlation_bruteforce_batch(m, [pts], tol=1e-9)
            assert single == batch, (theta, pts)


def test_non_integer_bruteforce_points_are_rejected():
    spec = plancherel_measure("sp", Fraction(1, 2))
    with pytest.raises(ValueError, match="0.5"):
        correlation_bruteforce(spec, [0.5])
    with pytest.raises(ValueError, match="0.5"):
        hole_probability_bruteforce(spec, 0.5)
    with pytest.raises(ValueError, match="1.5"):
        correlation_bruteforce_batch(spec, [[0], [1.5]])
    # integer-valued floats are integers
    assert correlation_bruteforce(spec, [0.0]).value == correlation_bruteforce(spec, [0]).value


def test_float_power_sum_beyond_the_eighth_sums_in_floats():
    # a float p_9 makes the weights of partitions of size >= 9 floats, so the
    # sum runs in floats, as for the all-float specialization
    def spec(third, quarter):
        rho = Specialization.from_powersums({1: third, 9: 1e-3})
        return MeasureSpec("sp", rho, Specialization.plancherel(quarter))

    mixed = correlation_bruteforce(spec(Fraction(1, 3), Fraction(1, 4)), [0], tol=1e-9)
    floats = correlation_bruteforce(spec(1 / 3, 0.25), [0], tol=1e-9)
    assert mixed.cutoff > 9
    assert mixed.value == pytest.approx(floats.value, abs=1e-12)


def test_weights_equal_the_h_form_products():
    h_form = {"sp": sp_char, "o": o_char}
    exact = MeasureSpec(
        "sp",
        Specialization.from_powersums({1: Fraction(2, 3), 2: Fraction(-1, 4), 3: Fraction(1, 5)}),
        Specialization.from_powersums({1: Fraction(1, 2), 2: Fraction(1, 7)}),
    )
    for family in FAMILIES:
        spec = MeasureSpec(family, exact.rho_plus, exact.rho_minus)
        for lam in enumerate_partitions(8):
            mu = lam.conjugate() if spec.dual else lam
            want = h_form[spec.char_family](lam, spec.rho_plus) * schur(mu, spec.rho_minus)
            assert spec.unnormalized_weight(lam) == want, (family, lam)
    # float images keep the h-form determinants, bit for bit
    spec = plancherel_measure("sp", 0.3)
    for lam in list(enumerate_partitions(8))[1:]:
        want = sp_char(lam, spec.rho_plus) * schur(lam, spec.rho_minus)
        assert spec.unnormalized_weight(lam).hex() == want.hex(), lam


def test_each_weight_conjugates_lambda_at_most_once(monkeypatch):
    computed = []
    original = Partition.conjugate

    def counting(lam):
        computed.append(lam._conj is None)  # no parts kept yet: this call computes them
        return original(lam)

    monkeypatch.setattr(Partition, "conjugate", counting)
    for family in FAMILIES:
        for theta in (Fraction(2, 5), 0.4):
            spec = MeasureSpec(family, Specialization.plancherel(theta),
                               Specialization.plancherel(theta / 2))
            for lam in enumerate_partitions(7):
                computed.clear()
                spec.unnormalized_weight(lam)
                assert sum(computed) <= 1, (family, theta, lam)


def test_batch_sums_match_fraction_sums():
    # each set's value is the plain Fraction sum of the weights up to the cutoff,
    # and its tail estimate the last block of 4 sizes, whatever the other sets add
    spec = MeasureSpec(
        "o-dual",
        Specialization.from_powersums({1: Fraction(1, 3), 2: Fraction(1, 8)}),
        Specialization.from_powersums({1: Fraction(1, 4), 3: Fraction(-1, 6)}),
    )
    sets = [[0], [-1, 2], [3], [-2, 0, 1]]
    results = correlation_bruteforce_batch(spec, sets)
    for pts, res in zip(sets, results):
        total = last = Fraction(0)
        for lam in enumerate_partitions(res.cutoff):
            if set(pts) <= _configuration_set(lam, 2):
                w = spec.unnormalized_weight(lam)
                total += w
                if lam.size() > res.cutoff - 4:
                    last += w
        assert res.value.hex() == (float(total) / spec.z()).hex(), pts
        assert res.tail_estimate == abs(float(last)) / spec.z() + 1e-15, pts


def test_log_z_matches_log_normalization_series():
    rng = random.Random(5)

    def rho():
        return Specialization.from_powersums(
            {k: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for k in (1, 2, 3)}
        )

    for _ in range(3):
        rp, rm = rho(), rho()
        for family in FAMILIES:
            series = log_normalization_series(family, rp, rm, 6)
            expected = sum(float(c) for c in series.coeffs)
            assert MeasureSpec(family, rp, rm).log_z() == pytest.approx(
                expected, rel=1e-14, abs=1e-15
            ), family


def test_inclusion_exclusion_consistency():
    m = plancherel_measure("sp", Fraction(2, 5))
    for a in (-2, 0, 1):
        occ = correlation_bruteforce(m, [a], tol=1e-9)
        hole = hole_probability_bruteforce(m, a, tol=1e-9)
        assert occ.value + hole.value == pytest.approx(
            1.0, abs=occ.tail_estimate + hole.tail_estimate + 1e-10
        )


def test_configuration_sets_match_occupies():
    sites = range(-16, 17)
    pairs = [(a, b) for a in sites for b in sites if a < b]
    for lam in enumerate_partitions(12):
        full = _configuration_set(lam, 16)
        occupied = {q for q in sites if lam.occupies(q)}
        assert full & set(sites) == occupied, lam
        for q in sites:
            # the depth the brute-force sums use for a query at q alone
            assert (q in _configuration_set(lam, max(0, -q))) == (q in occupied), (lam, q)
        for a, b in pairs:
            assert frozenset((a, b)).issubset(full) == (a in occupied and b in occupied)


def test_hole_probability_below_the_sea():
    # -4 and -9 are sites of the packed sea for every partition shorter than
    # 4 and 9, so a hole there needs a long partition: the probabilities are
    # small, signed, and match 1 - K(a, a) from the kernel
    m = plancherel_measure("sp", Fraction(2, 5))
    kernel = lattice_kernel("sp", theta=0.4)
    for a, size in ((-9, 1e-12), (-4, 1e-3)):
        hole = hole_probability_bruteforce(m, a, tol=1e-9)
        assert abs(hole.value) < size
        assert hole.value == pytest.approx(1 - correlation_det(kernel, [a]), abs=1e-10)


def test_signed_weights_observed():
    """Small theta: some weights are negative; record the signs, sum as-is."""
    theta = Fraction(1, 4)
    m = plancherel_measure("sp", theta)
    w11 = m.weight(Partition([1, 1]))
    # sp_(1,1)(pl_{2 theta}) = 2 theta^2 - 1 < 0 at theta = 1/4
    assert w11 < 0
    total = sum(m.weight(lam) for lam in enumerate_partitions(14))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_dual_family_weights_normalize():
    x = Specialization.from_bc_alphabet([Fraction(4, 5)])
    y = Specialization.from_alphabet([Fraction(1, 4)])
    spec = MeasureSpec("sp-dual", x, y)
    total = sum(spec.weight(lam) for lam in enumerate_partitions(18))
    assert total == pytest.approx(1.0, abs=1e-9)
    spec_o = MeasureSpec("o-dual", x, y)
    total_o = sum(spec_o.weight(lam) for lam in enumerate_partitions(18))
    assert total_o == pytest.approx(1.0, abs=1e-9)


def test_alphabet_families_normalize():
    x = Specialization.from_bc_alphabet([Fraction(4, 5)])
    y = Specialization.from_alphabet([Fraction(1, 4)])
    for family in ("sp", "o"):
        spec = MeasureSpec(family, x, y)
        total = sum(spec.weight(lam) for lam in enumerate_partitions(18))
        assert total == pytest.approx(1.0, abs=1e-9), family


def test_divergent_normalization_detected():
    x = Specialization.from_bc_alphabet([Fraction(1, 2)])
    y = Specialization.from_alphabet([3])  # |y| >= 1: H(X; Y) diverges
    spec = MeasureSpec("sp", x, y)
    with pytest.raises(DivergentNormalization):
        spec.log_z()


def test_cutoff_budget_error(monkeypatch):
    monkeypatch.setattr(measures, "_PARTITION_BUDGET", 10)
    m = plancherel_measure("sp", 0.4)
    with pytest.raises(CutoffTooSmall):
        correlation_bruteforce(m, [0], tol=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_tol_that_cannot_be_met_is_rejected(monkeypatch, tol):
    # a small budget makes an enumeration that never stops fail fast instead
    monkeypatch.setattr(measures, "_PARTITION_BUDGET", 10)
    m = plancherel_measure("sp", 0.3)
    with pytest.raises(ValueError, match="positive finite"):
        correlation_bruteforce(m, [0], tol=tol)


def test_measure_spec_json_roundtrip():
    m = plancherel_measure("sp", Fraction(1, 2))
    doc = m.to_json()
    back = MeasureSpec.from_json(doc)
    assert back.family == "sp"
    assert back.rho_plus.p(1) == 1
    assert back.rho_minus.p(1) == Fraction(1, 2)


def test_float_measure_spec_json_roundtrip():
    m = MeasureSpec(
        "o", Specialization.from_bc_alphabet([0.3]), Specialization.from_powersums({1: 0.25, 2: 0.1})
    )
    back = MeasureSpec.from_json(json.loads(json.dumps(m.to_json())))
    assert back.to_json() == m.to_json()
    assert type(back.rho_plus.p(1)) is float and type(back.rho_minus.p(2)) is float
    for k in range(1, 5):
        for rho, rho_back in ((m.rho_plus, back.rho_plus), (m.rho_minus, back.rho_minus)):
            assert type(rho_back.p(k)) is type(rho.p(k)) and rho_back.p(k) == rho.p(k)
    assert back.z() == m.z()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        MeasureSpec("nope", Specialization.zero(), Specialization.zero())
