import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sposchur.series import GradedScalar
from sposchur.specializations import Specialization

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def test_plancherel_h_values():
    theta = Fraction(3, 7)
    rho = Specialization.plancherel(theta)
    for n in range(9):
        assert rho.h(n) == theta**n / math.factorial(n)
        assert rho.e(n) == theta**n / math.factorial(n)  # p_k = 0 for k >= 2


def test_zero_specialization():
    rho = Specialization.zero()
    assert rho.h(0) == 1
    assert all(rho.h(n) == 0 for n in range(1, 8))
    assert all(rho.e(n) == 0 for n in range(1, 8))


def test_single_variable_alphabet():
    x = Fraction(2, 3)
    rho = Specialization.from_alphabet([x])
    # H = 1/(1 - x t): h_n = x^n; E = 1 + x t: e_0 = 1, e_1 = x, rest 0
    for n in range(7):
        assert rho.h(n) == x**n
    assert rho.e(0) == 1 and rho.e(1) == x
    assert rho.e(2) == 0 and rho.e(3) == 0


def test_alphabets_are_their_letters():
    one = Fraction(1)
    y = Specialization.from_alphabet(["1/3", 0.25])
    assert y.letters == ((Fraction(1, 3), one), (0.25, one))
    x = Specialization.from_bc_alphabet(["2/3"], include_one=True)
    assert x.letters == ((Fraction(2, 3), one), (one, Fraction(2, 3)), (one, one))
    # the 1s are exact, so exact letters keep exact power sums
    assert all(isinstance(v, Fraction) for pair in x.letters for v in pair)
    for rho in (y, x):
        for k in range(1, 7):
            assert rho.p(k) == sum(((a / d) ** k for a, d in rho.letters), start=Fraction(0))
    assert x.p(3) == Fraction(8, 27) + Fraction(27, 8) + 1
    for rho in (Specialization.plancherel(Fraction(1, 2)), x.omega(), Specialization.from_alphabet([])):
        assert rho.letters == ()


def test_bc_alphabet_powersums_and_e2():
    x = Fraction(5, 2)
    rho = Specialization.from_bc_alphabet([x])
    assert rho.p(1) == x + 1 / x
    assert rho.p(3) == x**3 + x**-3
    # E = (1 + x t)(1 + t/x): e_2 = x * (1/x) = 1
    assert rho.e(2) == 1
    rho1 = Specialization.from_bc_alphabet([x], include_one=True)
    assert rho1.p(2) == x**2 + x**-2 + 1


def test_negative_index_convention():
    rho = Specialization.plancherel(Fraction(1))
    assert rho.h(-1) == 0 and rho.e(-3) == 0


@given(st.dictionaries(st.integers(1, 5), fractions, max_size=4))
def test_h_e_generating_series_inverse(ps):
    """H(rho; t) * E(rho; -t) = 1 modulo truncation."""
    rho = Specialization.from_powersums(ps)
    d = 8
    h = GradedScalar([rho.h(n) for n in range(d + 1)])
    e_neg = GradedScalar([(-1) ** n * rho.e(n) for n in range(d + 1)])
    assert h * e_neg == GradedScalar.one(d)


@given(st.dictionaries(st.integers(1, 5), fractions, max_size=4))
def test_h_series_is_exp_of_powersums(ps):
    rho = Specialization.from_powersums(ps)
    d = 7
    logh = GradedScalar(
        [Fraction(0)] + [rho.p(k) / k for k in range(1, d + 1)]
    )
    assert GradedScalar([rho.h(n) for n in range(d + 1)]) == logh.exp()


def test_omega_swaps_h_and_e():
    rho = Specialization.from_powersums({1: "1/2", 2: "2/3", 3: -1})
    w = rho.omega()
    for n in range(8):
        assert w.h(n) == rho.e(n)
        assert w.e(n) == rho.h(n)


def test_float_mode():
    rho = Specialization.plancherel(0.5)
    assert isinstance(rho.h(3), float)
    assert rho.h(3) == pytest.approx(0.5**3 / 6)


def test_json_roundtrip():
    rho = Specialization.from_powersums({1: "3/2", 2: 0})
    doc = rho.to_json()
    assert doc == {"powersums": {"1": "3/2"}}
    back = Specialization.from_json(json.dumps(doc))
    assert back.p(1) == Fraction(3, 2) and back.p(2) == 0
    bc = Specialization.from_bc_alphabet(["1/2", "1/3"], include_one=False)
    doc2 = bc.to_json()
    assert doc2 == {"x": ["1/2", "1/3"], "include_one": False}
    back2 = Specialization.from_json(doc2)
    assert back2.p(2) == bc.p(2)
    with pytest.raises(ValueError):
        Specialization.from_json({"nonsense": 1})


def _same_images(a, b, degree=6):
    for k in range(1, degree + 1):
        pa, pb = a.p(k), b.p(k)
        assert type(pa) is type(pb) and pa == pb, (k, pa, pb)


def test_float_json_roundtrip_keeps_floats():
    # a float is written as a JSON number, so it reads back as the same float,
    # not as the exact decimal Fraction of its string
    specs = [
        Specialization.from_alphabet([0.3, -0.7]),
        Specialization.from_bc_alphabet([0.3, -1.3], include_one=True),
        Specialization.from_powersums({1: 0.1, 3: -0.25}),
        Specialization.from_alphabet(["1/3", 0.2]),
    ]
    for rho in specs:
        text = json.dumps(rho.to_json())
        back = Specialization.from_json(text)
        _same_images(rho, back)
        assert back.letters == rho.letters
        assert json.dumps(back.to_json()) == text
    assert specs[0].to_json() == {"y": [0.3, -0.7]}
    assert specs[3].to_json() == {"y": ["1/3", 0.2]}


def test_exact_json_documents_are_unchanged():
    docs = {
        '{"powersums": {"1": "3/2", "4": "-1/7"}}':
            Specialization.from_powersums({1: "3/2", 4: Fraction(-1, 7)}),
        '{"y": ["1/3", "-1/4", "2"]}': Specialization.from_alphabet(["1/3", "-1/4", 2]),
        '{"x": ["1/2", "-3"], "include_one": true}':
            Specialization.from_bc_alphabet(["1/2", -3], include_one=True),
    }
    for text, rho in docs.items():
        assert json.dumps(rho.to_json()) == text
        _same_images(rho, Specialization.from_json(text))


def test_integer_tables_have_nested_denominators():
    rhos = [
        Specialization.from_powersums({1: Fraction(-2, 3), 2: Fraction(5, 4), 4: Fraction(1, 6)}),
        Specialization.from_bc_alphabet([Fraction(2, 3)], include_one=True),
    ]
    rhos.append(rhos[0].omega())
    for rho in rhos:
        for form, value in (("h", rho.h), ("e", rho.e)):
            rows, den = rho.scaled_table(form, 9)
            for j in range(10):
                assert den[j] == math.lcm(*(value(i).denominator for i in range(j + 1))), j
                assert rows[j] == [value(k) * den[j] for k in range(j + 1)], j
    # a float p_2 makes h_2, h_3, ... floats: the rows stop at index 1
    mixed = Specialization.from_powersums({1: Fraction(1, 2), 2: 0.25})
    assert mixed.scaled_table("h", 1) == ([[1], [2, 1]], [1, 2])
    assert mixed.scaled_table("h", 2) is None and mixed.scaled_table("e", 5) is None
    # growing past the float leaves them as they were
    assert mixed.scaled_table("h", 1) == ([[1], [2, 1]], [1, 2])
    assert Specialization.plancherel(0.5).scaled_table("h", 1) is None


def test_scaled_table_growth_publishes_a_new_pair():
    # a reader keeps one (rows, den) pair; growth replaces it and never
    # appends to the lists already handed out
    rho = Specialization.from_powersums({1: Fraction(3, 7), 2: Fraction(-5, 6)})
    small = rho.scaled_table("h", 2)
    frozen = ([list(row) for row in small[0]], list(small[1]))
    large = rho.scaled_table("h", 6)
    assert small == frozen and len(small[0]) == len(small[1]) == 3
    assert len(large[0]) == len(large[1]) == 7 and large[0][:3] == small[0]
    assert rho.scaled_table("h", 2) is large
