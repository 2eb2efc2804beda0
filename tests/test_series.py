from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from sposchur.series import GradedScalar

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
degrees = st.integers(min_value=0, max_value=7)


@st.composite
def series_strategy(draw, degree=None, zero_constant=False):
    if degree is None:
        degree = draw(degrees)
    coeffs = [draw(fractions) for _ in range(degree + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    return GradedScalar(coeffs)


def same_degree(*strategies):
    """One drawn degree d; each argument maps d to a strategy."""
    return degrees.flatmap(lambda d: st.tuples(*(f(d) for f in strategies)))


def zero_constant_series_of(degree):
    return series_strategy(degree, zero_constant=True)


def test_construction_and_access():
    s = GradedScalar(["1/2", 0, 3])
    assert s.degree == 2
    assert s.coeffs == (Fraction(1, 2), 0, 3)


def test_ring_axioms_smoke():
    a = GradedScalar([1, 2, 3])
    b = GradedScalar([0, "1/3", -1])
    assert a + b == GradedScalar([1, "7/3", 2])
    assert a - a == GradedScalar.zero(2)
    assert a * GradedScalar.one(2) == a
    # truncated product
    assert b * b == GradedScalar([0, 0, "1/9"])
    with pytest.raises(ValueError, match="mixed truncation degrees"):
        GradedScalar.sum([a, GradedScalar([1])], 2)


@given(same_degree(series_strategy, series_strategy, series_strategy))
def test_mul_associative_distributive(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_strategy(zero_constant=True))
def test_exp_log_inverse_pair(s):
    one_plus = GradedScalar.one(s.degree) + s
    assert one_plus.log().exp() == one_plus
    assert s.exp().log() == s


@given(same_degree(zero_constant_series_of, zero_constant_series_of))
def test_exp_is_homomorphism(ab):
    a, b = ab
    assert (a + b).exp() == a.exp() * b.exp()


@given(series_strategy())
def test_unit_inverse(s):
    u = s + GradedScalar.one(s.degree) + 1  # push constant term away from 0... not always
    if not u.is_unit():
        u = u + 1
    assert u * u.inverse() == GradedScalar.one(s.degree)
    assert u.divide_exact(u) == GradedScalar.one(s.degree)


def test_monomial_division():
    d = 6
    m = GradedScalar.monomial(Fraction(3, 2), 2, d)
    n = GradedScalar.monomial(Fraction(9, 4), 5, d)
    assert n.divide_exact(m) == GradedScalar.monomial(Fraction(3, 2), 3, d)
    with pytest.raises(ValueError):
        GradedScalar.monomial(1, 1, d).divide_exact(m)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        GradedScalar([1, 1]).exp()
    with pytest.raises(ValueError):
        GradedScalar([2, 1]).log()


# ---------------------------------------------------------------------------
# reference: the same operations on plain lists of Fraction coefficients
# ---------------------------------------------------------------------------


def ref_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def ref_exp(f):
    g = [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for n in range(1, len(f)):
        g[n] = sum(k * f[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def ref_log(a):
    f = [Fraction(0)] * len(a)
    for n in range(1, len(a)):
        f[n] = (n * a[n] - sum(k * f[k] * a[n - k] for k in range(1, n))) / n
    return f


def ref_inverse(a):
    h = [1 / a[0]] + [Fraction(0)] * (len(a) - 1)
    for n in range(1, len(a)):
        h[n] = -sum(a[k] * h[n - k] for k in range(1, n + 1)) / a[0]
    return h


def assert_matches(series, reference):
    assert list(series.coeffs) == reference
    # canonical: rebuilding from the coefficients gives the same integers
    rebuilt = GradedScalar(reference)
    assert series.numerators == rebuilt.numerators
    assert series.denominator == rebuilt.denominator > 0
    assert hash(series) == hash(rebuilt)


@given(
    same_degree(
        series_strategy,
        series_strategy,
        zero_constant_series_of,
        lambda d: st.integers(min_value=0, max_value=d),
    ),
    fractions,
)
def test_operations_match_fraction_reference(absv, c):
    a, b, s, v = absv
    ca, cb, cs = list(a.coeffs), list(b.coeffs), list(s.coeffs)
    assert_matches(a + b, [x + y for x, y in zip(ca, cb)])
    assert_matches(a - b, [x - y for x, y in zip(ca, cb)])
    assert_matches(GradedScalar.sum([a, b, s], a.degree), [x + y + z for x, y, z in zip(ca, cb, cs)])
    assert_matches(a * b, ref_mul(ca, cb))
    assert_matches(a * c, [x * c for x in ca])
    assert_matches(s.exp(), ref_exp(cs))
    one_plus = [Fraction(1)] + cs[1:]
    assert_matches(GradedScalar(one_plus).log(), ref_log(one_plus))
    monomial = GradedScalar.monomial(Fraction(3, 2) if c == 0 else c, v, a.degree)
    shifted = a * GradedScalar.monomial(1, v, a.degree)
    expected = [x / monomial.coeffs[v] for x in ca[: a.degree + 1 - v]] + [Fraction(0)] * v
    assert_matches(shifted.divide_exact(monomial), expected)
    assume(c != 0 and a.is_unit())
    assert_matches(a / c, [x / c for x in ca])
    assert_matches(a.inverse(), ref_inverse(ca))
    assert_matches(b.divide_exact(a), ref_mul(cb, ref_inverse(ca)))


def test_canonical_form_is_route_independent():
    half = GradedScalar([Fraction(1, 2), 0])
    routes = [
        GradedScalar([Fraction(2, 4), 0]),
        GradedScalar(["1/2", Fraction(0, 3)]),
        GradedScalar([1, 0]) / 2,
        GradedScalar([-3, 0]) / -6,
        GradedScalar([Fraction(1, 6), Fraction(1, 3)]) * 3 - GradedScalar([0, 1]),
        GradedScalar([2, 0]).inverse(),
        GradedScalar.sum([GradedScalar([Fraction(1, 6), 0]), GradedScalar([Fraction(1, 3), 0])], 1),
    ]
    for s in routes:
        assert (s.numerators, s.denominator, hash(s)) == ((1, 0), 2, hash(half))
        assert s == half
    zero = GradedScalar([Fraction(5, 7), 1]) - GradedScalar([Fraction(5, 7), 1])
    assert (zero.numerators, zero.denominator) == ((0, 0), 1)
    assert zero == GradedScalar.zero(1) == 0
    empty = GradedScalar.sum([], 1)
    assert (empty.numerators, empty.denominator) == ((0, 0), 1)


def test_inverse_of_a_negative_constant_term():
    # a_0^(D+1) is positive at odd D and negative at even D
    assert GradedScalar([-1, 0]).inverse() == GradedScalar([-1, 0])
    assert GradedScalar([-1, 0, 0]).inverse() == GradedScalar([-1, 0, 0])
    assert GradedScalar([-2, 1]).inverse() == GradedScalar(["-1/2", "-1/4"])
    assert GradedScalar([-2, 1, 0]).inverse() == GradedScalar(["-1/2", "-1/4", "-1/8"])
    assert GradedScalar([3, 1]) / GradedScalar([-1, 0]) == GradedScalar([-3, -1])


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        GradedScalar([0.5])
    with pytest.raises(TypeError):
        GradedScalar.monomial(0.5, 1, 3)
