import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sposchur import characters
from sposchur.characters import (
    character,
    character_series,
    o_char,
    o_char_series,
    o_char_via_e,
    o_via_expansion,
    schur,
    schur_factor,
    schur_via_e,
    series_determinant,
    skew_schur,
    sp_char,
    sp_char_series,
    sp_char_via_e,
    sp_via_expansion,
)
from sposchur.partitions import Partition, enumerate_partitions
from sposchur.series import GradedScalar
from sposchur.specializations import Specialization

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


# ---------------------------------------------------------------------------
# independent oracle: semistandard tableau enumeration of s_lambda(y_1..y_N)
# ---------------------------------------------------------------------------

def ssyt_schur(lam: Partition, ys):
    """Sum of monomials over semistandard tableaux of shape lambda."""
    n = len(ys)
    rows = lam.parts
    if not rows:
        return Fraction(1)

    results = []

    def fill(cells, filling):
        if not cells:
            results.append(filling)
            return
        (r, c), rest = cells[0], cells[1:]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])  # weakly increasing along rows
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)  # strictly increasing down columns
        for v in range(lo, n + 1):
            f2 = dict(filling)
            f2[(r, c)] = v
            fill(rest, f2)

    cells = [(r, c) for r, row_len in enumerate(rows) for c in range(row_len)]
    fill(cells, {})
    total = Fraction(0)
    for filling in results:
        term = Fraction(1)
        for v in filling.values():
            term *= ys[v - 1]
        total += term
    return total


def standard_tableaux_count(lam: Partition, mu: Partition) -> int:
    """Oracle: number of standard Young tableaux of skew shape lambda/mu."""
    if not lam.contains(mu):
        return 0
    n = lam.size() - mu.size()
    if n == 0:
        return 1
    count = 0
    for i in range(1, lam.length() + 1):
        smaller = [lam.part(j) for j in range(1, lam.length() + 1)]
        smaller[i - 1] -= 1
        if smaller[i - 1] < 0:
            continue
        if i < lam.length() and smaller[i - 1] < lam.part(i + 1):
            continue
        prev = Partition(smaller)
        if prev.contains(mu):
            count += standard_tableaux_count(prev, mu)
    return count


def rational_rho(seed=1):
    vals = {1: Fraction(2, 3), 2: Fraction(-1, 2), 3: Fraction(3, 5)}
    if seed == 2:
        vals = {1: Fraction(-1, 3), 2: Fraction(5, 7), 3: Fraction(1, 2), 4: Fraction(2)}
    return Specialization.from_powersums(vals)


# ---------------------------------------------------------------------------


def test_schur_single_row_single_variable():
    y = Fraction(4, 7)
    rho = Specialization.from_alphabet([y])
    assert schur(Partition([1]), rho) == y
    assert schur(Partition([3]), rho) == y**3


def test_schur_21_two_variables():
    y1, y2 = Fraction(1, 2), Fraction(2, 3)
    rho = Specialization.from_alphabet([y1, y2])
    expected = y1**2 * y2 + y1 * y2**2
    assert schur(Partition([2, 1]), rho) == expected
    assert expected == ssyt_schur(Partition([2, 1]), [y1, y2])


def test_schur_vanishes_at_zero_specialization():
    rho = Specialization.zero()
    for lam in enumerate_partitions(5):
        if lam.size():
            assert schur(lam, rho) == 0
    assert schur(Partition(), rho) == 1


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.sampled_from([p.parts for p in enumerate_partitions(n)])
    ),
    st.lists(fractions, min_size=1, max_size=3),
)
def test_schur_matches_tableau_oracle(parts, ys):
    lam = Partition(parts)
    rho = Specialization.from_alphabet(ys)
    assert schur(lam, rho) == ssyt_schur(lam, ys)


def test_skew_schur_basics():
    rho = rational_rho()
    lam = Partition([3, 2])
    assert skew_schur(lam, lam, rho) == 1
    assert skew_schur(Partition([2]), Partition([1, 1, 1]), rho) == 0
    assert skew_schur(lam, Partition(), rho) == schur(lam, rho)


def test_skew_schur_plancherel_tableau_count():
    """s_{lambda/mu}(pl_theta) = theta^{|l/m|} dim(lambda/mu) / |l/m|!."""
    theta = Fraction(2, 5)
    rho = Specialization.plancherel(theta)
    cases = [
        (Partition([2, 1]), Partition([1])),
        (Partition([3, 1]), Partition([1])),
        (Partition([3, 2, 1]), Partition([2])),
        (Partition([4, 2]), Partition([2, 1])),
        (Partition([2, 2]), Partition()),
    ]
    for lam, mu in cases:
        n = lam.size() - mu.size()
        dim = standard_tableaux_count(lam, mu)
        assert skew_schur(lam, mu, rho) == theta**n * dim / math.factorial(n)
    # the worked example: dim((2,1)/(1)) = 2 so the value is theta^2
    assert skew_schur(Partition([2, 1]), Partition([1]), rho) == theta**2


def test_sp_o_small_examples():
    x = Fraction(3, 4)
    bc = Specialization.from_bc_alphabet([x])
    assert sp_char(Partition([1]), bc) == x + 1 / x
    assert sp_char(Partition([1, 1]), bc) == 0
    bc1 = Specialization.from_bc_alphabet([x], include_one=True)
    assert o_char(Partition([1]), bc1) == x + 1 / x + 1


def test_empty_partition_characters():
    rho = rational_rho()
    e = Partition()
    assert sp_char(e, rho) == 1 == o_char(e, rho)
    assert sp_via_expansion(e, rho) == 1 == o_via_expansion(e, rho)
    # size 0 in all four patterns: 1, with no 1/2 factor
    assert sp_char_via_e(e, rho) == 1 == o_char_via_e(e, rho)
    for degree in (0, 4):
        one = GradedScalar.one(degree)
        assert sp_char_series(e, rho, degree) == one == o_char_series(e, rho, degree)


def test_single_box_half_rule():
    # sp h-form and o e-form carry 1/2 at positive size: (1/2)(h_1 + h_1) and
    # (1/2)(e_1 + e_1); sp e-form e_1 - e_{-1} and o h-form h_1 - h_{-1} do not
    rho = rational_rho()
    box = Partition([1])
    p1 = rho.p(1)
    for char in (sp_char, sp_char_via_e, o_char, o_char_via_e):
        assert char(box, rho) == p1, char.__name__
    assert sp_char_series(box, rho, 3) == GradedScalar.monomial(p1, 1, 3)
    assert o_char_series(box, rho, 3) == GradedScalar.monomial(p1, 1, 3)
    assert sp_char(box, Specialization.plancherel(0.5)) == 0.5


def test_series_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    rng = random.Random(7)
    degree = 6

    def coefficients():
        # degree <= 4 with small rational coefficients; about 30% of them zero,
        # so some entries vanish and some have no constant term
        return [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(5)
        ]

    def check(polys, degree=degree) -> GradedScalar:
        # entries are coefficient lists of length at most degree + 1
        n = len(polys)
        ours = series_determinant(
            [[GradedScalar(cs + [0] * (degree + 1 - len(cs))) for cs in row] for row in polys]
        )
        mat = sympy.Matrix(
            [[sum(sympy.Rational(str(c)) * t**k for k, c in enumerate(cs)) for cs in row] for row in polys]
        )
        # det = (-1)^n charpoly(0) over Q[t], by the division-free Berkowitz
        # algorithm, then truncated mod t^(degree+1)
        dm = DomainMatrix.from_Matrix(mat).convert_to(sympy.QQ[t])
        full = sympy.Poly(dm.domain.to_sympy((-1) ** n * dm.charpoly()[-1]), t)
        expected = [full.coeff_monomial(t**k) for k in range(degree + 1)]
        assert [sympy.Rational(str(c)) for c in ours.coeffs] == expected
        return ours

    def random_polys(n):
        return [[coefficients() for _ in range(n)] for _ in range(n)]

    # odd sizes too: a sign error common to every cofactor cancels at even sizes
    for n in (4, 4, 4, 3, 3, 5, 6, 7):
        check(random_polys(n))
    # a zero (0, 0) entry forces a row swap, which flips the sign
    for n in (3, 4):
        polys = random_polys(n)
        polys[0][0] = [Fraction(0)] * 5
        assert check(polys)
    # singular: the third row is the sum of the first two
    polys = random_polys(4)
    polys[2] = [[a + b for a, b in zip(x, y)] for x, y in zip(polys[0], polys[1])]
    assert not check(polys)

    # the Kronecker packing: coefficients far beyond 2^64, of both signs, and
    # rational; a determinant whose every coefficient is negative
    # (1 - (2 + t)(1 + t) = -1 - 3t - t^2), so every digit is read back
    # through the sign correction; degree 0; 1 x 1 matrices, where a single
    # coefficient attains the bound; and untruncated determinants of degree
    # 20 and 10 with large top coefficients, truncated at degrees 4 and 2
    def huge():
        return Fraction(rng.choice((-1, 1)) * rng.getrandbits(80), rng.choice((1, 3, 2**70 + 1)))

    for n in (1, 3, 4):
        check([[[huge() for _ in range(5)] for _ in range(n)] for _ in range(n)])
    assert all(c < 0 for c in check([[[1], [2, 1]], [[1, 1], [1]]], degree=2).coeffs)
    check([[cs[:1] for cs in row] for row in random_polys(4)], degree=0)
    check([[[-5]]], degree=0)
    check([[[5, -7, 0, 3]]])
    top = [[[rng.randint(-3, 3) for _ in range(4)] + [10**6] for _ in range(5)] for _ in range(5)]
    check(top, degree=4)
    check([[cs[:3] for cs in row] for row in top], degree=2)

    # size 13 with a known value: L U with L unit lower triangular and U upper
    # triangular with diagonal 1 + t, row i divided by i + 1, has determinant
    # (1 + t)^13 / 13!
    n = 13
    one_plus_t = GradedScalar([1, 1] + [0] * (n - 1))

    def entry():
        return GradedScalar([rng.randint(-3, 3), rng.randint(-3, 3)] + [0] * (n - 1))

    zero = GradedScalar.zero(n)
    lower = [[entry() if j < i else GradedScalar.one(n) if j == i else zero for j in range(n)] for i in range(n)]
    upper = [[entry() if j > i else one_plus_t if j == i else zero for j in range(n)] for i in range(n)]
    rows = [
        [sum((lower[i][k] * upper[k][j] for k in range(n)), zero) / (i + 1) for j in range(n)]
        for i in range(n)
    ]
    expected = GradedScalar([Fraction(math.comb(n, k), math.factorial(n)) for k in range(n + 1)])
    assert series_determinant(rows) == expected


def test_sp_11_expansion_worked_example():
    x = Fraction(3, 4)
    bc = Specialization.from_bc_alphabet([x])
    lam = Partition([1, 1])
    # alpha ranges over {(), (1,1)}: s_{(1,1)} - s_{(1,1)/(1,1)} = e_2 - 1 = 0
    assert sp_via_expansion(lam, bc) == schur(lam, bc) - 1
    assert sp_via_expansion(lam, bc) == sp_char(lam, bc)


def test_jacobi_trudi_h_vs_e_forms():
    for rho in (rational_rho(1), rational_rho(2)):
        for lam in enumerate_partitions(8):
            assert schur(lam, rho) == schur_via_e(lam, rho), lam
            assert sp_char(lam, rho) == sp_char_via_e(lam, rho), lam
            assert o_char(lam, rho) == o_char_via_e(lam, rho), lam


def test_expansions_match_determinants():
    for rho in (rational_rho(1), rational_rho(2)):
        for lam in enumerate_partitions(8):
            assert sp_char(lam, rho) == sp_via_expansion(lam, rho), lam
            assert o_char(lam, rho) == o_via_expansion(lam, rho), lam


def test_omega_duality():
    for rho in (rational_rho(1), rational_rho(2)):
        dual = rho.omega()
        for lam in enumerate_partitions(8):
            assert sp_char(lam, rho) == o_char(lam.conjugate(), dual), lam
    # the worked cases: empty and single box under Plancherel
    pl = Specialization.plancherel(Fraction(1, 3))
    assert sp_char(Partition(), pl) == o_char(Partition(), pl.omega())
    assert sp_char(Partition([1]), pl) == o_char(Partition([1]), pl.omega())
    rho = rational_rho(2)
    assert sp_char(Partition([2, 1]), rho) == o_char(Partition([2, 1]), rho.omega())


def test_sp_beyond_alphabet_rank_observed():
    """ell(lambda) > N: the determinant is computed as written, no special cases."""
    x = Fraction(1, 2)
    bc = Specialization.from_bc_alphabet([x])  # N = 1
    lam = Partition([1, 1, 1])
    value = sp_char(lam, bc)
    assert value == sp_char_via_e(lam, bc)  # both forms still agree
    # record: for the (1,1) column it vanished; here it need not
    assert isinstance(value, Fraction)


def dispatch_specializations():
    return [
        Specialization.plancherel(Fraction(2, 5)),
        Specialization.from_powersums({1: Fraction(3, 4), 2: Fraction(-2, 5), 3: Fraction(1, 6)}),
        Specialization.from_alphabet([Fraction(1, 3), Fraction(-3, 5)]),
        Specialization.from_bc_alphabet([Fraction(2, 3)], include_one=True),
    ]


def test_dispatch_matches_both_fixed_forms():
    for rho in dispatch_specializations():
        for lam in enumerate_partitions(10):
            for got, h_form, e_form in (
                (schur_factor, schur, schur_via_e),
                (lambda lam, rho: character("sp", lam, rho), sp_char, sp_char_via_e),
                (lambda lam, rho: character("o", lam, rho), o_char, o_char_via_e),
            ):
                value = got(lam, rho)
                assert isinstance(value, Fraction), (lam, rho.kind)
                assert value == h_form(lam, rho) == e_form(lam, rho), (lam, rho.kind)


def test_dispatch_takes_the_e_form_only_for_exact_narrow_shapes(monkeypatch):
    forms = {"schur": "schur_via_e", "sp_char": "sp_char_via_e", "o_char": "o_char_via_e"}
    taken = []
    for name in [*forms, *forms.values()]:
        original = getattr(characters, name)
        monkeypatch.setattr(
            characters, name, lambda lam, rho, n=name, f=original: taken.append(n) or f(lam, rho)
        )
    calls = {
        "schur": schur_factor,
        "sp_char": lambda lam, rho: character("sp", lam, rho),
        "o_char": lambda lam, rho: character("o", lam, rho),
    }
    for rho, exact in (
        (Specialization.plancherel(Fraction(2, 5)), True),
        (Specialization.plancherel(0.4), False),  # floats keep the h-form
    ):
        for lam in enumerate_partitions(6):
            narrow = exact and lam.part(1) < lam.length()
            for h_name, call in calls.items():
                taken.clear()
                call(lam, rho)
                assert taken == [forms[h_name] if narrow else h_name], (lam, exact)


def test_character_float_mode():
    rho = Specialization.plancherel(0.5)
    assert sp_char(Partition([2, 1]), rho) == pytest.approx(
        float(sp_char(Partition([2, 1]), Specialization.plancherel(Fraction(1, 2))))
    )


# ---------------------------------------------------------------------------
# integer Jacobi-Trudi rows against plain Fraction elimination
# ---------------------------------------------------------------------------


def gauss_det(rows):
    """Reference determinant: Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= factor * a[k][c]
    return det


def textbook_rows(name, lam, rho, mu=Partition()):
    """The 1-indexed matrices of the module docstring, entries from rho.h / rho.e."""
    h, e = rho.h, rho.e
    conj = lam.conjugate()
    n, m = lam.length(), lam.part(1)
    lp, cp = lam.part, conj.part
    builders = {
        "s": (n, lambda i, j: h(lp(i) - i + j)),
        "s_e": (m, lambda i, j: e(cp(i) - i + j)),
        "skew": (n, lambda i, j: h(lp(i) - i - (mu.part(j) - j))),
        "sp": (n, lambda i, j: h(lp(i) - i + j) + h(lp(i) - i - j + 2)),
        "sp_e": (m, lambda i, j: e(cp(i) - i + j) - e(cp(i) - i - j)),
        "o": (n, lambda i, j: h(lp(i) - i + j) - h(lp(i) - i - j)),
        "o_e": (m, lambda i, j: e(cp(i) - i + j) + e(cp(i) - i - j + 2)),
    }
    size, entry = builders[name]
    return [[entry(i, j) for j in range(1, size + 1)] for i in range(1, size + 1)]


HALVED = {"sp", "o_e"}  # the 1/2 factor, at positive sizes
BUILDERS = {
    "s": schur,
    "s_e": schur_via_e,
    "sp": sp_char,
    "sp_e": sp_char_via_e,
    "o": o_char,
    "o_e": o_char_via_e,
}


def reference_value(name, rows):
    det = gauss_det(rows)
    return det / 2 if name in HALVED and rows else det


def exact_specializations():
    rng = random.Random(11)
    rhos = [
        Specialization.from_powersums(
            {k: Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for k in range(1, 5)}
        )
        for _ in range(3)
    ]
    rhos += [
        Specialization.from_alphabet([Fraction(2, 3), Fraction(-1, 4), Fraction(5, 7)]),
        Specialization.from_bc_alphabet([Fraction(3, 5), Fraction(-2, 7)]),
        Specialization.from_bc_alphabet([Fraction(1, 3)], include_one=True),
    ]
    rhos += [rhos[0].omega(), rhos[4].omega()]
    return rhos


def test_integer_rows_match_fraction_elimination():
    # every partition of size <= 6: the empty one, and shapes such as (1, 1, 1)
    # whose lower rows run into negative indices
    shapes = list(enumerate_partitions(6))
    for rho in exact_specializations():
        for lam in shapes:
            for name, builder in BUILDERS.items():
                value = builder(lam, rho)
                assert isinstance(value, Fraction), (name, lam)
                assert value == reference_value(name, textbook_rows(name, lam, rho)), (
                    name, lam, rho.to_json() if rho.kind != "omega" else "omega",
                )
            for mu in enumerate_partitions(lam.size()):
                expected = gauss_det(textbook_rows("skew", lam, rho, mu)) if lam.contains(mu) else 0
                assert skew_schur(lam, mu, rho) == expected, (lam, mu)


def test_float_images_take_the_lu_route():
    rho = Specialization.from_alphabet([0.3, -0.45, 0.2])
    for lam in enumerate_partitions(5):
        if not lam:
            continue
        for name, builder in BUILDERS.items():
            rows = textbook_rows(name, lam, rho)
            det = float(np.linalg.det(np.array(rows, dtype=float)))
            value = builder(lam, rho)
            assert isinstance(value, float), (name, lam)
            assert value == (det / 2 if name in HALVED else det), (name, lam)


def test_concurrent_table_growth_matches_serial():
    shapes = [lam for lam in enumerate_partitions(9) if lam.size() >= 5]

    def fresh():
        return Specialization.from_powersums(
            {1: Fraction(3, 7), 2: Fraction(-5, 6), 3: Fraction(2, 9)}
        )

    def run(rho, part):
        return [
            (schur(lam, rho), sp_char(lam, rho), schur_factor(lam, rho), character("o", lam, rho))
            for lam in part
        ]

    serial = run(fresh(), shapes)
    shared = fresh()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(t):
        barrier.wait()
        # each thread walks the shapes from its own offset, so the largest
        # indices are first asked for by different threads
        order = shapes[t * len(shapes) // 4:] + shapes[:t * len(shapes) // 4]
        results[t] = dict(zip(order, run(shared, order)))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the table growth
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in results:
        assert [got[lam] for lam in shapes] == serial


# ---------------------------------------------------------------------------
# graded characters: packed integer rows against GradedScalar rows
# ---------------------------------------------------------------------------


class GradedImages:
    """h_n t^n and e_n t^n as GradedScalar monomials (zero for n < 0), so that
    `textbook_rows` builds the graded Jacobi-Trudi matrices entry by entry."""

    def __init__(self, rho, degree):
        self.rho, self.degree = rho, degree
        self.zero = GradedScalar.zero(degree)

    def h(self, n):
        return GradedScalar.monomial(self.rho.h(n), n, self.degree) if n >= 0 else self.zero

    def e(self, n):
        return GradedScalar.monomial(self.rho.e(n), n, self.degree) if n >= 0 else self.zero


def reference_character_series(family, lam, rho, degree):
    """One GradedScalar per entry of the textbook matrix, then series_determinant."""
    rows = textbook_rows(family, lam, GradedImages(rho, degree))
    if not rows:
        return GradedScalar.one(degree)
    det = series_determinant(rows)
    return det / 2 if family in HALVED else det


def graded_specializations():
    alphabet = Specialization.from_alphabet([Fraction(2, 3), Fraction(-1, 4), Fraction(5, 7)])
    return [
        Specialization.from_powersums(
            {1: Fraction(7, 3), 2: Fraction(-5, 4), 3: Fraction(2, 9), 5: Fraction(-11, 6)}
        ),
        Specialization.plancherel(Fraction(3, 5)),
        alphabet,
        Specialization.from_bc_alphabet([Fraction(3, 5), Fraction(-2, 7)]),
        Specialization.from_bc_alphabet([Fraction(1, 3)], include_one=True),
        alphabet.omega(),
    ]


def test_graded_characters_match_graded_scalar_rows():
    # every partition of size <= 9 against degrees below and above its size
    shapes = list(enumerate_partitions(9))
    for rho in graded_specializations():
        for degree in (0, 1, 5, 8, 10):
            for family in ("sp", "o"):
                for lam in shapes:
                    got = character_series(family, lam, rho, degree)
                    want = reference_character_series(family, lam, rho, degree)
                    assert (got.numerators, got.denominator) == (
                        want.numerators, want.denominator,
                    ), (family, lam, degree, rho.kind)


def test_graded_character_edge_cases():
    rho = rational_rho()
    lam = Partition([2, 1])
    # float images are refused, not rounded, at any degree
    for degree in (0, 3):
        with pytest.raises(TypeError, match="exact coefficient expected, got float"):
            character_series("sp", lam, Specialization.plancherel(0.5), degree)
    # a float p_3 reaches h_3 even when the degree stops below it
    mixed = Specialization.from_powersums({1: Fraction(1, 2), 3: 0.25})
    with pytest.raises(TypeError, match="exact coefficient expected, got float"):
        character_series("o", Partition([3]), mixed, 1)
    assert character_series("o", Partition([1]), mixed, 0) == GradedScalar.zero(0)
    for shape in (lam, Partition()):
        with pytest.raises(ValueError):
            character_series("sp", shape, rho, -1)
    with pytest.raises(ValueError):
        character_series("o", lam, Specialization.plancherel(0.5), -1)
    for degree in (0, 3):
        assert character_series("sp", Partition(), rho, degree) == GradedScalar.one(degree)
    # |lambda| > D: sp_(2) = h_2 has no term of degree <= 1, and o_(2) = h_2 - 1
    # keeps only its constant term
    theta = Fraction(1, 2)
    plancherel = Specialization.plancherel(theta)
    assert character_series("sp", Partition([2]), plancherel, 1) == GradedScalar.zero(1)
    assert character_series("o", Partition([2]), plancherel, 1) == GradedScalar([-1, 0])
    assert character_series("sp", Partition([3, 1]), plancherel, 3) == GradedScalar(
        [0, 0, -theta**2 / 2, 0]
    )
    with pytest.raises(ValueError, match="unknown character family"):
        character_series("x", lam, rho, 3)


# ---------------------------------------------------------------------------
# the graded dispatcher: the smaller determinant, by the rule of `character`
# ---------------------------------------------------------------------------

E_FORMS = {"sp": "D2", "o": "D4"}
H_FORMS = {"sp": sp_char_series, "o": o_char_series}
GRADED_E_FORM = characters._character  # the reference, out of reach of the tests' patches


def graded_rule_specializations():
    powersums = Specialization.from_powersums(
        {1: Fraction(7, 3), 2: Fraction(-5, 4), 3: Fraction(2, 9)}
    )
    return [
        powersums,
        Specialization.from_alphabet([Fraction(2, 3), Fraction(-1, 4)]),
        Specialization.from_bc_alphabet([Fraction(3, 5)], include_one=True),
        powersums.omega(),
    ]


def graded_rule_mismatches(degree=8):
    """(family, lambda, rho kind) wherever `character_series` differs from
    the h-form or from the graded e-form on lambda'."""
    bad = []
    for rho in graded_rule_specializations():
        for lam in enumerate_partitions(8):
            for family in ("sp", "o"):
                got = character_series(family, lam, rho, degree)
                h_form = H_FORMS[family](lam, rho, degree)
                e_form = GRADED_E_FORM(E_FORMS[family], lam.conjugate().parts, rho, degree)
                if not got == h_form == e_form:
                    bad.append((family, lam.parts, rho.kind))
    return bad


def test_graded_dispatch_matches_both_forms():
    assert graded_rule_mismatches() == []
    assert graded_rule_mismatches(degree=5) == []  # truncated below |lambda| too


def test_graded_dispatch_takes_the_e_form_only_for_narrow_shapes(monkeypatch):
    taken = []
    original = characters._character

    def recording(which, shifts, rho, degree=None):
        taken.append(which)
        return original(which, shifts, rho, degree)

    monkeypatch.setattr(characters, "_character", recording)
    for rho in graded_rule_specializations():
        for lam in enumerate_partitions(8):
            narrow = lam.part(1) < lam.length()
            for family, h_which in (("sp", "D1"), ("o", "D3")):
                taken.clear()
                character_series(family, lam, rho, 8)
                assert taken == [E_FORMS[family] if narrow else h_which], (family, lam)


def test_graded_rule_check_catches_an_e_form_on_lambda(monkeypatch):
    # the mutant hands the e-form lambda's own parts instead of lambda''s
    original = characters._character

    def mutant(which, shifts, rho, degree=None):
        if which in E_FORMS.values() and degree is not None:
            shifts = Partition(list(shifts)).conjugate().parts
        return original(which, shifts, rho, degree)

    monkeypatch.setattr(characters, "_character", mutant)
    assert graded_rule_mismatches()
