from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sposchur.partitions import (
    Partition,
    enumerate_partitions,
    orthogonal_expansion_shapes,
    partitions_of,
    symplectic_expansion_shapes,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    counts = sorted(Counter(bins).values(), reverse=True)
    return Partition(counts)


def euler_partition_counts(n_max):
    """Oracle: p(n) by the pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    assert Partition([3, 1, 0, 0]).parts == (3, 1)


def test_conjugate_examples():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition().conjugate() == Partition()
    assert Partition([2, 2]).conjugate() == Partition([2, 2])


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size() == lam.size()


def test_frobenius_examples():
    assert Partition([1]).frobenius() == [(0, 0)]
    # direct diagram count: arms (1, 0), legs (1, 0)
    assert Partition([2, 2]).frobenius() == [(1, 1), (0, 0)]
    assert Partition([3, 1, 1]).frobenius() == [(2, 2)]


@given(partition_strategy())
def test_frobenius_roundtrip(lam):
    coords = lam.frobenius()
    arms = [a for a, _ in coords]
    legs = [b for _, b in coords]
    assert all(a >= 0 and b >= 0 for a, b in coords)
    assert arms == sorted(set(arms), reverse=True) and legs == sorted(set(legs), reverse=True)
    # each Durfee-square row i holds its hook: a_i cells right, b_i below, the corner
    assert sum(a + b + 1 for a, b in coords) == lam.size()


def test_enumeration_counts():
    counts = euler_partition_counts(12)
    assert len(list(enumerate_partitions(0))) == 1
    assert len(list(enumerate_partitions(4))) == sum(counts[: 4 + 1]) == 12
    assert len(list(enumerate_partitions(10))) == sum(counts[: 10 + 1]) == 139
    for n in range(13):
        assert len(list(partitions_of(n))) == counts[n]


def test_enumeration_deterministic_order():
    got = [p.parts for p in enumerate_partitions(3)]
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    # exactly once each
    all10 = [p.parts for p in enumerate_partitions(10)]
    assert len(all10) == len(set(all10))


def test_occupies():
    empty = Partition()
    assert empty.occupies(-1) and empty.occupies(-5)
    assert not empty.occupies(0)
    lam = Partition([3, 1])  # configuration {2, -1, -3, -4, ...}
    assert lam.occupies(2) and lam.occupies(-1) and lam.occupies(-3)
    assert not lam.occupies(0) and not lam.occupies(-2) and not lam.occupies(1)


def test_expansion_shapes():
    # Frobenius (a | a+1): (0|1) is the column (1,1), (1|2) is the hook (2,1,1)
    shapes = {s.parts for s in symplectic_expansion_shapes(4)}
    assert shapes == {(), (1, 1), (2, 1, 1)}
    # every shape has Frobenius coords with legs = arms + 1
    for s in symplectic_expansion_shapes(10):
        for a, b in s.frobenius():
            assert b == a + 1
    shapes_o = {s.parts for s in orthogonal_expansion_shapes(4)}
    assert shapes_o == {(), (2,), (3, 1)}
    for s in orthogonal_expansion_shapes(10):
        for a, b in s.frobenius():
            assert a == b + 1


def test_expansion_shapes_complete():
    # independent oracle: a shape (a_1, ..., a_d | a_1+1, ..., a_d+1) has size
    # 2 sum (a_i + 1), so the shapes of size 2n are as many as the partitions
    # of n into distinct parts, q(n); no shape has odd size
    distinct_parts = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]  # q(0..10)
    sp = symplectic_expansion_shapes(20)
    assert Counter(s.size() for s in sp) == {2 * n: q for n, q in enumerate(distinct_parts)}
    assert len(set(sp)) == len(sp)
    assert orthogonal_expansion_shapes(20) == tuple(s.conjugate() for s in sp)


def test_configuration_positions():
    lam = Partition([3, 1])
    assert lam.configuration(5) == [2, -1, -3, -4, -5]
    assert Partition().configuration(3) == [-1, -2, -3]
    # strictly decreasing, and consistent with occupancy
    cfg = Partition([4, 4, 2, 1]).configuration(8)
    assert all(a > b for a, b in zip(cfg, cfg[1:]))
    assert all(Partition([4, 4, 2, 1]).occupies(p) for p in cfg)
