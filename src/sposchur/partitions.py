"""Integer partitions: the index set of every measure in this package.

A partition is stored as a tuple of weakly decreasing positive integers
(trailing zeros implicit).  Alongside the usual combinatorics (conjugate,
Frobenius coordinates, containment) this module provides the deterministic
enumeration used by the brute-force correlation oracle: partitions ordered
by size, and within a size in reverse-lexicographic order of parts.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator


class Partition:
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ("parts", "_conj")

    def __init__(self, parts: Iterable[int] = ()):
        raw = tuple(int(p) for p in parts)
        for i, p in enumerate(raw):
            if p < 0:
                raise ValueError(f"parts must be nonnegative, got {p}")
            if i and raw[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {raw}")
        self.parts = tuple(p for p in raw if p)
        self._conj = None

    @classmethod
    def _trusted(cls, parts: tuple[int, ...], conj: tuple[int, ...] | None = None) -> "Partition":
        """A partition from a tuple of positive ints already known to be weakly
        decreasing, without the checks of the constructor; `conj`, when given,
        must be the parts of its conjugate."""
        lam = object.__new__(cls)
        lam.parts = parts
        lam._conj = conj
        return lam

    # -- basic structure ---------------------------------------------------

    def size(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: lambda'_i = #{j : lambda_j >= i}.

        The parts of the conjugate are computed once per partition and kept,
        and the conjugate returned holds these parts as its own conjugate's,
        so conjugating back computes nothing.
        """
        conj = self._conj
        if conj is None:
            cols = [0] * (self.parts[0] if self.parts else 0)
            for p in self.parts:
                for i in range(p):
                    cols[i] += 1
            conj = self._conj = tuple(cols)
        return Partition._trusted(conj, self.parts)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams, mu subset-of self."""
        return all(self.part(i + 1) >= p for i, p in enumerate(other.parts))

    def frobenius(self) -> list[tuple[int, int]]:
        """Frobenius coordinates [(a_1, b_1), ..., (a_d, b_d)].

        a_i = lambda_i - i and b_i = lambda'_i - i for i up to the Durfee
        square side d, so a_1 > a_2 > ... >= 0 and b_1 > b_2 > ... >= 0.
        """
        conj = self.conjugate()
        coords = []
        for i in range(1, len(self.parts) + 1):
            a = self.part(i) - i
            if a < 0:
                break
            coords.append((a, conj.part(i) - i))
        return coords

    def occupies(self, site: int) -> bool:
        """Whether `site` lies in the point configuration {lambda_i - i : i >= 1}."""
        if site <= -len(self.parts) - 1:
            return True  # packed tail of the Fermi sea
        return any(p - i == site for i, p in enumerate(self.parts, start=1))

    def configuration(self, depth: int) -> list[int]:
        """First `depth` particle positions lambda_i - i, strictly decreasing.

        Below the length the positions are the trivial -i tail of the sea.
        """
        n = len(self.parts)
        sea = range(-n - 1, -depth - 1, -1)
        return [p - i for i, p in enumerate(self.parts[:depth], 1)] + list(sea)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts <= max_part, reverse-lexicographically."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def enumerate_partitions(max_size: int) -> Iterator[Partition]:
    """Every partition of size <= max_size exactly once.

    Deterministic order: by size, then reverse-lexicographic parts.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    for n in range(max_size + 1):
        for parts in partitions_of(n):
            yield Partition._trusted(parts)


def partitions_of_size(n: int) -> Iterator[Partition]:
    """Partitions of exactly n, in the same deterministic order."""
    for parts in partitions_of(n):
        yield Partition._trusted(parts)


@functools.cache
def symplectic_expansion_shapes(max_size: int) -> tuple[Partition, ...]:
    """Partitions of size <= max_size with Frobenius coordinates
    (a_1, a_2, ... | a_1+1, a_2+1, ...), in the order of `enumerate_partitions`.

    These index the signed skew-Schur expansion of the symplectic characters;
    the empty partition is included.  Each shape has even size 2*(sum a_i + d).
    """
    return tuple(
        lam
        for lam in enumerate_partitions(max_size)
        if all(b == a + 1 for a, b in lam.frobenius())
    )


@functools.cache
def orthogonal_expansion_shapes(max_size: int) -> tuple[Partition, ...]:
    """Partitions with Frobenius coordinates (b_1+1, b_2+1, ... | b_1, b_2, ...).

    These are the conjugates of the symplectic shapes, in the same order.
    """
    return tuple(alpha.conjugate() for alpha in symplectic_expansion_shapes(max_size))
