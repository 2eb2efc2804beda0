"""Specializations of the algebra of symmetric functions.

A specialization is determined by the images p_k of the Newton power sums,
k >= 1: either finitely supported power sums (Plancherel is p_1 = theta, the
rest zero) or an alphabet.  An alphabet is its `letters`, the pairs (a, d)
of its linear factors 1 - a u / d, with p_k = sum (a/d)^k: (y, 1) for each y
of a plain alphabet, and (x, 1) and (1, x) for each x of a BC alphabet
x^(+-1), which is the plain alphabet of its letters x, 1/x (and 1, as (1, 1),
when the letter 1 is included).

Values may be exact rationals or floats; the complete homogeneous h_n and
elementary e_n images are derived through Newton's recurrences

    n h_n = sum_{k=1..n} p_k h_{n-k},      n e_n = sum_{k=1..n} (-1)^(k-1) p_k e_{n-k},

which preserve exactness.  `scaled_table` is the one integer form of the
exact images, which the exact characters and the graded Toeplitz+Hankel
coefficients read: den[j] is the lcm of the denominators of h_0..h_j, so
den[j] divides den[j+1], and row j holds h_0..h_j times den[j] (likewise for
e).  A float p_k makes every image from index k on a float, and the rows stop
below it.  Caches and rows are grown under a lock so specializations can be
shared across threads.

`Specialization.memo` holds the characters and Schur factors that
`identities.character_sum_series` has evaluated at this specialization and,
at rho+, the partitions by (length, lambda_1) cell per degree and its sums
by cell per (family, degree, weight_plus, rho-) (see that module for its
keys); it lives and dies with the specialization.
"""

from __future__ import annotations

import json
import math
import threading
from fractions import Fraction
from typing import Callable, Sequence

_ONE = Fraction(1)  # the exact 1 of the letters (a, d): 1 / 1 would be a float


def _coerce(value):
    """ints and strings become Fractions; Fractions and floats pass through."""
    if isinstance(value, (Fraction, float)):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a power-sum value")


def _json_value(value):
    """A float as itself (a JSON number), a Fraction as its string."""
    return value if isinstance(value, float) else str(value)


class Specialization:
    """Algebra homomorphism from symmetric functions, given by its power sums."""

    def __init__(
        self,
        powersum_fn: Callable[[int], object],
        *,
        max_support: int | None = None,
        _meta: dict | None = None,
    ):
        self._pfun = powersum_fn
        self.max_support = max_support  # p_k = 0 for k > max_support, if not None
        self._meta = _meta or {}
        self._lock = threading.RLock()  # _extend calls p under it
        self._p_cache: dict[int, object] = {}
        self._h_cache: list = [Fraction(1)]
        self._e_cache: list = [Fraction(1)]
        # per form, the (rows, den) of `scaled_table`
        self._scaled = {form: ([[1]], [1]) for form in ("h", "e")}
        # per-partition factors and cell sums of the identity sums evaluated
        # at this specialization, filled by `identities.character_sum_series` only
        self.memo: dict[tuple, object] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Specialization":
        return cls.from_powersums({})

    @classmethod
    def from_powersums(cls, powersums: dict):
        table = {int(k): _coerce(v) for k, v in powersums.items() if _coerce(v) != 0}
        if any(k < 1 for k in table):
            raise ValueError("power sums are indexed by k >= 1")
        mx = max(table) if table else 0
        return cls(
            lambda k: table.get(k, Fraction(0)),
            max_support=mx,
            _meta={"kind": "powersums", "table": table},
        )

    @classmethod
    def plancherel(cls, theta):
        """p_1 = theta and p_k = 0 for k >= 2, so h_n = theta^n / n!."""
        return cls.from_powersums({1: theta})

    @classmethod
    def from_alphabet(cls, variables: Sequence):
        """Plain alphabet y_1..y_N: p_k = sum_i y_i^k."""
        ys = [_coerce(v) for v in variables]
        return cls._of_letters([(y, _ONE) for y in ys], {"kind": "alphabet", "y": ys})

    @classmethod
    def from_bc_alphabet(cls, variables: Sequence, include_one: bool = False):
        """BC alphabet (x_1, 1/x_1, ..., x_N, 1/x_N) and optionally the letter 1."""
        xs = [_coerce(v) for v in variables]
        if any(x == 0 for x in xs):
            raise ValueError("BC alphabet variables must be nonzero")
        letters = [pair for x in xs for pair in ((x, _ONE), (_ONE, x))]
        letters += [(_ONE, _ONE)] if include_one else []
        meta = {"kind": "bc_alphabet", "x": xs, "include_one": bool(include_one)}
        return cls._of_letters(letters, meta)

    @classmethod
    def _of_letters(cls, letters: list[tuple], meta: dict) -> "Specialization":
        """The alphabet of the `letters` (a, d): p_k = sum (a/d)^k, formed as
        a^k d^-k, so that a float x^-k is rounded once, not as (1/x)^k."""
        return cls(
            lambda k: sum((a**k * d**-k for a, d in letters), start=Fraction(0)),
            max_support=None if letters else 0,
            _meta={**meta, "letters": tuple(letters)},
        )

    # -- values ------------------------------------------------------------

    def p(self, k: int):
        """Image of the power sum p_k."""
        if k < 1:
            raise ValueError("power sums are indexed by k >= 1")
        if self.max_support is not None and k > self.max_support:
            return Fraction(0)
        with self._lock:
            if k not in self._p_cache:
                self._p_cache[k] = _coerce(self._pfun(k))
            return self._p_cache[k]

    def h(self, n: int):
        """Complete homogeneous image h_n; h_n = 0 for n < 0."""
        if n < 0:
            return Fraction(0)
        self._extend(n)
        return self._h_cache[n]

    def e(self, n: int):
        """Elementary image e_n; e_n = 0 for n < 0."""
        if n < 0:
            return Fraction(0)
        self._extend(n)
        return self._e_cache[n]

    def scaled_table(self, form: str, m: int) -> tuple[list[list[int]], list[int]] | None:
        """(rows, den) for the h images (form "h") or the e images (form "e"),
        for 0 <= j <= m: den[j] is the lcm of the denominators of images
        0..j, so den[j] | den[j+1], and rows[j] holds the images 0..j times
        den[j], as integers.  None when the image at m is a float.

        The pair is published as one tuple, never mutated: growth builds
        longer lists and replaces the tuple under the lock, so a reader holds
        one consistent pair (possibly longer than m + 1; read indices <= m).
        """
        table = self._scaled[form]
        if len(table[1]) > m:
            return table
        image, cache = (self.h, self._h_cache) if form == "h" else (self.e, self._e_cache)
        if isinstance(image(m), float):
            return None
        with self._lock:
            table = self._scaled[form]
            if len(table[1]) <= m:
                rows, den = list(table[0]), list(table[1])
                while len(den) <= m:
                    value = cache[len(den)]
                    d = math.lcm(den[-1], value.denominator)
                    up = d // den[-1]
                    rows.append([a * up for a in rows[-1]] + [value.numerator * (d // value.denominator)])
                    den.append(d)
                self._scaled[form] = table = (rows, den)
        return table

    def _extend(self, n: int) -> None:
        with self._lock:
            h, e = self._h_cache, self._e_cache
            while len(h) <= n:
                m = len(h)
                ps = [self.p(k) for k in range(1, m + 1)]
                h.append(
                    sum((ps[k - 1] * h[m - k] for k in range(1, m + 1)), Fraction(0))
                    / m
                )
                e.append(
                    sum(
                        ((-1) ** (k - 1) * ps[k - 1] * e[m - k] for k in range(1, m + 1)),
                        Fraction(0),
                    )
                    / m
                )

    # -- derived objects ------------------------------------------------------

    @property
    def kind(self) -> str:
        return self._meta.get("kind", "powersums")

    @property
    def letters(self) -> tuple[tuple, ...]:
        """The letters a/d of an alphabet as pairs (a, d), H(rho; u) =
        prod 1 / (1 - a u / d): (y, 1) for each y of a plain alphabet, (x, 1)
        and (1, x) for each x of a BC alphabet, and (1, 1) for its letter 1,
        every 1 an exact Fraction; none for other specializations."""
        return self._meta.get("letters", ())

    def is_exact(self, through_degree: int = 1) -> bool:
        return all(
            isinstance(self.p(k), Fraction) for k in range(1, through_degree + 1)
        )

    def omega(self) -> "Specialization":
        """The involution p_k -> (-1)^(k-1) p_k (h and e swap roles)."""
        return Specialization(
            lambda k: (-1) ** (k - 1) * self.p(k),
            max_support=self.max_support,
            _meta={"kind": "omega", "base": self},
        )

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        """The document `from_json` reads back: Fractions as strings, floats as
        JSON numbers, so each value keeps its type and bits."""
        kind = self.kind
        if kind == "powersums":
            return {"powersums": {str(k): _json_value(v) for k, v in self._meta["table"].items()}}
        if kind == "alphabet":
            return {"y": [_json_value(v) for v in self._meta["y"]]}
        if kind == "bc_alphabet":
            return {
                "x": [_json_value(v) for v in self._meta["x"]],
                "include_one": self._meta["include_one"],
            }
        raise TypeError(f"cannot serialize a specialization of kind {kind!r}")

    @classmethod
    def from_json(cls, doc: dict | str) -> "Specialization":
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError("specialization document must be a JSON object")
        if "powersums" in doc:
            return cls.from_powersums(doc["powersums"])
        if "x" in doc:
            return cls.from_bc_alphabet(doc["x"], bool(doc.get("include_one", False)))
        if "y" in doc:
            return cls.from_alphabet(doc["y"])
        raise ValueError("unrecognized specialization document")

    def __repr__(self) -> str:
        return f"Specialization(kind={self.kind!r})"
