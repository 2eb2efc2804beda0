"""The benchmark's three workloads: seeded inputs, the items of one pass, and
the check applied to every item.

A pass is one closed-loop batch, issued back to back by a single client, and
models one CLI invocation: it starts from cleared numeric caches and freshly
built Specialization / Symbol / SymbolF objects, and the caches then stay
warm until the pass ends.  Users pay that cold fill on every invocation, so
the benchmark pays it on every pass.

An item is one call into a public ``sposchur`` function.  Items name their
module and function and look the function up when called, so a tracer that
rebinds module attributes sees the benchmark's own calls too.  Every item is
checked against the tolerances of the acceptance suite
(``tests/test_acceptance.py``); some checks compare an item with the other
items of its pass, so checks run once the pass has made all its calls.

Inputs are plain data (Fractions, floats, tuples) drawn from the seed; the
library only ever receives the objects built from them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from sposchur import asymptotics, identities, kernels, measures, toeplitz_hankel
from sposchur.specializations import Specialization

WORKLOADS = ("exact-identities", "edge-fredholm", "kernel-crosscheck")

# acceptance-suite tolerances
KERNEL_TOL = 1e-8  # cross-representation agreement
BO_TOL = 1e-8  # |Borodin-Okounkov gap|
BRUTE_SLACK = 5e-10  # brute-force gap <= tail + slack
BRUTE_TAIL_MAX = 1e-6
EDGE_CDF_TOL = 0.02  # discrete edge CDF against the effective-s limit
EDGE_SCAN_TOL = 0.02  # edge-scan error at theta = 800
SZEGO_TOL = 1e-8

KERNEL_SPAN = range(-10, 11)  # kernel grids cover KERNEL_SPAN x KERNEL_SPAN
# Per-entry evaluations: the grid's corners and centre.  Quadrature cost varies
# 64-fold over the grid (128 to 2048 nodes per circle), so a seeded sample of
# cells would make the pass cost depend on the seed.
KERNEL_ENTRIES = tuple(
    itertools.product((KERNEL_SPAN[0], KERNEL_SPAN[-1]), repeat=2)
) + ((0, 0),)


@dataclasses.dataclass
class Item:
    """One library call and the check its result must pass."""

    key: tuple
    module: Any
    function: str
    args: tuple
    kwargs: dict
    check: Callable[[Any, dict], bool]  # (own result, all results of the pass)

    def invoke(self):
        return getattr(self.module, self.function)(*self.args, **self.kwargs)


def _item(key, module, function, *args, check, **kwargs) -> Item:
    return Item(tuple(key), module, function, args, kwargs, check)


def _is_true(value, _results) -> bool:
    return value is True


# ---------------------------------------------------------------------------
# seeded inputs (plain data)
# ---------------------------------------------------------------------------


def _rational_powersums(rng: random.Random, kmax: int = 3) -> dict[int, Fraction]:
    """The CLI's random rational specialization: p_k = n/d, 0 < |n| <= 3, d <= 4."""
    return {
        k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        for k in range(1, kmax + 1)
    }


def _proper_fractions(rng: random.Random, count: int) -> list[Fraction]:
    pool = sorted({Fraction(p, q) for q in range(2, 8) for p in range(1, q)})
    return rng.sample(pool, count)


def _small_symbol(rng: random.Random) -> tuple[dict, dict]:
    """A non-Plancherel power-sum symbol: 0 < p_1 <= 2/3, 0 < |p_2| <= 1/4.

    Larger symbols reach the bo_check window-search defect: with
    p_1(rho-) = 3/2 the o family at m = 2 raises TruncationInsufficient.
    """

    def side():
        return {
            1: Fraction(rng.choice([1, 2]), rng.choice([3, 4, 5])),
            2: Fraction(rng.choice([-1, 1]), rng.choice([4, 5, 6, 8])),
        }

    return side(), side()


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """The workload's inputs for this seed; `tiny` shrinks them for the self-test."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-identities":
        trials = 1 if tiny else 2
        return {
            "degree": 8,
            "trials": [(_rational_powersums(rng), _rational_powersums(rng)) for _ in range(trials)],
            "alphabet_x": _proper_fractions(rng, 2),
            "alphabet_y": _proper_fractions(rng, 2),
            "cross_rho": _rational_powersums(rng),
            "cross_size": 3 if tiny else 6,
            "gessel_symbol": (_rational_powersums(rng), _rational_powersums(rng)),
            "gessel_sizes": (1, 2) if tiny else (1, 2, 3, 4),
        }
    if workload == "edge-fredholm":
        # one s-grid per family: the far-left edge s = -6, where the finite-
        # section window is widest, then one point per stratum, jittered by
        # less than a lattice site so that seeds differ in inputs, not in cost
        strata = (0.0,) if tiny else (-4.0, -2.0, 0.0)
        s_grid = {}
        for family in ("sp", "o"):
            pts = [] if tiny else [-6.0]
            pts += [round(c + rng.uniform(-0.1, 0.1), 6) for c in strata]
            s_grid[family] = pts
        return {"theta": 200.0, "s_grid": s_grid, "scan_thetas": (50.0, 200.0, 800.0)}
    if workload == "kernel-crosscheck":
        thetas = (1.0,) if tiny else (0.5, 1.0, 2.0)
        pairs = list(itertools.combinations(range(-4, 5), 2))
        point_sets = [[a] for a in range(-4, 5)] + [list(p) for p in rng.sample(pairs, 12)]
        return {
            "thetas": thetas,
            "symbol": _small_symbol(rng),
            "bo_thetas": (1.0,) if tiny else (0.5, 1.0),
            "bo_ms": tuple(range(2, 9)),
            "szego_theta": 0.5,
            "szego_sizes": tuple(range(2, 13)),
            "brute_thetas": (Fraction(1, 5),) if tiny else (Fraction(1, 5), Fraction(2, 5)),
            "point_sets": point_sets,
        }
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# exact-identities
# ---------------------------------------------------------------------------


def _exact_items(inp: dict) -> list[Item]:
    d = inp["degree"]
    items = []
    for t, (plus, minus) in enumerate(inp["trials"]):
        rp = Specialization.from_powersums(plus)
        rm = Specialization.from_powersums(minus)
        for family in ("sp", "o", "sp-dual", "o-dual"):
            items.append(
                _item(("cauchy", family, t), identities, "cauchy_check",
                      family, rp, rm, d, check=_is_true)
            )
    x = Specialization.from_bc_alphabet(inp["alphabet_x"])
    y = Specialization.from_alphabet(inp["alphabet_y"])
    dual_deg = min(d, 6)
    for family in ("sp-dual", "o-dual"):
        items.append(
            _item(("dual-cauchy-alphabet", family), identities, "cauchy_check",
                  family, x, y, dual_deg, weight_plus=0, check=_is_true)
        )
    rho = Specialization.from_powersums(inp["cross_rho"])
    for fn in ("jacobi_trudi_cross_check", "expansion_cross_check", "omega_duality_check"):
        items.append(_item((fn,), identities, fn, rho, inp["cross_size"], check=_is_true))
    symbols = {
        "plancherel": toeplitz_hankel.Symbol.plancherel(Fraction(1, 2)),
        "random": toeplitz_hankel.Symbol(
            *(Specialization.from_powersums(p) for p in inp["gessel_symbol"])
        ),
    }
    for label, sym in symbols.items():
        for which in ("D1", "D2", "D3", "D4"):
            for size in inp["gessel_sizes"]:
                items.append(
                    _item(("gessel", label, which, size), toeplitz_hankel, "gessel_check",
                          sym, which, size, d, check=_is_true)
                )
    return items


# ---------------------------------------------------------------------------
# edge-fredholm
# ---------------------------------------------------------------------------


def _edge_pair_ok(family: str, s: float):
    """The discrete edge CDF and the limit at the effective s agree to 0.02."""

    def check(_value, results) -> bool:
        disc = results[("edge_cdf_discrete", family, s)]
        lim = results[("tw_2to1_cdf", family, s)]
        return math.isfinite(disc) and math.isfinite(lim) and abs(disc - lim) < EDGE_CDF_TOL

    return check


def _edge_scan_ok(family: str, thetas: tuple):
    """Acceptance criterion 8: error falls with theta, at a rate in [-0.6, -0.15]."""

    def check(_value, results) -> bool:
        errs = {
            th: max(r.abs_error for r in results[("edge_scan", family, th)]) for th in thetas
        }
        ordered = [errs[th] for th in sorted(thetas)]
        falling = all(a > b for a, b in zip(ordered, ordered[1:]))
        rate = asymptotics.fit_error_exponent(errs)
        return falling and -0.6 <= rate <= -0.15 and errs[max(thetas)] < EDGE_SCAN_TOL

    return check


def _edge_items(inp: dict) -> list[Item]:
    theta = inp["theta"]
    items = []
    for family, sign in (("sp", "+"), ("o", "-")):
        for s in inp["s_grid"][family]:
            pair_ok = _edge_pair_ok(family, s)
            s_eff = asymptotics.edge_cdf_effective_s(family, theta, s)
            items.append(
                _item(("edge_cdf_discrete", family, s), asymptotics, "edge_cdf_discrete",
                      family, theta, s, check=pair_ok)
            )
            items.append(
                _item(("tw_2to1_cdf", family, s), asymptotics, "tw_2to1_cdf",
                      sign, s_eff, check=pair_ok)
            )
        thetas = inp["scan_thetas"]
        scan_ok = _edge_scan_ok(family, thetas)
        for th in thetas:
            items.append(
                _item(("edge_scan", family, th), asymptotics, "edge_scan",
                      family, [th], (-2.0, 0.0, 2.0), check=scan_ok)
            )
    return items


# ---------------------------------------------------------------------------
# kernel-crosscheck
# ---------------------------------------------------------------------------


def _close_to_grid(grid_key: tuple, a: int, b: int):
    def check(value, results) -> bool:
        if isinstance(value, tuple):  # (value, error estimate)
            value = value[0]
        grid = results[grid_key]
        lo = KERNEL_SPAN[0]
        return abs(value - grid[a - lo, b - lo]) <= KERNEL_TOL

    return check


def _grid_ok(value, _results) -> bool:
    n = len(KERNEL_SPAN)
    return value.shape == (n, n) and bool(np.all(np.isfinite(value)))


def _bo_ok(value, _results) -> bool:
    return abs(value.gap) < BO_TOL


def _szego_ok(theta: float, sizes: tuple):
    """Acceptance criterion 5: monotone |error| and within 1e-8 at the largest size."""
    target = math.exp(3 * theta**2 / 2)

    def check(_value, results) -> bool:
        ok = True
        for which in ("D1", "D2", "D3", "D4"):
            pairs = [results[("szego_normalized_det", which, n)] for n in sizes]
            ok = ok and all(abs(t - target) <= 1e-14 * target for _, t in pairs)
            errs = [abs(v - t) for v, t in pairs]
            ok = ok and all(b <= a + 1e-13 for a, b in zip(errs, errs[1:]))
            ok = ok and errs[-1] < SZEGO_TOL
        return ok

    return check


def _brute_ok(bf_key: tuple, index: int, det_key: tuple):
    def check(_value, results) -> bool:
        res = results[bf_key][index]
        det = results[det_key]
        return res.tail_estimate <= BRUTE_TAIL_MAX and abs(det - res.value) <= (
            res.tail_estimate + BRUTE_SLACK
        )

    return check


def _all_of(checks):
    return lambda value, results: all(c(value, results) for c in checks)


def _crosscheck_items(inp: dict) -> list[Item]:
    span = list(KERNEL_SPAN)
    items = []
    plus, minus = (Specialization.from_powersums(p) for p in inp["symbol"])
    kernel_cases = []
    for theta in inp["thetas"]:
        F = kernels.SymbolF.plancherel(theta)
        kernel_cases += [(theta, family, F) for family in ("sp", "o")]
    for family in ("sp", "o"):
        F = kernels.SymbolF.from_measure(measures.MeasureSpec(family, plus, minus))
        kernel_cases.append(("powersum", family, F))
    for label, family, F in kernel_cases:
        cfg = kernels.KernelConfig()
        grid_key = ("kernel_contour_grid", label, family)
        items.append(
            _item(grid_key, kernels, "kernel_contour_grid",
                  cfg, F, family, span, span, check=_grid_ok)
        )
        for a, b in KERNEL_ENTRIES:
            near = _close_to_grid(grid_key, a, b)
            items.append(
                _item(("kernel_contour_with_error", label, family, a, b), kernels,
                      "kernel_contour_with_error", cfg, F, family, a, b, check=near)
            )
            items.append(
                _item(("kernel_fourier", label, family, a, b), kernels,
                      "kernel_fourier", F, family, a, b, check=near)
            )
            if label != "powersum":
                items.append(
                    _item(("kernel_bessel", label, family, a, b), kernels,
                          "kernel_bessel", label, family, a, b, check=near)
                )
    # Borodin-Okounkov: the Bessel route for Plancherel, the Fourier route otherwise
    fred = toeplitz_hankel.FredholmConfig(tail_tol=1e-10)
    bo_symbols = {th: toeplitz_hankel.Symbol.plancherel(th) for th in inp["bo_thetas"]}
    bo_symbols["powersum"] = toeplitz_hankel.Symbol(plus, minus)
    for label, sym in bo_symbols.items():
        for family in ("sp", "o"):
            for m in inp["bo_ms"]:
                items.append(
                    _item(("bo_check", label, family, m), toeplitz_hankel, "bo_check",
                          sym, family, m, fred, check=_bo_ok)
                )
    theta = inp["szego_theta"]
    sym = toeplitz_hankel.Symbol.plancherel(theta)
    szego_ok = _szego_ok(theta, inp["szego_sizes"])
    for which in ("D1", "D2", "D3", "D4"):
        for n in inp["szego_sizes"]:
            items.append(
                _item(("szego_normalized_det", which, n), toeplitz_hankel,
                      "szego_normalized_det", sym, which, n, check=szego_ok)
            )
    sets = inp["point_sets"]
    for theta in inp["brute_thetas"]:
        for family in ("sp", "o"):
            spec = measures.plancherel_measure(family, theta)
            kernel = kernels.lattice_kernel(family, theta=float(theta))
            bf_key = ("correlation_bruteforce_batch", theta, family)
            det_keys = [("correlation_det", theta, family, tuple(p)) for p in sets]
            items.append(
                _item(bf_key, measures, "correlation_bruteforce_batch", spec, sets,
                      tol=1e-7,
                      check=_all_of([_brute_ok(bf_key, i, k) for i, k in enumerate(det_keys)]))
            )
            for i, (pts, key) in enumerate(zip(sets, det_keys)):
                items.append(
                    _item(key, kernels, "correlation_det", kernel, pts,
                          check=_brute_ok(bf_key, i, key))
                )
    return items


_BUILDERS = {
    "exact-identities": _exact_items,
    "edge-fredholm": _edge_items,
    "kernel-crosscheck": _crosscheck_items,
}


def build_pass(workload: str, inputs: dict) -> list[Item]:
    """Fresh library objects and the items of one pass."""
    return _BUILDERS[workload](inputs)


def fingerprint(value):
    """Exact, comparable form of an item result (floats by their bits)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if dataclasses.is_dataclass(value):
        return tuple(fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value
