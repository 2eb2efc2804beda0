"""Command-line front-end: reproducible experiments with CSV output.

One executable, subcommand style.  Every report starts with a ``# config:``
line echoing the resolved options as sorted JSON, so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 identity or
tolerance failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import asymptotics, toeplitz_hankel
from .errors import SposchurError
from .identities import (
    cauchy_check,
    expansion_cross_check,
    jacobi_trudi_cross_check,
    omega_duality_check,
)
from .kernels import (
    KernelConfig,
    SymbolF,
    kernel_bessel_with_error,
    kernel_contour_with_error,
    kernel_fourier_with_error,
    reset_numeric_caches,
)
from .measures import MeasureSpec, correlation_bruteforce, plancherel_measure
from .specializations import Specialization
from .toeplitz_hankel import FredholmConfig, Symbol, bo_check, szego_normalized_det

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _parse_int_range(text: str, flag: str) -> list[int]:
    """'2:8' -> [2..8]; '3' -> [3]; '1,4,9' -> [1, 4, 9]; errors name the option --flag."""
    try:
        if "," in text:
            return [int(t) for t in text.split(",")]
        lo, hi = map(int, text.split(":")) if ":" in text else (int(text),) * 2
    except ValueError:
        raise ValueError(
            f"--{flag} {text!r}: expected lo:hi, a comma list, or one integer"
        ) from None
    if lo > hi:
        raise ValueError(f"--{flag} {text!r}: empty range, need lo <= hi")
    return list(range(lo, hi + 1))


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--{flag} {text!r}: expected a comma list of numbers") from None


def _parse_grid(text: str, flag: str) -> list[float]:
    """'-2:2:1' -> [-2, -1, 0, 1, 2]; '2:-2:-1' descends; or a comma list."""
    try:
        if ":" not in text:
            return [float(t) for t in text.split(",")]
        lo, hi, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise ValueError(
            f"--{flag} {text!r}: expected lo:hi:step or a comma list of numbers"
        ) from None
    steps = (hi - lo) / step if step else -1.0
    if not 0 <= steps < math.inf:
        raise ValueError(
            f"--{flag} {text!r}: the step must be nonzero and point from lo to hi"
        )
    return [lo + i * step for i in range(int(round(steps)) + 1)]


def _parse_point_sets(text: str) -> list[list[int]]:
    """'0;0,1;-2,2' -> [[0], [0, 1], [-2, 2]]."""
    try:
        return [[int(t) for t in part.split(",")] for part in text.split(";") if part]
    except ValueError:
        raise ValueError(
            f"--points {text!r}: expected ';'-separated sets of ','-separated integers"
        ) from None


def _read_json(doc: str):
    """A JSON document given inline or as the path of a file holding it."""
    if os.path.exists(doc):
        with open(doc) as fh:
            doc = fh.read()
    return json.loads(doc)


def _load_measure(args) -> MeasureSpec:
    if args.measure:
        return MeasureSpec.from_json(_read_json(args.measure))
    if args.theta is None:
        raise ValueError("either --measure or --theta is required")
    return plancherel_measure(args.family, args.theta)


# the dispatch function, file paths and JSON documents stay out of the echo
_NOT_ECHOED = ("fn", "output", "config", "measure", "symbol")


def _emit(args, header: list[str], rows: list[tuple]) -> None:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _random_rational_pair(rng: random.Random, kmax: int = 3):
    def rho():
        return Specialization.from_powersums(
            {
                k: Fraction(rng.choice([n for n in range(-3, 4) if n]), rng.randint(1, 4))
                for k in range(1, kmax + 1)
            }
        )

    return rho(), rho()


def cmd_verify_identities(args) -> int:
    for flag in ("degree", "trials"):
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be >= 0")
    rng = random.Random(args.seed)
    rows: list[tuple] = []
    ok = True

    def record(name: str, degree: int, passed: bool):
        nonlocal ok
        ok = ok and passed
        rows.append((name, degree, "PASS" if passed else "FAIL"))

    d = args.degree
    for trial in range(args.trials):
        rp, rm = _random_rational_pair(rng)
        for family in ("sp", "o", "sp-dual", "o-dual"):
            record(f"cauchy-{family}-trial{trial}", d, cauchy_check(family, rp, rm, d))
    x = Specialization.from_bc_alphabet([Fraction(1, 2), Fraction(2, 5)])
    y = Specialization.from_alphabet([Fraction(1, 3), Fraction(1, 7)])
    dual_deg = min(d, 6)
    record(
        "dual-cauchy-alphabet-sp", dual_deg,
        cauchy_check("sp-dual", x, y, dual_deg, weight_plus=0),
    )
    record(
        "dual-cauchy-alphabet-o", dual_deg,
        cauchy_check("o-dual", x, y, dual_deg, weight_plus=0),
    )
    rho, _ = _random_rational_pair(rng)
    size_cap = min(d, 6)
    record("jacobi-trudi-h-vs-e", size_cap, jacobi_trudi_cross_check(rho, size_cap))
    record("skew-expansion-forms", size_cap, expansion_cross_check(rho, size_cap))
    record("omega-duality", size_cap, omega_duality_check(rho, size_cap))
    gessel_deg = min(d, 8)
    sym_pl = Symbol.plancherel(Fraction(1, 2))
    sym_rand = Symbol(*_random_rational_pair(rng))
    for label, sym in (("plancherel", sym_pl), ("random", sym_rand)):
        for which in ("D1", "D2", "D3", "D4"):
            for size in (1, 2, 3):
                record(
                    f"gessel-{which}-{label}-n{size}",
                    gessel_deg,
                    toeplitz_hankel.gessel_check(sym, which, size, gessel_deg),
                )
    _emit(args, ["identity", "degree", "status"], rows)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_kernel(args) -> int:
    reps = args.rep.split(",")
    for rep in reps:
        if rep not in ("bessel", "contour", "fourier"):
            raise ValueError(f"unknown representation {rep!r}")
    if len(set(reps)) < len(reps):
        raise ValueError(f"--rep {args.rep!r} names a representation twice")
    try:
        lo, hi = map(int, args.range.split(":"))
    except ValueError:
        raise ValueError(f"--range {args.range!r}: need lo:hi, two integers") from None
    if lo > hi:
        raise ValueError(f"--range {args.range!r}: empty range, need lo <= hi")
    sites = range(lo, hi + 1)
    try:
        r_z, r_w = (float(t) for t in args.radii.split(","))
    except ValueError:
        raise ValueError(f"--radii {args.radii!r}: need r_z,r_w, two numbers") from None
    cfg = KernelConfig(r_z=r_z, r_w=r_w)
    F = SymbolF.plancherel(args.theta)
    rows = []
    for rep in sorted(reps):  # one evaluation over the whole range per route
        if rep == "contour":
            values, errors = kernel_contour_with_error(cfg, F, args.family, sites, sites)
        elif rep == "bessel":
            values, errors = kernel_bessel_with_error(args.theta, args.family, sites, sites)
        else:
            values, errors = kernel_fourier_with_error(F, args.family, sites, sites)
        rows += [
            (args.family, rep, a, b, float(values[i, j]), float(errors[i, j]))
            for i, a in enumerate(sites)
            for j, b in enumerate(sites)
        ]
    _emit(args, ["family", "representation", "a", "b", "value", "est_error"], rows)
    return EXIT_OK


def cmd_correlations(args) -> int:
    spec = _load_measure(args)
    args.family = spec.family  # a --measure document names its own family
    rows = []
    for pts in _parse_point_sets(args.points):
        res = correlation_bruteforce(spec, pts, tol=args.tol)
        rows.append((";".join(str(p) for p in pts), res.cutoff, res.value, res.tail_estimate))
    _emit(args, ["points", "cutoff", "value", "est_tail"], rows)
    return EXIT_OK


def _load_symbol(args) -> Symbol:
    if args.symbol:
        parsed = _read_json(args.symbol)
        return Symbol(
            Specialization.from_json(parsed["rho_plus"]),
            Specialization.from_json(parsed["rho_minus"]),
        )
    if args.theta is None:
        raise ValueError("either --symbol or --theta is required")
    return Symbol.plancherel(args.theta)


def cmd_th_dets(args) -> int:
    sym = _load_symbol(args)
    sizes = _parse_int_range(args.sizes, "sizes")
    rows = []
    for which in args.which.split(","):
        for n in sizes:
            val, target = szego_normalized_det(sym, which, n)
            rows.append((which, n, val, target, val - target, 0.0))
    _emit(args, ["family", "n_or_m", "lhs", "rhs", "gap", "tail_bound"], rows)
    return EXIT_OK


def cmd_bo(args) -> int:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")
    sym = _load_symbol(args)
    ms = _parse_int_range(args.m, "m")
    fred = FredholmConfig(tail_tol=min(1e-10, args.tol / 10))
    rows = []
    for family in args.family.split(","):
        for m in ms:
            res = bo_check(sym, family, m, fred)
            rows.append((family, m, res.lhs, res.rhs, res.gap, res.tail_bound))
    _emit(args, ["family", "n_or_m", "lhs", "rhs", "gap", "tail_bound"], rows)
    worst = max(abs(r[4]) for r in rows) if rows else 0.0
    return EXIT_OK if worst <= args.tol else EXIT_CHECK_FAILED


def cmd_scan(args) -> int:
    thetas = _parse_float_list(args.theta, "theta")
    if args.command == "bulk-scan":
        grid = _parse_grid(args.offsets, "offsets")
        if not all(v.is_integer() for v in grid):
            raise ValueError(f"--offsets {args.offsets!r}: offsets must be integers")
        scan = asymptotics.bulk_scan(args.family, thetas, args.alpha, [int(v) for v in grid])
    else:
        scan = asymptotics.edge_scan(args.family, thetas, _parse_grid(args.grid, "grid"))
    rows = [(r.theta, r.x, r.y, r.discrete, r.limit, r.abs_error) for r in scan]
    _emit(args, ["theta", "x", "y", "discrete", "limit", "abs_error"], rows)
    return EXIT_OK


def cmd_tw(args) -> int:
    """One limit per row: at s_eff with --theta, so abs_error = |discrete - limit|."""
    family = "sp" if args.sign == "+" else "o"
    rows = []
    for s in _parse_grid(args.s, "s"):
        if args.theta is None:
            rows.append((s, "", "", asymptotics.tw_2to1_cdf(args.sign, s), ""))
            continue
        s_eff = asymptotics.edge_cdf_effective_s(family, args.theta, s)
        disc = asymptotics.edge_cdf_discrete(family, args.theta, s)
        lim = asymptotics.tw_2to1_cdf(args.sign, s_eff)
        rows.append((s, s_eff, disc, lim, abs(disc - lim)))
    _emit(args, ["s", "s_eff", "discrete", "limit", "abs_error"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sposchur",
        description="symplectic/orthogonal Schur measures: identities, kernels, determinants, asymptotics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify-identities", help="exact graded identity suites")
    v.add_argument("--degree", type=int, default=8)
    v.add_argument("--trials", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify_identities)

    k = sub.add_parser("kernel-eval", help="kernel values in chosen representations")
    k.add_argument("--family", choices=["sp", "o"], default="sp")
    k.add_argument("--rep", default="contour,bessel")
    k.add_argument("--theta", type=float, required=True)
    k.add_argument("--range", default="-5:5")
    k.add_argument("--radii", default="1.2,0.8")
    k.set_defaults(fn=cmd_kernel)

    c = sub.add_parser("correlations", help="brute-force correlation oracle reports")
    c.add_argument("--family", choices=["sp", "o", "sp-dual", "o-dual"], default="sp")
    c.add_argument("--theta", type=float)
    c.add_argument("--measure", help="measure JSON (inline or file path)")
    c.add_argument("--points", required=True, help="semicolon-separated point sets")
    c.add_argument("--tol", type=float, default=1e-8)
    c.set_defaults(fn=cmd_correlations)

    t = sub.add_parser("th-dets", help="Toeplitz+Hankel determinants vs Szego limits")
    t.add_argument("--which", default="D1,D2,D3,D4")
    t.add_argument("--theta", type=float)
    t.add_argument("--symbol", help="symbol JSON {rho_plus, rho_minus}")
    t.add_argument("--sizes", default="2:12")
    t.set_defaults(fn=cmd_th_dets)

    b = sub.add_parser("bo-check", help="Borodin-Okounkov determinant comparison")
    b.add_argument("--family", default="sp,o")
    b.add_argument("--theta", type=float)
    b.add_argument("--symbol")
    b.add_argument("--m", default="2:8")
    b.add_argument("--tol", type=float, default=1e-8)
    b.set_defaults(fn=cmd_bo)

    bu = sub.add_parser("bulk-scan", help="bulk scan against the discrete sine kernel")
    bu.add_argument("--family", choices=["sp", "o"], default="sp")
    bu.add_argument("--theta", default="50,200,800")
    bu.add_argument("--alpha", type=float, default=0.0)
    bu.add_argument("--offsets", default="-3:3:1")
    bu.set_defaults(fn=cmd_scan)

    e = sub.add_parser("edge-scan", help="edge scan against the Airy 2->1 kernels")
    e.add_argument("--family", choices=["sp", "o"], default="sp")
    e.add_argument("--theta", default="50,200,800")
    e.add_argument("--grid", default="-2:2:1")
    e.set_defaults(fn=cmd_scan)

    tw = sub.add_parser("tw-cdf", help="Tracy-Widom 2->1 distributions")
    tw.add_argument("--sign", choices=["+", "-"], default="+")
    tw.add_argument("--s", default="-6:4:0.5")
    tw.add_argument("--theta", type=float)
    tw.set_defaults(fn=cmd_tw)

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write the report to this path")
        sp.add_argument("--config", help="JSON file of option defaults; flags override")
    p.subcommands = sub.choices  # where main() sets a config file's defaults
    return p


def _apply_config_file(parser, args) -> None:
    """Make the entries of the ``--config`` JSON object the subcommand's defaults.

    Non-string values become their JSON text, so each value goes through its
    option's type like a flag.  The caller parses again, and explicit flags,
    abbreviated ones too, override these defaults.
    """
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    defaults = {}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr in ("config", "output", "command"):
            continue
        if attr == "fn" or not hasattr(args, attr):
            raise ValueError(f"config key {key!r} unknown for this command")
        defaults[attr] = value if isinstance(value, str) else json.dumps(value)
    parser.subcommands[args.command].set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(parser, args)
            args = parser.parse_args(argv)
        reset_numeric_caches()  # each invocation starts from empty caches
        return args.fn(args)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (SposchurError, ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
