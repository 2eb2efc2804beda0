"""Per-layer tracing from outside the library.

`Tracer.install()` rebinds the public functions of each ``sposchur`` module
(and ``numpy.linalg.det`` / ``numpy.fft.fft`` beneath them) to wrappers that
record spans and counts; `uninstall()` puts the originals back.  A function
imported by name into another module (``kernels`` imports ``bessel_j_array``,
``asymptotics`` imports ``kernel_bessel``, ...) is rebound in every module
that holds it, so no call path escapes the trace.

A span is (span id, parent span id, item id, name, start, end).  Spans stay
in memory until the pass ends; a layer's self time is its spans' durations
minus the time covered by their child spans.  A call that re-enters a span of
the same name (``kernel_bessel`` -> ``kernel_bessel_with_error``) is folded
into the outer span.  Work done in functions that are not wrapped, such as
``GradedScalar.__add__`` and the Fraction arithmetic inside it, is counted in
the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import collections
import itertools
import sys
import time

import numpy as np

from sposchur import (
    asymptotics,
    characters,
    identities,
    kernels,
    measures,
    partitions,
    series,
    special,
    specializations,
    toeplitz_hankel,
)

# span name -> functions or methods that form it: (owner, attribute name)
SPANS = {
    "kernels.kernel_bessel": [(kernels, "kernel_bessel"), (kernels, "kernel_bessel_with_error")],
    "kernels.kernel_contour": [
        (kernels, "kernel_contour"),
        (kernels, "kernel_contour_with_error"),
        (kernels, "kernel_contour_grid"),
    ],
    "kernels.kernel_fourier": [(kernels, "kernel_fourier"), (kernels, "kernel_fourier_with_error")],
    "kernels.modes": [(kernels.SymbolF, "modes")],
    "special.bessel_j_array": [(special, "bessel_j_array")],
    "special.airy_ai_vec": [(special, "airy_ai_vec")],
    "asymptotics.airy_2to1": [(asymptotics, "airy_2to1")],
    "asymptotics.tw_2to1_cdf": [(asymptotics, "tw_2to1_cdf")],
    "toeplitz_hankel.gap_probability": [(toeplitz_hankel, "gap_probability")],
    "toeplitz_hankel.th_det": [(toeplitz_hankel, "th_det")],
    "toeplitz_hankel.fourier_coeffs": [(toeplitz_hankel.Symbol, "fourier_coeffs")],
    "toeplitz_hankel.th_det_series": [(toeplitz_hankel, "th_det_series")],
    "linalg.det": [(np.linalg, "det")],
    "measures.bruteforce": [
        (measures, "correlation_bruteforce"),
        (measures, "correlation_bruteforce_batch"),
        (measures, "hole_probability_bruteforce"),
    ],
    "series.mul": [(series.GradedScalar, "__mul__")],
    "series.exp": [(series.GradedScalar, "exp")],
    "series.inverse": [(series.GradedScalar, "inverse")],
    "series.log": [(series.GradedScalar, "log")],
    "series.divide": [(series.GradedScalar, "divide_exact")],
    "characters.series_determinant": [(characters, "series_determinant")],
    "characters.character_series": [
        (characters, "character_series"),
        (characters, "sp_char_series"),
        (characters, "o_char_series"),
    ],
    "characters.schur": [(characters, "schur")],
    "identities.character_sum_series": [(identities, "character_sum_series")],
}

KERNEL_SPANS = ("kernels.kernel_bessel", "kernels.kernel_contour", "kernels.kernel_fourier")

# per-layer metric -> (unit, prediction per workload: "+" must be > 0, "0" must be 0).
# Workloads not named carry no prediction.
_BESSEL = {"edge-fredholm": "+", "kernel-crosscheck": "+", "exact-identities": "0"}
_AIRY = {"edge-fredholm": "+", "exact-identities": "0"}
_FREDHOLM = {"edge-fredholm": "+", "kernel-crosscheck": "+"}
_SMALL_THETA = {"kernel-crosscheck": "+", "exact-identities": "0"}
_BRUTE = {"kernel-crosscheck": "+"}
_EXACT = {"exact-identities": "+", "edge-fredholm": "0"}
_EXACT_AND_BRUTE = {"exact-identities": "+", "edge-fredholm": "0", "kernel-crosscheck": "+"}

LAYER_METRICS = {
    "kernels.kernel_bessel.calls": ("count", _BESSEL),
    "kernels.kernel_bessel.self_s": ("s", _BESSEL),
    "special.bessel_j_array.calls": ("count", _BESSEL),
    "special.bessel_j_array.self_s": ("s", _BESSEL),
    "special.bessel_j_array.orders": ("count", _BESSEL),
    "kernels.bessel_cache_miss_ratio": ("ratio", _BESSEL),
    "special.airy_ai_vec.calls": ("count", _AIRY),
    "special.airy_ai_vec.points": ("count", _AIRY),
    "special.airy_ai_vec.self_s": ("s", _AIRY),
    "asymptotics.airy_2to1.calls": ("count", _AIRY),
    "asymptotics.airy_2to1.self_s": ("s", _AIRY),
    "asymptotics.tw_2to1_cdf.calls": ("count", _AIRY),
    "asymptotics.tw_2to1_cdf.self_s": ("s", _AIRY),
    "asymptotics.tw_2to1_cdf.nystrom_nodes": ("count", _AIRY),
    "toeplitz_hankel.gap_probability.calls": ("count", _FREDHOLM),
    "toeplitz_hankel.gap_probability.self_s": ("s", _FREDHOLM),
    "toeplitz_hankel.gap_probability.window_sites": ("count", _FREDHOLM),
    "toeplitz_hankel.gap_probability.kernel_entries": ("count", _FREDHOLM),
    "linalg.det.calls": ("count", _FREDHOLM),
    "linalg.det.self_s": ("s", _FREDHOLM),
    "linalg.det.flops_computed": ("flop", _FREDHOLM),
    "kernels.kernel_contour.calls": ("count", _SMALL_THETA),
    "kernels.kernel_contour.self_s": ("s", _SMALL_THETA),
    "kernels.kernel_contour.nodes": ("count", _SMALL_THETA),
    "kernels.kernel_fourier.calls": ("count", _SMALL_THETA),
    "kernels.kernel_fourier.self_s": ("s", _SMALL_THETA),
    "kernels.modes.calls": ("count", _SMALL_THETA),
    "kernels.modes.fft_points": ("count", _SMALL_THETA),
    "toeplitz_hankel.th_det.calls": ("count", _SMALL_THETA),
    "toeplitz_hankel.th_det.self_s": ("s", _SMALL_THETA),
    "toeplitz_hankel.fourier_coeffs.calls": ("count", _SMALL_THETA),
    "toeplitz_hankel.fourier_coeffs.self_s": ("s", _SMALL_THETA),
    "measures.bruteforce.calls": ("count", _BRUTE),
    "measures.bruteforce.self_s": ("s", _BRUTE),
    "measures.partitions_visited": ("count", _BRUTE),
    "measures.weights_evaluated": ("count", _BRUTE),
    "measures.weight_hit_ratio": ("ratio", _BRUTE),
    "series.mul.calls": ("count", _EXACT),
    "series.exp.calls": ("count", _EXACT),
    # no workload inverts a series at this commit; a change that starts to shows here
    "series.inverse.calls": ("count", {"edge-fredholm": "0"}),
    "series.self_s": ("s", _EXACT),
    "characters.series_determinant.calls": ("count", _EXACT),
    "characters.series_determinant.self_s": ("s", _EXACT),
    "characters.character_series.calls": ("count", _EXACT),
    "characters.character_series.self_s": ("s", _EXACT),
    "characters.schur.calls": ("count", _EXACT_AND_BRUTE),
    "characters.schur.self_s": ("s", _EXACT_AND_BRUTE),
    "identities.character_sum_series.calls": ("count", _EXACT),
    "identities.character_sum_series.self_s": ("s", _EXACT),
    "toeplitz_hankel.th_det_series.calls": ("count", _EXACT),
    "toeplitz_hankel.th_det_series.self_s": ("s", _EXACT),
    "specializations.h.calls": ("count", _EXACT_AND_BRUTE),
    "specializations.e.calls": ("count", _EXACT),
    "partitions.yielded": ("count", _EXACT_AND_BRUTE),
    "trace.overhead_ratio": ("ratio", {}),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "sposchur"]


class Tracer:
    """Spans and counts for one traced pass at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.item_id = 0
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def reset(self) -> None:
        # wrappers hold these containers, so clear them in place
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, on_call=None, on_result=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else (None, None)
            if on_call is not None:
                on_call(parent[1], args)
            sid = next(ids)
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent[0], self.item_id, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn, on_call):
        stack = self._stack

        def wrapper(*args, **kwargs):
            on_call(stack[-1][1] if stack else None, args)
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, fn):
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            in_brute = bool(stack) and stack[-1][1] == "measures.bruteforce"
            for value in fn(*args, **kwargs):
                counts["partitions.yielded"] += 1
                if in_brute:
                    counts["measures.partitions_visited"] += 1
                yield value

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def _rebind(self, owner, attr, make_wrapper) -> None:
        """Replace owner.attr, and every other binding of the same object."""
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        holders = [owner]
        if not isinstance(owner, type):  # a module: other modules may import the name
            holders += [m for m in _modules() if m is not owner]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._patches.append((holder, name, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def kernel_entry(parent, _args):
            if parent == "toeplitz_hankel.gap_probability":
                counts["toeplitz_hankel.gap_probability.kernel_entries"] += 1

        def bessel_orders(_parent, args):
            counts["special.bessel_j_array.orders"] += int(args[0]) + 1

        def airy_points(_parent, args):
            counts["special.airy_ai_vec.points"] += int(np.size(args[0]))

        def window(result):
            counts["toeplitz_hankel.gap_probability.window_sites"] += int(result[2])

        def det_flops(parent, args):
            n = np.shape(args[0])[-1]
            counts["linalg.det.flops_computed"] += 2 * n**3 // 3
            if parent == "asymptotics.tw_2to1_cdf":
                counts["asymptotics.tw_2to1_cdf.nystrom_nodes"] += n

        hooks = {
            "special.bessel_j_array": (bessel_orders, None),
            "special.airy_ai_vec": (airy_points, None),
            "toeplitz_hankel.gap_probability": (None, window),
            "linalg.det": (det_flops, None),
        }
        for name in KERNEL_SPANS:
            hooks[name] = (kernel_entry, None)
        for name, targets in SPANS.items():
            on_call, on_result = hooks.get(name, (None, None))
            for owner, attr in targets:
                self._rebind(
                    owner, attr,
                    lambda fn, n=name, c=on_call, r=on_result: self._span(n, fn, c, r),
                )

        def count(metric, parent_name=None, size_of=None):
            def on_call(parent, args):
                if parent_name is None or parent == parent_name:
                    counts[metric] += 1 if size_of is None else len(args[size_of])

            return lambda fn: self._counter(fn, on_call)

        def contour_nodes(_parent, args):
            counts["kernels.kernel_contour.nodes"] += int(args[3])

        self._rebind(kernels, "_contour_data", lambda fn: self._counter(fn, contour_nodes))
        self._rebind(np.fft, "fft", count("kernels.modes.fft_points", "kernels.modes", 0))
        self._rebind(measures.MeasureSpec, "unnormalized_weight", count("measures.weights_evaluated"))
        self._rebind(specializations.Specialization, "h", count("specializations.h.calls"))
        self._rebind(specializations.Specialization, "e", count("specializations.e.calls"))
        for attr in ("enumerate_partitions", "partitions_of_size"):
            self._rebind(partitions, attr, self._yield_counter)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def counts_and_self_times(self) -> tuple[dict, dict]:
        """Count metrics and self times of the pass just traced."""
        child = collections.defaultdict(float)
        for _sid, pid, _item, _name, t0, t1 in self.spans:
            if pid is not None:
                child[pid] += t1 - t0
        self_s = collections.defaultdict(float)
        calls = collections.Counter()
        for sid, _pid, _item, name, t0, t1 in self.spans:
            self_s[name] += (t1 - t0) - child[sid]
            calls[name] += 1
        out_counts = dict(self.counts)
        for name in SPANS:
            out_counts[f"{name}.calls"] = calls[name]
        out_self = {f"{name}.self_s": self_s[name] for name in SPANS}
        out_self["series.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith("series.")
        )
        return out_counts, out_self


def layer_metrics(counts: dict, self_times: dict, overhead: float) -> dict:
    """Every per-layer metric, by name, from one pass's counts and self times."""
    values = {}
    for name in LAYER_METRICS:
        if name in self_times:
            values[name] = self_times[name]
        else:
            values[name] = counts.get(name, 0)
    kb = counts.get("kernels.kernel_bessel.calls", 0)
    values["kernels.bessel_cache_miss_ratio"] = (
        counts.get("special.bessel_j_array.calls", 0) / kb if kb else 0.0
    )
    visited = counts.get("measures.partitions_visited", 0)
    values["measures.weight_hit_ratio"] = (
        counts.get("measures.weights_evaluated", 0) / visited if visited else 0.0
    )
    values["trace.overhead_ratio"] = overhead
    return values


def prediction_failures(workload: str, values: dict) -> list[str]:
    """Layer metrics that break the zero / non-zero prediction for this workload."""
    bad = []
    for name, (_unit, predicted) in LAYER_METRICS.items():
        want = predicted.get(workload)
        if want == "+" and not values[name] > 0:
            bad.append(f"{name} is 0, predicted > 0")
        elif want == "0" and values[name] != 0:
            bad.append(f"{name} is {values[name]}, predicted 0")
    return bad
