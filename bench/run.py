"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload edge-fredholm --seed 1 --seconds 30 --trace 0

The process pins BLAS threading to one thread before numpy loads and unsets
SPOSCHUR_THREADS, so that small determinants such as the 144x144 Nystrom
matrix of ``tw_2to1_cdf`` never wait on a BLAS thread pool.

The run repeats passes of the workload (see workloads.py) back to back until
the next pass would end after ``--seconds``, but makes at least two passes
and 100 items, so that at least ten item latencies lie beyond the p90.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see tracer.py) with the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics; the lines before it
record the environment, the seed and the sample counts.
"""

from __future__ import annotations

import os
import sys

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("SPOSCHUR_THREADS", None)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

MIN_ITEMS = 100  # the p90 then has at least ten samples beyond it
MIN_PASSES = 2
SETUP_PROBES = 7  # one after each of the first passes, so they sample the whole run
HARD_STOP_S = 150.0  # start no pass after this, whatever the minimums say


@dataclasses.dataclass
class PassResult:
    wall: float
    latencies: list  # seconds, in item order
    functions: list  # called function per item
    failed: list  # keys of failed items
    errors: dict  # key -> exception text
    fingerprints: dict  # key -> exact result form


def run_pass(workload: str, inputs: dict, tracer=None) -> PassResult:
    """One cold-cache pass: every item called, then every item checked."""
    import workloads
    from sposchur import kernels

    clock = time.perf_counter
    t0 = clock()
    kernels.reset_numeric_caches()
    items = workloads.build_pass(workload, inputs)
    results, latencies, errors = {}, [], {}
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item_id = index
        t = clock()
        try:
            results[item.key] = item.invoke()
        except Exception as exc:  # a raising item counts as failed; the run goes on
            results[item.key] = None
            errors[item.key] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
    failed = []
    for item in items:
        if item.key in errors:
            failed.append(item.key)
            continue
        try:
            ok = item.check(results[item.key], results)
        except Exception as exc:  # e.g. a result it compares with is missing
            errors[item.key] = f"check {type(exc).__name__}: {exc}"
            ok = False
        if not ok:
            failed.append(item.key)
    wall = clock() - t0
    return PassResult(
        wall=wall,
        latencies=latencies,
        functions=[it.function for it in items],
        failed=failed,
        errors=errors,
        fingerprints={k: workloads.fingerprint(v) for k, v in results.items()},
    )


def _enough(passes: list, elapsed: float, seconds: float, pass_cost: float, min_items: int) -> bool:
    items = sum(len(p.latencies) for p in passes)
    if elapsed + pass_cost > HARD_STOP_S:
        return True
    return len(passes) >= MIN_PASSES and items >= min_items and elapsed + pass_cost > seconds


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports sposchur and builds the inputs.

    The wait blocks instead of polling: ``subprocess.run(timeout=...)`` polls
    with sleeps of up to 50 ms, which would quantize the measurement.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=os.environ.copy(), stdout=subprocess.DEVNULL)
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"setup probe exited with {code}")
    return elapsed


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "record": "environment",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **{k: os.environ.get(k) for k in PINNED_ENV},
        "SPOSCHUR_THREADS": os.environ.get("SPOSCHUR_THREADS"),
    }


def _quantiles_ms(latencies: list) -> tuple[float, float]:
    q = statistics.quantiles([x * 1e3 for x in latencies], n=10, method="inclusive")
    return q[4], q[8]


def _consistent(passes: list) -> bool:
    """Every pass returned bit-identical results (cold caches, same inputs)."""
    ref = passes[0].fingerprints
    return all(p.fingerprints == ref for p in passes[1:])


def _by_function_ms(passes: list) -> dict:
    groups: dict = {}
    for p in passes:
        for fn, lat in zip(p.functions, p.latencies):
            groups.setdefault(fn, []).append(lat * 1e3)
    return {fn: {"n": len(v), "p50_ms": statistics.median(v)} for fn, v in sorted(groups.items())}


def run_untraced(workload: str, seed: int, inputs: dict, seconds: float, min_items: int):
    passes, setup = [], []
    start = time.perf_counter()
    while not passes or not _enough(
        passes, time.perf_counter() - start, seconds, statistics.median(p.wall for p in passes),
        min_items,
    ):
        passes.append(run_pass(workload, inputs))
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workload, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    lats = [x for p in passes for x in p.latencies]
    p50, p90 = _quantiles_ms(lats)
    walls = [p.wall for p in passes]
    beyond = sum(1 for x in lats if x * 1e3 > p90)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(len(p.latencies) / p.wall for p in passes), "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, metrics, beyond


def run_traced(workload: str, inputs: dict, seconds: float):
    import tracer as tr

    tracer = tr.Tracer()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or not _enough(
        traced, time.perf_counter() - start, seconds,
        statistics.median(p.wall for p in untraced) + statistics.median(p.wall for p in traced),
        0,  # no latency percentiles here, so no minimum item count
    ):
        untraced.append(run_pass(workload, inputs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(workload, inputs, tracer))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.counts_and_self_times())
    problems = []
    if any(c != per_pass[0][0] for c, _ in per_pass[1:]):
        problems.append("layer counts differ between traced passes")
    counts = per_pass[0][0]
    self_times = {
        name: statistics.median(s[name] for _, s in per_pass) for name in per_pass[0][1]
    }
    # each traced pass runs right after an untraced one, so their ratio is
    # little affected by slow drifts in machine speed
    overhead = statistics.median(t.wall / u.wall for t, u in zip(traced, untraced)) - 1.0
    values = tr.layer_metrics(counts, self_times, overhead)
    problems += tr.prediction_failures(workload, values)
    metrics = {name: (values[name], unit) for name, (unit, _) in tr.LAYER_METRICS.items()}
    return untraced + traced, metrics, problems


def measure(workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False, min_items: int = MIN_ITEMS) -> tuple[dict, dict]:
    """(run record, result) of one run; the result is the last line of stdout."""
    import workloads

    inputs = workloads.make_inputs(workload, seed, tiny)
    problems, beyond = [], None
    if trace:
        passes, metrics, problems = run_traced(workload, inputs, seconds)
    else:
        passes, metrics, beyond = run_untraced(workload, seed, inputs, seconds, min_items)
    if not _consistent(passes):  # traced passes included
        problems.append("results differ between passes")

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    errors = {str(k): v for p in passes for k, v in p.errors.items()}
    record = {
        "record": "run",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "items_per_pass": len(passes[0].latencies),
        "item_latency_samples": None if trace else attempted,
        "items_beyond_p90": beyond,
        "fail_ratio": failed / attempted,
        "failed_items": sorted({str(k) for p in passes for k in p.failed})[:20],
        "errors": dict(list(errors.items())[:20]),
        "problems": problems,
        "pass_wall_s": [round(p.wall, 6) for p in passes],
        "latency_by_function": _by_function_ms(passes),
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    try:
        import sposchur
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the sposchur sources under {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(sposchur.__file__).startswith(src + os.sep):
        print(f"error: sposchur imported from {sposchur.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build_pass(args.workload, workloads.make_inputs(args.workload, args.seed))
        return 0

    print(json.dumps(environment()), flush=True)
    record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
