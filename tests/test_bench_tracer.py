"""The benchmark tracer rebinds library names; renaming one of them breaks it."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from sposchur import kernels, special

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall():
    originals = (kernels.SymbolF.modes, special.bessel_j_array, np.fft.fft)
    tracer = load_tracer_module().Tracer()
    tracer.install()  # KeyError if a traced name is missing
    try:
        assert kernels.SymbolF.modes is not originals[0]
    finally:
        tracer.uninstall()
    assert (kernels.SymbolF.modes, special.bessel_j_array, np.fft.fft) == originals


def test_benchmark_selftest_passes():
    # every workload at a tiny size, untraced and traced: metric names, item
    # correctness and the traced layer predictions (kernel calls must stay
    # visible to the tracer)
    selftest = TRACER_PATH.parent / "selftest.py"
    proc = subprocess.run(
        [sys.executable, str(selftest)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
