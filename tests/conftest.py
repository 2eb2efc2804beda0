"""Run the tests with one BLAS thread, whatever the environment says.

OpenBLAS splits a determinant's work by thread count, and the split moves
the last bits of some results: the `limit` column of tw-cdf, a 144x144
Nystrom determinant, differs between one and two threads.  Pinning the
thread count makes the goldens the same on every machine.  The variables
are read once, when numpy loads, so this file sets them before any test
module imports numpy and fails if something imported it earlier.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
