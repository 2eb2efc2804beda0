"""Symplectic and orthogonal Schur measures.

Exact symmetric-function engine (partitions, specializations, Jacobi-Trudi
characters, Cauchy identities), determinantal correlation kernels by three
routes, Toeplitz+Hankel determinant identities (Gessel, Szego,
Borodin-Okounkov), and bulk/edge asymptotics (discrete sine, Airy 2->1),
with a CLI front-end (``sposchur``).
"""

from .characters import (
    o_char,
    o_via_expansion,
    schur,
    skew_schur,
    sp_char,
    sp_via_expansion,
)
from .kernels import (
    KernelConfig,
    SymbolF,
    correlation_det,
    kernel_bessel,
    kernel_contour,
    kernel_fourier,
    lattice_kernel,
)
from .measures import (
    MeasureSpec,
    correlation_bruteforce,
    plancherel_measure,
)
from .partitions import Partition, enumerate_partitions
from .series import GradedScalar
from .special import airy_ai, bessel_j
from .specializations import Specialization
from .toeplitz_hankel import FredholmConfig, Symbol, bo_check, gessel_check, szego_limits, th_det
from .asymptotics import (
    airy_2to1,
    bulk_scan,
    edge_scan,
    sine_kernel,
    tw_2to1_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "GradedScalar",
    "Specialization",
    "MeasureSpec",
    "KernelConfig",
    "FredholmConfig",
    "Symbol",
    "SymbolF",
    "airy_2to1",
    "airy_ai",
    "bessel_j",
    "bo_check",
    "bulk_scan",
    "correlation_bruteforce",
    "correlation_det",
    "edge_scan",
    "enumerate_partitions",
    "gessel_check",
    "kernel_bessel",
    "kernel_contour",
    "kernel_fourier",
    "lattice_kernel",
    "o_char",
    "o_via_expansion",
    "plancherel_measure",
    "schur",
    "sine_kernel",
    "skew_schur",
    "sp_char",
    "sp_via_expansion",
    "szego_limits",
    "th_det",
    "tw_2to1_cdf",
    "__version__",
]
