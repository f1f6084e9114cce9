"""Compiled hot-path backend (``SimulationConfig.backend = "native"``).

C implementations of the four behavior-independent simulator phases
(cores, memory, network, ejection), bit-identical to the pure-numpy
reference.  The kernels compile on demand from ``kernels.c``; hosts
without a C compiler keep the default numpy backend.
"""

from repro.native.accel import NativeAccel, NativeUnsupported
from repro.native.build import (
    NativeAbiError,
    NativeBuildError,
    load_library,
    native_available,
)

__all__ = [
    "NativeAbiError",
    "NativeAccel",
    "NativeBuildError",
    "NativeUnsupported",
    "load_library",
    "native_available",
]
